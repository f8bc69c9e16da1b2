#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace memsched::util {

namespace {

[[noreturn]] void refuse(const std::string& key, const std::string& value,
                         const char* expected) {
  throw std::invalid_argument("config: '" + key + "=" + value + "' is not " + expected);
}

std::optional<bool> parse_bool(const std::string& s) {
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  return std::nullopt;
}

}  // namespace

std::optional<std::string> Config::parse_args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    if (auto err = parse_token(argv[i])) return err;
  }
  return std::nullopt;
}

std::optional<std::string> Config::parse_token(std::string_view token) {
  const auto eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return "expected key=value, got '" + std::string(token) + "'";
  }
  set(std::string(token.substr(0, eq)), std::string(token.substr(eq + 1)));
  return std::nullopt;
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool Config::has(const std::string& key) const { return values_.count(key) != 0; }

std::string Config::get_string(const std::string& key, std::string def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::move(def) : it->second;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 0);
  if (end == s || *end != '\0' || errno == ERANGE)
    refuse(key, it->second, "a 64-bit integer");
  return v;
}

std::uint64_t Config::get_uint(const std::string& key, std::uint64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  // strtoull would accept a sign and negate "-4" into a huge count.
  const bool digit = std::isdigit(static_cast<unsigned char>(*s)) != 0;
  const unsigned long long v = digit ? std::strtoull(s, &end, 0) : 0;
  if (!digit || *end != '\0' || errno == ERANGE)
    refuse(key, it->second, "an unsigned 64-bit integer");
  return v;
}

double Config::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE) refuse(key, it->second, "a number");
  return v;
}

bool Config::get_bool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  if (const auto b = parse_bool(it->second)) return *b;
  refuse(key, it->second, "a boolean (1/0, true/false, yes/no, on/off)");
}

bool env_flag(const char* name, bool def) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return def;
  if (const auto b = parse_bool(raw)) return *b;
  throw std::invalid_argument(std::string("environment ") + name + "=" + raw +
                              " is not a boolean (1/0, true/false, yes/no, on/off)");
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // Two-row dynamic program; key names are short, so O(|a|*|b|) is nothing.
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::string did_you_mean(std::string_view name,
                         const std::vector<std::string_view>& candidates) {
  std::string_view best;
  std::size_t best_dist = std::max<std::size_t>(2, name.size() / 3) + 1;
  for (const std::string_view c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best.empty() ? "" : " (did you mean '" + std::string(best) + "'?)";
}

std::optional<std::string> Config::check_known(
    const std::vector<std::string_view>& known,
    const std::vector<std::string_view>& prefixes) const {
  for (const auto& [key, _] : values_) {
    bool ok = false;
    for (const std::string_view k : known) ok = ok || key == k;
    for (const std::string_view p : prefixes)
      ok = ok || (key.size() > p.size() && key.compare(0, p.size(), p) == 0);
    if (ok) continue;
    return "unknown config key '" + key + "'" + did_you_mean(key, known);
  }
  return std::nullopt;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace memsched::util
