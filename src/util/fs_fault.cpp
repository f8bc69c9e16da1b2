#include "util/fs_fault.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "util/assert.hpp"

namespace memsched::util {

namespace {
thread_local FsFaultHooks* g_hooks = nullptr;

bool in_unit(double p) { return p >= 0.0 && p <= 1.0; }
}  // namespace

FsFaultHooks* fs_fault_hooks() { return g_hooks; }

FsFaultHooks* set_fs_fault_hooks(FsFaultHooks* hooks) {
  FsFaultHooks* prev = g_hooks;
  g_hooks = hooks;
  return prev;
}

int injected_errno(const char* op) { return g_hooks != nullptr ? g_hooks->fail_op(op) : 0; }

std::string FsFaultConfig::validate() const {
  if (!in_unit(short_write_prob) || !in_unit(enospc_prob) || !in_unit(eio_prob) ||
      !in_unit(bitflip_prob)) {
    return "fs fault probabilities must be within [0, 1]";
  }
  return {};
}

FsFaultConfig FsFaultConfig::parse(const char* spec) {
  FsFaultConfig f;
  if (spec == nullptr || *spec == '\0') return f;
  f.enabled = true;
  const std::string s = spec;
  std::size_t begin = 0;
  while (begin < s.size()) {
    std::size_t end = s.find(',', begin);
    if (end == std::string::npos) end = s.size();
    const std::string item = s.substr(begin, end - begin);
    begin = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("fs fault spec item '" + item + "' is not k=v");
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    char* endp = nullptr;
    if (key == "seed") {
      f.seed = std::strtoull(val.c_str(), &endp, 10);
    } else {
      const double p = std::strtod(val.c_str(), &endp);
      if (key == "short_write") f.short_write_prob = p;
      else if (key == "enospc") f.enospc_prob = p;
      else if (key == "eio") f.eio_prob = p;
      else if (key == "bitflip") f.bitflip_prob = p;
      else throw std::invalid_argument("unknown fs fault key '" + key + "'");
    }
    if (endp == val.c_str() || *endp != '\0') {
      throw std::invalid_argument("malformed fs fault value '" + item + "'");
    }
  }
  if (const std::string err = f.validate(); !err.empty()) {
    throw std::invalid_argument("fs fault spec: " + err);
  }
  return f;
}

FsFaultInjector::FsFaultInjector(const FsFaultConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed ^ 0xf5fa017c4a54eULL) {
  MEMSCHED_ASSERT(cfg.validate().empty(), "invalid FsFaultConfig");
}

std::size_t FsFaultInjector::clamp_write(std::size_t requested) {
  if (!cfg_.enabled || cfg_.short_write_prob <= 0.0 || requested <= 1) return requested;
  if (!rng_.chance(cfg_.short_write_prob)) return requested;
  ++stats_.short_writes;
  // At least 1 byte so the caller's retry loop always makes progress.
  return 1 + static_cast<std::size_t>(rng_.below(static_cast<std::uint32_t>(
                 requested > 64 ? 64 : requested - 1)));
}

int FsFaultInjector::fail_op(const char* op) {
  if (!cfg_.enabled) return 0;
  const bool durability = std::strcmp(op, "write") == 0 || std::strcmp(op, "fsync") == 0;
  if (durability && cfg_.enospc_prob > 0.0 && rng_.chance(cfg_.enospc_prob)) {
    ++stats_.enospc;
    return ENOSPC;
  }
  if (!durability && cfg_.eio_prob > 0.0 && rng_.chance(cfg_.eio_prob)) {
    ++stats_.eio;
    return EIO;
  }
  return 0;
}

void FsFaultInjector::corrupt_read(void* data, std::size_t n) {
  if (!cfg_.enabled || cfg_.bitflip_prob <= 0.0 || n == 0) return;
  if (!rng_.chance(cfg_.bitflip_prob)) return;
  auto* bytes = static_cast<std::uint8_t*>(data);
  const std::uint64_t bit = rng_.next() % (n * 8);
  bytes[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
  ++stats_.bitflips;
}

FsFaultHooks* env_fs_faults() {
  static const std::unique_ptr<FsFaultInjector> injector = [] {
    const char* spec = std::getenv("MEMSCHED_FSFAULT");
    if (spec == nullptr || *spec == '\0') return std::unique_ptr<FsFaultInjector>{};
    return std::make_unique<FsFaultInjector>(FsFaultConfig::parse(spec));
  }();
  return injector.get();
}

}  // namespace memsched::util
