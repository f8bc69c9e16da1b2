// Key=value configuration store.
//
// The bench harnesses and examples accept overrides like
//   fig2_smt_speedup insts=500000 cores=4 seed=7
// This parser holds string values with typed, checked accessors. It is not a
// general CLI library — positional flags are out of scope on purpose.
//
// One policy for keys and values: a misspelled key (check_known) and a
// malformed or out-of-range value (the typed getters) both refuse the run.
// Neither falls back to a default, because a default measures a different
// experiment than the one asked for. Front ends turn the refusal into exit
// code 2 (harness::guarded_main) or an error reply (the sweep daemon).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace memsched::util {

class Config {
 public:
  Config() = default;

  /// Parse "key=value" tokens; tokens without '=' raise an error string.
  /// Returns empty optional on success, else a human-readable error.
  std::optional<std::string> parse_args(int argc, const char* const* argv);

  /// Parse a single "key=value" token.
  std::optional<std::string> parse_token(std::string_view token);

  void set(std::string key, std::string value);
  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters: `def` when the key is absent. A present value that does
  /// not parse as the type, or is outside its range, throws
  /// std::invalid_argument naming the key and the value. get_uint reads the
  /// whole uint64 range (decimal, 0x hex or 0 octal) and refuses a sign;
  /// get_u32 reads the same way and refuses a value above 2^32 - 1;
  /// get_bool reads 1/0, true/false, yes/no, on/off.
  [[nodiscard]] std::string get_string(const std::string& key, std::string def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t def) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& key, std::uint64_t def) const;
  [[nodiscard]] std::uint32_t get_u32(const std::string& key, std::uint32_t def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  /// All keys in insertion-independent (sorted) order — for echoing the
  /// effective configuration at the top of bench output.
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Reject unknown keys: every stored key must appear in `known` or start
  /// with one of `prefixes` (for families like "trace0", "fault.drop").
  /// Returns a human-readable error naming the offending key — with a
  /// did-you-mean suggestion when a known key is within edit distance — or
  /// an empty optional when everything checks out. A misspelled key must
  /// fail the run, not silently fall back to the default and measure the
  /// wrong experiment.
  [[nodiscard]] std::optional<std::string> check_known(
      const std::vector<std::string_view>& known,
      const std::vector<std::string_view>& prefixes = {}) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Levenshtein edit distance (insert/delete/substitute, unit costs) — the
/// metric behind the did-you-mean suggestions.
[[nodiscard]] std::size_t edit_distance(std::string_view a, std::string_view b);

/// " (did you mean 'X'?)" for the candidate X nearest to `name` by
/// edit_distance, or "" when none is within max(2, |name| / 3) edits — a
/// suggestion for a wildly different name is worse than none. Ties go to the
/// earliest candidate.
[[nodiscard]] std::string did_you_mean(std::string_view name,
                                       const std::vector<std::string_view>& candidates);

/// Boolean process-environment switch with the same vocabulary as
/// Config::get_bool. Unset or empty yields `def`; any other value that is not
/// a boolean throws std::invalid_argument. Used for harness-wide toggles that
/// must reach every binary without threading CLI flags (e.g.
/// MEMSCHED_VERIFY=1 turns the invariant audit layer on for a whole ctest /
/// bench-smoke run).
[[nodiscard]] bool env_flag(const char* name, bool def);

}  // namespace memsched::util
