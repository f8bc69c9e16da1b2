// memsched-lint core: project-specific determinism and contract checks.
//
// Checks (see docs/static-analysis.md for the full rationale):
//   det-unordered-iter   iteration / begin() over unordered containers —
//                        order is hash-seed and libstdc++-version dependent,
//                        which breaks the byte-identical-report contract
//   det-pointer-key      std::map/std::set keyed on a pointer type — ordered
//                        by allocation address, i.e. nondeterministic
//   det-banned-call      rand()/srand()/time()/clock()/gettimeofday()/
//                        clock_gettime()/std::random_device and raw
//                        std::chrono *_clock::now() outside the blessed
//                        wrappers (src/util/rng.*, src/util/wallclock.hpp)
//   ckpt-symmetry        every writer/reader pair — save_state/load_state
//                        of one class, and free encode_<kind>/decode_<kind>
//                        (result-cache entries, WAL records) — must
//                        serialize the same field sequence (put_*/get_*
//                        kinds, section names, nested delegations), and
//                        every member the writer writes must be mentioned
//                        by the reader
//   contract-guarded-main main() in tools/, bench/ and examples/ must route
//                        through harness::guarded_main so uncaught errors
//                        keep the exit-code contract
//   contract-raw-assert  raw assert() in src/ — compiled out under NDEBUG;
//                        invariants use MEMSCHED_ASSERT/MEMSCHED_ASSERTF
//   contract-config-key  in a TU that validates CLI keys via
//                        Config::check_known, every literal key read through
//                        get_*/has must be registered with check_known
//   perf-hot-path        in src/mc/, functions on the controller tick path
//                        (tick / *_tick / tick_*) must not walk node-based
//                        associative containers (std::map/std::set/
//                        unordered_*) or allocate (new, the malloc family,
//                        make_unique/make_shared) — the SoA refactor moved
//                        the hot loop onto flat arrays with an arena/freelist
//                        and this check keeps it there
//
// Suppression: append "// memsched-lint: allow(<check>[, <check>...])" (or
// allow(*)) on the flagged line or the line directly above it. Baselined
// legacy findings live in tools/memsched_lint/baseline.txt.
#pragma once

#include <string>
#include <vector>

#include "lexer.hpp"

namespace memsched::lint {

struct Diagnostic {
  std::string check;
  std::string file;  ///< repo-relative path
  int line = 0;
  int col = 0;
  std::string message;
};

/// Names of every implemented check, sorted.
[[nodiscard]] const std::vector<std::string>& all_checks();

/// Declarations harvested from a file and its include closure that checks
/// need across header/source boundaries.
struct Decls {
  /// Variables/members declared with an unordered_{map,set,multimap,multiset} type.
  std::vector<std::string> unordered_vars;
  /// Variables/members of any node-based associative type (the unordered
  /// family plus std::{map,set,multimap,multiset}) — the perf-hot-path
  /// check's "never walk one of these per tick" set.
  std::vector<std::string> assoc_vars;
  /// `using X = ... steady_clock ...` style aliases of a banned clock.
  std::vector<std::string> clock_aliases;
  /// String literals registered as known config keys (check_known argument
  /// lists and string_view container initializers).
  std::vector<std::string> config_keys;
  /// True if the closure mentions Config::check_known at all.
  bool uses_check_known = false;

  void merge(const Decls& other);
};

/// Harvests cross-file declarations from one token stream.
[[nodiscard]] Decls collect_decls(const std::vector<Token>& toks);

/// Runs every enabled check over one file. `rel_path` is the repo-relative
/// path (used for scoping, e.g. blessed wrapper files); `decls` covers the
/// include closure of the file. Diagnostics already filtered through inline
/// allow() suppressions, sorted by (line, col, check).
[[nodiscard]] std::vector<Diagnostic> run_checks(const std::string& rel_path,
                                                 const std::vector<Token>& toks,
                                                 const Decls& decls,
                                                 const std::vector<std::string>& checks);

/// One baseline entry: an accepted legacy finding.
struct BaselineEntry {
  std::string check;
  std::string file;
  int line = 0;      ///< 0 = any line in `file`
  bool used = false;
};

/// Parses tools/memsched_lint/baseline.txt ("<check> <path>:<line>" or
/// "<check> <path>", '#' comments). Throws std::invalid_argument on a
/// malformed line — a typo'd baseline must not silently accept everything.
[[nodiscard]] std::vector<BaselineEntry> load_baseline(const std::string& text);

/// Removes diagnostics matched by the baseline (marking entries used) and
/// returns the survivors. Call once over the full run so stale entries can
/// be reported afterwards via the `used` flags.
[[nodiscard]] std::vector<Diagnostic> apply_baseline(std::vector<Diagnostic> diags,
                                                     std::vector<BaselineEntry>& baseline);

}  // namespace memsched::lint
