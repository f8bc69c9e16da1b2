// Filesystem fault injection for chaos-testing the persistence layer.
//
// The file I/O in util::atomic_file (read_file, write_all,
// atomic_write_file) and the job queue's WAL consult a thread-local hook
// object before touching the filesystem: the hook can shorten a write
// (exercising partial-write loops), fail an operation with a chosen errno
// (ENOSPC, EIO), or flip bits in bytes just read from disk (exercising CRC
// validation and quarantine paths). No hook installed — the default — means
// zero behaviour change; the checks are a null-pointer test on a
// thread-local, so the production cost is negligible.
//
// The hook is deliberately THREAD-LOCAL and RAII-scoped (ScopedFsFaults):
// faults must be confined to the code path under test. A process-global hook
// would poison unrelated writers — the sweep manifest, timing sidecars — and
// turn "the cache degrades gracefully" into "the sweep loses its checkpoint".
// FsFaultInjector is the seeded decision engine that plugs into the seam; it
// needs only util's RNG, so the whole mechanism sits at the bottom of the
// layering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace memsched::util {

/// Hook interface consulted by fault-aware filesystem code. The default
/// implementations are no-ops, so a hook only overrides what it perturbs.
class FsFaultHooks {
 public:
  virtual ~FsFaultHooks() = default;

  /// Upper bound for the byte count of one write(2) call. Returning less
  /// than `requested` forces a short write; implementations must return at
  /// least 1 so retry loops still make progress.
  [[nodiscard]] virtual std::size_t clamp_write(std::size_t requested) {
    return requested;
  }

  /// Errno to fail the named operation with ("open", "write", "fsync",
  /// "close", "rename"), or 0 to let it through.
  [[nodiscard]] virtual int fail_op(const char* op) {
    (void)op;
    return 0;
  }

  /// Mutates `n` bytes just read from disk (bit flips). Called by readers
  /// that validate content (the result cache, the WAL replay), never by
  /// readers that would turn a flipped bit into UB.
  virtual void corrupt_read(void* data, std::size_t n) {
    (void)data;
    (void)n;
  }
};

/// The hooks installed for the current thread, or nullptr (the default).
[[nodiscard]] FsFaultHooks* fs_fault_hooks();

/// Installs `hooks` for the current thread, returning the previous value so
/// callers can restore it. Prefer ScopedFsFaults.
FsFaultHooks* set_fs_fault_hooks(FsFaultHooks* hooks);

/// The errno the current thread's hooks inject for `op`, or 0 (also when no
/// hooks are installed).
[[nodiscard]] int injected_errno(const char* op);

/// RAII installer: hooks active inside the scope, previous hooks restored on
/// exit. Used by the result cache to arm faults around its own I/O only.
class ScopedFsFaults {
 public:
  explicit ScopedFsFaults(FsFaultHooks* hooks) : prev_(set_fs_fault_hooks(hooks)) {}
  ~ScopedFsFaults() { set_fs_fault_hooks(prev_); }
  ScopedFsFaults(const ScopedFsFaults&) = delete;
  ScopedFsFaults& operator=(const ScopedFsFaults&) = delete;

 private:
  FsFaultHooks* prev_;
};

// ---------------------------------------------------------------------------
// Seeded fault source. Decisions are a pure function of (seed, call
// sequence), so a chaos run reproduces exactly, and a disabled injector
// draws nothing.

struct FsFaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  double short_write_prob = 0.0;  ///< clamp one write(2) to a small chunk
  double enospc_prob = 0.0;       ///< fail write/fsync with ENOSPC
  double eio_prob = 0.0;          ///< fail open/read/close/rename with EIO
  double bitflip_prob = 0.0;      ///< flip one bit in a read-back image

  /// Error message for out-of-range knobs, empty when valid.
  [[nodiscard]] std::string validate() const;

  /// Parses a "k=v,k=v" spec (keys: seed, short_write, enospc, eio,
  /// bitflip); nullptr/empty yields a disabled config. Throws
  /// std::invalid_argument on an unknown key or malformed value.
  [[nodiscard]] static FsFaultConfig parse(const char* spec);
};

struct FsFaultStats {
  std::uint64_t short_writes = 0;
  std::uint64_t enospc = 0;
  std::uint64_t eio = 0;
  std::uint64_t bitflips = 0;

  [[nodiscard]] std::uint64_t total() const {
    return short_writes + enospc + eio + bitflips;
  }
};

/// Deterministic filesystem fault source, armed through ScopedFsFaults
/// around one code path only — arming it around the result cache's I/O must
/// not poison the sweep manifest writer.
class FsFaultInjector : public FsFaultHooks {
 public:
  explicit FsFaultInjector(const FsFaultConfig& cfg);

  [[nodiscard]] std::size_t clamp_write(std::size_t requested) override;
  [[nodiscard]] int fail_op(const char* op) override;
  void corrupt_read(void* data, std::size_t n) override;

  [[nodiscard]] const FsFaultConfig& config() const { return cfg_; }
  [[nodiscard]] const FsFaultStats& stats() const { return stats_; }

 private:
  FsFaultConfig cfg_;
  Xoshiro256 rng_;
  FsFaultStats stats_;
};

/// The process's fault source, parsed from the MEMSCHED_FSFAULT environment
/// variable (a FsFaultConfig::parse spec) on first use; nullptr when it is
/// unset or empty. Each tool arms it around its own I/O only: memsched_sweep
/// around the result cache, memsched_served around the job queue.
[[nodiscard]] FsFaultHooks* env_fs_faults();

}  // namespace memsched::util
