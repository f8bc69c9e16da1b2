// Forward-progress watchdog and structured simulation-guard errors.
//
// A cycle-level simulator's worst failure mode is the silent spin: a bug (or
// an injected fault) wedges the memory system, no request ever retires, and
// the run burns wall-clock forever with nothing to show. The watchdog turns
// that into a *diagnosable* error: if a progress counter stops moving for a
// full window while work is pending, the run throws LivelockError carrying
// the controller's queue/scheduler state dump. CycleBudgetError is the
// bounded-cousin: the run consumed its max_ticks budget before reaching its
// instruction target.
//
// Both errors are part of the harness contract — bench binaries map them to
// distinct exit codes so the sweep orchestrator can tell "livelock" from
// "budget too small" from "bad config" without parsing free-form text.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/types.hpp"

namespace memsched::mc {
class MemoryController;
}
namespace memsched::sched {
class Scheduler;
}
namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::sim {

/// The run loops poll their watchdogs on ticks t with (t & kWatchdogPollMask)
/// == 0. Progress counters are monotonic, so sparse polling only delays
/// detection by at most one poll interval; the skip engine never jumps over a
/// poll boundary, so every engine polls at the same ticks with the same state.
inline constexpr Tick kWatchdogPollMask = 1023;

/// No instruction committed and no request retired for a full watchdog
/// window while work was pending. what() includes the state dump.
class LivelockError : public std::runtime_error {
 public:
  LivelockError(const std::string& what, Tick tick, std::string dump);

  [[nodiscard]] Tick tick() const { return tick_; }
  [[nodiscard]] const std::string& state_dump() const { return dump_; }

 private:
  Tick tick_;
  std::string dump_;
};

/// The run consumed its max_ticks cycle budget before finishing.
class CycleBudgetError : public std::runtime_error {
 public:
  CycleBudgetError(const std::string& what, Tick budget);

  [[nodiscard]] Tick budget() const { return budget_; }

 private:
  Tick budget_;
};

/// Tracks one monotonic progress counter. poll() returns true once the
/// counter has not advanced for `window` ticks while work stayed pending;
/// the caller then raise()s with whatever context it has.
class ProgressWatchdog {
 public:
  /// `window` = bus ticks without progress that count as a livelock;
  /// 0 disables the watchdog (poll always returns false).
  explicit ProgressWatchdog(Tick window) : window_(window) {}

  [[nodiscard]] bool enabled() const { return window_ != 0; }
  [[nodiscard]] Tick window() const { return window_; }
  [[nodiscard]] Tick stalled_since() const { return last_move_tick_; }

  bool poll(Tick now, std::uint64_t progress, bool work_pending) {
    if (!enabled()) return false;
    if (!work_pending || progress != last_progress_) {
      last_progress_ = progress;
      last_move_tick_ = now;
      return false;
    }
    return now - last_move_tick_ >= window_;
  }

  /// Throws LivelockError with the controller state dump appended.
  [[noreturn]] void raise(const std::string& context, const mc::MemoryController& mc,
                          const sched::Scheduler& scheduler, Tick now) const;

  // --- checkpoint/restore (progress cursor, so a resumed run's livelock
  // window is measured exactly as the uninterrupted run would) ---
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  Tick window_;
  Tick last_move_tick_ = 0;
  std::uint64_t last_progress_ = ~std::uint64_t{0};  ///< first poll always records
};

}  // namespace memsched::sim
