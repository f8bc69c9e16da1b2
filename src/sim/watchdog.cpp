#include "sim/watchdog.hpp"

#include "ckpt/snapshot.hpp"
#include "mc/controller.hpp"
#include "sched/scheduler.hpp"

namespace memsched::sim {

LivelockError::LivelockError(const std::string& what, Tick tick, std::string dump)
    : std::runtime_error(what + "\n" + dump), tick_(tick), dump_(std::move(dump)) {}

CycleBudgetError::CycleBudgetError(const std::string& what, Tick budget)
    : std::runtime_error(what), budget_(budget) {}

void ProgressWatchdog::raise(const std::string& context, const mc::MemoryController& mc,
                             const sched::Scheduler& scheduler, Tick now) const {
  const std::string what =
      "livelock: " + context + " made no forward progress for " +
      std::to_string(window_) + " bus ticks (stalled since tick " +
      std::to_string(last_move_tick_) + ", scheduler " + scheduler.name() + ")";
  throw LivelockError(what, now, mc.dump_state(now));
}

template <class Self, class Io>
void ProgressWatchdog::fields(Self& self, Io& io) {
  io(self.last_move_tick_);
  io(self.last_progress_);
}

void ProgressWatchdog::save_state(ckpt::Writer& w) const { fields(*this, w); }

void ProgressWatchdog::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::sim
