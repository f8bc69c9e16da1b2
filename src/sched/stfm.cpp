#include "sched/stfm.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::sched {

StfmScheduler::StfmScheduler(std::vector<double> ipc_single, double epoch_cpu_cycles,
                             double alpha, double ewma_alpha)
    : ipc_single_(std::move(ipc_single)),
      epoch_cpu_cycles_(epoch_cpu_cycles),
      alpha_(alpha),
      ewma_alpha_(ewma_alpha),
      ipc_est_(ipc_single_.size(), 0.0),
      seeded_(ipc_single_.size(), false),
      slowdown_(ipc_single_.size(), 1.0) {
  MEMSCHED_ASSERT(!ipc_single_.empty(), "STFM needs per-core alone-IPC values");
  MEMSCHED_ASSERT(epoch_cpu_cycles > 0.0, "epoch length must be positive");
  MEMSCHED_ASSERT(alpha >= 1.0, "unfairness threshold below 1 is meaningless");
  for (const double v : ipc_single_) {
    MEMSCHED_ASSERT(v > 0.0, "alone-IPC must be positive");
  }
}

void StfmScheduler::on_epoch(CoreId core, double committed_insts, double /*bytes*/) {
  MEMSCHED_ASSERT(core < ipc_est_.size(), "epoch sample for unknown core");
  const double ipc = committed_insts / epoch_cpu_cycles_;
  if (!seeded_[core]) {
    ipc_est_[core] = ipc;
    seeded_[core] = true;
  } else {
    ipc_est_[core] = ewma_alpha_ * ipc + (1.0 - ewma_alpha_) * ipc_est_[core];
  }
  slowdown_[core] = ipc_single_[core] / std::max(ipc_est_[core], 1e-6);
  // A thread can appear "sped up" (slowdown < 1) through slice noise; clamp
  // so the fairness ratio below stays meaningful.
  slowdown_[core] = std::max(slowdown_[core], 1.0);
}

void StfmScheduler::prepare(const QueueSnapshot& /*snap*/) {
  double mx = 0.0, mn = 1e300;
  for (std::size_t i = 0; i < slowdown_.size(); ++i) {
    if (!seeded_[i]) continue;
    mx = std::max(mx, slowdown_[i]);
    mn = std::min(mn, slowdown_[i]);
  }
  intervening_ = mx > 0.0 && mn < 1e300 && (mx / mn) > alpha_;
}

double StfmScheduler::core_priority(CoreId core) const {
  // Balanced system: stay out of the way (everything ties; the engine's
  // hit-first + arrival order decides). Unbalanced: most-slowed first.
  if (!intervening_) return 0.0;
  return slowdown_[core];
}

void StfmScheduler::reset() {
  std::fill(ipc_est_.begin(), ipc_est_.end(), 0.0);
  std::fill(seeded_.begin(), seeded_.end(), false);
  std::fill(slowdown_.begin(), slowdown_.end(), 1.0);
  intervening_ = false;
}

template <class Self, class Io>
void StfmScheduler::fields(Self& self, Io& io) {
  io.count(self.ipc_est_.size(), "STFM core count");
  for (std::size_t i = 0; i < self.ipc_est_.size(); ++i) {
    io(self.ipc_est_[i]);
    io(self.seeded_[i]);
    io(self.slowdown_[i]);
  }
  io(self.intervening_);
}

void StfmScheduler::save_state(ckpt::Writer& w) const { fields(*this, w); }

void StfmScheduler::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::sched
