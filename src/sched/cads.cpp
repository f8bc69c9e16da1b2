#include "sched/cads.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::sched {

CadsScheduler::CadsScheduler(std::uint32_t core_count, Tick interval_ticks,
                             double alpha)
    : interval_(interval_ticks), alpha_(alpha), score_(core_count, 0.0) {
  MEMSCHED_ASSERT(core_count > 0, "CADS needs at least one core");
  MEMSCHED_ASSERT(interval_ticks > 0, "CADS interval must be positive");
  MEMSCHED_ASSERT(alpha > 0.0 && alpha <= 1.0, "CADS alpha must be in (0, 1]");
}

void CadsScheduler::on_epoch(Tick boundary, const QueueSnapshot& snap) {
  (void)boundary;
  for (CoreId c = 0; c < snap.core_count; ++c) {
    score_[c] = (1.0 - alpha_) * score_[c] +
                alpha_ * static_cast<double>(snap.interval_served[c]);
  }
}

void CadsScheduler::reset() { std::fill(score_.begin(), score_.end(), 0.0); }

template <class Self, class Io>
void CadsScheduler::fields(Self& self, Io& io) {
  io.count(self.score_.size(), "CADS core count");
  for (auto& s : self.score_) io(s);
}

void CadsScheduler::save_state(ckpt::Writer& w) const { fields(*this, w); }

void CadsScheduler::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::sched
