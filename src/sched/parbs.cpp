#include "sched/parbs.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::sched {

ParbsScheduler::ParbsScheduler(std::uint32_t core_count, std::uint32_t batch_cap)
    : batch_cap_(batch_cap), quota_(core_count, 0), batch_size_(core_count, 0) {
  MEMSCHED_ASSERT(core_count > 0, "PAR-BS needs at least one core");
  MEMSCHED_ASSERT(batch_cap > 0, "batch cap must be positive");
}

void ParbsScheduler::prepare(const QueueSnapshot& snap) {
  // Form a new batch once the current one has drained and work is waiting.
  bool drained = true;
  for (const std::uint32_t q : quota_) drained &= (q == 0);
  if (!drained) return;
  bool any = false;
  for (CoreId c = 0; c < snap.core_count; ++c) any |= snap.pending_reads[c] > 0;
  if (!any) return;
  for (CoreId c = 0; c < snap.core_count; ++c) {
    quota_[c] = std::min(batch_cap_, snap.pending_reads[c]);
    batch_size_[c] = quota_[c];
  }
  ++batches_;
}

double ParbsScheduler::core_priority(CoreId core) const {
  // Batched requests strictly above unbatched; within the batch,
  // shortest-job-first by the core's batch size.
  if (quota_[core] > 0) {
    return 1000.0 - static_cast<double>(batch_size_[core]);
  }
  return -static_cast<double>(batch_cap_);  // unbatched: uniform low rank
}

void ParbsScheduler::on_served(const mc::Request& req) {
  if (!req.is_write && quota_[req.core] > 0) --quota_[req.core];
}

void ParbsScheduler::reset() {
  std::fill(quota_.begin(), quota_.end(), 0);
  std::fill(batch_size_.begin(), batch_size_.end(), 0);
  batches_ = 0;
}

template <class Self, class Io>
void ParbsScheduler::fields(Self& self, Io& io) {
  io.count(self.quota_.size(), "PAR-BS core count");
  for (std::size_t i = 0; i < self.quota_.size(); ++i) {
    io(self.quota_[i]);
    io(self.batch_size_[i]);
  }
  io(self.batches_);
}

void ParbsScheduler::save_state(ckpt::Writer& w) const { fields(*this, w); }

void ParbsScheduler::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::sched
