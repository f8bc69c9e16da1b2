#include "sched/policies.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::sched {

template <class Self, class Io>
void RoundRobinScheduler::fields(Self& self, Io& io) {
  io(self.last_served_);
}

void RoundRobinScheduler::save_state(ckpt::Writer& w) const { fields(*this, w); }

void RoundRobinScheduler::load_state(ckpt::Reader& r) { fields(*this, r); }

template <class Self, class Io>
void FairQueueScheduler::fields(Self& self, Io& io) {
  // now_ is transient (refreshed by prepare() each round); only the virtual
  // finish times persist.
  io.count(self.vft_.size(), "FQ core count");
  for (auto& v : self.vft_) io(v);
}

void FairQueueScheduler::save_state(ckpt::Writer& w) const { fields(*this, w); }

void FairQueueScheduler::load_state(ckpt::Reader& r) { fields(*this, r); }

FixOrderScheduler::FixOrderScheduler(std::vector<CoreId> order)
    : order_(std::move(order)) {
  MEMSCHED_ASSERT(!order_.empty(), "FIX order must not be empty");
  rank_.assign(order_.size(), 0.0);
  std::vector<bool> seen(order_.size(), false);
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const CoreId c = order_[i];
    MEMSCHED_ASSERT(c < order_.size() && !seen[c], "FIX order must be a permutation");
    seen[c] = true;
    rank_[c] = static_cast<double>(order_.size() - i);  // earlier = higher
  }
  name_ = "FIX-";
  for (const CoreId c : order_) name_ += static_cast<char>('0' + (c % 10));
}

std::string FixOrderScheduler::name() const { return name_; }

SchedulerPtr FixOrderScheduler::descending(std::uint32_t core_count) {
  std::vector<CoreId> order(core_count);
  for (std::uint32_t i = 0; i < core_count; ++i) order[i] = core_count - 1 - i;
  return std::make_unique<FixOrderScheduler>(std::move(order));
}

SchedulerPtr FixOrderScheduler::ascending(std::uint32_t core_count) {
  std::vector<CoreId> order(core_count);
  for (std::uint32_t i = 0; i < core_count; ++i) order[i] = i;
  return std::make_unique<FixOrderScheduler>(std::move(order));
}

}  // namespace memsched::sched
