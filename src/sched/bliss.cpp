#include "sched/bliss.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::sched {

BlissScheduler::BlissScheduler(std::uint32_t core_count, std::uint32_t streak_threshold,
                               Tick clearing_interval)
    : streak_threshold_(streak_threshold),
      clearing_interval_(clearing_interval),
      blacklist_(core_count, 0) {
  MEMSCHED_ASSERT(core_count > 0, "BLISS needs at least one core");
  MEMSCHED_ASSERT(streak_threshold > 0, "BLISS streak threshold must be positive");
  MEMSCHED_ASSERT(clearing_interval > 0, "BLISS clearing interval must be positive");
}

void BlissScheduler::prepare(const QueueSnapshot& snap) {
  // The controller's interval machinery tracks the live consecutive-serve
  // streak; crossing the threshold blacklists the streaking core until the
  // next clearing interval. Idempotent, so the extra prepare() calls of the
  // per-tick (cycle) engine change nothing vs the skip engine.
  if (snap.streak_core != kInvalidCore && snap.streak_len >= streak_threshold_ &&
      blacklist_[snap.streak_core] == 0) {
    blacklist_[snap.streak_core] = 1;
    ++blacklist_events_;
  }
}

double BlissScheduler::core_priority(CoreId core) const {
  return blacklist_[core] != 0 ? 0.0 : 1.0;
}

void BlissScheduler::on_epoch(Tick boundary, const QueueSnapshot& snap) {
  (void)boundary;
  (void)snap;
  std::fill(blacklist_.begin(), blacklist_.end(), 0);
}

void BlissScheduler::reset() {
  std::fill(blacklist_.begin(), blacklist_.end(), 0);
  blacklist_events_ = 0;
}

template <class Self, class Io>
void BlissScheduler::fields(Self& self, Io& io) {
  io.count(self.blacklist_.size(), "BLISS core count");
  for (auto& b : self.blacklist_) io(b);
  io(self.blacklist_events_);
}

void BlissScheduler::save_state(ckpt::Writer& w) const { fields(*this, w); }

void BlissScheduler::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::sched
