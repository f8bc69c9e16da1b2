#include "mc/fault_injector.hpp"

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::mc {

namespace {

bool in_unit(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

std::string FaultConfig::validate() const {
  if (!in_unit(drop_read_prob) || !in_unit(drop_write_prob) || !in_unit(dup_prob) ||
      !in_unit(delay_prob) || !in_unit(stall_prob)) {
    return "fault probabilities must be within [0, 1]";
  }
  if (delay_prob > 0.0 && delay_ticks_max == 0)
    return "fault delay_ticks_max must be nonzero when delay_prob > 0";
  if (stall_prob > 0.0 && stall_ticks == 0)
    return "fault stall_ticks must be nonzero when stall_prob > 0";
  return {};
}

FaultInjector::FaultInjector(const FaultConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed ^ 0xfa017ed5eedULL) {
  MEMSCHED_ASSERT(cfg.validate().empty(), "invalid FaultConfig");
}

FaultInjector::EnqueueFault FaultInjector::on_enqueue(bool is_write) {
  EnqueueFault f;
  if (!cfg_.enabled) return f;
  const double drop_p = is_write ? cfg_.drop_write_prob : cfg_.drop_read_prob;
  if (drop_p > 0.0 && rng_.chance(drop_p)) {
    f.drop = true;
    ++(is_write ? stats_.dropped_writes : stats_.dropped_reads);
    return f;  // a dropped request cannot also be duplicated or delayed
  }
  if (cfg_.dup_prob > 0.0 && rng_.chance(cfg_.dup_prob)) {
    f.duplicate = true;
    ++stats_.duplicated;
  }
  if (cfg_.delay_prob > 0.0 && rng_.chance(cfg_.delay_prob)) {
    f.delay_ticks = 1 + rng_.below(cfg_.delay_ticks_max);
    ++stats_.delayed;
  }
  return f;
}

bool FaultInjector::stall_command(std::uint32_t channel, Tick now) {
  if (!cfg_.enabled || cfg_.stall_prob <= 0.0) return false;
  if (channel >= stall_until_.size()) stall_until_.resize(channel + 1, 0);
  if (now < stall_until_[channel]) return true;
  if (rng_.chance(cfg_.stall_prob)) {
    stall_until_[channel] = now + cfg_.stall_ticks;
    ++stats_.stalls;
    return true;
  }
  return false;
}

template <class Self, class Io>
void FaultInjector::fields(Self& self, Io& io) {
  io(self.rng_);
  io(self.stats_.dropped_reads);
  io(self.stats_.dropped_writes);
  io(self.stats_.duplicated);
  io(self.stats_.delayed);
  io(self.stats_.stalls);
  // Grown on demand, so its length is state, not configuration.
  io(self.stall_until_);
}

void FaultInjector::save_state(ckpt::Writer& w) const { fields(*this, w); }

void FaultInjector::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::mc
