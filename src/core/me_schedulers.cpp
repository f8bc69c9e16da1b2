#include "core/me_schedulers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::core {

GeneralizedMeLreqScheduler::GeneralizedMeLreqScheduler(MeTable me, double alpha,
                                                       double beta)
    : me_(std::move(me)), alpha_(alpha), beta_(beta) {
  MEMSCHED_ASSERT(alpha >= 0.0 && beta >= 0.0, "exponents must be non-negative");
  me_pow_.reserve(me_.core_count());
  for (CoreId c = 0; c < me_.core_count(); ++c) {
    me_pow_.push_back(std::pow(std::max(me_.me(c), 1e-12), alpha_));
  }
}

std::string GeneralizedMeLreqScheduler::name() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "ME-LREQ-POW(a=%.1f,b=%.1f)", alpha_, beta_);
  return buf;
}

double GeneralizedMeLreqScheduler::core_priority(CoreId core) const {
  const std::uint32_t pending = snap_.pending_reads[core];
  if (pending == 0) return -std::numeric_limits<double>::infinity();
  return me_pow_[core] / std::pow(static_cast<double>(pending), beta_);
}

OnlineMeLreqScheduler::OnlineMeLreqScheduler(std::uint32_t core_count, double alpha,
                                             double cpu_hz)
    : alpha_(alpha), cpu_hz_(cpu_hz), me_est_(core_count, 0.0), seeded_(core_count, false) {
  MEMSCHED_ASSERT(alpha > 0.0 && alpha <= 1.0, "EWMA alpha out of range");
  MEMSCHED_ASSERT(cpu_hz > 0.0, "cpu_hz must be positive");
}

void OnlineMeLreqScheduler::on_epoch(CoreId core, double committed_insts,
                                     double dram_bytes) {
  MEMSCHED_ASSERT(core < me_est_.size(), "epoch sample for unknown core");
  // ME = IPC / GB/s; with both measured over the same epoch the epoch length
  // cancels: ME = insts * 1e9 / (bytes * f_cpu). A zero-traffic epoch means
  // effectively unbounded efficiency; clamp the divisor like Equation 1 does.
  const double bytes = std::max(dram_bytes, 1.0);
  const double sample = committed_insts * 1e9 / (bytes * cpu_hz_);
  if (!seeded_[core]) {
    me_est_[core] = sample;
    seeded_[core] = true;
  } else {
    me_est_[core] = alpha_ * sample + (1.0 - alpha_) * me_est_[core];
  }
}

double OnlineMeLreqScheduler::core_priority(CoreId core) const {
  const std::uint32_t pending = snap_.pending_reads[core];
  if (pending == 0) return -std::numeric_limits<double>::infinity();
  if (!seeded_[core]) return 0.0;  // neutral until the first sample
  return me_est_[core] / static_cast<double>(pending);
}

void OnlineMeLreqScheduler::reset() {
  std::fill(me_est_.begin(), me_est_.end(), 0.0);
  std::fill(seeded_.begin(), seeded_.end(), false);
}

template <class Self, class Io>
void OnlineMeLreqScheduler::fields(Self& self, Io& io) {
  io.count(self.me_est_.size(), "online-ME core count");
  for (std::size_t i = 0; i < self.me_est_.size(); ++i) {
    io(self.me_est_[i]);
    io(self.seeded_[i]);
  }
}

void OnlineMeLreqScheduler::save_state(ckpt::Writer& w) const { fields(*this, w); }

void OnlineMeLreqScheduler::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::core
