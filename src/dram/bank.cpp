#include "dram/bank.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::dram {

void Bank::issue_activate(Tick now, std::uint64_t row) {
  MEMSCHED_ASSERTF(can_activate(now),
                   "ACT issued while illegal: row %llu tick %llu (open=%d, "
                   "earliest ACT %llu)",
                   static_cast<unsigned long long>(row),
                   static_cast<unsigned long long>(now), row_open_ ? 1 : 0,
                   static_cast<unsigned long long>(earliest_act_));
  row_open_ = true;
  open_row_ = row;
  act_tick_ = now;
  earliest_cas_ = now + timing_->tRCD;
  earliest_pre_ = std::max(earliest_pre_, now + timing_->tRAS);
  earliest_act_ = now + timing_->tRC();
  ++activates_;
}

void Bank::issue_precharge(Tick now) {
  MEMSCHED_ASSERTF(can_precharge(now),
                   "PRE issued while illegal: tick %llu (open=%d, earliest PRE %llu)",
                   static_cast<unsigned long long>(now), row_open_ ? 1 : 0,
                   static_cast<unsigned long long>(earliest_pre_));
  row_open_ = false;
  active_ticks_ += now - act_tick_;
  earliest_act_ = std::max(earliest_act_, now + timing_->tRP);
  ++precharges_;
}

void Bank::issue_read(Tick now, bool auto_precharge) {
  MEMSCHED_ASSERTF(can_cas(now),
                   "READ issued while illegal: tick %llu (open=%d, earliest CAS %llu)",
                   static_cast<unsigned long long>(now), row_open_ ? 1 : 0,
                   static_cast<unsigned long long>(earliest_cas_));
  // Read-to-precharge: PRE may not issue before now + tRTP.
  earliest_pre_ = std::max(earliest_pre_, now + timing_->tRTP);
  if (auto_precharge) {
    // Internal precharge begins once both tRTP (from this CAS) and tRAS
    // (from the ACT) are satisfied.
    const Tick pre_start = std::max(now + timing_->tRTP, act_tick_ + timing_->tRAS);
    row_open_ = false;
    active_ticks_ += pre_start - act_tick_;
    earliest_act_ = std::max(act_tick_ + timing_->tRC(), pre_start + timing_->tRP);
    ++precharges_;
  }
}

void Bank::issue_write(Tick now, bool auto_precharge) {
  MEMSCHED_ASSERTF(can_cas(now),
                   "WRITE issued while illegal: tick %llu (open=%d, earliest CAS %llu)",
                   static_cast<unsigned long long>(now), row_open_ ? 1 : 0,
                   static_cast<unsigned long long>(earliest_cas_));
  // Write recovery: PRE only after the last data beat + tWR.
  const Tick write_done = now + timing_->tWL + timing_->burst_cycles + timing_->tWR;
  earliest_pre_ = std::max(earliest_pre_, write_done);
  if (auto_precharge) {
    const Tick pre_start = std::max(write_done, act_tick_ + timing_->tRAS);
    row_open_ = false;
    active_ticks_ += pre_start - act_tick_;
    earliest_act_ = std::max(act_tick_ + timing_->tRC(), pre_start + timing_->tRP);
    ++precharges_;
  }
}

template <class Self, class Io>
void Bank::fields(Self& self, Io& io) {
  io(self.row_open_);
  io(self.open_row_);
  io(self.act_tick_);
  io(self.earliest_act_);
  io(self.earliest_cas_);
  io(self.earliest_pre_);
  io(self.activates_);
  io(self.precharges_);
  io(self.active_ticks_);
}

void Bank::save_state(ckpt::Writer& w) const { fields(*this, w); }

void Bank::load_state(ckpt::Reader& r) { fields(*this, r); }

void Bank::issue_refresh(Tick now) {
  MEMSCHED_ASSERT(!row_open_, "REF issued with a row open");
  MEMSCHED_ASSERT(now >= earliest_act_, "REF issued while bank busy");
  earliest_act_ = now + timing_->tRFC;
}

}  // namespace memsched::dram
