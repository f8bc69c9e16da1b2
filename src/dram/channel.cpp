#include "dram/channel.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::dram {

Channel::Channel(const Timing& timing, std::uint32_t bank_count,
                 std::uint32_t banks_per_rank)
    : timing_(&timing), banks_per_rank_(banks_per_rank) {
  MEMSCHED_ASSERT(bank_count > 0, "channel needs at least one bank");
  MEMSCHED_ASSERT(banks_per_rank == 0 || bank_count % banks_per_rank == 0,
                  "banks must divide evenly into ranks");
  banks_.reserve(bank_count);
  for (std::uint32_t i = 0; i < bank_count; ++i) banks_.emplace_back(timing);
}

void Channel::consume_command_slot(Tick now) {
  MEMSCHED_ASSERTF(command_bus_free(now), "command bus conflict: ch%u tick %llu",
                   channel_id_, static_cast<unsigned long long>(now));
  cmd_issued_ = true;
  last_cmd_tick_ = now;
  ++commands_;
}

bool Channel::can_activate(std::uint32_t bank, Tick now) const {
  if (!command_bus_free(now)) return false;
  if (!banks_[bank].can_activate(now)) return false;
  if (any_act_ && now < last_act_tick_ + timing_->tRRD) return false;
  // tFAW: at most four activates in any tFAW window -> the fifth ACT must
  // wait until the oldest of the last four ages out.
  if (act_window_fill_ >= 4 && now < act_window_[act_window_pos_] + timing_->tFAW)
    return false;
  return true;
}

bool Channel::can_read(std::uint32_t bank, Tick now) const {
  if (!command_bus_free(now)) return false;
  if (!banks_[bank].can_cas(now)) return false;
  if (any_cas_ && now < last_cas_tick_ + timing_->tCCD) return false;
  // Rank-to-rank switch: the new burst must trail the previous one by tRTRS
  // when it comes from a different rank sharing the data bus.
  if (any_cas_ && banks_per_rank_ != 0 &&
      bank / banks_per_rank_ != last_cas_rank_ &&
      now + timing_->tCL < data_busy_until_ + timing_->tRTRS)
    return false;
  // Write-to-read turnaround: read CAS waits tWTR after the last write beat.
  if (now < write_data_end_ + timing_->tWTR && write_data_end_ != 0) return false;
  // Data bus must be free for the whole burst.
  if (now + timing_->tCL < data_busy_until_) return false;
  return true;
}

bool Channel::can_write(std::uint32_t bank, Tick now) const {
  if (!command_bus_free(now)) return false;
  if (!banks_[bank].can_cas(now)) return false;
  if (any_cas_ && now < last_cas_tick_ + timing_->tCCD) return false;
  if (any_cas_ && banks_per_rank_ != 0 &&
      bank / banks_per_rank_ != last_cas_rank_ &&
      now + timing_->tWL < data_busy_until_ + timing_->tRTRS)
    return false;
  // Read-to-write turnaround on the data bus.
  if (read_data_end_ != 0 && now + timing_->tWL < read_data_end_ + timing_->tRTW)
    return false;
  if (now + timing_->tWL < data_busy_until_) return false;
  return true;
}

bool Channel::can_precharge(std::uint32_t bank, Tick now) const {
  return command_bus_free(now) && banks_[bank].can_precharge(now);
}

bool Channel::can_refresh(Tick now) const {
  if (!command_bus_free(now)) return false;
  for (const Bank& b : banks_) {
    if (b.row_open() || now < b.earliest_activate()) return false;
  }
  return true;
}

namespace {
/// Earliest tick satisfying `now + lead >= end` without unsigned underflow.
constexpr Tick after_lead(Tick end, Tick lead) { return end > lead ? end - lead : 0; }
}  // namespace

Tick Channel::next_activate_tick(std::uint32_t bank, Tick now) const {
  const Bank& b = banks_[bank];
  Tick t = b.next_activate_tick(now);
  if (t == kNeverTick) return kNeverTick;
  t = std::max(t, next_command_bus_tick(now));
  if (any_act_) t = std::max(t, last_act_tick_ + timing_->tRRD);
  if (act_window_fill_ >= 4) t = std::max(t, act_window_[act_window_pos_] + timing_->tFAW);
  return t;
}

Tick Channel::next_read_tick(std::uint32_t bank, Tick now) const {
  const Bank& b = banks_[bank];
  Tick t = b.next_cas_tick(now);
  if (t == kNeverTick) return kNeverTick;
  t = std::max(t, next_command_bus_tick(now));
  if (any_cas_) t = std::max(t, last_cas_tick_ + timing_->tCCD);
  if (any_cas_ && banks_per_rank_ != 0 && bank / banks_per_rank_ != last_cas_rank_)
    t = std::max(t, after_lead(data_busy_until_ + timing_->tRTRS, timing_->tCL));
  if (write_data_end_ != 0) t = std::max(t, write_data_end_ + timing_->tWTR);
  t = std::max(t, after_lead(data_busy_until_, timing_->tCL));
  return t;
}

Tick Channel::next_write_tick(std::uint32_t bank, Tick now) const {
  const Bank& b = banks_[bank];
  Tick t = b.next_cas_tick(now);
  if (t == kNeverTick) return kNeverTick;
  t = std::max(t, next_command_bus_tick(now));
  if (any_cas_) t = std::max(t, last_cas_tick_ + timing_->tCCD);
  if (any_cas_ && banks_per_rank_ != 0 && bank / banks_per_rank_ != last_cas_rank_)
    t = std::max(t, after_lead(data_busy_until_ + timing_->tRTRS, timing_->tWL));
  if (read_data_end_ != 0)
    t = std::max(t, after_lead(read_data_end_ + timing_->tRTW, timing_->tWL));
  t = std::max(t, after_lead(data_busy_until_, timing_->tWL));
  return t;
}

Tick Channel::next_precharge_tick(std::uint32_t bank, Tick now) const {
  const Tick t = banks_[bank].next_precharge_tick(now);
  if (t == kNeverTick) return kNeverTick;
  return std::max(t, next_command_bus_tick(now));
}

void Channel::issue_activate(std::uint32_t bank, std::uint64_t row, Tick now) {
  MEMSCHED_ASSERTF(can_activate(bank, now),
                   "illegal ACT: ch%u bank %u row %llu tick %llu", channel_id_,
                   bank, static_cast<unsigned long long>(row),
                   static_cast<unsigned long long>(now));
  consume_command_slot(now);
  notify(CommandType::kActivate, bank, row, now);
  banks_[bank].issue_activate(now, row);
  last_act_tick_ = now;
  any_act_ = true;
  act_window_[act_window_pos_] = now;
  act_window_pos_ = (act_window_pos_ + 1) % 4;
  if (act_window_fill_ < 4) ++act_window_fill_;
}

void Channel::issue_precharge(std::uint32_t bank, Tick now) {
  MEMSCHED_ASSERTF(can_precharge(bank, now), "illegal PRE: ch%u bank %u tick %llu",
                   channel_id_, bank, static_cast<unsigned long long>(now));
  consume_command_slot(now);
  notify(CommandType::kPrecharge, bank, 0, now);
  banks_[bank].issue_precharge(now);
}

Tick Channel::issue_read(std::uint32_t bank, Tick now, bool auto_precharge) {
  MEMSCHED_ASSERTF(can_read(bank, now), "illegal READ: ch%u bank %u tick %llu",
                   channel_id_, bank, static_cast<unsigned long long>(now));
  consume_command_slot(now);
  notify(auto_precharge ? CommandType::kReadAp : CommandType::kRead, bank, 0, now);
  banks_[bank].issue_read(now, auto_precharge);
  last_cas_tick_ = now;
  any_cas_ = true;
  if (banks_per_rank_ != 0) last_cas_rank_ = bank / banks_per_rank_;
  const Tick data_start = now + timing_->tCL;
  const Tick data_end = data_start + timing_->burst_cycles;
  data_busy_until_ = data_end;
  read_data_end_ = data_end;
  data_busy_cycles_ += timing_->burst_cycles;
  ++bursts_;
  return data_end;
}

Tick Channel::issue_write(std::uint32_t bank, Tick now, bool auto_precharge) {
  MEMSCHED_ASSERTF(can_write(bank, now), "illegal WRITE: ch%u bank %u tick %llu",
                   channel_id_, bank, static_cast<unsigned long long>(now));
  consume_command_slot(now);
  notify(auto_precharge ? CommandType::kWriteAp : CommandType::kWrite, bank, 0, now);
  banks_[bank].issue_write(now, auto_precharge);
  last_cas_tick_ = now;
  any_cas_ = true;
  if (banks_per_rank_ != 0) last_cas_rank_ = bank / banks_per_rank_;
  const Tick data_start = now + timing_->tWL;
  const Tick data_end = data_start + timing_->burst_cycles;
  data_busy_until_ = data_end;
  write_data_end_ = data_end;
  data_busy_cycles_ += timing_->burst_cycles;
  ++bursts_;
  return data_end;
}

void Channel::issue_refresh(Tick now) {
  MEMSCHED_ASSERTF(can_refresh(now), "illegal REF: ch%u tick %llu", channel_id_,
                   static_cast<unsigned long long>(now));
  consume_command_slot(now);
  notify(CommandType::kRefresh, 0, 0, now);
  for (Bank& b : banks_) b.issue_refresh(now);
}

template <class Self, class Io>
void Channel::fields(Self& self, Io& io) {
  for (auto& b : self.banks_) io.nested(b);
  io(self.cmd_issued_);
  io(self.last_cmd_tick_);
  io(self.data_busy_until_);
  io(self.read_data_end_);
  io(self.write_data_end_);
  io(self.last_cas_tick_);
  io(self.any_cas_);
  io(self.last_cas_rank_);
  io(self.last_act_tick_);
  io(self.any_act_);
  for (auto& t : self.act_window_) io(t);
  io(self.act_window_pos_);
  io(self.act_window_fill_);
  io(self.commands_);
  io(self.data_busy_cycles_);
  io(self.bursts_);
}

void Channel::save_state(ckpt::Writer& w) const { fields(*this, w); }

void Channel::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::dram
