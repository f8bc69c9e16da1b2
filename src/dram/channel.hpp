// Logic-channel model: banks plus shared command/data bus arbitration.
//
// A logic channel (two ganged 8-byte physical channels, Table 1) issues at
// most one command per bus cycle, carries one data burst at a time on its
// 16-byte data bus, and enforces the cross-bank constraints: tRRD and tFAW
// between activates, tCCD between column accesses, and tWTR/tRTW bus
// turnaround between reads and writes.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "dram/bank.hpp"
#include "dram/command.hpp"
#include "dram/timing.hpp"
#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::dram {

class Channel {
 public:
  /// `banks_per_rank` = 0 treats the whole channel as one rank (no
  /// rank-switch penalty); otherwise bank i belongs to rank i/banks_per_rank
  /// and consecutive column accesses to different ranks pay tRTRS on the
  /// shared data bus.
  Channel(const Timing& timing, std::uint32_t bank_count,
          std::uint32_t banks_per_rank = 0);

  [[nodiscard]] std::uint32_t bank_count() const {
    return static_cast<std::uint32_t>(banks_.size());
  }
  [[nodiscard]] Bank& bank(std::uint32_t i) { return banks_[i]; }
  [[nodiscard]] const Bank& bank(std::uint32_t i) const { return banks_[i]; }

  /// One command slot per bus cycle.
  [[nodiscard]] bool command_bus_free(Tick now) const { return now > last_cmd_tick_ || !cmd_issued_; }

  /// Earliest tick >= now with a free command-bus slot.
  [[nodiscard]] Tick next_command_bus_tick(Tick now) const {
    return cmd_issued_ ? std::max(now, last_cmd_tick_ + 1) : now;
  }

  // --- combined legality (bank-local + channel-level constraints) ---
  [[nodiscard]] bool can_activate(std::uint32_t bank, Tick now) const;
  [[nodiscard]] bool can_read(std::uint32_t bank, Tick now) const;
  [[nodiscard]] bool can_write(std::uint32_t bank, Tick now) const;
  [[nodiscard]] bool can_precharge(std::uint32_t bank, Tick now) const;
  [[nodiscard]] bool can_refresh(Tick now) const;

  // --- next-event queries (fast-forward engine) ---
  // Exact mirror of the can_* predicates: every constraint is a monotone
  // "now >= threshold" form, so the earliest legal tick is the max of the
  // thresholds. Returns the smallest T >= now with can_*(bank, T) true
  // assuming no intervening command, or kNeverTick when only another
  // command can make it legal (wrong row state).
  // tests/test_engine_equiv.cpp checks these against brute force.
  [[nodiscard]] Tick next_activate_tick(std::uint32_t bank, Tick now) const;
  [[nodiscard]] Tick next_read_tick(std::uint32_t bank, Tick now) const;
  [[nodiscard]] Tick next_write_tick(std::uint32_t bank, Tick now) const;
  [[nodiscard]] Tick next_precharge_tick(std::uint32_t bank, Tick now) const;

  // --- issue; each consumes the command-bus slot at `now` ---
  void issue_activate(std::uint32_t bank, std::uint64_t row, Tick now);
  void issue_precharge(std::uint32_t bank, Tick now);
  /// Returns the tick at which the last data beat arrives (read completion).
  Tick issue_read(std::uint32_t bank, Tick now, bool auto_precharge);
  /// Returns the tick at which the last data beat is written.
  Tick issue_write(std::uint32_t bank, Tick now, bool auto_precharge);
  void issue_refresh(Tick now);

  // --- statistics ---
  [[nodiscard]] std::uint64_t command_count() const { return commands_; }
  [[nodiscard]] std::uint64_t data_busy_cycles() const { return data_busy_cycles_; }
  [[nodiscard]] std::uint64_t bursts() const { return bursts_; }

  /// Attach a command-stream observer (nullptr detaches). `channel_id` is
  /// echoed in every CommandRecord so one observer can shadow all channels.
  void set_observer(CommandObserver* observer, std::uint32_t channel_id) {
    observer_ = observer;
    channel_id_ = channel_id;
  }

  // --- checkpoint/restore (banks included) ---
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  void consume_command_slot(Tick now);

  void notify(CommandType type, std::uint32_t bank, std::uint64_t row, Tick now) {
#if MEMSCHED_VERIF_ENABLED
    if (observer_ != nullptr)
      observer_->on_command(CommandRecord{type, channel_id_, bank, row, now});
#else
    (void)type; (void)bank; (void)row; (void)now;
#endif
  }

  const Timing* timing_;
  std::vector<Bank> banks_;

  bool cmd_issued_ = false;
  Tick last_cmd_tick_ = 0;

  Tick data_busy_until_ = 0;   ///< first free data-bus tick
  Tick read_data_end_ = 0;     ///< end of the most recent read burst
  Tick write_data_end_ = 0;    ///< end of the most recent write burst
  Tick last_cas_tick_ = 0;     ///< for tCCD
  bool any_cas_ = false;
  std::uint32_t banks_per_rank_ = 0;
  std::uint32_t last_cas_rank_ = 0;

  Tick last_act_tick_ = 0;     ///< for tRRD
  bool any_act_ = false;
  std::array<Tick, 4> act_window_{};  ///< ring of last four ACTs, for tFAW
  std::uint32_t act_window_pos_ = 0;
  std::uint32_t act_window_fill_ = 0;

  std::uint64_t commands_ = 0;
  std::uint64_t data_busy_cycles_ = 0;
  std::uint64_t bursts_ = 0;

  CommandObserver* observer_ = nullptr;
  std::uint32_t channel_id_ = 0;
};

}  // namespace memsched::dram
