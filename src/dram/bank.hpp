// Per-bank DRAM state machine.
//
// A bank tracks its open row plus a set of "earliest legal tick" registers
// that encode the inter-command timing constraints (tRCD, tRAS, tRP, tRC,
// tWR, tRTP). Bus-level constraints (command bus, data bus, tRRD, tFAW,
// tCCD, turnaround) live in Channel, which owns the banks.
#pragma once

#include <algorithm>
#include <cstdint>

#include "dram/timing.hpp"
#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::dram {

class Bank {
 public:
  explicit Bank(const Timing& t) : timing_(&t) {}

  [[nodiscard]] bool row_open() const { return row_open_; }
  [[nodiscard]] std::uint64_t open_row() const { return open_row_; }

  // --- legality checks (bank-local constraints only) ---
  [[nodiscard]] bool can_activate(Tick now) const {
    return !row_open_ && now >= earliest_act_;
  }
  [[nodiscard]] bool can_cas(Tick now) const {  // read or write column access
    return row_open_ && now >= earliest_cas_;
  }
  [[nodiscard]] bool can_precharge(Tick now) const {
    return row_open_ && now >= earliest_pre_;
  }

  /// First tick at which an ACT could legally issue (bank-local view).
  [[nodiscard]] Tick earliest_activate() const { return earliest_act_; }

  // --- next-event queries (fast-forward engine) ---
  // Earliest tick >= now at which the command becomes legal under the
  // bank-local constraints, assuming no intervening command, or kNeverTick
  // when the row state forbids it outright (an ACT needs the row closed, a
  // CAS/PRE needs it open — only another command can change that).
  [[nodiscard]] Tick next_activate_tick(Tick now) const {
    return row_open_ ? kNeverTick : std::max(now, earliest_act_);
  }
  [[nodiscard]] Tick next_cas_tick(Tick now) const {
    return row_open_ ? std::max(now, earliest_cas_) : kNeverTick;
  }
  [[nodiscard]] Tick next_precharge_tick(Tick now) const {
    return row_open_ ? std::max(now, earliest_pre_) : kNeverTick;
  }

  // --- command issue (callers must have checked legality) ---
  void issue_activate(Tick now, std::uint64_t row);
  void issue_precharge(Tick now);

  /// Column read at `now`; if `auto_precharge`, the row closes once tRTP and
  /// tRAS allow and the bank becomes activatable after tRP.
  void issue_read(Tick now, bool auto_precharge);

  /// Column write at `now`; analogous, with tWR write recovery.
  void issue_write(Tick now, bool auto_precharge);

  /// Refresh occupies the bank until now + tRFC (row must be closed).
  void issue_refresh(Tick now);

  // --- statistics ---
  [[nodiscard]] std::uint64_t activate_count() const { return activates_; }
  [[nodiscard]] std::uint64_t precharge_count() const { return precharges_; }

  /// Ticks this bank has spent with a row open (completed ACT->PRE
  /// intervals only; pass `now` to include the current open interval).
  [[nodiscard]] Tick active_ticks(Tick now) const {
    return active_ticks_ + (row_open_ ? now - act_tick_ : 0);
  }

  // --- checkpoint/restore ---
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  const Timing* timing_;
  bool row_open_ = false;
  std::uint64_t open_row_ = 0;
  Tick act_tick_ = 0;        ///< when the current row was activated
  Tick earliest_act_ = 0;
  Tick earliest_cas_ = 0;
  Tick earliest_pre_ = 0;
  std::uint64_t activates_ = 0;
  std::uint64_t precharges_ = 0;
  Tick active_ticks_ = 0;
};

}  // namespace memsched::dram
