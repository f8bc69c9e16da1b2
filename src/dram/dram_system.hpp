// DramSystem: the complete DDR2 memory-device model.
//
// Owns the timing/organization parameters, the address map and all logic
// channels. The memory controller (src/mc) drives it command by command;
// DramSystem itself has no scheduling policy.
#pragma once

#include <memory>
#include <vector>

#include "dram/address_map.hpp"
#include "dram/channel.hpp"
#include "dram/timing.hpp"

namespace memsched::dram {

class DramSystem {
 public:
  DramSystem(const Timing& timing, const Organization& org, Interleave scheme,
             bool bank_xor = false);

  [[nodiscard]] const Timing& timing() const { return timing_; }
  [[nodiscard]] const Organization& organization() const { return org_; }
  [[nodiscard]] const AddressMap& address_map() const { return map_; }

  [[nodiscard]] std::uint32_t channel_count() const {
    return static_cast<std::uint32_t>(channels_.size());
  }
  [[nodiscard]] Channel& channel(std::uint32_t i) { return channels_[i]; }
  [[nodiscard]] const Channel& channel(std::uint32_t i) const { return channels_[i]; }

  /// Aggregate data-bus utilization over all channels in [0,1], given the
  /// total elapsed ticks.
  [[nodiscard]] double data_bus_utilization(Tick elapsed) const;

  /// Total data bursts transferred (reads + writes), all channels.
  [[nodiscard]] std::uint64_t total_bursts() const;

  /// Attach one observer to every channel's command stream (nullptr
  /// detaches). Channels report with their index as CommandRecord::channel.
  void set_command_observer(CommandObserver* observer);

  // --- checkpoint/restore (all channels and banks) ---
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  Timing timing_;
  Organization org_;
  AddressMap map_;
  std::vector<Channel> channels_;
};

}  // namespace memsched::dram
