#include "dram/dram_system.hpp"

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::dram {

DramSystem::DramSystem(const Timing& timing, const Organization& org, Interleave scheme,
                       bool bank_xor)
    : timing_(timing), org_(org), map_(org, scheme, bank_xor) {
  MEMSCHED_ASSERT(timing.validate().empty(), "invalid DRAM timing");
  channels_.reserve(org.channels);
  for (std::uint32_t c = 0; c < org.channels; ++c) {
    // Each DIMM is one rank on the shared data bus (Table 1: 2 DIMMs per
    // physical channel): crossing DIMMs between bursts pays tRTRS.
    channels_.emplace_back(timing_, org.banks_per_channel(), org.banks_per_dimm);
  }
}

double DramSystem::data_bus_utilization(Tick elapsed) const {
  if (elapsed == 0) return 0.0;
  std::uint64_t busy = 0;
  for (const Channel& c : channels_) busy += c.data_busy_cycles();
  return static_cast<double>(busy) /
         (static_cast<double>(elapsed) * static_cast<double>(channels_.size()));
}

std::uint64_t DramSystem::total_bursts() const {
  std::uint64_t n = 0;
  for (const Channel& c : channels_) n += c.bursts();
  return n;
}

template <class Self, class Io>
void DramSystem::fields(Self& self, Io& io) {
  for (auto& c : self.channels_) io.nested(c);
}

void DramSystem::save_state(ckpt::Writer& w) const { fields(*this, w); }

void DramSystem::load_state(ckpt::Reader& r) { fields(*this, r); }

void DramSystem::set_command_observer(CommandObserver* observer) {
  for (std::uint32_t c = 0; c < channels_.size(); ++c) {
    channels_[c].set_observer(observer, c);
  }
}

}  // namespace memsched::dram
