#include "verif/invariant_auditor.hpp"

#include <cstdio>

namespace memsched::verif {

InvariantAuditor::InvariantAuditor(dram::DramSystem& dram, mc::MemoryController& mc,
                                   const AuditConfig& cfg)
    : dram_(dram), mc_(mc) {
  const dram::Organization& org = dram.organization();
  protocol_ = std::make_unique<ProtocolChecker>(dram.timing(), org.channels,
                                                org.banks_per_channel(),
                                                org.banks_per_dimm, cfg.checker());
  RequestLifecycleChecker::Params params;
  const mc::ControllerConfig& mcc = mc.config();
  params.core_count = static_cast<std::uint32_t>(mc.stats().core_reads.size());
  params.overhead_ticks = mcc.overhead_ticks;
  params.buffer_entries = mcc.buffer_entries;
  params.drain_high = mcc.drain_high;
  params.drain_low = mcc.drain_low;
  params.channels = org.channels;
  params.banks_per_channel = org.banks_per_channel();
  lifecycle_ = std::make_unique<RequestLifecycleChecker>(params, cfg.checker());

#if MEMSCHED_VERIF_ENABLED
  dram_.set_command_observer(protocol_.get());
  mc_.set_auditor(lifecycle_.get());
#else
  std::fprintf(stderr, "[memsched WARN] verif: hooks compiled out (MEMSCHED_VERIF=OFF); "
                       "auditor is inert\n");
#endif
}

InvariantAuditor::~InvariantAuditor() {
#if MEMSCHED_VERIF_ENABLED
  dram_.set_command_observer(nullptr);
  mc_.set_auditor(nullptr);
#endif
}

void InvariantAuditor::cross_check(Tick now) {
#if MEMSCHED_VERIF_ENABLED
  lifecycle_->cross_check(mc_, now);
#else
  (void)now;
#endif
}

void InvariantAuditor::finalize(Tick now) {
#if MEMSCHED_VERIF_ENABLED
  lifecycle_->finalize(mc_, now);
#else
  (void)now;
#endif
}

}  // namespace memsched::verif
