#include "core/scheduler_factory.hpp"

#include <cctype>
#include <stdexcept>

#include "core/me_schedulers.hpp"
#include "sched/bliss.hpp"
#include "sched/cads.hpp"
#include "sched/policies.hpp"
#include "sched/parbs.hpp"
#include "sched/stfm.hpp"
#include "sched/tcm.hpp"
#include "util/assert.hpp"
#include "util/config.hpp"

namespace memsched::core {

namespace {

MeTable me_for(const SchedulerArgs& args) {
  MEMSCHED_ASSERT(args.me.core_count() == args.core_count,
                  "ME table size must match core count");
  return args.me;
}

}  // namespace

sched::SchedulerPtr make_scheduler(const std::string& raw_name,
                                   const SchedulerArgs& args) {
  using namespace memsched::sched;
  // Scheme names are canonically UPPERCASE; accept any case from configs and
  // CLIs ("bliss" == "BLISS"). The canonical name is what lands in reports.
  std::string name = raw_name;
  for (char& c : name) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  // "<scheme>/TOH" wraps the scheme so thread priority dominates row hits
  // (the literal Figure-1 reading; used by the ablation bench).
  if (name.size() > 4 && name.substr(name.size() - 4) == "/TOH") {
    return std::make_unique<ThreadOverHit>(
        make_scheduler(name.substr(0, name.size() - 4), args));
  }
  if (name == "FCFS") return std::make_unique<FcfsScheduler>();
  if (name == "FCFS-RF") return std::make_unique<FcfsReadFirstScheduler>();
  if (name == "HF-RF") return std::make_unique<HitFirstReadFirstScheduler>();
  if (name == "HF-RF-OOO")
    return std::make_unique<HitFirstReadFirstScheduler>(/*window=*/0);
  if (name == "RR") return std::make_unique<RoundRobinScheduler>(args.core_count);
  if (name == "LREQ") return std::make_unique<LeastRequestScheduler>();
  if (name == "FQ") return std::make_unique<FairQueueScheduler>(args.core_count);
  if (name == "PAR-BS") return std::make_unique<ParbsScheduler>(args.core_count);
  if (name == "STFM") {
    MEMSCHED_ASSERT(args.ipc_single.size() == args.core_count,
                    "STFM needs one alone-IPC value per core");
    return std::make_unique<StfmScheduler>(args.ipc_single, args.epoch_cpu_cycles);
  }
  if (name == "FIX-DESC") return FixOrderScheduler::descending(args.core_count);
  if (name == "FIX-ASC") return FixOrderScheduler::ascending(args.core_count);
  if (name == "ME") return std::make_unique<MeScheduler>(me_for(args));
  if (name == "ME-LREQ") return std::make_unique<MeLreqScheduler>(me_for(args));
  if (name == "ME-LREQ-HW")
    return std::make_unique<MeLreqTableScheduler>(me_for(args), args.table_max_pending,
                                                  args.table_bits);
  // "ME-LREQ-POW-<a*10>-<b*10>": generalized exponents, e.g.
  // ME-LREQ-POW-05-20 -> ME^0.5 / Pending^2.0 (the §7 combination sweep).
  if (name.rfind("ME-LREQ-POW-", 0) == 0) {
    const std::string rest = name.substr(12);
    const auto dash = rest.find('-');
    MEMSCHED_ASSERT(dash != std::string::npos, "ME-LREQ-POW needs two exponents");
    const double a = std::stod(rest.substr(0, dash)) / 10.0;
    const double b = std::stod(rest.substr(dash + 1)) / 10.0;
    return std::make_unique<GeneralizedMeLreqScheduler>(me_for(args), a, b);
  }
  if (name == "ME-LREQ-ONLINE")
    return std::make_unique<OnlineMeLreqScheduler>(args.core_count, 0.25, args.cpu_hz);
  if (name == "BLISS") return std::make_unique<BlissScheduler>(args.core_count);
  if (name == "TCM") return std::make_unique<TcmScheduler>(args.core_count);
  if (name == "CADS") return std::make_unique<CadsScheduler>(args.core_count);
  const std::vector<std::string> known = known_schedulers();
  throw std::invalid_argument("unknown scheduler: " + raw_name +
                              util::did_you_mean(name, {known.begin(), known.end()}));
}

std::vector<std::string> known_schedulers() {
  return {"FCFS",     "FCFS-RF", "HF-RF", "HF-RF-OOO", "RR",
          "LREQ",     "FQ",      "STFM",    "PAR-BS",  "FIX-DESC", "FIX-ASC", "ME",
          "ME-LREQ",  "ME-LREQ-HW", "ME-LREQ-ONLINE", "BLISS", "TCM", "CADS"};
}

}  // namespace memsched::core
