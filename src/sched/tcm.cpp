#include "sched/tcm.hpp"

#include <algorithm>
#include <numeric>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::sched {

TcmScheduler::TcmScheduler(std::uint32_t core_count, Tick quantum_ticks,
                           double cluster_thresh)
    : core_count_(core_count),
      quantum_(quantum_ticks),
      cluster_thresh_(cluster_thresh),
      priority_(core_count, 0.0) {
  MEMSCHED_ASSERT(core_count > 0, "TCM needs at least one core");
  MEMSCHED_ASSERT(quantum_ticks > 0, "TCM quantum must be positive");
  MEMSCHED_ASSERT(cluster_thresh > 0.0 && cluster_thresh < 1.0,
                  "TCM cluster threshold must be in (0, 1)");
  latency_cluster_.reserve(core_count);
  bandwidth_cluster_.reserve(core_count);
}

void TcmScheduler::on_epoch(Tick boundary, const QueueSnapshot& snap) {
  (void)boundary;
  // Lightest-first order by interval bandwidth use; core id breaks ties so
  // the partition is a pure function of the interval statistics.
  std::vector<CoreId> order(core_count_);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](CoreId a, CoreId b) {
    if (snap.interval_served[a] != snap.interval_served[b]) {
      return snap.interval_served[a] < snap.interval_served[b];
    }
    return a < b;
  });
  std::uint64_t total = 0;
  for (CoreId c = 0; c < core_count_; ++c) total += snap.interval_served[c];

  // Greedy latency cluster: lightest cores while the cumulative share stays
  // within ClusterThresh of the total. An idle quantum (total == 0) puts
  // every core into the latency cluster — all shares are vacuously within
  // the cap — which is harmless: no requests means no ranking decisions.
  latency_cluster_.clear();
  bandwidth_cluster_.clear();
  const double cap = cluster_thresh_ * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (const CoreId c : order) {
    cum += snap.interval_served[c];
    if (static_cast<double>(cum) <= cap || total == 0) {
      latency_cluster_.push_back(c);
    } else {
      bandwidth_cluster_.push_back(c);
    }
  }

  // Latency cluster outranks the bandwidth cluster outright; within it, the
  // fewest interval arrivals win (memory-intensity proxy for TCM's MPKI
  // rank). Band gap of 1000 keeps the clusters strictly ordered.
  std::sort(latency_cluster_.begin(), latency_cluster_.end(),
            [&](CoreId a, CoreId b) {
              if (snap.interval_arrivals[a] != snap.interval_arrivals[b]) {
                return snap.interval_arrivals[a] < snap.interval_arrivals[b];
              }
              return a < b;
            });
  std::fill(priority_.begin(), priority_.end(), 0.0);
  for (std::size_t i = 0; i < latency_cluster_.size(); ++i) {
    priority_[latency_cluster_[i]] = 2000.0 - static_cast<double>(i);
  }
  // Bandwidth cluster: deterministic rotation of the rank order, one step
  // per quantum — the determinism-preserving stand-in for TCM's random
  // insertion shuffle (see header).
  const std::size_t n = bandwidth_cluster_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t rank = (i + static_cast<std::size_t>(quanta_ % n)) % n;
    priority_[bandwidth_cluster_[i]] = 1000.0 - static_cast<double>(rank);
  }
  ++quanta_;
}

void TcmScheduler::reset() {
  std::fill(priority_.begin(), priority_.end(), 0.0);
  latency_cluster_.clear();
  bandwidth_cluster_.clear();
  quanta_ = 0;
}

template <class Self, class Io>
void TcmScheduler::fields(Self& self, Io& io) {
  io.count(self.priority_.size(), "TCM core count");
  for (auto& p : self.priority_) io(p);
  io.seq(self.latency_cluster_, [&](auto& c) { io(c); });
  io.seq(self.bandwidth_cluster_, [&](auto& c) { io(c); });
  io(self.quanta_);
}

void TcmScheduler::save_state(ckpt::Writer& w) const { fields(*this, w); }

void TcmScheduler::load_state(ckpt::Reader& r) {
  fields(*this, r);
  if (latency_cluster_.size() > core_count_) {
    throw ckpt::SnapshotError("snapshot: TCM latency cluster oversized");
  }
  if (bandwidth_cluster_.size() > core_count_) {
    throw ckpt::SnapshotError("snapshot: TCM bandwidth cluster oversized");
  }
}

}  // namespace memsched::sched
