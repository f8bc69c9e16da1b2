// Deterministic fault injection for chaos-testing the robustness layer.
//
// The injector perturbs the controller's request path in four seeded,
// reproducible ways:
//   * drop    — a request is accepted and then lost inside the controller;
//               a dropped demand read starves its core forever (the progress
//               watchdog must fire), a dropped write is a silent leak (the
//               lifecycle checker's end-of-run conservation check must fire);
//   * dup     — a clone of the request (fresh id, same address) is enqueued,
//               corrupting bandwidth/latency accounting;
//   * delay   — extra controller-overhead ticks before the request becomes
//               schedulable, perturbing timing without breaking anything;
//   * stall   — command issue on a channel freezes for a window (stall_prob
//               of 1 freezes it forever: an injected starvation livelock).
//
// Determinism: decisions are a pure function of (seed, call sequence), and
// the simulator's call sequence is itself deterministic per run seed. A
// detached or disabled injector draws nothing — the fault-off behaviour of
// the controller is bit-identical to a build without the hooks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::mc {

struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  double drop_read_prob = 0.0;
  double drop_write_prob = 0.0;
  double dup_prob = 0.0;
  double delay_prob = 0.0;
  std::uint32_t delay_ticks_max = 64;   ///< injected delay is in [1, max]
  double stall_prob = 0.0;              ///< per channel, per free tick
  std::uint32_t stall_ticks = 256;      ///< length of one injected stall

  /// Error message for out-of-range knobs, empty when valid.
  [[nodiscard]] std::string validate() const;
};

struct FaultStats {
  std::uint64_t dropped_reads = 0;
  std::uint64_t dropped_writes = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t stalls = 0;

  [[nodiscard]] std::uint64_t total() const {
    return dropped_reads + dropped_writes + duplicated + delayed + stalls;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg);

  /// Verdict for one arriving request.
  struct EnqueueFault {
    bool drop = false;
    bool duplicate = false;
    Tick delay_ticks = 0;
  };
  EnqueueFault on_enqueue(bool is_write);

  /// True while command issue on `channel` must stay frozen this tick.
  bool stall_command(std::uint32_t channel, Tick now);

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  // --- checkpoint/restore (RNG, stats, active stall windows) ---
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  FaultConfig cfg_;
  util::Xoshiro256 rng_;
  FaultStats stats_;
  std::vector<Tick> stall_until_;  ///< per channel, grown on demand
};

}  // namespace memsched::mc
