// Synthetic instruction-stream generator.
//
// Emits an infinite instruction stream realising an AppProfile. The stream
// alternates between two regimes:
//
//   * streaming phases — every memory reference walks one of the profile's
//     stream_count concurrent sequential streams over the large footprint,
//     refs_per_line references per 64 B line (within-line spatial locality),
//     rotating lines round-robin across streams; each stream advances
//     burst_lines consecutive lines per phase. Fresh lines become L2 misses
//     and thus DRAM traffic; the first reference to a line may carry a
//     dependence on the previous miss (dep_chain_frac — pointer chasing),
//     and dirty_fresh_share of lines receive a store.
//   * gaps — references hit the small, cache-resident hot region.
//
// The gap length is drawn so the long-run fresh-line rate matches
// fresh_lines_per_kinst. Deterministic for (profile, base address, seed);
// reset(seed) restarts with a new seed, standing in for a different
// SimPoint slice.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/app_profile.hpp"
#include "trace/inst_stream.hpp"
#include "util/rng.hpp"

namespace memsched::trace {

/// 64-byte aligned: each core's stream advances its RNG and cursors on
/// every instruction the sampled engine fast-forwards, concurrently with
/// the other cores' streams.
class alignas(64) SyntheticStream final : public InstStream {
 public:
  /// `base_addr` is the start of this application's private address region;
  /// the generator uses [base, base + footprint + hot + code).
  SyntheticStream(const AppProfile& profile, Addr base_addr, std::uint64_t seed);

  InstRecord next() override;
  std::uint64_t next_ref(std::uint64_t max_insts, InstRecord& rec) override;
  void reset(std::uint64_t seed) override;

  [[nodiscard]] std::uint64_t code_bytes() const override { return profile_.code_bytes; }
  [[nodiscard]] Addr code_base() const override { return code_base_; }

  [[nodiscard]] const AppProfile& profile() const { return profile_; }

  /// Fresh lines emitted so far (for calibration tests).
  [[nodiscard]] std::uint64_t fresh_lines_emitted() const { return fresh_lines_; }
  [[nodiscard]] std::uint64_t insts_emitted() const { return insts_; }

  // --- checkpoint/restore (RNG + phase state; profile/layout are config) ---
  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  void begin_phase();
  InstRecord ref_record();
  InstRecord stream_ref();
  InstRecord hot_ref();

  AppProfile profile_;
  Addr stream_base_;  ///< streamed footprint region
  Addr hot_base_;     ///< hot region
  Addr code_base_;    ///< code region
  std::uint64_t footprint_lines_;
  util::Xoshiro256 rng_;

  // The profile's fixed draws, built once: is_ref_ draws on every
  // instruction, the others on references, in the detailed engine and in
  // the sampled engine's fast-forward alike.
  util::Bernoulli is_ref_;        ///< the instruction is a memory reference
  util::Bernoulli hot_store_;     ///< a hot reference is a store (store_share)
  util::Bernoulli dirty_fresh_;   ///< a fresh line gets a store (dirty_fresh_share)
  util::Bernoulli dep_chain_;     ///< a fresh line's load chases a pointer
  util::Bernoulli restart_;       ///< a phase restarts a stream elsewhere
  util::BoundedDraw hot_line_;    ///< line of the hot region a reference hits

  double mean_gap_refs_;  ///< mean hot references between phases

  // Phase state.
  bool in_phase_ = false;
  std::uint64_t phase_lines_remaining_ = 0;
  std::uint64_t gap_refs_remaining_ = 0;
  std::uint32_t line_refs_remaining_ = 0;  ///< refs left on the current line
  std::uint32_t rotor_ = 0;                ///< round-robin stream selector
  Addr current_line_ = 0;
  bool line_dirty_pending_ = false;  ///< one of the remaining refs is a store
  std::vector<std::uint64_t> stream_pos_;  ///< line cursor per stream

  std::uint64_t insts_ = 0;
  std::uint64_t fresh_lines_ = 0;
};

}  // namespace memsched::trace
