#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::trace {

SyntheticStream::SyntheticStream(const AppProfile& profile, Addr base_addr,
                                 std::uint64_t seed)
    : profile_(profile),
      rng_(seed),
      is_ref_(profile.mem_ref_per_kinst / 1000.0),
      hot_store_(profile.store_share),
      dirty_fresh_(profile.dirty_fresh_share),
      dep_chain_(profile.dep_chain_frac),
      restart_(0.125),
      hot_line_(std::max<std::uint64_t>(profile.hot_bytes / kLineBytes, 1)) {
  MEMSCHED_ASSERT(profile.mem_ref_per_kinst > 0.0, "profile without memory refs");
  MEMSCHED_ASSERT(profile.stream_count > 0, "profile needs at least one stream");
  MEMSCHED_ASSERT(profile.refs_per_line >= 1, "refs_per_line must be >= 1");

  stream_base_ = base_addr;
  hot_base_ = base_addr + profile.footprint_bytes;
  code_base_ = hot_base_ + profile.hot_bytes;
  footprint_lines_ = std::max<std::uint64_t>(profile.footprint_bytes / kLineBytes, 1);

  // Long-run accounting: a phase of L = stream_count * burst_lines lines
  // takes R = L * refs_per_line references; the fresh-line rate per
  // reference must equal fresh_lines_per_kinst / mem_ref_per_kinst, so the
  // mean gap G satisfies L / (R + G) = rate, i.e. G = L/rate - R.
  const double rate = profile.fresh_lines_per_kinst / profile.mem_ref_per_kinst;
  const double phase_lines =
      std::max(1.0, static_cast<double>(profile.stream_count) * profile.burst_lines);
  const double phase_refs = phase_lines * profile.refs_per_line;
  if (rate <= 0.0) {
    mean_gap_refs_ = -1.0;  // never stream
  } else {
    mean_gap_refs_ = std::max(0.0, phase_lines / rate - phase_refs);
    MEMSCHED_ASSERT(phase_lines / rate > phase_refs * 0.5,
                    "profile streams denser than its reference rate allows");
  }

  reset(seed);
}

void SyntheticStream::reset(std::uint64_t seed) {
  rng_ = util::Xoshiro256(seed ^ 0x5eed5eedULL);
  in_phase_ = false;
  phase_lines_remaining_ = 0;
  line_refs_remaining_ = 0;
  rotor_ = 0;
  line_dirty_pending_ = false;
  insts_ = 0;
  fresh_lines_ = 0;
  stream_pos_.assign(profile_.stream_count, 0);
  // Scatter the stream cursors across the footprint so different slices
  // (seeds) touch different regions; stagger the first gap so co-scheduled
  // copies of one application do not phase-lock.
  for (auto& pos : stream_pos_) pos = rng_.below(footprint_lines_);
  if (mean_gap_refs_ >= 0.0) {
    gap_refs_remaining_ =
        mean_gap_refs_ > 0.0
            ? rng_.below(static_cast<std::uint64_t>(mean_gap_refs_) + 1)
            : 0;
  } else {
    gap_refs_remaining_ = ~std::uint64_t{0};  // never stream
  }
}

void SyntheticStream::begin_phase() {
  in_phase_ = true;
  // One stream per phase, rotating round-robin: long sequential runs give
  // the in-flight window enough same-row reach for Hit-First to matter,
  // while successive phases (and co-running cores) cover different streams.
  rotor_ = (rotor_ + 1) % profile_.stream_count;
  const double lines =
      static_cast<double>(profile_.stream_count) * profile_.burst_lines;
  // +/- 50% jitter so phases of co-running apps interleave irregularly;
  // rounded (not truncated) so short phases keep the right mean length.
  const double jitter = 0.5 + rng_.uniform();
  phase_lines_remaining_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(lines * jitter)));
  // Occasionally restart a stream somewhere fresh (a new data structure).
  if (restart_(rng_)) {
    stream_pos_[rng_.below(profile_.stream_count)] = rng_.below(footprint_lines_);
  }
}

InstRecord SyntheticStream::stream_ref() {
  if (line_refs_remaining_ == 0) {
    // Next consecutive line of the phase's stream.
    std::uint64_t& pos = stream_pos_[rotor_];
    current_line_ = stream_base_ + pos * kLineBytes;
    pos = (pos + 1) % footprint_lines_;
    ++fresh_lines_;
    line_refs_remaining_ = profile_.refs_per_line;
    line_dirty_pending_ = dirty_fresh_(rng_);
    --phase_lines_remaining_;
    if (phase_lines_remaining_ == 0) {
      in_phase_ = false;
      if (mean_gap_refs_ > 0.0) {
        // Geometric-ish gap with the calibrated mean.
        gap_refs_remaining_ = 1 + static_cast<std::uint64_t>(
                                      -std::log(1.0 - rng_.uniform()) * mean_gap_refs_);
      } else {
        gap_refs_remaining_ = 0;
      }
    }

    InstRecord rec;
    rec.addr = current_line_;
    // First touch of the line: the miss-inducing reference. A store-first
    // line models write-allocate streams; loads may carry the pointer-chase
    // dependence.
    if (line_dirty_pending_ && profile_.refs_per_line == 1) {
      rec.cls = InstClass::kStore;
      line_dirty_pending_ = false;
    } else {
      rec.cls = InstClass::kLoad;
      rec.dep_on_prev = dep_chain_(rng_);
    }
    --line_refs_remaining_;
    return rec;
  }

  // Subsequent within-line references (hit under the in-flight fill).
  InstRecord rec;
  const std::uint32_t idx = profile_.refs_per_line - line_refs_remaining_;
  rec.addr = current_line_ + (idx * kLineBytes / profile_.refs_per_line);
  if (line_dirty_pending_ && line_refs_remaining_ == 1) {
    rec.cls = InstClass::kStore;  // dirty the line with its last reference
    line_dirty_pending_ = false;
  } else {
    rec.cls = InstClass::kLoad;
  }
  --line_refs_remaining_;
  return rec;
}

InstRecord SyntheticStream::hot_ref() {
  InstRecord rec;
  const std::uint64_t line = hot_line_(rng_);  // drawn before the offset
  rec.addr = hot_base_ + line * kLineBytes + (rng_.next() & (kLineBytes - 1));
  rec.cls = hot_store_(rng_) ? InstClass::kStore : InstClass::kLoad;
  return rec;
}

InstRecord SyntheticStream::ref_record() {
  if (!in_phase_ && gap_refs_remaining_ == 0 && mean_gap_refs_ >= 0.0) begin_phase();

  if (in_phase_ || line_refs_remaining_ > 0) return stream_ref();

  if (gap_refs_remaining_ != ~std::uint64_t{0}) --gap_refs_remaining_;
  return hot_ref();
}

InstRecord SyntheticStream::next() {
  ++insts_;
  if (!is_ref_(rng_)) return InstRecord{};  // compute instruction
  return ref_record();
}

std::uint64_t SyntheticStream::next_ref(std::uint64_t max_insts, InstRecord& rec) {
  // Identical stream state evolution to max_insts repeated next() calls
  // (one Bernoulli draw per instruction), without the per-instruction
  // virtual dispatch — this is the functional fast-forward's hot loop.
  for (std::uint64_t i = 1; i <= max_insts; ++i) {
    ++insts_;
    if (is_ref_(rng_)) {
      rec = ref_record();
      return i;
    }
  }
  rec = InstRecord{};
  return max_insts;
}

template <class Self, class Io>
void SyntheticStream::fields(Self& self, Io& io) {
  io(self.rng_);
  io(self.in_phase_);
  io(self.phase_lines_remaining_);
  io(self.gap_refs_remaining_);
  io(self.line_refs_remaining_);
  io(self.rotor_);
  io(self.current_line_);
  io(self.line_dirty_pending_);
  io.count(self.stream_pos_.size(), "stream cursor count");
  for (auto& pos : self.stream_pos_) io(pos);
  io(self.insts_);
  io(self.fresh_lines_);
}

void SyntheticStream::save_state(ckpt::Writer& w) const { fields(*this, w); }

void SyntheticStream::load_state(ckpt::Reader& r) {
  fields(*this, r);
  // The field list checks only the cursor count: state saved by a stream of
  // another profile would walk addresses outside this stream's region.
  const auto refuse = [](const std::string& what) {
    throw ckpt::SnapshotError("snapshot: synthetic stream " + what);
  };
  for (const std::uint64_t pos : stream_pos_) {
    if (pos >= footprint_lines_) {
      refuse("cursor " + std::to_string(pos) + " >= footprint lines " +
             std::to_string(footprint_lines_));
    }
  }
  if (rotor_ >= profile_.stream_count) {
    refuse("rotor " + std::to_string(rotor_) + " >= stream_count " +
           std::to_string(profile_.stream_count));
  }
  if (line_refs_remaining_ > profile_.refs_per_line) {
    refuse("line_refs_remaining " + std::to_string(line_refs_remaining_) +
           " > refs_per_line " + std::to_string(profile_.refs_per_line));
  }
}

}  // namespace memsched::trace
