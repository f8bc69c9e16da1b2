// Deterministic pseudo-random number generation.
//
// Every stochastic decision in the simulator (synthetic address streams,
// scheduler tie-breaking, workload slice selection) draws from a seeded
// xoshiro256** instance so a (seed, config) pair reproduces bit-identically.
// std::mt19937_64 is avoided: its 2.5 KB state hurts cache behaviour when a
// generator lives inside every core model.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace memsched::util {

/// SplitMix64: used to expand a single 64-bit seed into full generator state
/// and to derive independent child seeds (seed sequencing).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG (Blackman & Vigna).
///
/// The draw methods are defined inline: a draw sits on the per-instruction
/// hot path of both the synthetic stream generator and the functional
/// fast-forward, where an out-of-line call per Bernoulli costs more than
/// the generator itself.
class Xoshiro256 {
 public:
  /// Seeds the four state words via SplitMix64 as the authors recommend.
  explicit Xoshiro256(std::uint64_t seed = 0x243f6a8885a308d3ULL);

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (bitmask rejection).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Derive an independent child generator; `stream` distinguishes children
  /// of the same parent deterministically.
  Xoshiro256 fork(std::uint64_t stream);

  /// Raw state access for checkpoint/restore. A restored generator continues
  /// the exact output sequence of the saved one.
  struct State {
    std::uint64_t s[4];
  };
  [[nodiscard]] State state() const { return {{s_[0], s_[1], s_[2], s_[3]}}; }
  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// A Bernoulli draw with a fixed probability, its threshold computed once:
/// a call returns exactly what Xoshiro256::chance(p) returns and consumes
/// the same draws (none for p <= 0 or p >= 1; one, returning false, for
/// NaN). The compare is exact: for an integer x < 2^53,
/// x * 2^-53 < p  <=>  x < p * 2^53  <=>  x < ceil(p * 2^53),
/// and both scalings by a power of two are exact in double.
class Bernoulli {
 public:
  explicit Bernoulli(double p)
      : threshold_(p <= 0.0   ? kNever
                   : p >= 1.0 ? kAlways
                   : p < 1.0  ? static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53))
                              : 0) {}  // NaN

  bool operator()(Xoshiro256& rng) const {
    if (threshold_ >= kNever) return threshold_ == kAlways;
    return (rng.next() >> 11) < threshold_;
  }

 private:
  // A drawing threshold is at most 2^53, so these never collide with one.
  static constexpr std::uint64_t kNever = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kAlways = kNever + 1;

  std::uint64_t threshold_;
};

/// Xoshiro256::below(bound) for a fixed bound, its mask computed once: the
/// same values from the same draws (none for bound <= 1).
class BoundedDraw {
 public:
  explicit BoundedDraw(std::uint64_t bound)
      : bound_(bound), mask_(bound <= 1 ? 0 : ~std::uint64_t{0} >> std::countl_zero(bound - 1)) {}

  std::uint64_t operator()(Xoshiro256& rng) const {
    if (bound_ <= 1) return 0;
    for (;;) {
      const std::uint64_t v = rng.next() & mask_;
      if (v < bound_) return v;
    }
  }

 private:
  std::uint64_t bound_;
  std::uint64_t mask_;
};

/// Geometric-like run length: number of successes before failure, capped.
/// Used for spatial-locality run lengths in the synthetic stream generators.
std::uint32_t geometric_run(Xoshiro256& rng, double continue_p, std::uint32_t cap);

}  // namespace memsched::util
