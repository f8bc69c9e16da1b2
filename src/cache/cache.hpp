// Set-associative write-back, write-allocate cache with LRU replacement.
//
// Timing is handled by the enclosing hierarchy/MSHRs; this class models
// *state* (tags, dirtiness, replacement) and updates it at access time.
// In-flight fills are tracked by the MSHR file, which is the standard
// trace-driven simplification: a missing line is inserted immediately and
// later accesses to it merge in the MSHR instead of re-missing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::cache {

struct CacheConfig {
  std::uint64_t size_bytes = 64 * 1024;
  std::uint32_t ways = 2;
  std::uint32_t line_bytes = kLineBytes;
  std::uint32_t hit_latency_cpu = 3;  ///< CPU cycles to return a hit
  const char* name = "cache";

  [[nodiscard]] std::uint64_t sets() const {
    return size_bytes / (static_cast<std::uint64_t>(ways) * line_bytes);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;  ///< dirty evictions

  [[nodiscard]] double miss_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(misses) / static_cast<double>(total) : 0.0;
  }
};

/// Result of an access: whether it hit, and the dirty victim line (if any)
/// that must be written back to the next level.
struct AccessResult {
  bool hit = false;
  bool was_prefetched = false;  ///< hit consumed a prefetched line (bit cleared)
  std::optional<Addr> writeback_line;  ///< line address of the dirty victim
};

/// 64-byte aligned: one instance per core is written on every
/// fast-forwarded instruction (lru_clock_) while the sampled engine runs the
/// cores' fast-forwards concurrently, so neighbours must not share a line.
class alignas(64) SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Access (and allocate on miss). `is_write` marks the line dirty.
  AccessResult access(Addr addr, bool is_write);

  /// Tag probe without any state change.
  [[nodiscard]] bool probe(Addr addr) const;

  /// Fused probe+access for the hit fast path: on a hit this is exactly
  /// access() (LRU bump, dirty update, hit counter, prefetch-bit clear,
  /// reported through `was_prefetched` when non-null) with one set lookup
  /// instead of two; on a miss it is exactly probe() — no state or
  /// statistics change, the caller decides whether/when to allocate.
  bool try_hit(Addr addr, bool is_write, bool* was_prefetched = nullptr);

  /// Invalidate a line if present; returns true if it was dirty.
  bool invalidate(Addr addr);

  /// Drop all contents (between runs).
  void reset();

  /// Checkpoint-style warm insertion: allocates `addr`'s line like access()
  /// but updates no statistics and silently drops any victim (no writeback).
  /// Used to pre-warm caches to steady-state occupancy before measurement.
  void warm_insert(Addr addr, bool dirty) { (void)warm_touch(addr, dirty); }

  /// warm_insert that also reports whether the line was already resident —
  /// the functional fast-forward's fused probe+insert (one set scan instead
  /// of two, mirroring try_hit on the detailed path).
  bool warm_touch(Addr addr, bool dirty);

  /// Zero the statistics counters without touching cache contents.
  void reset_stats() { stats_ = CacheStats{}; }

  /// Tag a resident line as prefetched (no-op if absent); the next hit on
  /// it reports was_prefetched and clears the tag.
  void mark_prefetched(Addr addr);

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }
  [[nodiscard]] const CacheStats& stats() const { return stats_; }

  // --- checkpoint/restore (tags, dirtiness, LRU, stats) ---
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  struct Line {
    Addr tag = 0;
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;  ///< brought in by the prefetcher, not yet used
    std::uint64_t lru = 0;    ///< larger = more recently used
  };

  [[nodiscard]] std::uint64_t set_of(Addr addr) const;
  [[nodiscard]] Addr tag_of(Addr addr) const;
  [[nodiscard]] Addr line_addr_of(std::uint64_t set, Addr tag) const;

  CacheConfig cfg_;
  std::uint64_t set_count_;
  unsigned line_shift_;
  unsigned set_shift_;  ///< log2(set_count_)
  std::vector<Line> lines_;  ///< set-major: lines_[set * ways + way]
  std::uint64_t lru_clock_ = 0;
  CacheStats stats_;
};

}  // namespace memsched::cache
