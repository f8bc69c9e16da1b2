// Sequential stream prefetcher at the L2 (extension; the paper's system
// has none, so it defaults off).
//
// Classic next-N-lines design: a small per-core table tracks recent miss
// streams; a miss that extends a tracked stream (last line + 1) raises its
// confidence and, once confident, emits prefetch candidates for the next
// `degree` lines. Prefetch requests travel the normal L2-MSHR -> memory
// controller path but are tagged so the scheduler serves them strictly
// after demand reads.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::cache {

struct PrefetchConfig {
  bool enabled = false;
  std::uint32_t degree = 2;         ///< lines prefetched ahead per trigger
  std::uint32_t table_entries = 8;  ///< tracked streams per core
  std::uint32_t min_confidence = 1; ///< consecutive hits before issuing
};

class StreamPrefetcher {
 public:
  StreamPrefetcher(const PrefetchConfig& cfg, std::uint32_t core_count);

  /// Observe a demand L2 miss; returns the line addresses to prefetch
  /// (empty when disabled or the stream is not yet confident).
  std::vector<Addr> train(CoreId core, Addr miss_line);

  void reset();

  [[nodiscard]] const PrefetchConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t triggers() const { return triggers_; }

  // --- checkpoint/restore ---
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  struct StreamEntry {
    Addr next_line = 0;   ///< expected next miss
    std::uint32_t confidence = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  PrefetchConfig cfg_;
  std::vector<std::vector<StreamEntry>> table_;  ///< [core][entry]
  std::uint64_t lru_clock_ = 0;
  std::uint64_t triggers_ = 0;
};

}  // namespace memsched::cache
