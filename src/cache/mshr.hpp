// Miss Status Holding Register file.
//
// Tracks in-flight line fills below a cache level and merges secondary
// misses to the same line. Waiters are opaque 64-bit tokens: the core model
// packs (core, load tag) into them and is called back when the fill returns.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::cache {

struct MshrEntry {
  Addr line_addr = 0;
  bool valid = false;
  bool dispatched = false;  ///< accepted by the controller; set only by for_each_undispatched
  bool prefetch = false;    ///< allocated by the stream prefetcher
  CoreId requester = kInvalidCore;  ///< core whose miss allocated the entry
  std::vector<std::uint64_t> waiters;
};

class MshrFile {
 public:
  explicit MshrFile(std::uint32_t entries);

  [[nodiscard]] bool full() const { return used_ == entries_.size(); }
  [[nodiscard]] std::uint32_t in_use() const { return used_; }
  [[nodiscard]] std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(entries_.size());
  }

  /// Entry for `line_addr`, or nullptr.
  [[nodiscard]] MshrEntry* find(Addr line_addr);
  [[nodiscard]] const MshrEntry* find(Addr line_addr) const {
    return const_cast<MshrFile*>(this)->find(line_addr);
  }

  /// Allocate a new entry; returns nullptr when full or already present.
  MshrEntry* allocate(Addr line_addr, CoreId requester);

  /// Release the entry for `line_addr`, moving its waiters into `waiters_out`
  /// (appended). Returns false if no such entry exists.
  bool release(Addr line_addr, std::vector<std::uint64_t>& waiters_out);

  /// Offers each entry not yet dispatched to the controller (the
  /// back-pressure retry set) to `accept`, which returns true when the
  /// controller took it; accepted entries are marked dispatched. Returns at
  /// once when the retry set is empty.
  template <typename Accept>
  void for_each_undispatched(Accept&& accept) {
    for (MshrEntry& e : entries_) {
      if (undispatched_ == 0) return;
      if (e.valid && !e.dispatched && accept(static_cast<const MshrEntry&>(e))) {
        e.dispatched = true;
        --undispatched_;
      }
    }
  }

  /// True when some entry still awaits dispatch (the retry set is non-empty).
  [[nodiscard]] bool any_undispatched() const { return undispatched_ != 0; }

  void reset();

  // Statistics.
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }
  [[nodiscard]] std::uint64_t merges() const { return merges_; }
  void count_merge() { ++merges_; }

  // --- checkpoint/restore ---
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  std::vector<MshrEntry> entries_;
  std::uint32_t used_ = 0;
  std::uint32_t undispatched_ = 0;  ///< valid && !dispatched; derived, not saved
  std::uint64_t allocations_ = 0;
  std::uint64_t merges_ = 0;
};

}  // namespace memsched::cache
