#include "cache/prefetcher.hpp"

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::cache {

StreamPrefetcher::StreamPrefetcher(const PrefetchConfig& cfg, std::uint32_t core_count)
    : cfg_(cfg) {
  MEMSCHED_ASSERT(cfg.table_entries > 0, "prefetcher needs at least one entry");
  table_.resize(core_count);
  for (auto& t : table_) t.resize(cfg.table_entries);
}

std::vector<Addr> StreamPrefetcher::train(CoreId core, Addr miss_line) {
  std::vector<Addr> out;
  if (!cfg_.enabled) return out;
  MEMSCHED_ASSERT(core < table_.size(), "train from unknown core");
  auto& streams = table_[core];

  // Does this miss extend a tracked stream?
  for (StreamEntry& e : streams) {
    if (!e.valid || e.next_line != miss_line) continue;
    e.lru = ++lru_clock_;
    e.next_line = miss_line + kLineBytes;
    if (++e.confidence >= cfg_.min_confidence) {
      ++triggers_;
      out.reserve(cfg_.degree);
      for (std::uint32_t d = 1; d <= cfg_.degree; ++d) {
        out.push_back(miss_line + static_cast<Addr>(d) * kLineBytes);
      }
    }
    return out;
  }

  // New stream: allocate (LRU victim), expecting the next sequential line.
  StreamEntry* victim = &streams[0];
  for (StreamEntry& e : streams) {
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.lru < victim->lru) victim = &e;
  }
  victim->valid = true;
  victim->next_line = miss_line + kLineBytes;
  victim->confidence = 0;
  victim->lru = ++lru_clock_;
  return out;
}

void StreamPrefetcher::reset() {
  for (auto& t : table_) {
    for (StreamEntry& e : t) e = StreamEntry{};
  }
  lru_clock_ = 0;
  triggers_ = 0;
}

template <class Self, class Io>
void StreamPrefetcher::fields(Self& self, Io& io) {
  io.count(self.table_.size(), "prefetcher table");
  for (auto& per_core : self.table_) {
    io.count(per_core.size(), "prefetcher table");
    for (auto& e : per_core) {
      io(e.next_line);
      io(e.confidence);
      io(e.lru);
      io(e.valid);
    }
  }
  io(self.lru_clock_);
  io(self.triggers_);
}

void StreamPrefetcher::save_state(ckpt::Writer& w) const { fields(*this, w); }

void StreamPrefetcher::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::cache
