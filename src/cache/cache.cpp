#include "cache/cache.hpp"

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace memsched::cache {

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : cfg_(cfg),
      set_count_(cfg.sets()),
      line_shift_(util::ilog2(cfg.line_bytes)),
      set_shift_(util::ilog2(set_count_)) {
  MEMSCHED_ASSERT(util::is_pow2(cfg.line_bytes), "line size must be a power of two");
  MEMSCHED_ASSERT(cfg.ways > 0, "cache needs at least one way");
  MEMSCHED_ASSERT(set_count_ > 0 && util::is_pow2(set_count_),
                  "set count must be a nonzero power of two");
  lines_.resize(set_count_ * cfg.ways);
}

std::uint64_t SetAssocCache::set_of(Addr addr) const {
  return (addr >> line_shift_) & (set_count_ - 1);
}

Addr SetAssocCache::tag_of(Addr addr) const {
  return addr >> line_shift_ >> set_shift_;
}

Addr SetAssocCache::line_addr_of(std::uint64_t set, Addr tag) const {
  return ((tag << set_shift_) | set) << line_shift_;
}

AccessResult SetAssocCache::access(Addr addr, bool is_write) {
  const std::uint64_t set = set_of(addr);
  const Addr tag = tag_of(addr);
  Line* base = &lines_[set * cfg_.ways];

  // Hit path.
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = ++lru_clock_;
      line.dirty |= is_write;
      ++stats_.hits;
      const bool was_pf = line.prefetched;
      line.prefetched = false;
      return {.hit = true, .was_prefetched = was_pf, .writeback_line = std::nullopt};
    }
  }

  // Miss: pick an invalid way or the LRU victim.
  ++stats_.misses;
  Line* victim = &base[0];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.lru < victim->lru) victim = &line;
  }

  AccessResult result;
  if (victim->valid) {
    ++stats_.evictions;
    if (victim->dirty) {
      ++stats_.writebacks;
      result.writeback_line = line_addr_of(set, victim->tag);
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = is_write;
  victim->prefetched = false;
  victim->lru = ++lru_clock_;
  return result;
}

bool SetAssocCache::try_hit(Addr addr, bool is_write, bool* was_prefetched) {
  const std::uint64_t set = set_of(addr);
  const Addr tag = tag_of(addr);
  Line* base = &lines_[set * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = ++lru_clock_;
      line.dirty |= is_write;
      ++stats_.hits;
      if (was_prefetched != nullptr) *was_prefetched = line.prefetched;
      line.prefetched = false;
      return true;
    }
  }
  return false;
}

void SetAssocCache::mark_prefetched(Addr addr) {
  const std::uint64_t set = set_of(addr);
  const Addr tag = tag_of(addr);
  Line* base = &lines_[set * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].prefetched = true;
      return;
    }
  }
}

bool SetAssocCache::probe(Addr addr) const {
  const std::uint64_t set = set_of(addr);
  const Addr tag = tag_of(addr);
  const Line* base = &lines_[set * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

bool SetAssocCache::invalidate(Addr addr) {
  const std::uint64_t set = set_of(addr);
  const Addr tag = tag_of(addr);
  Line* base = &lines_[set * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.valid = false;
      return line.dirty;
    }
  }
  return false;
}

bool SetAssocCache::warm_touch(Addr addr, bool dirty) {
  const std::uint64_t set = set_of(addr);
  const Addr tag = tag_of(addr);
  Line* base = &lines_[set * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = ++lru_clock_;
      line.dirty |= dirty;
      return true;
    }
  }
  Line* victim = &base[0];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.lru < victim->lru) victim = &line;
  }
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = dirty;
  victim->prefetched = false;
  victim->lru = ++lru_clock_;
  return false;
}

void SetAssocCache::reset() {
  for (Line& line : lines_) line = Line{};
  lru_clock_ = 0;
  stats_ = CacheStats{};
}

template <class Self, class Io>
void SetAssocCache::fields(Self& self, Io& io) {
  io.count(self.lines_.size(), "cache geometry");
  for (auto& l : self.lines_) {
    io(l.tag);
    io(l.valid);
    io(l.dirty);
    io(l.prefetched);
    io(l.lru);
  }
  io(self.lru_clock_);
  io(self.stats_.hits);
  io(self.stats_.misses);
  io(self.stats_.evictions);
  io(self.stats_.writebacks);
}

void SetAssocCache::save_state(ckpt::Writer& w) const { fields(*this, w); }

void SetAssocCache::load_state(ckpt::Reader& r) { fields(*this, r); }

}  // namespace memsched::cache
