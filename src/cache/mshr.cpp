#include "cache/mshr.hpp"

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::cache {

MshrFile::MshrFile(std::uint32_t entries) {
  MEMSCHED_ASSERT(entries > 0, "MSHR file needs at least one entry");
  entries_.resize(entries);
}

MshrEntry* MshrFile::find(Addr line_addr) {
  for (MshrEntry& e : entries_) {
    if (e.valid && e.line_addr == line_addr) return &e;
  }
  return nullptr;
}

MshrEntry* MshrFile::allocate(Addr line_addr, CoreId requester) {
  if (full() || find(line_addr) != nullptr) return nullptr;
  for (MshrEntry& e : entries_) {
    if (!e.valid) {
      e.valid = true;
      e.dispatched = false;
      e.prefetch = false;
      e.line_addr = line_addr;
      e.requester = requester;
      e.waiters.clear();
      ++used_;
      ++undispatched_;
      ++allocations_;
      return &e;
    }
  }
  return nullptr;  // unreachable: full() was false
}

bool MshrFile::release(Addr line_addr, std::vector<std::uint64_t>& waiters_out) {
  for (MshrEntry& e : entries_) {
    if (e.valid && e.line_addr == line_addr) {
      waiters_out.insert(waiters_out.end(), e.waiters.begin(), e.waiters.end());
      e.valid = false;
      e.waiters.clear();
      MEMSCHED_ASSERT(used_ > 0, "MSHR accounting underflow");
      --used_;
      if (!e.dispatched) --undispatched_;
      return true;
    }
  }
  return false;
}

void MshrFile::reset() {
  for (MshrEntry& e : entries_) {
    e.valid = false;
    e.waiters.clear();
  }
  used_ = 0;
  undispatched_ = 0;
  allocations_ = 0;
  merges_ = 0;
}

template <class Self, class Io>
void MshrFile::fields(Self& self, Io& io) {
  io.count(self.entries_.size(), "MSHR capacity");
  for (auto& e : self.entries_) {
    io(e.line_addr);
    io(e.valid);
    io(e.dispatched);
    io(e.prefetch);
    io(e.requester);
    io(e.waiters);
  }
  io(self.used_);
  io(self.allocations_);
  io(self.merges_);
}

void MshrFile::save_state(ckpt::Writer& w) const { fields(*this, w); }

void MshrFile::load_state(ckpt::Reader& r) {
  fields(*this, r);
  undispatched_ = 0;
  for (const MshrEntry& e : entries_) {
    if (e.valid && !e.dispatched) ++undispatched_;
  }
}

}  // namespace memsched::cache
