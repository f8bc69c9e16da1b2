// lint-as: src/fixture/cache_entry_framing_suppressed.cpp
// Fixture: a deliberate framing asymmetry (the reader swallows a legacy
// trailing field the writer no longer emits) silenced with allow().

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

namespace fixture {

template <class W, class T>
void put_str(W&, const T&) {}
template <class R, class T>
void get_str(R&, T&) {}
template <class R, class T>
void get_u64(R&, T&) {}

struct Entry {
  unsigned long long legacy_rev = 0;
  const char* payload = "";
};

inline void encode_legacy(ckpt::Writer& w, const Entry& e) {
  put_str(w, e.payload);
}

// Old stores carry a trailing u64 revision we no longer write.
// memsched-lint: allow(ckpt-symmetry)
inline void decode_legacy(ckpt::Reader& r, Entry& e) {
  get_str(r, e.payload);
  get_u64(r, e.legacy_rev);
}

}  // namespace fixture
