// lint-as: src/fixture/cache_entry_framing_bad.cpp
// Fixture: ckpt-symmetry catches encode_/decode_ pairs whose field
// sequences diverge — reordered fields and a field-count mismatch.

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

namespace fixture {

template <class W, class T>
void put_str(W&, const T&) {}
template <class W, class T>
void put_u64(W&, const T&) {}
template <class R, class T>
void get_str(R&, T&) {}
template <class R, class T>
void get_u64(R&, T&) {}

struct Entry {
  unsigned long long ticks = 0;
  const char* name = "";
  const char* payload = "";
};

// Shape 1: the writer frames name then ticks; the reader pulls ticks first.
inline void encode_swapped(ckpt::Writer& w, const Entry& e) {
  put_str(w, e.name);
  put_u64(w, e.ticks);
}
inline void decode_swapped(ckpt::Reader& r, Entry& e) {
  get_u64(r, e.ticks);  // expect-lint: ckpt-symmetry
  get_str(r, e.name);
}

// Shape 2: the writer frames two fields, the reader stops after one.
inline void encode_truncated(ckpt::Writer& w, const Entry& e) {
  put_str(w, e.name);
  put_str(w, e.payload);
}
inline void decode_truncated(ckpt::Reader& r, Entry& e) {  // expect-lint: ckpt-symmetry
  get_str(r, e.name);
}

}  // namespace fixture
