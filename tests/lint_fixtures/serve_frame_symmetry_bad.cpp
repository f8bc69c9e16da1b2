// lint-as: src/fixture/serve_frame_symmetry_bad.cpp
// Fixture: ckpt-symmetry covers free encode_/decode_ pairs that call put_*/
// get_* as members of a writer and a reader object, the style of the serve
// subsystem's WAL record codec — catching a swapped field sequence and a
// schema truncation just like it does for the result cache's codec.

namespace fixture {

class WireWriter {
 public:
  void put_u8(unsigned char);
  void put_u32(unsigned);
  void put_u64(unsigned long long);
  void put_str(const char*);
};

class WireReader {
 public:
  unsigned char get_u8();
  unsigned get_u32();
  unsigned long long get_u64();
  const char* get_str();
};

struct Record {
  unsigned long long id = 0;
  const char* key = "";
  unsigned attempts = 0;
};

// Shape 1: the writer frames id then key; the reader pulls key first.
inline void encode_swapped_record(WireWriter& w, const Record& rec) {
  w.put_u64(rec.id);
  w.put_str(rec.key);
}
inline void decode_swapped_record(WireReader& r, Record& rec) {
  rec.key = r.get_str();  // expect-lint: ckpt-symmetry
  rec.id = r.get_u64();
}

// Shape 2: the writer frames three fields, the reader stops after two — a
// replayed WAL would leave every later frame misaligned.
inline void encode_short_record(WireWriter& w, const Record& rec) {
  w.put_u64(rec.id);
  w.put_str(rec.key);
  w.put_u32(rec.attempts);
}
inline void decode_short_record(WireReader& r, Record& rec) {  // expect-lint: ckpt-symmetry
  rec.id = r.get_u64();
  rec.key = r.get_str();
}

}  // namespace fixture
