// lint-as: src/fixture/serve_frame_symmetry_suppressed.cpp
// Fixture: a deliberate WAL codec asymmetry — the reader tolerates a legacy
// trailing field the writer no longer emits — silenced with allow().

namespace fixture {

class WireWriter {
 public:
  void put_u64(unsigned long long);
  void put_str(const char*);
};

class WireReader {
 public:
  unsigned get_u32();
  unsigned long long get_u64();
  const char* get_str();
};

struct Record {
  unsigned long long id = 0;
  const char* spec = "";
  unsigned legacy_flags = 0;
};

inline void encode_legacy_record(WireWriter& w, const Record& rec) {
  w.put_u64(rec.id);
  w.put_str(rec.spec);
}

// Pre-v2 WALs carry a trailing flags word we no longer write.
// memsched-lint: allow(ckpt-symmetry)
inline void decode_legacy_record(WireReader& r, Record& rec) {
  rec.id = r.get_u64();
  rec.spec = r.get_str();
  rec.legacy_flags = r.get_u32();
}

}  // namespace fixture
