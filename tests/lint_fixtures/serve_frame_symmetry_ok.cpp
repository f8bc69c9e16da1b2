// lint-as: src/fixture/serve_frame_symmetry_ok.cpp
// Fixture: a field-for-field symmetric WAL record codec that calls put_*/
// get_* as writer and reader members is clean, as is an encoder whose
// decoder lives in another translation unit.

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
  unsigned char state = 0;
  unsigned attempts = 0;
  const char* spec = "";
};

// Mirror images: the exact shape of the serve queue's WAL record codec.
inline void encode_job_record(WireWriter& w, const Record& rec) {
  w.put_u64(rec.id);
  w.put_str(rec.key);
  w.put_u8(rec.state);
  w.put_u32(rec.attempts);
  w.put_str(rec.spec);
}
inline void decode_job_record(WireReader& r, Record& rec) {
  rec.id = r.get_u64();
  rec.key = r.get_str();
  rec.state = r.get_u8();
  rec.attempts = r.get_u32();
  rec.spec = r.get_str();
}

// A one-sided encoder (its reader is elsewhere) pairs with nothing here.
inline void encode_export_record(WireWriter& w, const Record& rec) {
  w.put_str(rec.spec);
}

// Call sites are not definitions; a round trip contributes no pair.
inline void roundtrip(WireWriter& w, WireReader& r, Record& rec) {
  encode_job_record(w, rec);
  decode_job_record(r, rec);
}

}  // namespace fixture
