// Versioned binary snapshot format for simulator checkpoint/restore.
//
// Layout (host-endian, little-endian assumed as everywhere in this codebase):
//
//   magic     u64   "MEMSCKP1" — format identity
//   version   u32   schema version; bumped whenever any component changes
//                   what it serializes (old snapshots are then discarded)
//   fp_len    u32   fingerprint byte length
//   fp        bytes configuration fingerprint (seed, SystemConfig, run
//                   parameters) — a snapshot only resumes the exact run that
//                   wrote it
//   nsections u32
//   per section:
//     name_len u32, name bytes, payload_len u64, crc32 u32, payload bytes
//
// Nothing follows the last section: the reader rejects trailing bytes, which
// no CRC would cover.
//
// Every section carries its own CRC32 so corruption (truncation, bit flips)
// is detected before any byte is interpreted; a reader failure is always a
// SnapshotError, never UB, and callers fall back to a from-scratch run.
//
// Writer and Reader are also the one field codec for the other persisted
// and framed formats: result-cache entries are snapshots, and the sweep
// daemon's WAL records and socket frames are bare records (Writer::record,
// Reader::record) framed by src/serve/wire.
//
// Field lists. A stateful component states its section's format once, as a
// private member template
//
//   template <class Self, class Io> static void fields(Self& self, Io& io);
//
// that names every field in file order: io(self.x_) for a field,
// io.count(n, "what") for a length fixed by the configuration,
// io.seq(container, fn) for a variable-length list, io.nested(part) for a
// component with its own save_state/load_state. save_state(w) const is
// fields(*this, w) (Self = const X, Io = Writer) and load_state(r) is
// fields(*this, r), so the two directions cannot drift apart. Writer and
// Reader share these member names, each one line over put_*/get_*, so every
// encoding still exists once; Reader's overloads bind by reference, so a
// field whose C++ type has no overload (a width the format does not have)
// fails to compile. The free-function codecs (result-cache entries, WAL
// records, socket frames) keep put_*/get_*.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace memsched::ckpt {

inline constexpr std::uint64_t kMagic = 0x3150'4b43'534d'454dULL;  // "MEMSCKP1"
inline constexpr std::uint32_t kVersion = 2;  // v2: controller interval/epoch state

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
/// Snapshot sections, result-cache entries and serve wire frames use it.
std::uint32_t crc32(const void* data, std::size_t size);

/// Any structural problem with a snapshot or record: bad magic, version or
/// fingerprint mismatch, CRC failure, truncation, or a read past the end.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Serializes named sections of plain scalars and saves them atomically.
/// Components append to the section the caller opened; the writer owns
/// framing, CRCs and the atomic tmp+fsync+rename publish.
///
/// The file image is built in place in one contiguous buffer: each put_* is
/// an inline append, begin_section writes a frame whose length and CRC save()
/// patches in, and save() writes the file header into headroom reserved in
/// front of the first section, so the buffer is published without a copy.
///
/// Buffer reuse: a Writer takes its buffer from a per-thread spare and gives
/// it back, capacity intact, when destroyed, so a thread's later saves
/// neither allocate nor fault in fresh pages. One buffer per thread: the
/// spare goes to one Writer at a time; a second Writer alive on the same
/// thread allocates its own, and the thread keeps the larger of the two.
/// Writers therefore never share bytes, and each thread keeps one buffer of
/// about its largest snapshot (capacity doubles as a buffer grows).
class Writer {
 public:
  Writer();
  ~Writer();
  Writer(Writer&& other) noexcept;
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  Writer& operator=(Writer&&) = delete;

  /// Starts a new section; subsequent put_* calls append to it. Section
  /// names must be unique within one snapshot.
  void begin_section(const std::string& name);

  void put_u8(std::uint8_t v) { append(&v, sizeof v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(std::uint32_t v) { append(&v, sizeof v); }
  void put_u64(std::uint64_t v) { append(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  /// Doubles round-trip bit-exactly (bit_cast through u64) — required for
  /// the byte-identical-report guarantee.
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_str(const std::string& s) {
    put_u64(s.size());
    append(s.data(), s.size());
  }
  /// A string with a u32 length: section names, the fingerprint, and the
  /// strings of WAL and socket records.
  void put_str32(const std::string& s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }
  void put_u64_vec(const std::vector<std::uint64_t>& v) {
    put_u64(v.size());
    // An empty vector's data() may be null, which memcpy may not be given.
    if (!v.empty()) append(v.data(), v.size() * sizeof(std::uint64_t));
  }

  void put_rng(const util::Xoshiro256& rng);
  void put_stat(const util::RunningStat& st);
  void put_hist(const util::Histogram& h);

  // Field-list vocabulary (see the top of this file).
  void operator()(bool v) { put_bool(v); }
  void operator()(std::uint8_t v) { put_u8(v); }
  void operator()(std::uint32_t v) { put_u32(v); }
  void operator()(std::uint64_t v) { put_u64(v); }
  void operator()(double v) { put_f64(v); }
  /// An enum is stored as one byte.
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E v) {
    put_u8(static_cast<std::uint8_t>(v));
  }
  void operator()(const std::vector<std::uint64_t>& v) { put_u64_vec(v); }
  void operator()(const util::Xoshiro256& rng) { put_rng(rng); }
  void operator()(const util::RunningStat& st) { put_stat(st); }
  void operator()(const util::Histogram& h) { put_hist(h); }
  template <class T>
  void nested(const T& part) {
    part.save_state(*this);
  }
  template <class Fn>
  void section(const std::string& name, Fn&& fill) {
    begin_section(name);
    fill();
  }
  /// A length the reader knows from its own configuration and checks.
  void count(std::uint64_t n, const char* /*what*/) { put_u64(n); }
  /// A variable-length list: its length, then `each` of every element.
  template <class C, class Fn>
  void seq(const C& c, Fn&& each) {
    put_u64(c.size());
    for (const auto& e : c) each(e);
  }

  /// Writes the snapshot to `path` via util::atomic_write_file. Throws on
  /// I/O failure; an existing snapshot at `path` is then left untouched, and
  /// save() may be called again.
  void save(const std::string& path, const std::string& fingerprint);

  /// The bytes put so far, for a bare record its caller frames (a WAL
  /// record, a frame header): no file header and no sections.
  [[nodiscard]] std::vector<std::uint8_t> record() const;

 private:
  /// Buffer offsets of one section's frame (its name_len field) and payload.
  struct Section {
    std::size_t frame;
    std::size_t payload;
  };

  void append(const void* p, std::size_t n) {
    if (n > cap_ - size_) grow(n);
    std::memcpy(buf_.get() + size_, p, n);
    size_ += n;
  }
  void grow(std::size_t n);

  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  ///< headroom: offset of the first section's frame
  std::size_t size_ = 0;
  std::vector<Section> sections_;
};

/// Parses and validates a snapshot, then hands out typed reads per section.
/// Construction validates magic, version, fingerprint and every section CRC
/// up front; afterwards reads can only fail on logical over-reads (which are
/// still SnapshotError, never UB). Every read, the header's included, goes
/// through one bounds check.
class Reader {
 public:
  /// Loads `path` through util::read_file, throwing SnapshotError (naming the
  /// errno when the read fails) unless the file is a complete, CRC-clean
  /// snapshot whose fingerprint equals `expected_fingerprint`.
  Reader(const std::string& path, const std::string& expected_fingerprint);

  /// Parses an in-memory image with the same validation, reading it in place:
  /// `image` must outlive the Reader. With no `expected_fingerprint` any
  /// fingerprint is accepted, and fingerprint() says which one the image
  /// carries (the result cache checks an entry's key that way).
  explicit Reader(const std::vector<std::uint8_t>& image,
                  const std::optional<std::string>& expected_fingerprint = std::nullopt);
  Reader(std::vector<std::uint8_t>&& image,
         const std::optional<std::string>& expected_fingerprint = std::nullopt) = delete;

  /// A bare record of `size` bytes at `data` (which must outlive the Reader),
  /// open as one section: no header, no CRC; close_section() checks that it
  /// was consumed exactly.
  [[nodiscard]] static Reader record(const std::uint8_t* data, std::size_t size);

  /// The cursor may point into the Reader itself: no copies, no moves.
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  [[nodiscard]] const std::string& fingerprint() const { return fingerprint_; }

  [[nodiscard]] bool has_section(const std::string& name) const;

  /// Positions the read cursor at the start of section `name`.
  void open_section(const std::string& name);

  std::uint8_t get_u8();
  bool get_bool() { return get_u8() != 0; }
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::string get_str();
  std::string get_str32();
  std::vector<std::uint64_t> get_u64_vec();

  void get_rng(util::Xoshiro256& rng);
  void get_stat(util::RunningStat& st);
  void get_hist(util::Histogram& h);

  // Field-list vocabulary (see the top of this file).
  void operator()(bool& v) { v = get_bool(); }
  void operator()(std::vector<bool>::reference v) { v = get_bool(); }
  void operator()(std::uint8_t& v) { v = get_u8(); }
  void operator()(std::uint32_t& v) { v = get_u32(); }
  void operator()(std::uint64_t& v) { v = get_u64(); }
  void operator()(double& v) { v = get_f64(); }
  template <class E>
    requires std::is_enum_v<E>
  void operator()(E& v) {
    v = static_cast<E>(get_u8());
  }
  void operator()(std::vector<std::uint64_t>& v) { v = get_u64_vec(); }
  void operator()(util::Xoshiro256& rng) { get_rng(rng); }
  void operator()(util::RunningStat& st) { get_stat(st); }
  void operator()(util::Histogram& h) { get_hist(h); }
  template <class T>
  void nested(T& part) {
    part.load_state(*this);
  }
  template <class Fn>
  void section(const std::string& name, Fn&& fill) {
    open_section(name);
    fill();
    close_section();
  }
  /// Reads a length and refuses any value but `n`: SnapshotError
  /// "snapshot: <what> mismatch".
  void count(std::uint64_t n, const char* what);
  /// Replaces `c` with the stored number of value-initialized elements, then
  /// reads `each` of them.
  template <class C, class Fn>
  void seq(C& c, Fn&& each) {
    c.clear();
    c.resize(get_seq_len());
    for (auto& e : c) each(e);
  }

  /// Asserts the open section was consumed exactly — a length mismatch means
  /// writer and reader disagree about the schema, which must not pass
  /// silently.
  void close_section();

 private:
  struct Span {
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
  };

  explicit Reader(Span record);
  void parse(const std::optional<std::string>& expected_fingerprint);
  void open(const Span* span, std::string what);
  const std::uint8_t* need(std::size_t n);
  /// A seq() length; one larger than the bytes left is refused.
  std::size_t get_seq_len();

  std::vector<std::uint8_t> owned_;  ///< the file image, when read from a path
  Span image_;                       ///< the whole file image, or the record
  std::string fingerprint_;
  std::map<std::string, Span> sections_;
  const Span* cur_ = nullptr;  ///< what the cursor reads: a section, the image
  std::string what_;           ///< cur_ for messages: "section 'x'", "file"
  std::size_t pos_ = 0;
};

}  // namespace memsched::ckpt
