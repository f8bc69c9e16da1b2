#include "ckpt/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string_view>
#include <utility>

#include "util/atomic_file.hpp"

namespace memsched::ckpt {

namespace {

/// Slicing-by-8 tables: kCrc[0] is the bytewise table, and kCrc[k][b] is the
/// CRC of byte b followed by k zero bytes, so eight lookups advance the CRC
/// over eight bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffU];
    }
  }
  return t;
}

constexpr auto kCrc = make_crc_tables();

/// Fixed-size fields of the layout in snapshot.hpp: the file header is
/// kHeaderBytes (magic, version, fp_len, nsections) plus the fingerprint; a
/// section frame is name_len, the name, then payload_len and crc32.
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 3 * sizeof(std::uint32_t);
constexpr std::size_t kNameLenBytes = sizeof(std::uint32_t);
constexpr std::size_t kLenCrcBytes = sizeof(std::uint64_t) + sizeof(std::uint32_t);

/// A fresh Writer's capacity, and the headroom it reserves for the file
/// header. Fingerprints run to ~600 bytes; a longer one than the headroom
/// holds costs save() one move of the section bytes.
constexpr std::size_t kMinCapacity = std::size_t{64} << 10;
constexpr std::size_t kHeadroom = 4096;

/// The calling thread's idle Writer buffer (see Writer in snapshot.hpp).
struct SpareBuffer {
  std::unique_ptr<std::uint8_t[]> buf;
  std::size_t cap = 0;
};
thread_local SpareBuffer t_spare;

template <typename T>
std::uint8_t* store(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof v);
  return p + sizeof v;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static_assert(std::endian::native == std::endian::little,
                "crc32 loads eight bytes as one little-endian word");
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = 0xffffffffU;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof w);
    w ^= c;
    c = kCrc[7][w & 0xffU] ^ kCrc[6][(w >> 8) & 0xffU] ^ kCrc[5][(w >> 16) & 0xffU] ^
        kCrc[4][(w >> 24) & 0xffU] ^ kCrc[3][(w >> 32) & 0xffU] ^
        kCrc[2][(w >> 40) & 0xffU] ^ kCrc[1][(w >> 48) & 0xffU] ^ kCrc[0][w >> 56];
  }
  for (; size > 0; ++p, --size) c = kCrc[0][(c ^ *p) & 0xffU] ^ (c >> 8);
  return c ^ 0xffffffffU;
}

// ---------------------------------------------------------------------------
// Writer

Writer::Writer()
    : buf_(std::move(t_spare.buf)),
      cap_(std::exchange(t_spare.cap, 0)),
      head_(kHeadroom),
      size_(kHeadroom) {
  if (cap_ < kMinCapacity) {
    buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(kMinCapacity);
    cap_ = kMinCapacity;
  }
}

Writer::~Writer() {
  if (cap_ > t_spare.cap) {
    t_spare.buf = std::move(buf_);
    t_spare.cap = cap_;
  }
}

Writer::Writer(Writer&& other) noexcept
    : buf_(std::move(other.buf_)),
      cap_(std::exchange(other.cap_, 0)),
      head_(std::exchange(other.head_, 0)),
      size_(std::exchange(other.size_, 0)),
      sections_(std::move(other.sections_)) {}

void Writer::grow(std::size_t n) {
  const std::size_t cap = std::max(2 * cap_, size_ + n);
  auto buf = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
  std::memcpy(buf.get(), buf_.get(), size_);
  buf_ = std::move(buf);
  cap_ = cap;
}

void Writer::begin_section(const std::string& name) {
  for (const Section& s : sections_) {
    const std::string_view have(
        reinterpret_cast<const char*>(buf_.get() + s.frame + kNameLenBytes),
        s.payload - s.frame - kNameLenBytes - kLenCrcBytes);
    if (have == name) throw SnapshotError("snapshot: duplicate section '" + name + "'");
  }
  const std::size_t frame = size_;
  put_str32(name);
  put_u64(0);  // payload length and CRC: patched in by save()
  put_u32(0);
  sections_.push_back({frame, size_});
}

void Writer::put_rng(const util::Xoshiro256& rng) {
  const auto st = rng.state();
  for (const std::uint64_t w : st.s) put_u64(w);
}

void Writer::put_stat(const util::RunningStat& st) {
  put_u64(st.count());
  put_f64(st.raw_mean());
  put_f64(st.raw_m2());
  put_f64(st.raw_min());
  put_f64(st.raw_max());
  put_f64(st.sum());
}

void Writer::put_hist(const util::Histogram& h) {
  put_u64(h.bucket_count());
  for (std::size_t i = 0; i < h.bucket_count(); ++i) put_u64(h.bucket(i));
  put_u64(h.overflow());
  put_u64(h.count());
}

void Writer::save(const std::string& path, const std::string& fingerprint) {
  if ((sections_.empty() ? size_ : sections_.front().frame) != head_) {
    throw std::logic_error("ckpt::Writer: put_* before the first begin_section");
  }
  const std::size_t header = kHeaderBytes + fingerprint.size();
  if (header > head_) {
    const std::size_t shift = header - head_;
    if (shift > cap_ - size_) grow(shift);
    std::memmove(buf_.get() + header, buf_.get() + head_, size_ - head_);
    for (Section& s : sections_) {
      s.frame += shift;
      s.payload += shift;
    }
    head_ = header;
    size_ += shift;
  }
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const std::size_t payload = sections_[i].payload;
    const std::size_t end = i + 1 < sections_.size() ? sections_[i + 1].frame : size_;
    std::uint8_t* p = buf_.get() + payload - kLenCrcBytes;
    p = store(p, static_cast<std::uint64_t>(end - payload));
    store(p, crc32(buf_.get() + payload, end - payload));
  }
  std::uint8_t* const start = buf_.get() + head_ - header;
  std::uint8_t* p = store(start, kMagic);
  p = store(p, kVersion);
  p = store(p, static_cast<std::uint32_t>(fingerprint.size()));
  std::memcpy(p, fingerprint.data(), fingerprint.size());
  store(p + fingerprint.size(), static_cast<std::uint32_t>(sections_.size()));
  util::atomic_write_file(path, start, size_ - (head_ - header));
}

std::vector<std::uint8_t> Writer::record() const {
  if (!sections_.empty()) throw std::logic_error("ckpt::Writer: record() after begin_section");
  return {buf_.get() + head_, buf_.get() + size_};
}

// ---------------------------------------------------------------------------
// Reader

Reader::Reader(const std::string& path, const std::string& expected_fingerprint) {
  if (const int err = util::read_file(path, owned_); err != 0) {
    throw SnapshotError("snapshot: cannot read " + path + ": " + std::strerror(err));
  }
  image_ = {owned_.data(), owned_.size()};
  parse(expected_fingerprint);
}

Reader::Reader(const std::vector<std::uint8_t>& image,
               const std::optional<std::string>& expected_fingerprint)
    : image_{image.data(), image.size()} {
  parse(expected_fingerprint);
}

Reader::Reader(Span record) : image_(record) { open(&image_, "record"); }

Reader Reader::record(const std::uint8_t* data, std::size_t size) {
  return Reader(Span{data, size});
}

void Reader::parse(const std::optional<std::string>& expected_fingerprint) {
  // The header and the section frames are read with the same cursor as the
  // sections themselves, so one bounds check guards every byte.
  open(&image_, "file");
  if (get_u64() != kMagic) throw SnapshotError("snapshot: bad magic");
  const std::uint32_t version = get_u32();
  if (version != kVersion) {
    throw SnapshotError("snapshot: schema version " + std::to_string(version) +
                        " != expected " + std::to_string(kVersion));
  }
  fingerprint_ = get_str32();
  if (expected_fingerprint && fingerprint_ != *expected_fingerprint) {
    throw SnapshotError("snapshot: fingerprint mismatch (snapshot is for a "
                        "different configuration)");
  }
  const std::uint32_t nsections = get_u32();
  for (std::uint32_t i = 0; i < nsections; ++i) {
    const std::string name = get_str32();
    const std::uint64_t len = get_u64();
    const std::uint32_t stored_crc = get_u32();
    const Span payload{need(static_cast<std::size_t>(len)), static_cast<std::size_t>(len)};
    if (crc32(payload.data, payload.size) != stored_crc) {
      throw SnapshotError("snapshot: CRC mismatch in section '" + name + "'");
    }
    if (!sections_.emplace(name, payload).second) {
      throw SnapshotError("snapshot: duplicate section '" + name + "'");
    }
  }
  if (pos_ != image_.size) {
    throw SnapshotError("snapshot: " + std::to_string(image_.size - pos_) +
                        " trailing byte(s) after the last section");
  }
  cur_ = nullptr;
}

bool Reader::has_section(const std::string& name) const {
  return sections_.count(name) != 0;
}

void Reader::open_section(const std::string& name) {
  const auto it = sections_.find(name);
  if (it == sections_.end()) {
    throw SnapshotError("snapshot: missing section '" + name + "'");
  }
  open(&it->second, "section '" + name + "'");
}

void Reader::open(const Span* span, std::string what) {
  cur_ = span;
  what_ = std::move(what);
  pos_ = 0;
}

const std::uint8_t* Reader::need(std::size_t n) {
  if (cur_ == nullptr) throw SnapshotError("snapshot: no section open");
  if (n > cur_->size - pos_) throw SnapshotError("snapshot: read past end of " + what_);
  const std::uint8_t* r = cur_->data + pos_;
  pos_ += n;
  return r;
}

std::uint8_t Reader::get_u8() { return *need(1); }

std::uint32_t Reader::get_u32() {
  std::uint32_t v;
  std::memcpy(&v, need(sizeof(v)), sizeof(v));
  return v;
}

std::uint64_t Reader::get_u64() {
  std::uint64_t v;
  std::memcpy(&v, need(sizeof(v)), sizeof(v));
  return v;
}

double Reader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string Reader::get_str() {
  const auto n = static_cast<std::size_t>(get_u64());
  return {reinterpret_cast<const char*>(need(n)), n};
}

std::string Reader::get_str32() {
  const std::uint32_t n = get_u32();
  return {reinterpret_cast<const char*>(need(n)), n};
}

std::vector<std::uint64_t> Reader::get_u64_vec() {
  const std::uint64_t len = get_u64();
  // Divide rather than multiply: len * 8 wraps for len >= 2^61.
  if (len > (cur_->size - pos_) / sizeof(std::uint64_t)) {
    throw SnapshotError("snapshot: implausible vector length in " + what_);
  }
  std::vector<std::uint64_t> v(static_cast<std::size_t>(len));
  for (auto& x : v) x = get_u64();
  return v;
}

std::size_t Reader::get_seq_len() {
  const std::uint64_t len = get_u64();
  // Every element takes at least one byte.
  if (len > cur_->size - pos_) {
    throw SnapshotError("snapshot: implausible sequence length in " + what_);
  }
  return static_cast<std::size_t>(len);
}

void Reader::count(std::uint64_t n, const char* what) {
  if (get_u64() != n) throw SnapshotError(std::string("snapshot: ") + what + " mismatch");
}

void Reader::get_rng(util::Xoshiro256& rng) {
  util::Xoshiro256::State st{};
  for (auto& w : st.s) w = get_u64();
  rng.set_state(st);
}

void Reader::get_stat(util::RunningStat& st) {
  const std::uint64_t n = get_u64();
  const double mean = get_f64();
  const double m2 = get_f64();
  const double mn = get_f64();
  const double mx = get_f64();
  const double sum = get_f64();
  st.restore(n, mean, m2, mn, mx, sum);
}

void Reader::get_hist(util::Histogram& h) {
  const std::uint64_t nbuckets = get_u64();
  if (nbuckets != h.bucket_count()) {
    throw SnapshotError("snapshot: histogram geometry mismatch in " + what_);
  }
  std::vector<std::uint64_t> buckets(static_cast<std::size_t>(nbuckets));
  for (auto& b : buckets) b = get_u64();
  const std::uint64_t overflow = get_u64();
  const std::uint64_t total = get_u64();
  h.restore(buckets, overflow, total);
}

void Reader::close_section() {
  if (cur_ == nullptr) throw SnapshotError("snapshot: no section open");
  if (pos_ != cur_->size) {
    throw SnapshotError("snapshot: " + what_ + " not fully consumed (schema drift)");
  }
  cur_ = nullptr;
  pos_ = 0;
}

}  // namespace memsched::ckpt
