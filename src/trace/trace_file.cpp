#include "trace/trace_file.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "ckpt/snapshot.hpp"
#include "util/assert.hpp"

namespace memsched::trace {

namespace {

constexpr char kMagic[4] = {'M', 'S', 'T', '1'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_or_throw(const std::string& path, const char* mode) {
  FilePtr f(std::fopen(path.c_str(), mode));
  if (!f) throw std::runtime_error("cannot open trace file: " + path);
  return f;
}

/// Corrupt/truncated input diagnosis: every failure names the file, the byte
/// offset where reading stopped, and what was expected there — enough to
/// inspect the bad spot with xxd instead of guessing.
[[noreturn]] void fail_at(const std::string& path, std::FILE* f,
                          const std::string& reason) {
  const long off = std::ftell(f);
  throw std::runtime_error("corrupt trace '" + path + "' at byte offset " +
                           (off >= 0 ? std::to_string(off) : std::string("?")) + ": " +
                           reason);
}

[[noreturn]] void fail_write(const std::string& path) {
  throw std::runtime_error("trace write failed: " + path);
}

void put_u64(std::FILE* f, std::uint64_t v, const std::string& path) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  if (std::fwrite(buf, 1, 8, f) != 8) fail_write(path);
}

std::uint64_t get_u64(std::FILE* f, const std::string& path, const char* what) {
  unsigned char buf[8];
  const std::size_t got = std::fread(buf, 1, 8, f);
  if (got != 8) {
    fail_at(path, f,
            std::string("truncated ") + what + " (expected 8 bytes, got " +
                std::to_string(got) + ")");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return v;
}

long file_size_of(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long size = std::ftell(f);
  std::fseek(f, pos, SEEK_SET);
  return size;
}

}  // namespace

void write_binary_trace(const std::string& path, const std::vector<InstRecord>& records) {
  FilePtr f = open_or_throw(path, "wb");
  if (std::fwrite(kMagic, 1, 4, f.get()) != 4) fail_write(path);
  put_u64(f.get(), records.size(), path);
  for (const InstRecord& r : records) {
    const auto cls = static_cast<unsigned char>(r.cls);
    const unsigned char flags =
        static_cast<unsigned char>(cls | (r.dep_on_prev ? 0x80 : 0));
    if (std::fputc(flags, f.get()) == EOF) fail_write(path);
    if (r.cls != InstClass::kCompute) put_u64(f.get(), r.addr, path);
  }
}

std::vector<InstRecord> read_binary_trace(const std::string& path) {
  FilePtr f = open_or_throw(path, "rb");
  char magic[4];
  const std::size_t got = std::fread(magic, 1, 4, f.get());
  if (got != 4 || std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("not a memsched binary trace (bad magic): " + path);
  const std::uint64_t count = get_u64(f.get(), path, "record count header");
  // Sanity-check the header against the file size before trusting it with a
  // reserve(): each record is at least 1 byte, so a count beyond the
  // remaining bytes means a corrupt or truncated header, not a huge trace.
  if (const long size = file_size_of(f.get());
      size >= 0 && count > static_cast<std::uint64_t>(size)) {
    fail_at(path, f.get(),
            "record count header claims " + std::to_string(count) +
                " records but the file holds only " + std::to_string(size) + " bytes");
  }
  std::vector<InstRecord> records;
  records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const int flags = std::fgetc(f.get());
    if (flags == EOF) {
      fail_at(path, f.get(),
              "truncated at record " + std::to_string(i) + " of " +
                  std::to_string(count));
    }
    InstRecord r;
    const int cls = flags & 0x3;
    if (cls > 2) {
      fail_at(path, f.get(),
              "record " + std::to_string(i) + " has invalid class bits " +
                  std::to_string(cls));
    }
    r.cls = static_cast<InstClass>(cls);
    r.dep_on_prev = (flags & 0x80) != 0;
    if (r.cls != InstClass::kCompute)
      r.addr = get_u64(f.get(), path, "record address");
    records.push_back(r);
  }
  return records;
}

void write_text_trace(const std::string& path, const std::vector<InstRecord>& records) {
  FilePtr f = open_or_throw(path, "w");
  for (const InstRecord& r : records) {
    switch (r.cls) {
      case InstClass::kCompute:
        std::fprintf(f.get(), "C\n");
        break;
      case InstClass::kLoad:
        std::fprintf(f.get(), "%c %llx\n", r.dep_on_prev ? 'D' : 'L',
                     static_cast<unsigned long long>(r.addr));
        break;
      case InstClass::kStore:
        std::fprintf(f.get(), "S %llx\n", static_cast<unsigned long long>(r.addr));
        break;
    }
  }
  if (std::ferror(f.get())) fail_write(path);
}

std::vector<InstRecord> read_text_trace(const std::string& path) {
  FilePtr f = open_or_throw(path, "r");
  std::vector<InstRecord> records;
  char line[256];
  std::size_t lineno = 0;
  const auto fail_line = [&](const std::string& reason) {
    throw std::runtime_error("corrupt trace '" + path + "' at line " +
                             std::to_string(lineno) + ": " + reason);
  };
  while (std::fgets(line, sizeof line, f.get())) {
    ++lineno;
    char op = 0;
    unsigned long long addr = 0;
    const int n = std::sscanf(line, " %c %llx", &op, &addr);
    if (n < 1 || op == '#') continue;  // blank or comment
    InstRecord r;
    switch (op) {
      case 'C':
        break;
      case 'L':
      case 'D':
        if (n != 2) fail_line("load needs an address");
        r.cls = InstClass::kLoad;
        r.addr = addr;
        r.dep_on_prev = (op == 'D');
        break;
      case 'S':
        if (n != 2) fail_line("store needs an address");
        r.cls = InstClass::kStore;
        r.addr = addr;
        break;
      default:
        fail_line(std::string("unknown op '") + op + "'");
    }
    records.push_back(r);
  }
  if (std::ferror(f.get()))
    throw std::runtime_error("read error on trace '" + path + "' after line " +
                             std::to_string(lineno));
  return records;
}

ReplayStream::ReplayStream(std::vector<InstRecord> records)
    : records_(std::move(records)) {
  MEMSCHED_ASSERT(!records_.empty(), "replay stream needs at least one record");
}

InstRecord ReplayStream::next() {
  const InstRecord r = records_[pos_];
  if (++pos_ == records_.size()) {
    pos_ = 0;
    ++wraps_;
  }
  return r;
}

void ReplayStream::reset(std::uint64_t /*seed*/) {
  pos_ = 0;
  wraps_ = 0;
}

template <class Self, class Io>
void ReplayStream::fields(Self& self, Io& io) {
  io(self.pos_);
  io(self.wraps_);
}

void ReplayStream::save_state(ckpt::Writer& w) const { fields(*this, w); }

void ReplayStream::load_state(ckpt::Reader& r) {
  fields(*this, r);
  if (pos_ >= records_.size()) {
    throw ckpt::SnapshotError("snapshot: replay cursor out of range");
  }
}

}  // namespace memsched::trace
