#include "serve/wire.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>

#include "ckpt/snapshot.hpp"
#include "util/atomic_file.hpp"
#include "util/unix_socket.hpp"

namespace memsched::serve {

namespace {

constexpr std::size_t kHeaderBytes = 3 * sizeof(std::uint32_t);

/// The frame-header checks parse_frame and read_message share: the magic,
/// then the length bound. Returns the payload length and sets `crc`, or sets
/// `error`.
std::optional<std::uint32_t> check_header(std::uint32_t magic, const std::uint8_t* header,
                                          std::uint32_t& crc, std::string& error) {
  ckpt::Reader h = ckpt::Reader::record(header, kHeaderBytes);
  if (h.get_u32() != magic) {
    error = "bad magic";
    return std::nullopt;
  }
  const std::uint32_t len = h.get_u32();
  if (len > kMaxFramePayload) {
    error = "implausible frame length";
    return std::nullopt;
  }
  crc = h.get_u32();
  return len;
}

}  // namespace

std::vector<std::uint8_t> frame_payload(std::uint32_t magic,
                                        const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxFramePayload) throw ckpt::SnapshotError("wire: payload too large");
  ckpt::Writer w;
  w.put_u32(magic);
  w.put_u32(static_cast<std::uint32_t>(payload.size()));
  w.put_u32(ckpt::crc32(payload.data(), payload.size()));
  std::vector<std::uint8_t> out = w.record();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameParse parse_frame(std::uint32_t magic, const std::uint8_t* data, std::size_t size) {
  FrameParse r;
  if (size < kHeaderBytes) {
    // Could still be a valid header mid-write — but only if what IS there
    // matches the magic prefix. A wrong byte this early is corruption.
    if (std::memcmp(data, &magic, std::min(size, sizeof magic)) != 0) {
      r.error = "bad magic";
    } else {
      r.need_more = true;
    }
    return r;
  }
  std::uint32_t crc = 0;
  const std::optional<std::uint32_t> len = check_header(magic, data, crc, r.error);
  if (!len) return r;
  if (size - kHeaderBytes < *len) {
    r.need_more = true;
    return r;
  }
  const std::uint8_t* payload = data + kHeaderBytes;
  if (ckpt::crc32(payload, *len) != crc) {
    r.error = "payload CRC mismatch";
    return r;
  }
  r.ok = true;
  r.consumed = kHeaderBytes + *len;
  r.payload.assign(payload, payload + *len);
  return r;
}

bool write_message(int fd, const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> framed = frame_payload(kWireFrameMagic, payload);
  return util::write_all(fd, framed.data(), framed.size());
}

bool read_message(int fd, std::vector<std::uint8_t>* payload, std::string* error) {
  std::vector<std::uint8_t> frame(kHeaderBytes);
  std::string why;
  std::uint32_t crc = 0;
  if (!util::read_exact(fd, frame.data(), kHeaderBytes)) {
    why = errno == 0 ? "eof" : "read error";
  } else if (const auto len = check_header(kWireFrameMagic, frame.data(), crc, why)) {
    frame.resize(kHeaderBytes + *len);
    if (!util::read_exact(fd, frame.data() + kHeaderBytes, *len)) {
      why = "truncated frame";
    } else {
      FrameParse fp = parse_frame(kWireFrameMagic, frame.data(), frame.size());
      *payload = std::move(fp.payload);
      why = fp.error;
    }
  }
  if (error) *error = why;
  return why.empty();
}

bool write_json(int fd, const util::Json& doc) {
  const std::string text = doc.dump();
  std::vector<std::uint8_t> payload(text.begin(), text.end());
  return write_message(fd, payload);
}

}  // namespace memsched::serve
