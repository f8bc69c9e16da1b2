// Framing shared by the job queue's WAL records and the daemon's socket
// protocol.
//
// Record fields are ckpt's (ckpt::Writer::record / ckpt::Reader::record:
// little-endian scalars, u32-length strings, one bounds check, and
// ckpt::SnapshotError on any structural problem). Framing adds a fixed
// header per record:
//
//   magic u32  'MSQ1' (queue records) or 'MSG1' (socket messages)
//   len   u32  payload byte count (bounded; a torn length can't OOM us)
//   crc   u32  CRC-32 of the payload (ckpt::crc32)
//   payload
//
// The frame is what makes both transports crash- and corruption-evident: a
// WAL append SIGKILLed at any byte offset leaves a tail whose magic, length
// or CRC cannot check out, and recovery truncates it; a half-written socket
// message is rejected the same way instead of being half-interpreted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace memsched::serve {

inline constexpr std::uint32_t kQueueFrameMagic = 0x3151'534d;  // "MSQ1"
inline constexpr std::uint32_t kWireFrameMagic = 0x3147'534d;   // "MSG1"

/// Hard bound on one frame's payload. Submissions and reports are small;
/// anything bigger is a corrupt length field, not a legitimate message.
inline constexpr std::uint32_t kMaxFramePayload = 16u * 1024 * 1024;

/// Wraps `payload` in a magic/len/CRC frame. Throws ckpt::SnapshotError
/// when the payload exceeds kMaxFramePayload.
[[nodiscard]] std::vector<std::uint8_t> frame_payload(
    std::uint32_t magic, const std::vector<std::uint8_t>& payload);

/// Result of scanning one frame out of a byte stream.
struct FrameParse {
  bool ok = false;           ///< a complete, CRC-clean frame was extracted
  bool need_more = false;    ///< prefix of a valid frame; not enough bytes yet
  std::size_t consumed = 0;  ///< bytes used (header + payload) when ok
  std::vector<std::uint8_t> payload;
  std::string error;  ///< diagnosis when !ok && !need_more (torn/corrupt)
};

/// Parses the frame starting at `data`. Distinguishes "incomplete but so far
/// valid" (a WAL tail mid-append, a socket message mid-read) from "corrupt"
/// (bad magic, oversized length, CRC mismatch).
[[nodiscard]] FrameParse parse_frame(std::uint32_t magic, const std::uint8_t* data,
                                     std::size_t size);

/// Writes one framed message to `fd`. False + errno on I/O failure.
[[nodiscard]] bool write_message(int fd, const std::vector<std::uint8_t>& payload);

/// Reads one framed message from `fd` (blocking). False on EOF, I/O error,
/// or a corrupt frame (`*error` says which, in parse_frame's words).
[[nodiscard]] bool read_message(int fd, std::vector<std::uint8_t>* payload,
                                std::string* error);

/// JSON convenience used by the daemon protocol: one JSON document per
/// framed message.
[[nodiscard]] bool write_json(int fd, const util::Json& doc);

}  // namespace memsched::serve
