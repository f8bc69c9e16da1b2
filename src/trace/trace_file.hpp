// Trace file I/O — replaying user-supplied traces instead of the synthetic
// generators.
//
// Binary format (little-endian):
//   magic "MST1" | u64 record count | records...
//   record: u8 flags | u64 addr (memory records only)
//     flags bit 0-1: InstClass (0 compute, 1 load, 2 store)
//     flags bit 7:   dep_on_prev
//
// Text format: one record per line —
//   "C"           compute
//   "L <hexaddr>" load          "D <hexaddr>" dependent load
//   "S <hexaddr>" store
// '#' starts a comment; blank lines are skipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/inst_stream.hpp"

namespace memsched::trace {

/// Throws std::runtime_error on I/O or format errors.
void write_binary_trace(const std::string& path, const std::vector<InstRecord>& records);
std::vector<InstRecord> read_binary_trace(const std::string& path);

void write_text_trace(const std::string& path, const std::vector<InstRecord>& records);
std::vector<InstRecord> read_text_trace(const std::string& path);

/// Replays a fixed record sequence, wrapping around at the end (streams are
/// infinite by contract). reset() restarts from the beginning.
class ReplayStream final : public InstStream {
 public:
  explicit ReplayStream(std::vector<InstRecord> records);

  InstRecord next() override;
  void reset(std::uint64_t seed) override;

  [[nodiscard]] std::size_t length() const { return records_.size(); }
  [[nodiscard]] std::uint64_t wraps() const { return wraps_; }

  // --- checkpoint/restore (replay cursor) ---
  void save_state(ckpt::Writer& w) const override;
  void load_state(ckpt::Reader& r) override;

 private:
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  std::vector<InstRecord> records_;
  std::size_t pos_ = 0;
  std::uint64_t wraps_ = 0;
};

}  // namespace memsched::trace
