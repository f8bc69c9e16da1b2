// Instruction-stream abstraction consumed by the core performance model.
//
// A stream yields one InstRecord per dynamic instruction. Streams are
// infinite: the run-length protocol ("run until the last core commits N
// instructions; early finishers reload and keep running", §4.1) is handled
// by the simulation kernel, which simply keeps pulling.
//
// Each core owns its stream, and the sampled engine advances the cores'
// streams concurrently during its functional fast-forward. Streams of
// different cores must therefore not share mutable state (RNGs, cursors,
// buffers, file handles).
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace memsched::ckpt {
class Writer;
class Reader;
}  // namespace memsched::ckpt

namespace memsched::trace {

enum class InstClass : std::uint8_t {
  kCompute = 0,  ///< non-memory instruction
  kLoad = 1,
  kStore = 2,
};

/// 16 bytes, so next() returns it in registers rather than through memory.
/// The field order is layout only: trace files and snapshots encode the
/// fields one by one, and the constructor keeps the (cls, addr, dep) order.
struct InstRecord {
  InstClass cls = InstClass::kCompute;
  bool dep_on_prev = false; ///< load depends on the previous load (pointer chase)
  Addr addr = 0;            ///< effective address for loads/stores

  constexpr InstRecord() = default;
  constexpr InstRecord(InstClass c, Addr a, bool dep) : cls(c), dep_on_prev(dep), addr(a) {}
};
static_assert(sizeof(InstRecord) == 16);

class InstStream {
 public:
  virtual ~InstStream() = default;

  /// Next dynamic instruction.
  virtual InstRecord next() = 0;

  /// Batched form for the functional fast-forward: advance up to
  /// `max_insts` instructions, stopping at (and consuming) the first memory
  /// reference, which is written to `rec`. Returns the instruction count
  /// consumed, including the reference. If no reference occurs, all
  /// `max_insts` are consumed and `rec.cls` is kCompute. The default loops
  /// next(); implementations may override to skip compute runs without a
  /// virtual call per instruction, but must consume the same stream state
  /// (RNG draws, cursors) as the equivalent next() sequence.
  virtual std::uint64_t next_ref(std::uint64_t max_insts, InstRecord& rec) {
    for (std::uint64_t i = 1; i <= max_insts; ++i) {
      rec = next();
      if (rec.cls != InstClass::kCompute) return i;
    }
    rec = InstRecord{};
    return max_insts;
  }

  /// Restart the stream with a new slice seed (SimPoint-slice stand-in:
  /// different seeds model different program slices).
  virtual void reset(std::uint64_t seed) = 0;

  /// Size of the instruction footprint in bytes (for I-fetch modeling);
  /// 0 disables I-fetch modeling for this stream. Fixed for the stream's
  /// lifetime (reset() included): the core reads it once, at construction.
  [[nodiscard]] virtual std::uint64_t code_bytes() const { return 0; }

  /// Base address of the code region; fixed for the stream's lifetime, like
  /// code_bytes().
  [[nodiscard]] virtual Addr code_base() const { return 0; }

  /// Checkpoint/restore of the stream's position. The defaults throw
  /// ckpt::SnapshotError: a stream type must opt in explicitly, because a
  /// silently-unsaved stream would desynchronize a resumed run.
  virtual void save_state(ckpt::Writer& w) const;
  virtual void load_state(ckpt::Reader& r);
};

}  // namespace memsched::trace
