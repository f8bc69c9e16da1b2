// Physical-address to DRAM-coordinate mapping.
//
// The paper evaluates close-page mode with *cache-line interleaving*
// (§4.1): consecutive 64 B lines rotate across channels, then banks, so
// independent requests spread over all banks and the row buffer is exploited
// only by concurrent same-row requests (which is exactly what the Hit-First
// component of every scheduler looks for). Page interleaving (consecutive
// lines fill a row before moving on) is also provided for the ablation
// bench and for users studying open-page controllers.
#pragma once

#include <cstdint>
#include <string>

#include "dram/timing.hpp"
#include "util/types.hpp"

namespace memsched::dram {

/// Decoded DRAM coordinates of one cache-line-sized access.
struct DramAddress {
  std::uint32_t channel = 0;  ///< logic channel
  std::uint32_t bank = 0;     ///< flattened (dimm, bank) within the channel
  std::uint64_t row = 0;
  std::uint64_t col_line = 0;  ///< line index within the row

  bool operator==(const DramAddress&) const = default;
};

enum class Interleave {
  kLineInterleave,  ///< line bits -> channel, bank, column, row (banks fastest)
  kPageInterleave,  ///< open-page style: line bits -> column, channel, bank, row
  kHybrid,          ///< paper default: line bits -> channel, column, bank, row —
                    ///< consecutive lines alternate channels but stay within one
                    ///< row per bank, so sequential streams expose deep same-row
                    ///< runs for the Hit-First component to exploit
};

/// Parses "line" / "page" / "hybrid"; throws std::invalid_argument otherwise.
[[nodiscard]] Interleave interleave_from_string(const std::string& s);

/// Converts between physical addresses and DRAM coordinates. All address
/// bits above the modeled capacity wrap (addresses are taken modulo
/// capacity); the synthetic generators keep footprints within capacity.
class AddressMap {
 public:
  /// `bank_xor` enables permutation-based bank indexing (Zhang et al.,
  /// MICRO 2000): the bank index is XORed with the low row bits, spreading
  /// same-bank conflicts of strided/power-of-two access patterns across
  /// all banks while keeping the mapping a bijection.
  AddressMap(const Organization& org, Interleave scheme, bool bank_xor = false);

  [[nodiscard]] DramAddress decode(Addr addr) const;
  [[nodiscard]] Addr encode(const DramAddress& da) const;

  [[nodiscard]] Interleave scheme() const { return scheme_; }
  [[nodiscard]] bool bank_xor() const { return bank_xor_; }
  [[nodiscard]] const Organization& organization() const { return org_; }

  static std::string scheme_name(Interleave scheme);

 private:
  Organization org_;
  Interleave scheme_;
  bool bank_xor_;
  unsigned channel_bits_;
  unsigned bank_bits_;
  unsigned col_bits_;   ///< line-index-within-row bits
  unsigned row_bits_;
};

}  // namespace memsched::dram
