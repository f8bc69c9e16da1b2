#include "dram/address_map.hpp"

#include <stdexcept>

#include "util/assert.hpp"
#include "util/bitops.hpp"

namespace memsched::dram {

using util::bits;
using util::deposit;
using util::ilog2;

Interleave interleave_from_string(const std::string& s) {
  if (s == "line") return Interleave::kLineInterleave;
  if (s == "page") return Interleave::kPageInterleave;
  if (s == "hybrid") return Interleave::kHybrid;
  throw std::invalid_argument("unknown interleave '" + s +
                              "' (expected line|page|hybrid)");
}

AddressMap::AddressMap(const Organization& org, Interleave scheme, bool bank_xor)
    : org_(org), scheme_(scheme), bank_xor_(bank_xor) {
  MEMSCHED_ASSERT(org.validate().empty(), "invalid DRAM organization");
  channel_bits_ = ilog2(org.channels);
  bank_bits_ = ilog2(org.banks_per_channel());
  col_bits_ = ilog2(org.lines_per_row());
  row_bits_ = ilog2(org.rows_per_bank());
}

DramAddress AddressMap::decode(Addr addr) const {
  const std::uint64_t line = addr >> kLineShift;
  DramAddress da;
  unsigned pos = 0;
  switch (scheme_) {
    case Interleave::kLineInterleave:
      // LSB -> MSB: channel | bank | column | row. Consecutive lines rotate
      // channels then banks; lines 1*(channels*banks) apart share a row.
      da.channel = static_cast<std::uint32_t>(bits(line, pos, channel_bits_));
      pos += channel_bits_;
      da.bank = static_cast<std::uint32_t>(bits(line, pos, bank_bits_));
      pos += bank_bits_;
      da.col_line = bits(line, pos, col_bits_);
      pos += col_bits_;
      da.row = bits(line, pos, row_bits_);
      break;
    case Interleave::kPageInterleave:
      // LSB -> MSB: column | channel | bank | row. Consecutive lines fill a
      // whole row before moving to the next channel/bank.
      da.col_line = bits(line, pos, col_bits_);
      pos += col_bits_;
      da.channel = static_cast<std::uint32_t>(bits(line, pos, channel_bits_));
      pos += channel_bits_;
      da.bank = static_cast<std::uint32_t>(bits(line, pos, bank_bits_));
      pos += bank_bits_;
      da.row = bits(line, pos, row_bits_);
      break;
    case Interleave::kHybrid:
      // LSB -> MSB: channel | column | bank | row. Lines alternate channels;
      // within a channel, a sequential run stays in one bank's row.
      da.channel = static_cast<std::uint32_t>(bits(line, pos, channel_bits_));
      pos += channel_bits_;
      da.col_line = bits(line, pos, col_bits_);
      pos += col_bits_;
      da.bank = static_cast<std::uint32_t>(bits(line, pos, bank_bits_));
      pos += bank_bits_;
      da.row = bits(line, pos, row_bits_);
      break;
  }
  if (bank_xor_ && bank_bits_ > 0) {
    // Permutation-based interleaving: XOR with the low row bits is an
    // involution, so encode() simply applies the same transform.
    da.bank ^= static_cast<std::uint32_t>(da.row & ((1u << bank_bits_) - 1));
  }
  return da;
}

Addr AddressMap::encode(const DramAddress& da_in) const {
  DramAddress da = da_in;
  if (bank_xor_ && bank_bits_ > 0) {
    da.bank ^= static_cast<std::uint32_t>(da.row & ((1u << bank_bits_) - 1));
  }
  std::uint64_t line = 0;
  unsigned pos = 0;
  switch (scheme_) {
    case Interleave::kLineInterleave:
      line |= deposit(da.channel, pos, channel_bits_);
      pos += channel_bits_;
      line |= deposit(da.bank, pos, bank_bits_);
      pos += bank_bits_;
      line |= deposit(da.col_line, pos, col_bits_);
      pos += col_bits_;
      line |= deposit(da.row, pos, row_bits_);
      break;
    case Interleave::kPageInterleave:
      line |= deposit(da.col_line, pos, col_bits_);
      pos += col_bits_;
      line |= deposit(da.channel, pos, channel_bits_);
      pos += channel_bits_;
      line |= deposit(da.bank, pos, bank_bits_);
      pos += bank_bits_;
      line |= deposit(da.row, pos, row_bits_);
      break;
    case Interleave::kHybrid:
      line |= deposit(da.channel, pos, channel_bits_);
      pos += channel_bits_;
      line |= deposit(da.col_line, pos, col_bits_);
      pos += col_bits_;
      line |= deposit(da.bank, pos, bank_bits_);
      pos += bank_bits_;
      line |= deposit(da.row, pos, row_bits_);
      break;
  }
  return line << kLineShift;
}

std::string AddressMap::scheme_name(Interleave scheme) {
  switch (scheme) {
    case Interleave::kLineInterleave: return "line-interleave";
    case Interleave::kPageInterleave: return "page-interleave";
    case Interleave::kHybrid: return "hybrid-interleave";
  }
  return "?";
}

}  // namespace memsched::dram
