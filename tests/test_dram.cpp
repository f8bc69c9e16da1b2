// Unit tests for src/dram: timing parameters, address mapping, bank state
// machine, channel bus arbitration.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "dram/address_map.hpp"
#include "dram/bank.hpp"
#include "dram/channel.hpp"
#include "dram/dram_system.hpp"
#include "dram/power.hpp"
#include "dram/timing.hpp"
#include "util/rng.hpp"

namespace memsched::dram {
namespace {

Timing ddr2() { return Timing{}; }

// ------------------------------------------------------------- timing -----

TEST(Timing, DefaultsAreValidDdr2_800) {
  const Timing t;
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  EXPECT_EQ(t.tCL, 5u);
  EXPECT_EQ(t.tRCD, 5u);
  EXPECT_EQ(t.tRP, 5u);
  EXPECT_EQ(t.tRC(), t.tRAS + t.tRP);
  EXPECT_EQ(t.min_read_cycles(), 5u + 5u + 2u);
}

TEST(Timing, RejectsZeroCoreParams) {
  Timing t;
  t.tCL = 0;
  EXPECT_FALSE(t.validate().empty());
}

TEST(Timing, RejectsWriteLatencyAboveCas) {
  Timing t;
  t.tWL = t.tCL + 1;
  EXPECT_FALSE(t.validate().empty());
}

TEST(Timing, RejectsRefreshIntervalBelowRfc) {
  Timing t;
  t.refresh_enabled = true;
  t.tREFI = t.tRFC;
  EXPECT_FALSE(t.validate().empty());
}

TEST(Timing, RefreshIntervalUncheckedWhileRefreshDisabled) {
  Timing t;
  t.tREFI = t.tRFC;  // inconsistent, but the refresh machinery is off
  EXPECT_TRUE(t.validate().empty());
}

TEST(Timing, RejectsRasShorterThanRcd) {
  Timing t;
  t.tRAS = t.tRCD - 1;
  EXPECT_FALSE(t.validate().empty());
}

TEST(Timing, RejectsZeroBurst) {
  Timing t;
  t.burst_cycles = 0;
  EXPECT_FALSE(t.validate().empty());
}

TEST(Timing, RejectsFawBelowRrd) {
  Timing t;
  t.tFAW = t.tRRD - 1;
  EXPECT_FALSE(t.validate().empty());
}

TEST(Timing, AcceptsWriteLatencyEqualToCas) {
  Timing t;
  t.tWL = t.tCL;  // DDR2 allows tWL up to tCL (nominally tCL - 1)
  EXPECT_TRUE(t.validate().empty()) << t.validate();
}

TEST(Organization, Table1Defaults) {
  const Organization o;
  EXPECT_TRUE(o.validate().empty());
  EXPECT_EQ(o.channels, 2u);
  EXPECT_EQ(o.banks_per_channel(), 8u);
  EXPECT_EQ(o.total_banks(), 16u);
  EXPECT_EQ(o.lines_per_row(), 128u);
  // Table 1: 12.8 GB/s per logic channel.
  EXPECT_NEAR(o.peak_bandwidth_gbs(), 25.6, 1e-9);
}

TEST(Organization, RejectsNonPow2) {
  Organization o;
  o.banks_per_dimm = 3;
  EXPECT_FALSE(o.validate().empty());
}

TEST(Organization, RejectsTooSmallCapacity) {
  Organization o;
  o.capacity_bytes = o.row_bytes;  // fewer rows than banks
  EXPECT_FALSE(o.validate().empty());
}

TEST(Organization, RejectsZeroDimensions) {
  for (int field = 0; field < 3; ++field) {
    Organization o;
    if (field == 0) o.channels = 0;
    if (field == 1) o.dimms_per_channel = 0;
    if (field == 2) o.banks_per_dimm = 0;
    EXPECT_FALSE(o.validate().empty()) << "field " << field;
  }
}

TEST(Organization, RejectsRowSmallerThanLine) {
  Organization o;
  o.row_bytes = kLineBytes / 2;
  EXPECT_FALSE(o.validate().empty());
}

TEST(Organization, RejectsNonPow2RowBytes) {
  Organization o;
  o.row_bytes = 8192 + 64;
  EXPECT_FALSE(o.validate().empty());
}

TEST(Organization, RejectsNonPow2Capacity) {
  Organization o;
  o.capacity_bytes = (std::uint64_t{4} << 30) + 4096;
  EXPECT_FALSE(o.validate().empty());
}

TEST(Organization, MinimalSingleRowPerBankValidates) {
  Organization o;
  o.capacity_bytes = static_cast<std::uint64_t>(o.total_banks()) * o.row_bytes;
  EXPECT_TRUE(o.validate().empty()) << o.validate();
  EXPECT_EQ(o.rows_per_bank(), 1u);
}

// -------------------------------------------------------- address map -----

class AddressMapRoundTrip : public ::testing::TestWithParam<Interleave> {};

TEST_P(AddressMapRoundTrip, DecodeEncodeIsIdentityOnRandomLines) {
  const Organization org;
  const AddressMap map(org, GetParam());
  util::Xoshiro256 rng(77);
  for (int i = 0; i < 2000; ++i) {
    const Addr a = (rng.below(org.capacity_bytes)) & ~static_cast<Addr>(63);
    const DramAddress da = map.decode(a);
    EXPECT_EQ(map.encode(da), a);
    EXPECT_LT(da.channel, org.channels);
    EXPECT_LT(da.bank, org.banks_per_channel());
    EXPECT_LT(da.row, org.rows_per_bank());
    EXPECT_LT(da.col_line, org.lines_per_row());
  }
}

TEST_P(AddressMapRoundTrip, SameLineDifferentOffsetsDecodeEqually) {
  const Organization org;
  const AddressMap map(org, GetParam());
  EXPECT_EQ(map.decode(0x12340), map.decode(0x12340 + 63));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AddressMapRoundTrip,
                         ::testing::Values(Interleave::kLineInterleave,
                                           Interleave::kPageInterleave,
                                           Interleave::kHybrid),
                         [](const auto& pi) {
                           return AddressMap::scheme_name(pi.param) ==
                                          "line-interleave"
                                      ? std::string("Line")
                                  : AddressMap::scheme_name(pi.param) ==
                                          "page-interleave"
                                      ? std::string("Page")
                                      : std::string("Hybrid");
                         });

TEST(AddressMap, LineInterleaveRotatesChannelsFirst) {
  const Organization org;
  const AddressMap map(org, Interleave::kLineInterleave);
  const DramAddress a = map.decode(0);
  const DramAddress b = map.decode(64);
  EXPECT_NE(a.channel, b.channel);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.row, b.row);
}

TEST(AddressMap, HybridKeepsSequentialLinesInOneRowPerChannel) {
  const Organization org;
  const AddressMap map(org, Interleave::kHybrid);
  // Lines 0 and 2 are on the same channel; with channel bit lowest and
  // column bits next, they share bank and row but differ in column.
  const DramAddress a = map.decode(0);
  const DramAddress b = map.decode(2 * 64);
  EXPECT_EQ(a.channel, b.channel);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.row, b.row);
  EXPECT_NE(a.col_line, b.col_line);
  // Consecutive lines alternate channels.
  EXPECT_NE(map.decode(0).channel, map.decode(64).channel);
}

TEST(AddressMap, PageInterleaveFillsRowBeforeSwitching) {
  const Organization org;
  const AddressMap map(org, Interleave::kPageInterleave);
  const DramAddress a = map.decode(0);
  const DramAddress b = map.decode(64);
  EXPECT_EQ(a.channel, b.channel);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.row, b.row);
}

TEST(AddressMap, InterleaveFromStringRefusesUnknownNames) {
  EXPECT_EQ(interleave_from_string("line"), Interleave::kLineInterleave);
  EXPECT_EQ(interleave_from_string("page"), Interleave::kPageInterleave);
  EXPECT_EQ(interleave_from_string("hybrid"), Interleave::kHybrid);
  EXPECT_THROW((void)interleave_from_string("pgae"), std::invalid_argument);
  EXPECT_THROW((void)interleave_from_string(""), std::invalid_argument);
}

TEST(AddressMap, HybridCoversAllBanks) {
  const Organization org;
  const AddressMap map(org, Interleave::kHybrid);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  // A full row-span of sequential lines must touch every (channel, bank).
  const std::uint64_t span =
      org.lines_per_row() * org.banks_per_channel() * org.channels;
  for (std::uint64_t line = 0; line < span; ++line) {
    const DramAddress da = map.decode(line * 64);
    seen.insert({da.channel, da.bank});
  }
  EXPECT_EQ(seen.size(), org.total_banks());
}

// ---------------------------------------------------------------- bank ----

TEST(Bank, ActivateThenCasTiming) {
  const Timing t = ddr2();
  Bank b(t);
  EXPECT_TRUE(b.can_activate(0));
  EXPECT_FALSE(b.can_cas(0));
  b.issue_activate(0, 42);
  EXPECT_TRUE(b.row_open());
  EXPECT_EQ(b.open_row(), 42u);
  EXPECT_FALSE(b.can_activate(1));  // row open
  EXPECT_FALSE(b.can_cas(t.tRCD - 1));
  EXPECT_TRUE(b.can_cas(t.tRCD));
}

TEST(Bank, PrechargeRespectsTras) {
  const Timing t = ddr2();
  Bank b(t);
  b.issue_activate(0, 1);
  EXPECT_FALSE(b.can_precharge(t.tRAS - 1));
  EXPECT_TRUE(b.can_precharge(t.tRAS));
  b.issue_precharge(t.tRAS);
  EXPECT_FALSE(b.row_open());
  EXPECT_FALSE(b.can_activate(t.tRAS + t.tRP - 1));
  EXPECT_TRUE(b.can_activate(t.tRAS + t.tRP));
}

TEST(Bank, SameBankActsSeparatedByTrc) {
  const Timing t = ddr2();
  Bank b(t);
  b.issue_activate(0, 1);
  b.issue_read(t.tRCD, /*auto_precharge=*/true);
  // Auto-precharge: earliest next ACT >= tRC from the first ACT.
  EXPECT_GE(b.earliest_activate(), static_cast<Tick>(t.tRC()));
  EXPECT_FALSE(b.row_open());
}

TEST(Bank, ReadWithoutAutoPrechargeKeepsRowOpen) {
  const Timing t = ddr2();
  Bank b(t);
  b.issue_activate(0, 9);
  b.issue_read(t.tRCD, /*auto_precharge=*/false);
  EXPECT_TRUE(b.row_open());
  EXPECT_EQ(b.open_row(), 9u);
  // A second CAS to the open row is legal immediately (bank-local view).
  EXPECT_TRUE(b.can_cas(t.tRCD + 1));
}

TEST(Bank, WriteRecoveryDelaysPrecharge) {
  const Timing t = ddr2();
  Bank b(t);
  b.issue_activate(0, 3);
  const Tick w = t.tRCD;
  b.issue_write(w, /*auto_precharge=*/false);
  const Tick write_done = w + t.tWL + t.burst_cycles + t.tWR;
  EXPECT_FALSE(b.can_precharge(write_done - 1));
  EXPECT_TRUE(b.can_precharge(std::max<Tick>(write_done, t.tRAS)));
}

TEST(Bank, RefreshBlocksBank) {
  Timing t = ddr2();
  Bank b(t);
  b.issue_refresh(0);
  EXPECT_FALSE(b.can_activate(t.tRFC - 1));
  EXPECT_TRUE(b.can_activate(t.tRFC));
}

TEST(Bank, CountsActivatesAndPrecharges) {
  const Timing t = ddr2();
  Bank b(t);
  b.issue_activate(0, 1);
  b.issue_read(t.tRCD, true);
  EXPECT_EQ(b.activate_count(), 1u);
  EXPECT_EQ(b.precharge_count(), 1u);
}

// ------------------------------------------------------------- channel ----

TEST(Channel, OneCommandPerCycle) {
  const Timing t = ddr2();
  Channel ch(t, 8);
  ASSERT_TRUE(ch.can_activate(0, 0));
  ch.issue_activate(0, 1, 0);
  EXPECT_FALSE(ch.command_bus_free(0));
  EXPECT_FALSE(ch.can_activate(1, 0));  // same tick
  EXPECT_TRUE(ch.can_activate(1, t.tRRD));
}

TEST(Channel, TrrdBetweenActs) {
  const Timing t = ddr2();
  Channel ch(t, 8);
  ch.issue_activate(0, 1, 0);
  EXPECT_FALSE(ch.can_activate(1, t.tRRD - 1));
  EXPECT_TRUE(ch.can_activate(1, t.tRRD));
}

TEST(Channel, TfawLimitsFourActs) {
  const Timing t = ddr2();
  Channel ch(t, 8);
  Tick now = 0;
  for (std::uint32_t b = 0; b < 4; ++b) {
    while (!ch.can_activate(b, now)) ++now;
    ch.issue_activate(b, 1, now);
  }
  // The fifth ACT must wait until tFAW after the first.
  Tick fifth = now;
  while (!ch.can_activate(4, fifth)) ++fifth;
  EXPECT_GE(fifth, static_cast<Tick>(t.tFAW));
}

TEST(Channel, ReadReturnsDataEnd) {
  const Timing t = ddr2();
  Channel ch(t, 8);
  ch.issue_activate(0, 1, 0);
  const Tick cas = t.tRCD;
  ASSERT_TRUE(ch.can_read(0, cas));
  const Tick done = ch.issue_read(0, cas, true);
  EXPECT_EQ(done, cas + t.tCL + t.burst_cycles);
  EXPECT_EQ(ch.bursts(), 1u);
  EXPECT_EQ(ch.data_busy_cycles(), t.burst_cycles);
}

TEST(Channel, TccdBetweenColumnAccesses) {
  const Timing t = ddr2();
  Channel ch(t, 8);
  ch.issue_activate(0, 1, 0);
  ch.issue_activate(1, 1, t.tRRD);
  // Wait until BOTH banks are CAS-ready so only channel constraints remain.
  const Tick both_ready = t.tRRD + t.tRCD;
  ASSERT_TRUE(ch.can_read(0, both_ready));
  ch.issue_read(0, both_ready, false);
  EXPECT_FALSE(ch.can_read(1, both_ready + 1));  // tCCD = 2
  EXPECT_TRUE(ch.can_read(1, both_ready + t.tCCD));
}

TEST(Channel, WriteToReadTurnaround) {
  const Timing t = ddr2();
  Channel ch(t, 8);
  ch.issue_activate(0, 1, 0);
  ch.issue_activate(1, 2, t.tRRD);
  Tick w = t.tRCD;
  while (!ch.can_write(0, w)) ++w;
  ch.issue_write(0, w, false);
  const Tick write_end = w + t.tWL + t.burst_cycles;
  // Read CAS illegal until tWTR after the final write beat.
  EXPECT_FALSE(ch.can_read(1, write_end + t.tWTR - 1));
  EXPECT_TRUE(ch.can_read(1, write_end + t.tWTR));
}

TEST(Channel, ReadToWriteTurnaround) {
  const Timing t = ddr2();
  Channel ch(t, 8);
  ch.issue_activate(0, 1, 0);
  ch.issue_activate(1, 2, t.tRRD);
  Tick r = t.tRCD;
  while (!ch.can_read(0, r)) ++r;
  const Tick read_end = ch.issue_read(0, r, false);
  // Write data may not start before read data end + tRTW.
  Tick w = r + 1;
  while (!ch.can_write(1, w)) ++w;
  EXPECT_GE(w + t.tWL, read_end + t.tRTW);
}

TEST(Channel, RankSwitchPaysTrtrs) {
  const Timing t = ddr2();
  // 8 banks, 4 per rank: banks 0-3 are rank 0, banks 4-7 rank 1.
  Channel ch(t, 8, /*banks_per_rank=*/4);
  ch.issue_activate(0, 1, 0);
  ch.issue_activate(4, 1, t.tRRD);
  const Tick both_ready = t.tRRD + t.tRCD;
  ASSERT_TRUE(ch.can_read(0, both_ready));
  const Tick end0 = ch.issue_read(0, both_ready, false);
  // Same-rank CAS may follow back-to-back (data bus permitting)...
  Tick same_rank = both_ready + t.tCCD;
  // ...but bank 4 (other rank) must trail by tRTRS on the data bus.
  Tick cross = same_rank;
  while (!ch.can_read(4, cross)) ++cross;
  EXPECT_GE(cross + t.tCL, end0 + t.tRTRS);
}

TEST(Channel, SameRankNeedsNoSwitchGap) {
  const Timing t = ddr2();
  Channel ch(t, 8, 4);
  ch.issue_activate(0, 1, 0);
  ch.issue_activate(1, 1, t.tRRD);
  const Tick both_ready = t.tRRD + t.tRCD;
  ch.issue_read(0, both_ready, false);
  // Bank 1 shares the rank: only tCCD applies, back-to-back bursts legal.
  EXPECT_TRUE(ch.can_read(1, both_ready + t.tCCD));
}

TEST(Channel, ZeroBanksPerRankDisablesPenalty) {
  const Timing t = ddr2();
  Channel ch(t, 8, 0);
  ch.issue_activate(0, 1, 0);
  ch.issue_activate(4, 1, t.tRRD);
  const Tick both_ready = t.tRRD + t.tRCD;
  ch.issue_read(0, both_ready, false);
  EXPECT_TRUE(ch.can_read(4, both_ready + t.tCCD));
}

TEST(Channel, RefreshRequiresAllBanksIdle) {
  const Timing t = ddr2();
  Channel ch(t, 4);
  ch.issue_activate(0, 1, 0);
  EXPECT_FALSE(ch.can_refresh(5));  // bank 0 open
  Tick now = t.tRAS;
  while (!ch.can_precharge(0, now)) ++now;
  ch.issue_precharge(0, now);
  Tick ref = now + t.tRP;
  while (!ch.can_refresh(ref)) ++ref;
  ch.issue_refresh(ref);
  EXPECT_FALSE(ch.can_activate(0, ref + t.tRFC - 1));
}

// --------------------------------------------------------- DramSystem -----

TEST(DramSystem, ConstructsPerTable1) {
  DramSystem sys(Timing{}, Organization{}, Interleave::kHybrid);
  EXPECT_EQ(sys.channel_count(), 2u);
  EXPECT_EQ(sys.channel(0).bank_count(), 8u);
  EXPECT_EQ(sys.total_bursts(), 0u);
  EXPECT_EQ(sys.data_bus_utilization(100), 0.0);
}

TEST(DramSystem, UtilizationTracksBursts) {
  const Timing t;
  DramSystem sys(t, Organization{}, Interleave::kHybrid);
  Channel& ch = sys.channel(0);
  ch.issue_activate(0, 1, 0);
  ch.issue_read(0, t.tRCD, true);
  EXPECT_EQ(sys.total_bursts(), 1u);
  const Tick elapsed = 100;
  EXPECT_NEAR(sys.data_bus_utilization(elapsed),
              static_cast<double>(t.burst_cycles) / (100.0 * 2), 1e-12);
}

// -------------------------------------------------------- speed grades ----

TEST(SpeedGrade, AllGradesValidate) {
  for (const SpeedGrade& g : SpeedGrade::all()) {
    EXPECT_TRUE(g.timing.validate().empty()) << g.name << ": " << g.timing.validate();
    EXPECT_GT(g.cpu_ratio, 0u);
    EXPECT_GT(g.overhead_ticks, 0u);
  }
}

TEST(SpeedGrade, Ddr2_800MatchesTable1Defaults) {
  const SpeedGrade g = SpeedGrade::ddr2_800();
  EXPECT_EQ(g.timing.tCL, Timing{}.tCL);
  EXPECT_EQ(g.cpu_ratio, 8u);
  EXPECT_EQ(g.overhead_ticks, 6u);
}

TEST(SpeedGrade, CoreParametersKeepRealTimeRoughlyConstant) {
  // tCL in nanoseconds must stay ~13-15 ns across the family.
  for (const SpeedGrade& g : SpeedGrade::all()) {
    const double tick_ns = 0.3125 * g.cpu_ratio;  // 3.2 GHz CPU cycle = 0.3125 ns
    const double tcl_ns = g.timing.tCL * tick_ns;
    EXPECT_GE(tcl_ns, 12.0) << g.name;
    EXPECT_LE(tcl_ns, 16.0) << g.name;
    const double overhead_ns = g.overhead_ticks * tick_ns;
    EXPECT_NEAR(overhead_ns, 15.0, 1.1) << g.name;
  }
}

TEST(SpeedGrade, LookupByName) {
  EXPECT_EQ(SpeedGrade::by_name("DDR3-1600").cpu_ratio, 4u);
  EXPECT_THROW(SpeedGrade::by_name("DDR4-3200"), std::invalid_argument);
}

// ----------------------------------------------------- XOR bank hashing ---

TEST(BankXor, RoundTripStillBijective) {
  const Organization org;
  const AddressMap map(org, Interleave::kHybrid, /*bank_xor=*/true);
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Addr a = rng.below(org.capacity_bytes) & ~static_cast<Addr>(63);
    EXPECT_EQ(map.encode(map.decode(a)), a);
  }
}

TEST(BankXor, PermutesBanksAcrossRows) {
  const Organization org;
  const AddressMap plain(org, Interleave::kHybrid, false);
  const AddressMap hashed(org, Interleave::kHybrid, true);
  // Same column/channel stride across rows: plain maps to one bank,
  // hashed spreads over all of them.
  std::set<std::uint32_t> plain_banks, hashed_banks;
  for (std::uint64_t row = 0; row < org.banks_per_channel() * 4; ++row) {
    DramAddress da{0, 0, row, 0};
    plain_banks.insert(plain.decode(plain.encode(da)).bank);
    // Construct the same physical stride through the plain map and decode
    // it with the hashed map.
    hashed_banks.insert(hashed.decode(plain.encode(da)).bank);
  }
  EXPECT_EQ(plain_banks.size(), 1u);
  EXPECT_EQ(hashed_banks.size(), static_cast<std::size_t>(org.banks_per_channel()));
}

TEST(BankXor, PreservesRowLocalityOfSequentialLines) {
  // Within one row the row index is constant, so the XOR cannot split a
  // sequential run across banks: lines 0 and 2 still share bank and row.
  const Organization org;
  const AddressMap map(org, Interleave::kHybrid, true);
  const DramAddress a = map.decode(0);
  const DramAddress b = map.decode(2 * 64);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.row, b.row);
}

// --------------------------------------------------------------- power ----

TEST(Power, PerEventEnergiesArePlausible) {
  const Timing t;
  const PowerModel pm(PowerConfig{}, t, 400e6);
  // One ACT-PRE pair on a 16-device channel: order of tens of nanojoules.
  EXPECT_GT(pm.activate_energy(), 1e-9);
  EXPECT_LT(pm.activate_energy(), 1e-6);
  EXPECT_GT(pm.read_burst_energy(), 0.0);
  EXPECT_GT(pm.write_burst_energy(), pm.read_burst_energy());  // IDD4W > IDD4R
  EXPECT_GT(pm.refresh_energy(), pm.activate_energy());
}

TEST(Power, IdleSystemDrawsOnlyBackground) {
  DramSystem sys(Timing{}, Organization{}, Interleave::kHybrid);
  const PowerModel pm(PowerConfig{}, sys.timing(), 400e6);
  const Tick elapsed = 400'000;  // 1 ms
  const EnergyBreakdown e = pm.energy_of(sys, elapsed);
  EXPECT_EQ(e.activate, 0.0);
  EXPECT_EQ(e.read, 0.0);
  EXPECT_GT(e.background, 0.0);
  // 2 channels x 16 devices x IDD2N x VDD ~= 2.6 W of idle standby.
  EXPECT_NEAR(e.average_power(1e-3), 2 * 16 * 0.045 * 1.8, 0.1);
}

TEST(Power, ActivityAddsEnergyMonotonically) {
  const Timing t;
  DramSystem sys(t, Organization{}, Interleave::kHybrid);
  const PowerModel pm(PowerConfig{}, t, 400e6);
  const EnergyBreakdown before = pm.energy_of(sys, 1000);
  Channel& ch = sys.channel(0);
  ch.issue_activate(0, 1, 0);
  ch.issue_read(0, t.tRCD, /*auto_precharge=*/true);
  const EnergyBreakdown after = pm.energy_of(sys, 1000);
  EXPECT_GT(after.activate, before.activate);
  EXPECT_GT(after.read + after.write, 0.0);
  EXPECT_GT(after.total(), before.total());
}

TEST(Power, BankActiveTimeAccounting) {
  const Timing t;
  Bank b(t);
  b.issue_activate(10, 1);
  EXPECT_EQ(b.active_ticks(30), 20u);  // still open: counted up to `now`
  Tick pre = 10 + t.tRAS;
  b.issue_precharge(pre);
  EXPECT_EQ(b.active_ticks(1000), static_cast<Tick>(t.tRAS));
}

TEST(Power, AutoPrechargeClosesActiveInterval) {
  const Timing t;
  Bank b(t);
  b.issue_activate(0, 1);
  b.issue_read(t.tRCD, /*auto_precharge=*/true);
  // Row closes at max(tRCD + tRTP, tRAS); active time is bounded by that.
  const Tick expect = std::max<Tick>(t.tRCD + t.tRTP, t.tRAS);
  EXPECT_EQ(b.active_ticks(10'000), expect);
}

TEST(Power, RefreshEnergyScalesWithInterval) {
  Timing t;
  t.refresh_enabled = true;
  DramSystem sys(t, Organization{}, Interleave::kHybrid);
  const PowerModel pm(PowerConfig{}, t, 400e6);
  const EnergyBreakdown shorter = pm.energy_of(sys, 10 * t.tREFI);
  const EnergyBreakdown longer = pm.energy_of(sys, 20 * t.tREFI);
  EXPECT_NEAR(longer.refresh / shorter.refresh, 2.0, 1e-9);
}

}  // namespace
}  // namespace memsched::dram
