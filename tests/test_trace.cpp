// Unit tests for src/trace: the SPEC2000 catalog, the synthetic generator,
// and trace-file I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "trace/app_profile.hpp"
#include "trace/generator.hpp"
#include "trace/trace_file.hpp"

namespace memsched::trace {
namespace {

// ------------------------------------------------------------- catalog ----

TEST(Catalog, Has26AppsWithUniqueCodes) {
  const auto& apps = spec2000_profiles();
  EXPECT_EQ(apps.size(), 26u);
  std::set<char> codes;
  std::set<std::string> names;
  for (const auto& a : apps) {
    codes.insert(a.code);
    names.insert(a.name);
  }
  EXPECT_EQ(codes.size(), 26u);
  EXPECT_EQ(names.size(), 26u);
}

TEST(Catalog, Table2ClassAssignments) {
  // Paper Table 2: 14 MEM applications, 12 ILP.
  int mem = 0;
  for (const auto& a : spec2000_profiles()) mem += a.memory_intensive;
  EXPECT_EQ(mem, 14);
  EXPECT_TRUE(spec2000_by_name("swim").memory_intensive);
  EXPECT_TRUE(spec2000_by_name("mcf").memory_intensive);
  EXPECT_FALSE(spec2000_by_name("eon").memory_intensive);
  EXPECT_FALSE(spec2000_by_name("gzip").memory_intensive);
}

TEST(Catalog, Table2CodesMatchPaper) {
  EXPECT_EQ(spec2000_by_code('a').name, "gzip");
  EXPECT_EQ(spec2000_by_code('c').name, "swim");
  EXPECT_EQ(spec2000_by_code('k').name, "mcf");
  EXPECT_EQ(spec2000_by_code('t').name, "eon");
  EXPECT_EQ(spec2000_by_code('z').name, "apsi");
}

TEST(Catalog, PredictedMePreservesTable2Ratios) {
  // predicted_me * kTable2MeScale must equal the paper's ME for every app.
  for (const auto& a : spec2000_profiles()) {
    EXPECT_NEAR(a.predicted_me() * kTable2MeScale / a.table_me, 1.0, 1e-9)
        << a.name;
  }
}

TEST(Catalog, MemAppsStreamHarderThanIlpApps) {
  double min_mem = 1e300, max_ilp = 0.0;
  for (const auto& a : spec2000_profiles()) {
    if (a.memory_intensive)
      min_mem = std::min(min_mem, a.fresh_lines_per_kinst);
    else
      max_ilp = std::max(max_ilp, a.fresh_lines_per_kinst);
  }
  // The lightest MEM app (facerec, ME=40) still streams more than any ILP
  // app except the borderline ones; check group means instead of extremes.
  double mem_sum = 0, ilp_sum = 0;
  int nm = 0, ni = 0;
  for (const auto& a : spec2000_profiles()) {
    (a.memory_intensive ? mem_sum : ilp_sum) += a.fresh_lines_per_kinst;
    ++(a.memory_intensive ? nm : ni);
  }
  EXPECT_GT(mem_sum / nm, 10.0 * (ilp_sum / ni));
}

TEST(Catalog, LookupThrowsOnUnknown) {
  EXPECT_THROW(spec2000_by_name("doom"), std::invalid_argument);
  EXPECT_THROW(spec2000_by_code('!'), std::invalid_argument);
}

TEST(Catalog, FootprintsFitPerCoreRegion) {
  for (const auto& a : spec2000_profiles()) {
    EXPECT_LE(a.footprint_bytes + a.hot_bytes + a.code_bytes, 512ull << 20) << a.name;
  }
}

// ----------------------------------------------------------- generator ----

class GeneratorRates : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorRates, FreshLineAndRefRatesMatchProfile) {
  const AppProfile& app = spec2000_by_name(GetParam());
  SyntheticStream s(app, 0, 2024);
  const std::uint64_t n = 3'000'000;
  std::uint64_t refs = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (s.next().cls != InstClass::kCompute) ++refs;
  }
  const double kinst = static_cast<double>(n) / 1000.0;
  EXPECT_NEAR(static_cast<double>(refs) / kinst, app.mem_ref_per_kinst,
              0.05 * app.mem_ref_per_kinst);
  EXPECT_NEAR(static_cast<double>(s.fresh_lines_emitted()) / kinst,
              app.fresh_lines_per_kinst, 0.15 * app.fresh_lines_per_kinst + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Apps, GeneratorRates,
                         ::testing::Values("swim", "applu", "mcf", "wupwise", "gzip",
                                           "mgrid", "vpr", "facerec"));

TEST(Generator, DeterministicPerSeed) {
  const AppProfile& app = spec2000_by_name("equake");
  SyntheticStream a(app, 0x1000, 5), b(app, 0x1000, 5);
  for (int i = 0; i < 50'000; ++i) {
    const InstRecord ra = a.next(), rb = b.next();
    ASSERT_EQ(ra.cls, rb.cls);
    ASSERT_EQ(ra.addr, rb.addr);
    ASSERT_EQ(ra.dep_on_prev, rb.dep_on_prev);
  }
}

TEST(Generator, DifferentSeedsDiverge) {
  const AppProfile& app = spec2000_by_name("equake");
  SyntheticStream a(app, 0, 1), b(app, 0, 2);
  int same_addr = 0, mem = 0;
  for (int i = 0; i < 50'000; ++i) {
    const InstRecord ra = a.next(), rb = b.next();
    if (ra.cls != InstClass::kCompute && rb.cls != InstClass::kCompute) {
      ++mem;
      same_addr += (ra.addr == rb.addr);
    }
  }
  EXPECT_LT(same_addr, mem / 10);
}

TEST(Generator, ResetReproducesFromStart) {
  const AppProfile& app = spec2000_by_name("swim");
  SyntheticStream s(app, 0, 9);
  std::vector<Addr> first;
  for (int i = 0; i < 10'000; ++i) first.push_back(s.next().addr);
  s.reset(9);
  for (int i = 0; i < 10'000; ++i) ASSERT_EQ(s.next().addr, first[static_cast<std::size_t>(i)]);
}

TEST(Generator, AddressesStayInsideRegion) {
  const AppProfile& app = spec2000_by_name("mcf");
  const Addr base = 3ull << 30;
  SyntheticStream s(app, base, 11);
  const Addr end = base + app.footprint_bytes + app.hot_bytes + app.code_bytes;
  for (int i = 0; i < 500'000; ++i) {
    const InstRecord r = s.next();
    if (r.cls == InstClass::kCompute) continue;
    ASSERT_GE(r.addr, base);
    ASSERT_LT(r.addr, end);
  }
  EXPECT_EQ(s.code_base(), base + app.footprint_bytes + app.hot_bytes);
  EXPECT_EQ(s.code_bytes(), app.code_bytes);
}

TEST(Generator, DepFlagsOnlyOnPointerChasers) {
  std::uint64_t deps_mcf = 0, deps_swim = 0;
  SyntheticStream mcf(spec2000_by_name("mcf"), 0, 3);
  SyntheticStream swim(spec2000_by_name("swim"), 0, 3);
  for (int i = 0; i < 1'000'000; ++i) {
    deps_mcf += mcf.next().dep_on_prev;
    deps_swim += swim.next().dep_on_prev;
  }
  EXPECT_GT(deps_mcf, 1000u);
  EXPECT_EQ(deps_swim, 0u);
}

TEST(Generator, DirtyShareProducesStores) {
  const AppProfile& app = spec2000_by_name("swim");  // dirty_fresh_share 0.40
  SyntheticStream s(app, 0, 17);
  std::uint64_t stream_stores = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    const InstRecord r = s.next();
    // Stores inside the streamed footprint region (below the hot base).
    if (r.cls == InstClass::kStore && r.addr < app.footprint_bytes) ++stream_stores;
  }
  const double per_fresh =
      static_cast<double>(stream_stores) / static_cast<double>(s.fresh_lines_emitted());
  EXPECT_NEAR(per_fresh, app.dirty_fresh_share, 0.08);
}

std::vector<std::uint8_t> state_bytes(const SyntheticStream& s) {
  ckpt::Writer w;
  s.save_state(w);
  return w.record();
}

TEST(Generator, NextRefYieldsTheNextStreamOnEveryApp) {
  // The fast-forward reads a stream through next_ref, the detailed engine
  // through next(): both must see the same references at the same
  // instruction positions and leave the same stream state behind. The
  // chunk sizes cycle from single instructions to chunks longer than any
  // compute run.
  constexpr std::uint64_t kChunks[] = {1, 2, 3, 7, 64, 100'000};
  constexpr std::uint64_t kInsts = 400'000;
  for (const AppProfile& app : spec2000_profiles()) {
    SyntheticStream by_next(app, 1ull << 30, 77), by_ref(app, 1ull << 30, 77);
    std::uint64_t pos = 0;
    for (std::size_t k = 0; pos < kInsts; ++k) {
      const std::uint64_t chunk = std::min(kChunks[k % std::size(kChunks)], kInsts - pos);
      InstRecord got;
      const std::uint64_t used = by_ref.next_ref(chunk, got);
      ASSERT_GE(used, 1u) << app.name;
      ASSERT_LE(used, chunk) << app.name;
      for (std::uint64_t i = 1; i < used; ++i) {
        ASSERT_EQ(by_next.next().cls, InstClass::kCompute) << app.name << " at " << pos + i;
      }
      const InstRecord want = by_next.next();
      pos += used;
      if (got.cls == InstClass::kCompute) {
        ASSERT_EQ(used, chunk) << app.name;
      }
      ASSERT_EQ(got.cls, want.cls) << app.name << " at " << pos;
      ASSERT_EQ(got.addr, want.addr) << app.name << " at " << pos;
      ASSERT_EQ(got.dep_on_prev, want.dep_on_prev) << app.name << " at " << pos;
    }
    EXPECT_EQ(by_ref.insts_emitted(), kInsts) << app.name;
    EXPECT_EQ(state_bytes(by_ref), state_bytes(by_next)) << app.name;
  }
}

std::string load_error(SyntheticStream& s, const std::vector<std::uint8_t>& bytes) {
  ckpt::Reader r = ckpt::Reader::record(bytes.data(), bytes.size());
  try {
    s.load_state(r);
  } catch (const ckpt::SnapshotError& e) {
    return e.what();
  }
  return {};
}

TEST(Generator, LoadStateRefusesCursorsOutsideItsFootprint) {
  // mcf and galgel both run 4 streams, so the cursor count matches, but
  // mcf's cursors range over 256 MB and galgel's region holds 64 MB.
  const AppProfile& mcf = spec2000_by_name("mcf");
  SyntheticStream saved(mcf, 0, 1);
  for (int i = 0; i < 100'000; ++i) saved.next();
  const std::vector<std::uint8_t> bytes = state_bytes(saved);

  SyntheticStream galgel(spec2000_by_name("galgel"), 0, 1);
  const std::string what = load_error(galgel, bytes);
  EXPECT_NE(what.find("cursor"), std::string::npos) << what;
  EXPECT_NE(what.find(">= footprint lines 1048576"), std::string::npos) << what;

  // The same bytes load into another mcf stream, which continues the saved one.
  SyntheticStream again(mcf, 0, 99);
  ASSERT_EQ(load_error(again, bytes), "");
  for (int i = 0; i < 100'000; ++i) {
    const InstRecord want = saved.next(), got = again.next();
    ASSERT_EQ(got.cls, want.cls) << i;
    ASSERT_EQ(got.addr, want.addr) << i;
    ASSERT_EQ(got.dep_on_prev, want.dep_on_prev) << i;
  }
}

TEST(Generator, LoadStateRefusesRotorAndLineRefsOutsideItsProfile) {
  const AppProfile& mcf = spec2000_by_name("mcf");  // 4 streams, 1 ref per line
  SyntheticStream saved(mcf, 0, 1);
  for (int i = 0; i < 1000; ++i) saved.next();
  // Field-list offsets: rng 32 bytes, in_phase 1, phase_lines 8, gap_refs 8,
  // then line_refs_remaining (u32) at 49 and rotor (u32) at 53.
  const auto patched = [&](std::size_t offset, std::uint32_t value) {
    std::vector<std::uint8_t> bytes = state_bytes(saved);
    std::memcpy(bytes.data() + offset, &value, sizeof value);
    return bytes;
  };
  SyntheticStream s(mcf, 0, 1);
  std::string what = load_error(s, patched(53, 4));
  EXPECT_NE(what.find("rotor 4 >= stream_count 4"), std::string::npos) << what;
  what = load_error(s, patched(49, 2));
  EXPECT_NE(what.find("line_refs_remaining 2 > refs_per_line 1"), std::string::npos) << what;
  EXPECT_EQ(load_error(s, patched(53, 3)), "");
  EXPECT_EQ(load_error(s, patched(49, 1)), "");
}

TEST(Generator, FirstMillionRecordsArePinned) {
  // FNV-1a over (class, dependence, address little-endian) of each app's
  // first 1M records at seed 2008, base 3 GB, recorded while the stream drew
  // every probability through chance() and below(). A change here changes
  // every result.
  const std::map<std::string, std::uint64_t> pinned = {
      {"gzip", 0x33efa9f2e32934c5ULL},
      {"wupwise", 0x8ba6d97bc37d983aULL},
      {"swim", 0xfaff08f40eb556faULL},
      {"mgrid", 0x87bd5f884778a05fULL},
      {"applu", 0xba36f5e890921befULL},
      {"vpr", 0xceb9d44e70f7a4b4ULL},
      {"gcc", 0x2db5d793ccf45822ULL},
      {"mesa", 0xae3b657559d38c76ULL},
      {"galgel", 0x4d51b339604b2e38ULL},
      {"art", 0xa248c3f735c6c736ULL},
      {"mcf", 0x6265f24ed37b5180ULL},
      {"equake", 0xfd5fc72222459f66ULL},
      {"crafty", 0x6dbb311891e53194ULL},
      {"facerec", 0x5921719e157efdeeULL},
      {"ammp", 0x4f389ebcbc7963b2ULL},
      {"lucas", 0x819312f29329b17bULL},
      {"fma3d", 0x2e808f1752c0751fULL},
      {"parser", 0x77b142c0657e616cULL},
      {"sixtrack", 0xc3cbb531f98cb63aULL},
      {"eon", 0xd81952c539a896d9ULL},
      {"perlbmk", 0xc7d74780aa701491ULL},
      {"gap", 0x6243ca46ccfdb115ULL},
      {"vortex", 0x96f6a742f165a564ULL},
      {"bzip2", 0x60be5bf071883a76ULL},
      {"twolf", 0x28e0cd92cc9a47b1ULL},
      {"apsi", 0xd9e2dbb360abc1cdULL},
  };
  for (const AppProfile& app : spec2000_profiles()) {
    SyntheticStream s(app, 3ull << 30, 2008);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v, int bytes) {
      for (int b = 0; b < bytes; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    for (int i = 0; i < 1'000'000; ++i) {
      const InstRecord r = s.next();
      mix(static_cast<std::uint64_t>(r.cls), 1);
      mix(r.dep_on_prev ? 1 : 0, 1);
      mix(r.addr, 8);
    }
    const auto it = pinned.find(app.name);
    ASSERT_NE(it, pinned.end()) << app.name;
    EXPECT_EQ(h, it->second) << std::hex << std::showbase << "{\"" << app.name << "\", "
                             << h << "ULL},";
  }
}

// ------------------------------------------------------------ trace IO ----

std::vector<InstRecord> sample_records() {
  return {
      {InstClass::kCompute, 0, false},
      {InstClass::kLoad, 0xdeadbeef40, false},
      {InstClass::kLoad, 0x1234567890, true},
      {InstClass::kStore, 0x40, false},
      {InstClass::kCompute, 0, false},
  };
}

class TraceRoundTrip : public ::testing::TestWithParam<bool> {};  // binary?

TEST_P(TraceRoundTrip, WriteReadIdentity) {
  const bool binary = GetParam();
  const std::string path = ::testing::TempDir() + (binary ? "t.bin" : "t.txt");
  const auto recs = sample_records();
  if (binary)
    write_binary_trace(path, recs);
  else
    write_text_trace(path, recs);
  const auto back = binary ? read_binary_trace(path) : read_text_trace(path);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].cls, recs[i].cls) << i;
    if (recs[i].cls != InstClass::kCompute) {
      EXPECT_EQ(back[i].addr, recs[i].addr) << i;
    }
    EXPECT_EQ(back[i].dep_on_prev, recs[i].dep_on_prev) << i;
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Formats, TraceRoundTrip, ::testing::Bool(),
                         [](const auto& pi) {
                           return pi.param ? std::string("Binary") : std::string("Text");
                         });

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_THROW(read_binary_trace("/nonexistent/x.bin"), std::runtime_error);
  EXPECT_THROW(read_text_trace("/nonexistent/x.txt"), std::runtime_error);
}

TEST(TraceIo, RejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "bad.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("NOPE....", f);
  std::fclose(f);
  EXPECT_THROW(read_binary_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, TextParserRejectsGarbageOps) {
  const std::string path = ::testing::TempDir() + "bad.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("Q 1234\n", f);
  std::fclose(f);
  EXPECT_THROW(read_text_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

// Corrupt-input diagnosis: every failure must name the file and say where
// and why reading stopped, so a bad trace is debuggable from the message.

std::string capture_error(const std::string& path, bool binary = true) {
  try {
    if (binary)
      read_binary_trace(path);
    else
      read_text_trace(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

std::string write_bytes(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return path;
}

TEST(TraceIo, TruncatedCountHeaderNamesOffset) {
  const std::string path = write_bytes("trunc_hdr.bin", std::string("MST1\x02\x00", 6));
  const std::string msg = capture_error(path);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
  EXPECT_NE(msg.find("record count header"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceIo, OversizedCountHeaderIsRejectedBeforeReserve) {
  // Header claims 2^56 records in a 12-byte file: the sanity check must
  // refuse it instead of trusting it with a reserve().
  std::string bytes = "MST1";
  bytes += std::string("\x00\x00\x00\x00\x00\x00\x00\x01", 8);  // LE 2^56
  const std::string path = write_bytes("huge_count.bin", bytes);
  const std::string msg = capture_error(path);
  EXPECT_NE(msg.find("record count header claims"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceIo, TruncationMidRecordsNamesTheRecord) {
  // Write a valid 3-record trace, then chop it after the first record.
  const std::string path = ::testing::TempDir() + "chop.bin";
  write_binary_trace(path, sample_records());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  char buf[64];
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  ASSERT_GT(n, 14u);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(buf, 1, 14, f);  // magic + count + record 0 + 1 byte of record 1
  std::fclose(f);
  const std::string msg = capture_error(path);
  EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
  EXPECT_NE(msg.find("record"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceIo, InvalidClassBitsNameTheRecordIndex) {
  std::string bytes = "MST1";
  bytes += std::string("\x01\x00\x00\x00\x00\x00\x00\x00", 8);  // count = 1
  bytes += '\x03';  // class bits 3: no such InstClass
  const std::string path = write_bytes("badclass.bin", bytes);
  const std::string msg = capture_error(path);
  EXPECT_NE(msg.find("record 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("invalid class bits"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceIo, TextErrorsNameFileAndLine) {
  const std::string path = write_bytes("badline.txt", "C\nL 40\nS\n");
  const std::string msg = capture_error(path, /*binary=*/false);
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("store needs an address"), std::string::npos) << msg;
  std::remove(path.c_str());
}

TEST(TraceIo, TextParserSkipsCommentsAndBlanks) {
  const std::string path = ::testing::TempDir() + "c.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("# header\n\nL 40\n  # indented comment\nC\n", f);
  std::fclose(f);
  const auto recs = read_text_trace(path);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].cls, InstClass::kLoad);
  EXPECT_EQ(recs[1].cls, InstClass::kCompute);
  std::remove(path.c_str());
}

TEST(ReplayStream, WrapsAroundAndResets) {
  ReplayStream s(sample_records());
  EXPECT_EQ(s.length(), 5u);
  for (int i = 0; i < 12; ++i) s.next();
  EXPECT_EQ(s.wraps(), 2u);
  s.reset(0);
  EXPECT_EQ(s.wraps(), 0u);
  EXPECT_EQ(s.next().cls, InstClass::kCompute);
}

}  // namespace
}  // namespace memsched::trace
