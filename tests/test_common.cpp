// Unit tests for src/common: buffers, strided views, RNG, statistics,
// tables, CLI parsing, contracts.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/durable_file.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strided_view.hpp"
#include "common/table.hpp"

namespace {

using namespace tda;

// ---------- contracts ----------

TEST(Check, RequireThrowsContractError) {
  EXPECT_THROW(TDA_REQUIRE(false, "boom"), ContractError);
}

TEST(Check, RequirePassesOnTrue) {
  EXPECT_NO_THROW(TDA_REQUIRE(true, "fine"));
}

TEST(Check, MessageContainsContext) {
  try {
    TDA_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

// ---------- AlignedBuffer ----------

TEST(AlignedBuffer, DefaultIsEmpty) {
  AlignedBuffer<double> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
}

TEST(AlignedBuffer, AllocatesAligned) {
  AlignedBuffer<float> buf(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
}

TEST(AlignedBuffer, ZeroInitialized) {
  AlignedBuffer<double> buf(257);
  for (double v : buf) EXPECT_EQ(v, 0.0);
}

TEST(AlignedBuffer, CopyPreservesContents) {
  AlignedBuffer<int> buf(10);
  for (std::size_t i = 0; i < 10; ++i) buf[i] = static_cast<int>(i * i);
  AlignedBuffer<int> copy(buf);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(copy[i], int(i * i));
  copy[3] = -1;
  EXPECT_EQ(buf[3], 9);  // deep copy
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> buf(4);
  buf[0] = 42;
  int* p = buf.data();
  AlignedBuffer<int> moved(std::move(buf));
  EXPECT_EQ(moved.data(), p);
  EXPECT_EQ(moved[0], 42);
  EXPECT_TRUE(buf.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(AlignedBuffer, ResizeDropsAndZeroes) {
  AlignedBuffer<int> buf(4);
  buf[0] = 7;
  buf.resize(8);
  EXPECT_EQ(buf.size(), 8u);
  for (int v : buf) EXPECT_EQ(v, 0);
}

TEST(AlignedBuffer, SpanCoversAll) {
  AlignedBuffer<float> buf(33);
  EXPECT_EQ(buf.span().size(), 33u);
  EXPECT_EQ(buf.span().data(), buf.data());
}

// ---------- StridedView ----------

TEST(StridedView, IndexingHonorsStride) {
  std::vector<int> data(20);
  for (int i = 0; i < 20; ++i) data[i] = i;
  StridedView<int> v(data.data() + 1, 5, 3);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[1], 4);
  EXPECT_EQ(v[4], 13);
}

TEST(StridedView, SplitEvenSize) {
  std::vector<int> data{0, 1, 2, 3, 4, 5, 6, 7};
  StridedView<int> v(data.data(), 8, 1);
  auto [even, odd] = v.split();
  EXPECT_EQ(even.size(), 4u);
  EXPECT_EQ(odd.size(), 4u);
  EXPECT_EQ(even.stride(), 2u);
  EXPECT_EQ(even[0], 0);
  EXPECT_EQ(even[3], 6);
  EXPECT_EQ(odd[0], 1);
  EXPECT_EQ(odd[3], 7);
}

TEST(StridedView, SplitOddSizeUneven) {
  std::vector<int> data{0, 1, 2, 3, 4, 5, 6};
  StridedView<int> v(data.data(), 7, 1);
  auto [even, odd] = v.split();
  EXPECT_EQ(even.size(), 4u);  // ceil(7/2)
  EXPECT_EQ(odd.size(), 3u);   // floor(7/2)
  EXPECT_EQ(even[3], 6);
  EXPECT_EQ(odd[2], 5);
}

TEST(StridedView, SplitOfStridedViewComposes) {
  std::vector<int> data(32);
  for (int i = 0; i < 32; ++i) data[i] = i;
  StridedView<int> v(data.data(), 16, 2);  // 0,2,4,...
  auto [even, odd] = v.split();
  EXPECT_EQ(even.stride(), 4u);
  EXPECT_EQ(even[1], 4);
  EXPECT_EQ(odd[1], 6);
}

TEST(StridedView, SubsystemMatchesRepeatedSplit) {
  std::vector<int> data(16);
  for (int i = 0; i < 16; ++i) data[i] = i;
  StridedView<int> v(data.data(), 16, 1);
  // two splits -> 4 subsystems, residue classes mod 4
  for (std::size_t j = 0; j < 4; ++j) {
    auto sub = v.subsystem(2, j);
    EXPECT_EQ(sub.size(), 4u);
    for (std::size_t i = 0; i < sub.size(); ++i) {
      EXPECT_EQ(sub[i], static_cast<int>(j + 4 * i));
    }
  }
}

TEST(StridedView, SubsystemUnevenCounts) {
  std::vector<int> data(10);
  StridedView<int> v(data.data(), 10, 1);
  // 4 subsystems of a 10-element view: sizes 3,3,2,2
  EXPECT_EQ(v.subsystem(2, 0).size(), 3u);
  EXPECT_EQ(v.subsystem(2, 1).size(), 3u);
  EXPECT_EQ(v.subsystem(2, 2).size(), 2u);
  EXPECT_EQ(v.subsystem(2, 3).size(), 2u);
}

TEST(StridedView, SubsystemsPartitionTheView) {
  std::vector<int> data(23);
  for (int i = 0; i < 23; ++i) data[i] = i;
  StridedView<int> v(data.data(), 23, 1);
  std::multiset<int> seen;
  for (std::size_t j = 0; j < 8; ++j) {
    auto sub = v.subsystem(3, j);
    for (std::size_t i = 0; i < sub.size(); ++i) seen.insert(sub[i]);
  }
  EXPECT_EQ(seen.size(), 23u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 22);
}

TEST(StridedView, SplitRequiresTwoElements) {
  std::vector<int> data(1);
  StridedView<int> v(data.data(), 1, 1);
  EXPECT_THROW((void)v.split(), ContractError);
}

// ---------- Rng ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST(Rng, MeanIsCentered) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// ---------- stats ----------

TEST(Rng, UnitDoubleSpansHalfOpenInterval) {
  EXPECT_EQ(unit_double(0), 0.0);
  EXPECT_EQ(unit_double(std::uint64_t{1} << 63), 0.5);
  EXPECT_LT(unit_double(~std::uint64_t{0}), 1.0);
}

TEST(Backoff, DrawsStayInsideTheDecorrelatedWindow) {
  for (const double base : {0.25, 1.0}) {
    for (const double cap : {8.0, 250.0}) {
      for (const std::uint64_t seed : {1ull, 7ull, 12345ull}) {
        std::uint64_t state = seed;
        double prev = 0.0;
        double longest = 0.0;
        for (int i = 0; i < 200; ++i) {
          const double d = decorrelated_backoff_ms(base, prev, cap, state);
          const double hi = std::min(cap, std::max(base, 3.0 * prev));
          ASSERT_GE(d, base) << "draw " << i;
          ASSERT_LE(d, hi) << "draw " << i;
          longest = std::max(longest, d);
          prev = d;
        }
        EXPECT_EQ(longest, cap) << "base " << base << " seed " << seed;
      }
    }
  }
}

TEST(Backoff, EqualSeedsGiveEqualSchedules) {
  const auto schedule = [](std::uint64_t seed) {
    std::vector<double> out;
    double prev = 0.0;
    for (int i = 0; i < 32; ++i) {
      prev = decorrelated_backoff_ms(0.25, prev, 8.0, seed);
      out.push_back(prev);
    }
    return out;
  };
  EXPECT_EQ(schedule(42), schedule(42));
  EXPECT_NE(schedule(42), schedule(43));
}

// -------------------------------------------------------- durable files

constexpr SealedFormat kTestFormat{"# test format v1 checksum="};

TEST(DurableFile, SealVerifyRoundTrip) {
  for (const std::string body : {"", "one line\n", "a\tb\nc\td\n"}) {
    const std::string bytes = seal(kTestFormat, body);
    EXPECT_EQ(bytes.rfind(kTestFormat.header, 0), 0u);
    EXPECT_EQ(bytes.size(), kTestFormat.header.size() + 17 + body.size());
    const auto back = verify_sealed(kTestFormat, bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, body);
  }
}

TEST(DurableFile, VerifyRejectsEveryDamagedHeaderOrBody) {
  const std::string bytes = seal(kTestFormat, "payload\n");
  const std::size_t h = kTestFormat.header.size();
  std::vector<std::string> bad;
  bad.push_back(bytes.substr(0, bytes.size() - 1));     // truncated body
  bad.push_back(bytes.substr(0, h + 16));               // no newline
  bad.push_back("# other format v1 checksum=" + bytes.substr(h));
  std::string short_digits = bytes;
  short_digits.erase(h, 1);                             // 15 digits
  bad.push_back(short_digits);
  std::string not_hex = bytes;
  not_hex[h + 3] = 'g';
  bad.push_back(not_hex);
  std::string signed_digits = bytes;
  signed_digits[h] = '+';
  bad.push_back(signed_digits);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x04);
    bad.push_back(flipped);
  }
  for (const std::string& b : bad) {
    std::string why;
    EXPECT_FALSE(verify_sealed(kTestFormat, b, &why).has_value()) << b;
    EXPECT_FALSE(why.empty()) << b;
  }
  // Upper-case digits verify: the spelling is case-insensitive.
  std::string upper = bytes;
  for (std::size_t i = h; i < h + 16; ++i) {
    upper[i] = static_cast<char>(std::toupper(upper[i]));
  }
  EXPECT_TRUE(verify_sealed(kTestFormat, upper).has_value());
}

TEST(DurableFile, ChecksumStartStateIsPartOfTheFormat) {
  constexpr SealedFormat kOtherBasis{kTestFormat.header, kFnv64LegacyBasis};
  const std::string bytes = seal(kTestFormat, "payload\n");
  EXPECT_FALSE(verify_sealed(kOtherBasis, bytes).has_value());
  EXPECT_TRUE(
      verify_sealed(kOtherBasis, seal(kOtherBasis, "payload\n")).has_value());
}

TEST(DurableFile, ReplaceWritesThenReplacesWholeFiles) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("tda_durable_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "state.txt").string();
  const auto slurp = [&path] {
    std::ifstream in(path, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  };
  std::string why;
  ASSERT_TRUE(replace_file_atomic(path, "first", &why)) << why;
  EXPECT_EQ(slurp(), "first");
  ASSERT_TRUE(replace_file_atomic(path, "second, longer", &why)) << why;
  EXPECT_EQ(slurp(), "second, longer");

  // A missing directory fails cleanly with a reason.
  EXPECT_FALSE(
      replace_file_atomic((dir / "missing" / "x.txt").string(), "x", &why));
  EXPECT_FALSE(why.empty());
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) ++files;
  EXPECT_EQ(files, 1u);  // no temp file left behind
  fs::remove_all(dir);
}

TEST(Stats, SummarizeBasics) {
  std::vector<double> xs{1, 2, 3, 4};
  auto s = summarize(xs);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, 1.118, 1e-3);
}

TEST(Stats, SummarizeEmpty) {
  auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, GeomeanOfPowers) {
  std::vector<double> xs{1, 4, 16};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW((void)geomean(xs), ContractError);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Stats, MaxAbsDiff) {
  std::vector<double> a{1, 2, 3}, b{1, 2.5, 2};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
}

TEST(Stats, RelErrorScaleInvariant) {
  std::vector<double> a{1000.0, 2000.0}, b{1000.1, 2000.0};
  EXPECT_NEAR(rel_error(a, b), 0.1 / 2000.0, 1e-12);
}

// ---------- TextTable ----------

TEST(TextTable, PrintsAlignedColumns) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTable, CsvRoundTrip) {
  TextTable t;
  t.set_header({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(42ll), "42");
}

// ---------- Cli ----------

TEST(Cli, ParsesKeyValueFlags) {
  const char* argv[] = {"prog", "--m=128", "--device=GTX 470", "pos"};
  Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("m", 0), 128);
  EXPECT_EQ(cli.get("device"), "GTX 470");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_EQ(cli.get("verbose"), "1");
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("m", 77), 77);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
  EXPECT_EQ(cli.get("s", "dflt"), "dflt");
}

TEST(EnvFlag, OnWhenSetNonEmptyAndNotLeadingZero) {
  const char* name = "TDA_TEST_ENV_FLAG";
  ::unsetenv(name);
  EXPECT_FALSE(env_flag(name));
  EXPECT_TRUE(env_flag(name, /*fallback=*/true));
  const struct {
    const char* value;
    bool on;
  } cases[] = {{"", false}, {"0", false}, {"00", false}, {"1", true},
               {"yes", true}};
  for (const auto& c : cases) {
    ::setenv(name, c.value, 1);
    EXPECT_EQ(env_flag(name), c.on) << '"' << c.value << '"';
    // Set and non-empty decides; empty reads as unset.
    const bool unset = *c.value == '\0';
    EXPECT_EQ(env_flag(name, /*fallback=*/true), unset || c.on)
        << '"' << c.value << '"';
  }
  ::unsetenv(name);
}

}  // namespace
