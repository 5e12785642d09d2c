// Torn-write property: a daemon checkpoint truncated at EVERY byte offset
// must load as a valid prefix of the original records (or fail cleanly as
// empty) — never partial fields, never corrupt values, never a crash.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/serialize.h"

namespace femux {
namespace {

// xorshift64: deterministic fixture values without <random>.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed ? seed : 1) {}
  std::uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

DaemonCheckpoint MakeFixture() {
  Rng rng(0xfeedULL);
  DaemonCheckpoint checkpoint;
  checkpoint.tick = 12345;
  for (int i = 0; i < 12; ++i) {
    DaemonAppCheckpoint app;
    // Ids exercise the token escaping: spaces, percent signs, an empty-ish
    // suffix, and plain names.
    switch (i % 4) {
      case 0:
        app.id = "app-" + std::to_string(i);
        break;
      case 1:
        app.id = "tenant " + std::to_string(i) + " with spaces";
        break;
      case 2:
        app.id = "100%-cpu-" + std::to_string(i);
        break;
      default:
        app.id = "tab\tand\nnewline-" + std::to_string(i);
        break;
    }
    app.forecaster = i % 2 == 0 ? "holt" : "moving_average";
    app.observed = 100 + static_cast<std::uint64_t>(i);
    app.last_epoch = 500 + static_cast<std::uint64_t>(i);
    app.has_epoch = true;
    app.has_last_good = i % 3 != 0;
    app.last_good = rng.Uniform() * 50.0;
    app.quarantined_until = i % 5 == 0 ? 12350 : 0;
    app.consecutive_faults = static_cast<std::uint32_t>(i % 3);
    // Learned-forecaster records carry an opaque state token; mix realistic
    // hexfloat blobs, awkward content that leans on the token escaping, and
    // the empty (absent-field) case so both record widths are exercised.
    switch (i % 3) {
      case 0:
        app.forecaster_state =
            "lsv1;16;120;1;0x1.8p+3;0x1p-2;-0x1.4p+1;0x0p+0";
        break;
      case 1:
        app.forecaster_state = "blob with spaces\tand 100% escapes\n" +
                               std::to_string(i);
        break;
      default:
        break;  // No learned state: the record omits the trailing token.
    }
    const int ring_n = 1 + i * 3;
    for (int j = 0; j < ring_n; ++j) {
      app.ring.push_back(rng.Uniform() * 20.0);
    }
    checkpoint.apps.push_back(std::move(app));
  }
  return checkpoint;
}

void ExpectAppEq(const DaemonAppCheckpoint& actual, const DaemonAppCheckpoint& expected,
                 std::size_t index) {
  SCOPED_TRACE("record " + std::to_string(index));
  EXPECT_EQ(actual.id, expected.id);
  EXPECT_EQ(actual.forecaster, expected.forecaster);
  EXPECT_EQ(actual.observed, expected.observed);
  EXPECT_EQ(actual.last_epoch, expected.last_epoch);
  EXPECT_EQ(actual.has_epoch, expected.has_epoch);
  EXPECT_EQ(actual.has_last_good, expected.has_last_good);
  EXPECT_DOUBLE_EQ(actual.last_good, expected.last_good);
  EXPECT_EQ(actual.quarantined_until, expected.quarantined_until);
  EXPECT_EQ(actual.consecutive_faults, expected.consecutive_faults);
  EXPECT_EQ(actual.forecaster_state, expected.forecaster_state);
  ASSERT_EQ(actual.ring.size(), expected.ring.size());
  for (std::size_t i = 0; i < actual.ring.size(); ++i) {
    EXPECT_DOUBLE_EQ(actual.ring[i], expected.ring[i]);
  }
}

TEST(CheckpointPropertyTest, RoundTripIsExact) {
  const DaemonCheckpoint original = MakeFixture();
  std::ostringstream out;
  SaveDaemonCheckpoint(original, out);
  std::istringstream in(out.str());
  DaemonCheckpoint loaded;
  ASSERT_TRUE(LoadDaemonCheckpoint(in, &loaded));
  EXPECT_EQ(loaded.tick, original.tick);
  ASSERT_EQ(loaded.apps.size(), original.apps.size());
  for (std::size_t i = 0; i < loaded.apps.size(); ++i) {
    ExpectAppEq(loaded.apps[i], original.apps[i], i);
  }
}

TEST(CheckpointPropertyTest, EveryTruncationYieldsValidPrefixOrCleanFailure) {
  const DaemonCheckpoint original = MakeFixture();
  std::ostringstream out;
  SaveDaemonCheckpoint(original, out);
  const std::string blob = out.str();
  ASSERT_GT(blob.size(), 100u);

  std::size_t complete_loads = 0;
  for (std::size_t cut = 0; cut <= blob.size(); ++cut) {
    std::istringstream in(blob.substr(0, cut));
    DaemonCheckpoint loaded;
    const bool complete = LoadDaemonCheckpoint(in, &loaded);
    if (complete) {
      // Only the untruncated blob may load as complete.
      EXPECT_EQ(cut, blob.size());
      ++complete_loads;
    }
    // Whatever loaded must be an exact prefix of the original records.
    ASSERT_LE(loaded.apps.size(), original.apps.size()) << "cut=" << cut;
    for (std::size_t i = 0; i < loaded.apps.size(); ++i) {
      ExpectAppEq(loaded.apps[i], original.apps[i], i);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "corrupt record surfaced at cut=" << cut;
      }
    }
    // Prefix lengths are monotone in the cut (a longer read never loses a
    // previously valid record).
    if (cut > 0) {
      std::istringstream prev_in(blob.substr(0, cut - 1));
      DaemonCheckpoint prev;
      LoadDaemonCheckpoint(prev_in, &prev);
      EXPECT_GE(loaded.apps.size(), prev.apps.size()) << "cut=" << cut;
    }
  }
  EXPECT_EQ(complete_loads, 1u);
}

TEST(CheckpointPropertyTest, CorruptedBytesAreRejectedNotMisread) {
  // Flipping any single character of a record line must invalidate that
  // line (checksum) without breaking earlier records. Spot-check a spread
  // of positions rather than all bytes to keep runtime bounded.
  const DaemonCheckpoint original = MakeFixture();
  std::ostringstream out;
  SaveDaemonCheckpoint(original, out);
  const std::string blob = out.str();
  for (std::size_t pos = 0; pos < blob.size(); pos += 7) {
    if (blob[pos] == '\n') {
      continue;  // Deleting framing is the truncation case above.
    }
    std::string mutated = blob;
    mutated[pos] = mutated[pos] == 'x' ? 'y' : 'x';
    std::istringstream in(mutated);
    DaemonCheckpoint loaded;
    LoadDaemonCheckpoint(in, &loaded);
    ASSERT_LE(loaded.apps.size(), original.apps.size()) << "pos=" << pos;
    for (std::size_t i = 0; i < loaded.apps.size(); ++i) {
      // Every surviving record must still match the original exactly: a
      // bit flip may shorten the prefix, never alter recovered values.
      ExpectAppEq(loaded.apps[i], original.apps[i], i);
    }
  }
}

TEST(CheckpointPropertyTest, FileTruncateHookPublishesLoadablePrefix) {
  const DaemonCheckpoint original = MakeFixture();
  const std::string path = ::testing::TempDir() + "femux_ckpt_property_test.ckpt";
  std::size_t full_bytes = 0;
  ASSERT_TRUE(SaveDaemonCheckpointFile(original, path, &full_bytes));
  ASSERT_GT(full_bytes, 0u);
  // Re-save with the torn-write hook cutting at 60% of the blob.
  std::size_t torn_bytes = 0;
  ASSERT_TRUE(SaveDaemonCheckpointFile(original, path, &torn_bytes,
                                       static_cast<long long>(full_bytes * 3 / 5)));
  EXPECT_LT(torn_bytes, full_bytes);
  DaemonCheckpoint loaded;
  EXPECT_FALSE(LoadDaemonCheckpointFile(path, &loaded));
  EXPECT_LT(loaded.apps.size(), original.apps.size());
  for (std::size_t i = 0; i < loaded.apps.size(); ++i) {
    ExpectAppEq(loaded.apps[i], original.apps[i], i);
  }
  std::remove(path.c_str());
}

// The loader rejects, as a malformed record, any ring sample a push would
// reject (non-finite or negative) and an `observed` count below the ring
// length, which no writer produces. The writer frames the bad record with
// a valid checksum, so only these checks stop the load there, and the
// records before it still load.
TEST(CheckpointPropertyTest, RejectsRingsAPushWouldReject) {
  const DaemonCheckpoint fixture = MakeFixture();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* label;
    double sample;
    std::uint64_t observed;
    bool valid;
  } cases[] = {
      {"control", 2.5, 3, true},
      {"zero", -0.0, 3, true},
      {"nan", std::numeric_limits<double>::quiet_NaN(), 3, false},
      {"inf", inf, 3, false},
      {"-inf", -inf, 3, false},
      {"negative", -0.5, 3, false},
      {"observed_below_ring", 2.5, 2, false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    DaemonCheckpoint checkpoint;
    checkpoint.tick = fixture.tick;
    checkpoint.apps = {fixture.apps[0], fixture.apps[1], fixture.apps[2]};
    DaemonAppCheckpoint& record = checkpoint.apps[1];
    record.ring = {1.0, c.sample, 3.0};
    record.observed = c.observed;
    std::ostringstream out;
    SaveDaemonCheckpoint(checkpoint, out);
    std::istringstream in(out.str());
    DaemonCheckpoint loaded;
    EXPECT_EQ(LoadDaemonCheckpoint(in, &loaded), c.valid);
    ASSERT_EQ(loaded.apps.size(), c.valid ? 3u : 1u);
    for (std::size_t i = 0; i < loaded.apps.size(); ++i) {
      ExpectAppEq(loaded.apps[i], checkpoint.apps[i], i);
    }
  }
}

// FNV-1a-64 as 16 lowercase hex digits: the record checksum, rebuilt here
// so the test can frame a record the way an older writer did.
std::string ChecksumHex(const std::string& body) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : body) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

void ExpectBitsEq(double actual, double expected, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
            std::bit_cast<std::uint64_t>(expected))
      << what << ": " << actual << " vs " << expected;
}

// Records are written in the shortest round-trip decimal form
// (std::to_chars). That must read back bit-exactly, and records an older
// writer formatted through an ostream at precision 17 must still load to
// the same bits.
TEST(CheckpointPropertyTest, ShortestFormAndPrecision17RecordsLoadBitExact) {
  const std::vector<double> values = {
      5e-324, 0.1, 1e300, 0.0, -0.0, 1.0, 42.0, 9007199254740992.0,
      1.0 / 3.0, 2.2250738585072014e-308, 1.7976931348623157e308, 12.375};
  DaemonCheckpoint checkpoint;
  checkpoint.tick = 18446744073709551615ULL;
  DaemonAppCheckpoint app;
  app.id = "app 0";
  app.forecaster = "holt";
  app.observed = 123456789012345ULL;
  app.last_epoch = 77;
  app.has_epoch = true;
  app.has_last_good = true;
  app.last_good = 0.1;
  app.quarantined_until = 3;
  app.consecutive_faults = 4294967295u;
  app.ring = values;
  checkpoint.apps.push_back(app);

  std::ostringstream shortest;
  SaveDaemonCheckpoint(checkpoint, shortest);
  EXPECT_NE(shortest.str().find(
                " 0.1 3 4294967295 12 5e-324 0.1 1e+300 0 -0 1 42 9007199254740992 "),
            std::string::npos)
      << shortest.str();

  // The same record as the precision-17 ostream writer produced it.
  std::ostringstream body;
  body.precision(17);
  body << "app app%200 holt " << app.observed << ' ' << app.last_epoch
       << " 1 1 " << app.last_good << ' ' << app.quarantined_until << ' '
       << app.consecutive_faults << ' ' << app.ring.size();
  for (double v : app.ring) {
    body << ' ' << v;
  }
  const std::string header = "femux-daemon-v1 18446744073709551615 1";
  const std::string precision17 = header + ' ' + ChecksumHex(header) + '\n' +
                                  body.str() + ' ' + ChecksumHex(body.str()) +
                                  '\n';
  EXPECT_NE(precision17.find(" 0.10000000000000001 "), std::string::npos);

  for (const std::string& blob : {shortest.str(), precision17}) {
    std::istringstream in(blob);
    DaemonCheckpoint loaded;
    ASSERT_TRUE(LoadDaemonCheckpoint(in, &loaded)) << blob;
    EXPECT_EQ(loaded.tick, checkpoint.tick);
    ASSERT_EQ(loaded.apps.size(), 1u);
    const DaemonAppCheckpoint& got = loaded.apps[0];
    EXPECT_EQ(got.id, app.id);
    EXPECT_EQ(got.observed, app.observed);
    EXPECT_EQ(got.last_epoch, app.last_epoch);
    EXPECT_EQ(got.quarantined_until, app.quarantined_until);
    EXPECT_EQ(got.consecutive_faults, app.consecutive_faults);
    ExpectBitsEq(got.last_good, app.last_good, "last_good");
    ASSERT_EQ(got.ring.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      ExpectBitsEq(got.ring[i], values[i], "ring");
    }
  }
}

}  // namespace
}  // namespace femux
