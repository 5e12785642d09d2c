// Checked streamed-session entry points: every degenerate input maps to a
// typed StreamError, and an erroring call leaves the session and the
// forecaster bit-for-bit untouched (the daemon's quarantine logic depends
// on both properties).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "src/forecast/forecaster.h"
#include "src/forecast/registry.h"

namespace femux {
namespace {

constexpr std::size_t kWindowHint = 32;

std::vector<double> Series(std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(5.0 + 2.0 * std::sin(0.3 * static_cast<double>(i)));
  }
  return out;
}

std::span<const double> Tail(const std::vector<double>& series, std::size_t n) {
  const std::size_t len = std::min(series.size(), n);
  return std::span<const double>(series.data() + series.size() - len, len);
}

TEST(SessionErrorsTest, HappyPathMatchesUncheckedBitForBit) {
  const auto checked_f = MakeForecasterByName("holt");
  const auto unchecked_f = MakeForecasterByName("holt");
  ASSERT_NE(checked_f, nullptr);
  IncrementalSession checked;
  IncrementalSession unchecked;
  const auto series = Series(60);
  for (std::size_t n = 1; n <= series.size(); ++n) {
    const std::vector<double> head(series.begin(), series.begin() + n);
    const auto window = Tail(head, kWindowHint);
    const StreamedForecast result =
        checked.ForecastStreamedChecked(*checked_f, window, n, kWindowHint);
    ASSERT_TRUE(result.ok()) << StreamErrorName(result.error);
    const double expected =
        unchecked.ForecastStreamed(*unchecked_f, window, n, kWindowHint);
    EXPECT_DOUBLE_EQ(result.value, expected) << "n=" << n;
  }
}

TEST(SessionErrorsTest, NonFiniteWindowIsTypedError) {
  const auto forecaster = MakeForecasterByName("holt");
  ASSERT_NE(forecaster, nullptr);
  IncrementalSession session;
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    std::vector<double> window = Series(10);
    window[4] = poison;
    const StreamedForecast result =
        session.ForecastStreamedChecked(*forecaster, window, 10, kWindowHint);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.error, StreamError::kNonFiniteInput);
  }
}

TEST(SessionErrorsTest, CountRegressionIsTypedError) {
  const auto forecaster = MakeForecasterByName("holt");
  ASSERT_NE(forecaster, nullptr);
  IncrementalSession session;
  const auto series = Series(20);
  ASSERT_TRUE(session
                  .ForecastStreamedChecked(*forecaster, Tail(series, kWindowHint),
                                           series.size(), kWindowHint)
                  .ok());
  // The stream's monotone count went backwards: duplicate/out-of-order
  // epoch accounting upstream, and a forecast now would come from
  // inconsistent state.
  const StreamedForecast result = session.ForecastStreamedChecked(
      *forecaster, Tail(series, kWindowHint), series.size() - 3, kWindowHint);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, StreamError::kCountRegressed);
}

TEST(SessionErrorsTest, ForwardGapIsNotAnError) {
  // A bounded-ring caller can legitimately skip epochs; the session must
  // re-seed exactly like the unchecked path.
  const auto checked_f = MakeForecasterByName("holt");
  const auto unchecked_f = MakeForecasterByName("holt");
  IncrementalSession checked;
  IncrementalSession unchecked;
  const auto series = Series(50);
  ASSERT_TRUE(checked
                  .ForecastStreamedChecked(*checked_f, Tail(series, 20), 20,
                                           kWindowHint)
                  .ok());
  unchecked.ForecastStreamed(*unchecked_f, Tail(series, 20), 20, kWindowHint);
  // Jump from 20 observed to 50 observed (gap of 30).
  const StreamedForecast result = checked.ForecastStreamedChecked(
      *checked_f, Tail(series, kWindowHint), 50, kWindowHint);
  ASSERT_TRUE(result.ok());
  const double expected =
      unchecked.ForecastStreamed(*unchecked_f, Tail(series, kWindowHint), 50,
                                 kWindowHint);
  EXPECT_DOUBLE_EQ(result.value, expected);
}

TEST(SessionErrorsTest, ErroringCallLeavesStateUntouched) {
  // Twin setup: drive A and B identically, inject bad calls into A only,
  // then continue identically. If the bad calls touched any state, A and B
  // diverge on the continuation.
  const auto fa = MakeForecasterByName("holt");
  const auto fb = MakeForecasterByName("holt");
  IncrementalSession sa;
  IncrementalSession sb;
  const auto series = Series(80);
  for (std::size_t n = 1; n <= 40; ++n) {
    const std::vector<double> head(series.begin(), series.begin() + n);
    const auto window = Tail(head, kWindowHint);
    ASSERT_TRUE(sa.ForecastStreamedChecked(*fa, window, n, kWindowHint).ok());
    ASSERT_TRUE(sb.ForecastStreamedChecked(*fb, window, n, kWindowHint).ok());
  }
  // Session A takes a burst of degenerate calls.
  std::vector<double> poisoned = Series(kWindowHint);
  poisoned[0] = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sa.ForecastStreamedChecked(*fa, poisoned, 41, kWindowHint).error,
              StreamError::kNonFiniteInput);
    EXPECT_EQ(sa.ForecastStreamedChecked(*fa, Tail(series, kWindowHint), 39,
                                         kWindowHint)
                  .error,
              StreamError::kCountRegressed);
    EXPECT_EQ(sa.SeedStreamedChecked(*fa, poisoned, 41, kWindowHint),
              StreamError::kNonFiniteInput);
  }
  // Continuation must stay bit-identical.
  for (std::size_t n = 41; n <= series.size(); ++n) {
    const std::vector<double> head(series.begin(), series.begin() + n);
    const auto window = Tail(head, kWindowHint);
    const StreamedForecast ra = sa.ForecastStreamedChecked(*fa, window, n, kWindowHint);
    const StreamedForecast rb = sb.ForecastStreamedChecked(*fb, window, n, kWindowHint);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_DOUBLE_EQ(ra.value, rb.value) << "n=" << n;
  }
}

TEST(SessionErrorsTest, SeedStreamedCheckedWarmsTheSession) {
  const auto seeded_f = MakeForecasterByName("holt");
  const auto plain_f = MakeForecasterByName("holt");
  IncrementalSession seeded;
  IncrementalSession plain;
  const auto series = Series(40);
  const auto window = Tail(series, kWindowHint);
  ASSERT_EQ(seeded.SeedStreamedChecked(*seeded_f, window, series.size(), kWindowHint),
            StreamError::kNone);
  const StreamedForecast from_seed = seeded.ForecastStreamedChecked(
      *seeded_f, window, series.size(), kWindowHint);
  ASSERT_TRUE(from_seed.ok());
  // The unchecked seed path is the reference.
  plain.SeedStreamed(*plain_f, window, series.size(), kWindowHint);
  const double expected =
      plain.ForecastStreamed(*plain_f, window, series.size(), kWindowHint);
  EXPECT_DOUBLE_EQ(from_seed.value, expected);
}

// SETAR has no incremental protocol: every streamed call is a batch
// Forecast(). The count check must hold for it all the same, or a daemon
// tenant on a batch forecaster is served from a regressed stream.
TEST(SessionErrorsTest, CountRegressionIsTypedErrorOnBatchStream) {
  const auto forecaster = MakeForecasterByName("setar");
  ASSERT_NE(forecaster, nullptr);
  ASSERT_FALSE(forecaster->SupportsIncremental());
  IncrementalSession session;
  const auto series = Series(40);
  ASSERT_TRUE(session
                  .ForecastStreamedChecked(*forecaster, Tail(series, kWindowHint),
                                           series.size(), kWindowHint)
                  .ok());
  EXPECT_EQ(session
                .ForecastStreamedChecked(*forecaster, Tail(series, kWindowHint),
                                         series.size() - 3, kWindowHint)
                .error,
            StreamError::kCountRegressed);
  EXPECT_EQ(session.SeedStreamedChecked(*forecaster, Tail(series, kWindowHint),
                                        series.size() - 1, kWindowHint),
            StreamError::kCountRegressed);
  // A seed binds the batch stream too.
  IncrementalSession seeded;
  ASSERT_EQ(seeded.SeedStreamedChecked(*forecaster, Tail(series, kWindowHint),
                                       series.size(), kWindowHint),
            StreamError::kNone);
  EXPECT_EQ(seeded
                .ForecastStreamedChecked(*forecaster, Tail(series, kWindowHint),
                                         series.size() - 1, kWindowHint)
                .error,
            StreamError::kCountRegressed);
  // Invalidate unbinds: the next call starts a fresh stream.
  session.Invalidate();
  EXPECT_TRUE(session
                  .ForecastStreamedChecked(*forecaster, Tail(series, kWindowHint),
                                           series.size() - 3, kWindowHint)
                  .ok());
}

// SETAR counts its Forecast() calls to pace refits (stride 5 here), so a
// regressed call that reached Forecast() would shift every later refit.
// Twin sessions must stay bit-identical after session A takes the errors.
TEST(SessionErrorsTest, BatchStreamErrorLeavesRefitPhaseUntouched) {
  const auto fa = MakeForecasterByName("setar", 5);
  const auto fb = MakeForecasterByName("setar", 5);
  IncrementalSession sa;
  IncrementalSession sb;
  const auto series = Series(90);
  for (std::size_t n = 1; n <= 40; ++n) {
    const std::vector<double> head(series.begin(), series.begin() + n);
    const auto window = Tail(head, kWindowHint);
    ASSERT_TRUE(sa.ForecastStreamedChecked(*fa, window, n, kWindowHint).ok());
    ASSERT_TRUE(sb.ForecastStreamedChecked(*fb, window, n, kWindowHint).ok());
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sa.ForecastStreamedChecked(*fa, Tail(series, kWindowHint), 39,
                                         kWindowHint)
                  .error,
              StreamError::kCountRegressed);
  }
  for (std::size_t n = 41; n <= series.size(); ++n) {
    const std::vector<double> head(series.begin(), series.begin() + n);
    const auto window = Tail(head, kWindowHint);
    const StreamedForecast ra = sa.ForecastStreamedChecked(*fa, window, n, kWindowHint);
    const StreamedForecast rb = sb.ForecastStreamedChecked(*fb, window, n, kWindowHint);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.value),
              std::bit_cast<std::uint64_t>(rb.value))
        << "n=" << n;
  }
}

TEST(SessionErrorsTest, ErrorNamesAreStable) {
  EXPECT_STREQ(StreamErrorName(StreamError::kNone), "none");
  EXPECT_STREQ(StreamErrorName(StreamError::kNonFiniteInput), "non_finite_input");
  EXPECT_STREQ(StreamErrorName(StreamError::kCountRegressed), "count_regressed");
  EXPECT_TRUE(StreamedForecast{}.ok());
}

}  // namespace
}  // namespace femux
