// ForecastStream under faults: a forecaster that throws from BeginWindow,
// ObserveAppend or ForecastNext leaves the stream ready to re-seed, so the
// retry equals, bit for bit, what a fresh stream forecasts at that count.
// Also pins the count the stream owns: replays, gaps, restores, and one
// call into the forecaster per observed sample, for a forecaster that
// implements only Forecast() too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/forecast/forecaster.h"
#include "src/forecast/registry.h"

namespace femux {
namespace {

constexpr std::size_t kWindow = 8;

std::vector<double> Series(std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(5.0 + 2.0 * std::sin(0.3 * static_cast<double>(i)));
  }
  return out;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Keeps its own copy of the window and forecasts a position-weighted sum,
// so a stale, duplicated or missing sample changes the result. Throws once
// from the armed call, after mutating its state, the worst case for the
// caller.
class FlakyForecaster final : public Forecaster {
 public:
  enum class Site { kNone, kBeginWindow, kObserveAppend, kForecastNext };

  void ThrowOnce(Site site) { armed_ = site; }

  std::string_view name() const override { return "flaky"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override {
    window_.assign(history.begin(), history.end());
    return std::vector<double>(horizon, Weighted());
  }
  std::unique_ptr<Forecaster> Clone() const override {
    return std::make_unique<FlakyForecaster>();
  }
  std::size_t preferred_history() const override { return kWindow; }
  void BeginWindow(std::span<const double> window, std::size_t capacity) override {
    window_.assign(window.begin(), window.end());
    capacity_ = capacity;
    MaybeThrow(Site::kBeginWindow);
  }
  void ObserveAppend(std::span<const double> previous,
                     std::span<const double> window) override {
    (void)previous;
    window_.push_back(window.back());
    if (window_.size() > capacity_) {
      window_.erase(window_.begin());
    }
    MaybeThrow(Site::kObserveAppend);
  }
  double ForecastNext(std::span<const double> window) override {
    (void)window;  // Forecasts from its own copy, so a stale one shows.
    ++calls_;  // Refit-counter stand-in: only changes on a throw here.
    MaybeThrow(Site::kForecastNext);
    return Weighted();
  }

 private:
  void MaybeThrow(Site site) {
    if (armed_ == site) {
      armed_ = Site::kNone;
      window_.push_back(1e6 * static_cast<double>(calls_));
      throw std::runtime_error("flaky");
    }
  }
  double Weighted() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < window_.size(); ++i) {
      sum += static_cast<double>(i + 1) * window_[i];
    }
    return sum;
  }

  Site armed_ = Site::kNone;
  std::vector<double> window_;
  std::size_t capacity_ = kWindow;
  std::uint64_t calls_ = 0;
};

// What a stream that never saw a fault forecasts after `prefix`.
double Fresh(std::span<const double> prefix) {
  FlakyForecaster forecaster;
  ForecastStream stream(kWindow);
  stream.Bind(forecaster);
  for (const double v : prefix) {
    stream.Append(v);
  }
  return stream.Forecast();
}

// Each site throws once at epoch `kFaultAt`, mid-slide. The caller retries
// at the same count (the daemon's retry ladder) and then keeps streaming.
TEST(ForecastStreamFaultTest, RetryAfterAThrowEqualsAFreshStream) {
  const auto series = Series(40);
  constexpr std::size_t kFaultAt = 20;
  for (const auto site :
       {FlakyForecaster::Site::kObserveAppend, FlakyForecaster::Site::kForecastNext,
        FlakyForecaster::Site::kBeginWindow}) {
    SCOPED_TRACE(static_cast<int>(site));
    FlakyForecaster forecaster;
    ForecastStream stream(kWindow);
    stream.Bind(forecaster);
    for (std::size_t n = 1; n <= series.size(); ++n) {
      stream.Append(series[n - 1]);
      if (n == kFaultAt) {
        if (site == FlakyForecaster::Site::kBeginWindow) {
          stream.Reset();  // BeginWindow runs on a re-seed.
        }
        forecaster.ThrowOnce(site);
        EXPECT_THROW(stream.Forecast(), std::runtime_error);
      }
      const double expected = Fresh(std::span<const double>(series).first(n));
      EXPECT_EQ(Bits(stream.Forecast()), Bits(expected)) << "n=" << n;
      EXPECT_EQ(stream.observed(), n);
    }
  }
}

// Bind and Restore seed at once, so a throw there surfaces from them; the
// stream stays bound and the next Forecast() re-seeds.
TEST(ForecastStreamFaultTest, ThrowFromBindReseedsOnTheNextForecast) {
  const auto series = Series(30);
  FlakyForecaster first;
  FlakyForecaster second;
  ForecastStream stream(kWindow);
  stream.Bind(first);
  for (const double v : series) {
    stream.Append(v);
    stream.Forecast();
  }
  second.ThrowOnce(FlakyForecaster::Site::kBeginWindow);
  EXPECT_THROW(stream.Bind(second), std::runtime_error);
  EXPECT_EQ(Bits(stream.Forecast()), Bits(Fresh(series)));
  const std::span<const double> prefix = std::span<const double>(series).first(20);
  second.ThrowOnce(FlakyForecaster::Site::kBeginWindow);
  EXPECT_THROW(stream.Restore(prefix, prefix.size()), std::runtime_error);
  EXPECT_EQ(stream.observed(), prefix.size());
  EXPECT_EQ(Bits(stream.Forecast()), Bits(Fresh(prefix)));
}

// Bind seeds the forecaster from the ring, and the next Forecast() serves
// from that state: one BeginWindow, one ForecastNext, the fresh result.
TEST(ForecastStreamFaultTest, BindWarmsTheForecasterAtOnce) {
  const auto series = Series(25);
  const auto seeded_f = MakeForecasterByName("ar");
  const auto plain_f = MakeForecasterByName("ar");
  ASSERT_NE(seeded_f, nullptr);
  // AR prefers more history than kWindow; samples appended before the
  // first Bind are kept only up to the stream's minimum capacity.
  ForecastStream seeded(kWindow, seeded_f->preferred_history());
  ForecastStream plain(kWindow);
  plain.Bind(*plain_f);
  for (const double v : series) {
    seeded.Append(v);
    plain.Append(v);
  }
  seeded.Bind(*seeded_f);
  EXPECT_EQ(Bits(seeded.Forecast()), Bits(plain.Forecast()));
}

// A forward gap (the daemon's epoch gap, or a skipped call) and a restore
// both re-seed from the ring; neither can move the count backwards.
TEST(ForecastStreamFaultTest, GapsAndRestoresReseedFromTheRing) {
  const auto series = Series(60);
  FlakyForecaster forecaster;
  ForecastStream stream(kWindow);
  stream.Bind(forecaster);
  for (std::size_t n = 1; n <= 20; ++n) {
    stream.Append(series[n - 1]);
    stream.Forecast();
  }
  for (std::size_t n = 21; n <= 50; ++n) {
    stream.Append(series[n - 1]);  // No forecast: 30 samples arrive at once.
  }
  EXPECT_EQ(Bits(stream.Forecast()),
            Bits(Fresh(std::span<const double>(series).first(50))));
  stream.Restore(std::span<const double>(series).first(30), 30);
  EXPECT_EQ(stream.observed(), 30u);
  EXPECT_EQ(Bits(stream.Forecast()),
            Bits(Fresh(std::span<const double>(series).first(30))));
}

// Implements only Forecast(), so the stream serves it through the base
// ForecastNext(); counts the calls.
class ForecastOnlyCounter final : public Forecaster {
 public:
  std::string_view name() const override { return "forecast_only"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override {
    ++forecasts;
    return std::vector<double>(horizon, history.empty() ? 0.0 : history.back());
  }
  std::unique_ptr<Forecaster> Clone() const override {
    return std::make_unique<ForecastOnlyCounter>();
  }

  int forecasts = 0;
};

// Implements the whole protocol; counts each call.
class ProtocolCounter final : public Forecaster {
 public:
  std::string_view name() const override { return "protocol"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override {
    ++forecasts;
    return std::vector<double>(horizon, history.empty() ? 0.0 : history.back());
  }
  std::unique_ptr<Forecaster> Clone() const override {
    return std::make_unique<ProtocolCounter>();
  }
  void BeginWindow(std::span<const double> window, std::size_t) override {
    ++begins;
    last_ = window.back();
  }
  void ObserveAppend(std::span<const double>, std::span<const double> window) override {
    ++appends;
    last_ = window.back();
  }
  double ForecastNext(std::span<const double>) override {
    ++nexts;
    return last_;
  }

  int forecasts = 0;
  int begins = 0;
  int appends = 0;
  int nexts = 0;

 private:
  double last_ = 0.0;
};

// Every forecaster advances once per observed sample and a replay serves
// the stream's cached prediction: one that implements only Forecast() is
// called once per sample, never on a replay.
TEST(ForecastStreamFaultTest, ReplaysServeTheCacheForEveryForecaster) {
  ForecastOnlyCounter forecast_only;
  ProtocolCounter protocol;
  ForecastStream forecast_only_stream(kWindow);
  ForecastStream protocol_stream(kWindow);
  forecast_only_stream.Bind(forecast_only);
  protocol_stream.Bind(protocol);
  for (int n = 1; n <= 10; ++n) {
    forecast_only_stream.Append(n);
    protocol_stream.Append(n);
    for (int replay = 0; replay < 3; ++replay) {
      EXPECT_EQ(forecast_only_stream.Forecast(), static_cast<double>(n));
      EXPECT_EQ(protocol_stream.Forecast(), static_cast<double>(n));
    }
    EXPECT_EQ(forecast_only.forecasts, n);
  }
  EXPECT_EQ(protocol.forecasts, 0);
  EXPECT_EQ(protocol.begins, 1);
  EXPECT_EQ(protocol.appends, 9);
  EXPECT_EQ(protocol.nexts, 10);
  // Reset keeps the ring and the count; the next call re-seeds.
  forecast_only_stream.Reset();
  protocol_stream.Reset();
  EXPECT_EQ(forecast_only_stream.Forecast(), 10.0);
  EXPECT_EQ(protocol_stream.Forecast(), 10.0);
  EXPECT_EQ(forecast_only.forecasts, 11);
  EXPECT_EQ(protocol.begins, 2);
  EXPECT_EQ(protocol_stream.observed(), 10u);
}

// SETAR counts its Forecast() calls to pace refits (stride 5 here): twin
// streams stay bit-identical however many samples each call covers.
TEST(ForecastStreamFaultTest, SetarStreamMatchesWindowedForecastAcrossGaps) {
  const auto series = Series(90);
  const auto streamed_f = MakeForecasterByName("setar", 5);
  const auto direct_f = MakeForecasterByName("setar", 5);
  ASSERT_NE(streamed_f, nullptr);
  const std::size_t window = std::max(kWindow, streamed_f->preferred_history());
  ForecastStream stream(kWindow);
  stream.Bind(*streamed_f);
  for (std::size_t n = 1; n <= series.size(); ++n) {
    stream.Append(series[n - 1]);
    if (n % 7 == 3) {
      continue;  // A skipped decision: the next call covers two samples.
    }
    const std::span<const double> prefix = std::span<const double>(series).first(n);
    const double expected =
        ForecastOne(*direct_f, prefix.last(std::min(prefix.size(), window)));
    EXPECT_EQ(Bits(stream.Forecast()), Bits(expected)) << "n=" << n;
  }
}

// SETAR at refit stride 5 counts samples, not calls: a stream asked twice
// on every fifth sample (as by a daemon tick that got no new sample)
// forecasts what a stream asked once forecasts, bit for bit.
TEST(ForecastStreamFaultTest, SetarReplaysDoNotShiftItsRefits) {
  const auto series = Series(300);
  const auto replayed_f = MakeForecasterByName("setar", 5);
  const auto once_f = MakeForecasterByName("setar", 5);
  ASSERT_NE(replayed_f, nullptr);
  ForecastStream replayed(kWindow);
  ForecastStream once(kWindow);
  replayed.Bind(*replayed_f);
  once.Bind(*once_f);
  for (std::size_t n = 1; n <= series.size(); ++n) {
    replayed.Append(series[n - 1]);
    once.Append(series[n - 1]);
    if (n % 5 == 0) {
      replayed.Forecast();
    }
    EXPECT_EQ(Bits(replayed.Forecast()), Bits(once.Forecast())) << "n=" << n;
  }
}

}  // namespace
}  // namespace femux
