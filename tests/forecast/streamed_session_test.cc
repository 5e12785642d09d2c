// Ring-driven ForecastStream + block-boundary warm handoff parity
// (DESIGN.md §11), mirroring the incremental-parity tests: a caller that
// appends one sample at a time (FemuxPolicy, the daemon) must agree bit
// for bit with one that syncs the full history each epoch
// (ForecasterPolicy), including across a mid-stream forecaster switch
// through Bind (the warm handoff).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/forecast/ar.h"
#include "src/forecast/fft_forecaster.h"
#include "src/forecast/forecaster.h"
#include "src/forecast/smoothing.h"

namespace femux {
namespace {

// Deterministic xorshift so the series are stable across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  double Uniform() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return static_cast<double>(state_ % 1000000) / 1000000.0;
  }

 private:
  std::uint64_t state_;
};

std::vector<double> RandomSeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) {
    v = 10.0 * rng.Uniform();
  }
  return out;
}

constexpr std::size_t kWindow = 120;

// The effective window the stream gives `forecaster`.
std::size_t EffectiveWindow(const Forecaster& forecaster) {
  return std::max(kWindow, forecaster.preferred_history());
}

// Full-history reference: Sync on every prefix, the path ForecasterPolicy
// takes and the incremental-parity tests pin against batch refits.
std::vector<double> FullHistoryRolling(const Forecaster& prototype,
                                       std::span<const double> series) {
  const std::unique_ptr<Forecaster> forecaster = prototype.Clone();
  ForecastStream stream(kWindow);
  stream.Bind(*forecaster);
  std::vector<double> out;
  out.reserve(series.size());
  for (std::size_t t = 1; t <= series.size(); ++t) {
    stream.Sync(series.subspan(0, t));
    out.push_back(stream.Forecast());
  }
  return out;
}

// Ring-driven path: the stream sees one sample at a time and retains only
// its bounded ring.
std::vector<double> RingRolling(const Forecaster& prototype,
                                std::span<const double> series) {
  const std::unique_ptr<Forecaster> forecaster = prototype.Clone();
  ForecastStream stream(kWindow);
  stream.Bind(*forecaster);
  std::vector<double> out;
  out.reserve(series.size());
  for (double v : series) {
    stream.Append(v);
    out.push_back(stream.Forecast());
  }
  return out;
}

// The protocol driven by hand: one BeginWindow, then one ObserveAppend and
// one ForecastNext per sample, all handed windowed prefixes. This is the
// call sequence both stream paths above must reproduce.
std::vector<double> ProtocolRolling(const Forecaster& prototype,
                                    std::span<const double> series) {
  const std::unique_ptr<Forecaster> forecaster = prototype.Clone();
  const std::size_t window = EffectiveWindow(*forecaster);
  const auto windowed = [&](std::size_t t) {
    return series.first(t).last(std::min(t, window));
  };
  std::vector<double> out;
  out.reserve(series.size());
  for (std::size_t t = 1; t <= series.size(); ++t) {
    if (t == 1) {
      forecaster->BeginWindow(windowed(1), window);
    } else {
      forecaster->ObserveAppend(windowed(t - 1), windowed(t));
    }
    out.push_back(forecaster->ForecastNext(windowed(t)));
  }
  return out;
}

void ExpectBitEqualSeries(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[t]),
              std::bit_cast<std::uint64_t>(b[t]))
        << "t=" << t << " full=" << a[t] << " ring=" << b[t];
  }
}

// The ring must be invisible: as long as the retained tail covers the
// effective window, the appended call sequence is exactly the synced
// call sequence, so results are bit-identical (not merely close).
TEST(StreamedSessionTest, RingDrivingIsBitIdenticalToFullHistory) {
  const auto series = RandomSeries(700, 42);
  const struct {
    const char* label;
    std::unique_ptr<Forecaster> prototype;
  } cases[] = {
      {"ar", std::make_unique<ArForecaster>(10, 5)},
      {"setar", std::make_unique<SetarForecaster>(10, 2, 5)},
      {"exp_smoothing", std::make_unique<ExponentialSmoothingForecaster>()},
      {"holt", std::make_unique<HoltForecaster>()},
      {"fft", std::make_unique<FftForecaster>(10, 5, 256)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    const std::vector<double> reference = ProtocolRolling(*c.prototype, series);
    ExpectBitEqualSeries(reference, FullHistoryRolling(*c.prototype, series));
    ExpectBitEqualSeries(reference, RingRolling(*c.prototype, series));
  }
}

// A forecaster that implements only Forecast() is served by the base
// ForecastNext(), Forecast() on the ring's window: the windowed history,
// so this too is exact.
TEST(StreamedSessionTest, ForecastOnlyDefaultMatchesWindowedForecast) {
  class PlainMean final : public Forecaster {
   public:
    std::string_view name() const override { return "plain_mean"; }
    std::vector<double> Forecast(std::span<const double> history,
                                 std::size_t horizon) override {
      double sum = 0.0;
      for (double v : history) {
        sum += v;
      }
      const double mu =
          history.empty() ? 0.0 : sum / static_cast<double>(history.size());
      return std::vector<double>(horizon, ClampPrediction(mu));
    }
    std::unique_ptr<Forecaster> Clone() const override {
      return std::make_unique<PlainMean>();
    }
  };
  const auto series = RandomSeries(400, 11);
  const PlainMean prototype;
  const std::vector<double> reference = ProtocolRolling(prototype, series);
  ExpectBitEqualSeries(reference, FullHistoryRolling(prototype, series));
  ExpectBitEqualSeries(reference, RingRolling(prototype, series));
}

// Warm handoff: switch forecasters mid-stream, seeding the newcomer from
// the ring (exactly what FemuxPolicy::CompleteBlock does). After the seed,
// the newcomer must track a reference stream that was fed the full
// history from the switch point on — bit-identical, because Bind performs
// the same BeginWindow a cold re-seed at that prefix would.
TEST(StreamedSessionTest, WarmHandoffMatchesColdReseedAtSwitchPoint) {
  const auto all = RandomSeries(600, 7);
  const std::span<const double> series(all);
  constexpr std::size_t kSwitchAt = 371;  // Mid-stream, window already full.

  // Streamed path: forecaster A until the switch, then bind B (seeding it
  // from the ring) and continue streaming with B.
  ArForecaster a(10, 5);
  ArForecaster b(6, 3);
  // Sized for both, as FemuxPolicy sizes its ring for the model's set.
  ForecastStream stream(kWindow, std::max(a.preferred_history(), b.preferred_history()));
  stream.Bind(a);
  std::vector<double> streamed;
  int switches = 0;
  for (std::size_t t = 0; t < series.size(); ++t) {
    stream.Append(series[t]);
    if (t + 1 == kSwitchAt) {
      stream.Bind(b);
      ++switches;
    }
    streamed.push_back(stream.Forecast());
  }
  ASSERT_GE(switches, 1);

  // Reference: a fresh B synced on full-history prefixes starting at the
  // switch point (a cold re-seed would begin the same way).
  ArForecaster b_ref(6, 3);
  ForecastStream ref_stream(kWindow);
  ref_stream.Bind(b_ref);
  for (std::size_t t = kSwitchAt; t <= series.size(); ++t) {
    ref_stream.Sync(series.subspan(0, t));
    const double ref = ref_stream.Forecast();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref),
              std::bit_cast<std::uint64_t>(streamed[t - 1]))
        << "t=" << t << " ref=" << ref << " streamed=" << streamed[t - 1];
  }
}

// Records every span the stream hands it, so the window contract can be
// checked call by call.
class RecordingForecaster final : public Forecaster {
 public:
  enum class Call { kBegin, kAppend, kNext };
  struct Record {
    Call call;
    std::vector<double> previous;  // ObserveAppend only.
    std::vector<double> window;
  };

  explicit RecordingForecaster(std::size_t history) : history_(history) {}

  std::string_view name() const override { return "recording"; }
  std::vector<double> Forecast(std::span<const double> history,
                               std::size_t horizon) override {
    return std::vector<double>(horizon, history.empty() ? 0.0 : history.back());
  }
  std::unique_ptr<Forecaster> Clone() const override {
    return std::make_unique<RecordingForecaster>(history_);
  }
  std::size_t preferred_history() const override { return history_; }
  void BeginWindow(std::span<const double> window, std::size_t capacity) override {
    EXPECT_EQ(capacity, history_);
    records.push_back({Call::kBegin, {}, Copy(window)});
  }
  void ObserveAppend(std::span<const double> previous,
                     std::span<const double> window) override {
    records.push_back({Call::kAppend, Copy(previous), Copy(window)});
  }
  double ForecastNext(std::span<const double> window) override {
    records.push_back({Call::kNext, {}, Copy(window)});
    return window.back();
  }

  std::vector<Record> records;

 private:
  static std::vector<double> Copy(std::span<const double> s) {
    return std::vector<double>(s.begin(), s.end());
  }
  std::size_t history_;
};

// The contract the forecasters rely on: ObserveAppend's `previous` is the
// window of the forecaster's last BeginWindow or ObserveAppend, `window`
// is `previous` plus the newest sample (without previous.front() once
// previous is at capacity), and ForecastNext sees that same window.
void ExpectWindowContract(const RecordingForecaster& forecaster,
                          std::size_t capacity) {
  using Call = RecordingForecaster::Call;
  const std::vector<double>* last = nullptr;
  for (std::size_t i = 0; i < forecaster.records.size(); ++i) {
    SCOPED_TRACE(i);
    const RecordingForecaster::Record& record = forecaster.records[i];
    EXPECT_FALSE(record.window.empty());
    EXPECT_LE(record.window.size(), capacity);
    if (record.call != Call::kBegin) {
      ASSERT_NE(last, nullptr) << "no BeginWindow before the first slide";
    }
    if (record.call == Call::kAppend) {
      EXPECT_EQ(record.previous, *last);
      std::vector<double> expected = record.previous;
      if (expected.size() == capacity) {
        expected.erase(expected.begin());
      }
      expected.push_back(record.window.back());
      EXPECT_EQ(record.window, expected);
    }
    if (record.call == Call::kNext) {
      EXPECT_EQ(record.window, *last);
    } else {
      last = &record.window;
    }
  }
}

// The stream hands each call a view of the samples it retains. Drives
// growth, slides past several ring compactions, a restore from a tail
// shorter than the window, a reset, a two-sample gap and a mid-stream Bind
// of a forecaster with a longer window.
TEST(StreamedSessionTest, ForecastersReadTheStreamWindowOnEveryCall) {
  constexpr std::size_t kFirst = 8;
  constexpr std::size_t kSecond = 12;
  const auto series = RandomSeries(160, 5);
  std::vector<double> fed;  // What the stream was given, restores included.
  RecordingForecaster first(kFirst);
  RecordingForecaster second(kSecond);
  ForecastStream stream(4);
  std::size_t next = 0;
  const auto append = [&] {
    stream.Append(series[next]);
    fed.push_back(series[next]);
    ++next;
  };
  // Each forecast's window is the newest samples fed, and grows to the
  // capacity unless a restore or a bind left fewer in the ring.
  const auto forecast = [&](const RecordingForecaster& bound) {
    stream.Forecast();
    const std::vector<double>& window = bound.records.back().window;
    EXPECT_TRUE(std::equal(window.begin(), window.end(), fed.end() - window.size()));
  };

  stream.Bind(first);
  EXPECT_TRUE(first.records.empty());  // Nothing to seed from yet.
  for (int n = 0; n < 40; ++n) {  // Growth, then compactions at 16, 24, ...
    append();
    forecast(first);
    EXPECT_EQ(first.records.back().window.size(),
              std::min<std::size_t>(next, kFirst));
  }
  const std::span<const double> tail = std::span<const double>(series).first(next).last(5);
  fed.assign(tail.begin(), tail.end());
  stream.Restore(tail, next);
  for (int n = 0; n < 6; ++n) {  // Grows from the 5-sample tail to capacity.
    append();
    forecast(first);
    EXPECT_EQ(first.records.back().window.size(), std::min<std::size_t>(6 + n, kFirst));
  }
  stream.Reset();
  append();
  forecast(first);
  append();
  append();  // Two samples arrive at once: a re-seed.
  forecast(first);
  for (int n = 0; n < 20; ++n) {
    append();
    forecast(first);
  }
  stream.Bind(second);  // Seeds at once from the retained ring.
  ASSERT_EQ(second.records.size(), 1u);
  for (int n = 0; n < 40; ++n) {  // Grows the ring to 24, then compacts.
    append();
    forecast(second);
  }
  EXPECT_EQ(second.records.back().window.size(), kSecond);
  append();
  append();
  forecast(second);

  using Call = RecordingForecaster::Call;
  const auto begins = [](const RecordingForecaster& f) {
    return std::count_if(f.records.begin(), f.records.end(),
                         [](const auto& r) { return r.call == Call::kBegin; });
  };
  EXPECT_EQ(begins(first), 4);  // First forecast, restore, reset, gap.
  EXPECT_EQ(begins(second), 2);  // Bind, gap.
  ExpectWindowContract(first, kFirst);
  ExpectWindowContract(second, kSecond);
}

// Repeated calls at the same observed count (FemuxPolicy forecasts once
// per epoch, but SimulateApp may interrogate the policy again without new
// samples) replay the same prediction instead of corrupting the window.
TEST(StreamedSessionTest, ReplayAtSameCountIsStable) {
  const auto series = RandomSeries(300, 23);
  ArForecaster forecaster(10, 5);
  ForecastStream stream(kWindow);
  stream.Bind(forecaster);
  for (double v : series) {
    stream.Append(v);
    const double first = stream.Forecast();
    const double replay = stream.Forecast();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(first),
              std::bit_cast<std::uint64_t>(replay));
  }
}

}  // namespace
}  // namespace femux
