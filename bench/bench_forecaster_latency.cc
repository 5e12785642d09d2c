// §5.2 scalability numbers, serving edition: per-decision latency of every
// registry forecaster driven through the incremental serving protocol
// (one ForecastStream over a sliding window), the way the daemon actually
// runs them. Each stream is first warmed to its forecaster's full window,
// max(history window, preferred_history()), and serves one untimed
// decision, so every row times steady-state decisions: FFT's 2,880-sample
// window slides instead of growing, and its plan and first transform are
// built before the clock starts. The paper reports ~7 ms mean / 25 ms p99 per forecast for the
// Python prototype; everything here is orders of magnitude under that.
//
// Two gates back the learned-forecaster acceptance criteria (DESIGN.md §15):
//   - latency: linear_state's per-decision cost must be within 10x of the
//     closed-form forecasters' median (the learned model rides the mux at
//     serving speed, it does not blow the budget). The LSTM is reported but
//     not gated — being slow is its architectural point (§5.1.1).
//   - parity: each learned forecaster's incremental rollout must match its
//     batch rollout within 1e-7 scale-relative, both instances restored
//     from the same opaque trained blob.
//
// Usage: bench_forecaster_latency [--smoke] [--json=PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/core/features.h"
#include "src/forecast/registry.h"
#include "src/stats/rng.h"
#include "src/stats/simd.h"

namespace femux {
namespace {

volatile double g_sink = 0.0;

std::vector<double> MakeHistory(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> h(n);
  for (std::size_t i = 0; i < n; ++i) {
    h[i] = std::max(0.0, 10.0 * (1.0 + std::sin(2.0 * std::numbers::pi *
                                                static_cast<double>(i) / 120.0)) +
                             rng.Normal(0.0, 2.0));
  }
  return h;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct ForecasterResult {
  std::string name;
  bool learned = false;
  std::size_t decisions = 0;
  std::size_t warm_samples = 0;  // Appended before the timed loop.
  double per_decision_us = 0.0;
  double parity_max_rel = 0.0;  // Learned only: incremental vs batch.
};

// Windowed batch rolling forecast, matching the tests' batch reference.
std::vector<double> BatchRolling(Forecaster& forecaster,
                                 std::span<const double> series,
                                 std::size_t history_len, std::size_t warmup) {
  std::vector<double> out(series.size(), 0.0);
  const std::size_t window = std::max(history_len, forecaster.preferred_history());
  for (std::size_t t = warmup; t < series.size(); ++t) {
    const std::span<const double> history = series.subspan(0, t);
    const std::span<const double> windowed =
        history.size() > window ? history.last(window) : history;
    const auto prediction = forecaster.Forecast(windowed, 1);
    out[t] = prediction.empty() ? 0.0 : prediction.front();
  }
  return out;
}

}  // namespace
}  // namespace femux

int main(int argc, char** argv) {
  using namespace femux;
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }

  constexpr std::size_t kWindow = kDefaultHistoryMinutes;
  constexpr std::size_t kWarmup = 10;
  const std::size_t epochs = smoke ? 400 : 2000;
  const std::vector<double> train_series = MakeHistory(600, 3);
  // The learned-parity rollouts run over this series; each timed loop
  // serves a longer draw of the same generator, which starts with it.
  const std::vector<double> serve_series = MakeHistory(epochs, 7);

  PrintHeader("forecaster_latency",
              "FeMux serves every forecaster — learned ones included — in "
              "single-digit microseconds per decision (paper prototype: ~7 ms "
              "mean)");

  const char* const kNames[] = {
      "ar",          "setar",        "fft",
      "exp_smoothing", "holt",       "markov_chain",
      "moving_average_3", "keep_alive_5min", "lstm",
      "linear_state",
  };

  std::vector<ForecasterResult> results;
  for (const char* name : kNames) {
    const std::unique_ptr<Forecaster> prototype = MakeForecasterByName(name);
    if (!prototype) {
      std::fprintf(stderr, "error: registry does not know '%s'\n", name);
      return 1;
    }
    ForecasterResult r;
    r.name = name;
    r.learned = prototype->HasOpaqueState();

    // Learned forecasters train once, offline, on the training prefix; the
    // timed loop serves with the trained blob loaded, like the daemon after
    // a model push. (For closed-form forecasters the pre-call is a no-op
    // warmup.)
    std::unique_ptr<Forecaster> serving = prototype->Clone();
    serving->Forecast(std::span<const double>(train_series), 1);
    std::string blob;
    if (r.learned) {
      blob = serving->SaveOpaqueState();
      serving = prototype->Clone();
      serving->LoadOpaqueState(blob);
    }

    // Timed serving loop: the incremental protocol over a sliding window,
    // exactly the daemon's per-app hot path, from a stream warmed to its
    // full window.
    r.warm_samples = std::max(kWindow, serving->preferred_history());
    const std::vector<double> timed_series = MakeHistory(r.warm_samples + epochs, 7);
    ForecastStream stream(kWindow);
    stream.Bind(*serving);
    for (std::size_t t = 0; t < r.warm_samples; ++t) {
      stream.Append(timed_series[t]);
    }
    // One untimed decision builds what a warm stream already holds (FFT's
    // plan and its transform of the full window). Each timed epoch then
    // appends a sample and decides, so every timed decision is a
    // steady-state one and none replays a cached prediction.
    g_sink = g_sink + stream.Forecast();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = r.warm_samples; t < timed_series.size(); ++t) {
      stream.Append(timed_series[t]);
      g_sink = g_sink + stream.Forecast();
    }
    const double seconds = Seconds(start);
    r.decisions = epochs;
    r.per_decision_us = 1e6 * seconds / static_cast<double>(r.decisions);

    // Learned parity: incremental vs batch rollouts from the same blob.
    const std::span<const double> series(serve_series);
    if (r.learned) {
      std::unique_ptr<Forecaster> inc_instance = prototype->Clone();
      std::unique_ptr<Forecaster> batch_instance = prototype->Clone();
      inc_instance->LoadOpaqueState(blob);
      batch_instance->LoadOpaqueState(blob);
      const auto incremental =
          RollingForecast(*inc_instance, series, kWindow, kWarmup);
      const auto batch = BatchRolling(*batch_instance, series, kWindow, kWarmup);
      for (std::size_t t = 0; t < batch.size(); ++t) {
        const double scale =
            std::max({1.0, std::fabs(batch[t]), std::fabs(incremental[t])});
        r.parity_max_rel = std::max(
            r.parity_max_rel, std::fabs(batch[t] - incremental[t]) / scale);
      }
    }
    results.push_back(r);
  }

  // Closed-form median per-decision latency (the mux's cost baseline).
  std::vector<double> closed_form;
  for (const ForecasterResult& r : results) {
    if (!r.learned) {
      closed_form.push_back(r.per_decision_us);
    }
  }
  std::sort(closed_form.begin(), closed_form.end());
  const double median_us =
      closed_form.empty()
          ? 0.0
          : (closed_form.size() % 2 == 1
                 ? closed_form[closed_form.size() / 2]
                 : 0.5 * (closed_form[closed_form.size() / 2 - 1] +
                          closed_form[closed_form.size() / 2]));

  for (const ForecasterResult& r : results) {
    std::printf("%-18s %10.3f us/decision  (%zu decisions, %zu warm)%s\n",
                r.name.c_str(), r.per_decision_us, r.decisions, r.warm_samples,
                r.learned ? "  [learned]" : "");
  }
  std::printf("closed-form median: %.3f us/decision\n", median_us);

  // Gate 1: linear_state within 10x of the closed-form median.
  const double latency_limit_us = 10.0 * median_us;
  double linear_state_us = 0.0;
  for (const ForecasterResult& r : results) {
    if (r.name == "linear_state") {
      linear_state_us = r.per_decision_us;
    }
  }
  const bool latency_ok = linear_state_us <= latency_limit_us;
  std::printf("latency gate: linear_state %.3f us <= 10x median (%.3f us) %s\n",
              linear_state_us, latency_limit_us,
              latency_ok ? "(PASS)" : "(FAIL)");

  // Gate 2: learned incremental-vs-batch parity within 1e-7.
  constexpr double kParityBound = 1e-7;
  bool parity_ok = true;
  for (const ForecasterResult& r : results) {
    if (!r.learned) {
      continue;
    }
    const bool ok = r.parity_max_rel <= kParityBound;
    parity_ok = parity_ok && ok;
    std::printf("parity gate: %s max_rel %.3e <= 1e-7 %s\n", r.name.c_str(),
                r.parity_max_rel, ok ? "(PASS)" : "(FAIL)");
  }

  // Context row: feature extraction per block (classification-side cost).
  const FeatureExtractor extractor;
  const std::vector<double> block = MakeHistory(kDefaultBlockMinutes, 9);
  const int feature_reps = smoke ? 5 : 50;
  const auto feature_start = std::chrono::steady_clock::now();
  for (int i = 0; i < feature_reps; ++i) {
    g_sink = g_sink + extractor.Extract(block, 100.0).size();
  }
  const double feature_us =
      1e6 * Seconds(feature_start) / static_cast<double>(feature_reps);
  std::printf("feature extraction: %.1f us/block\n", feature_us);

  bool json_ok = true;
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"forecaster_latency\",\n"
        << "  \"simd\": " << SimdInfoJson() << ",\n"
        << "  \"config\": {\"smoke\": " << (smoke ? "true" : "false")
        << ", \"epochs\": " << epochs << ", \"history_window\": " << kWindow
        << "},\n"
        << "  \"forecasters\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ForecasterResult& r = results[i];
      out << "    \"" << r.name << "\": {\"per_decision_us\": "
          << r.per_decision_us << ", \"decisions\": " << r.decisions
          << ", \"warm_samples\": " << r.warm_samples
          << ", \"learned\": " << (r.learned ? "true" : "false");
      if (r.learned) {
        out << ", \"parity_max_rel\": " << r.parity_max_rel;
      }
      out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  },\n"
        << "  \"closed_form_median_us\": " << median_us << ",\n"
        << "  \"feature_extract_us\": " << feature_us << ",\n"
        << "  \"gates\": {\n"
        << "    \"latency\": {\"forecaster\": \"linear_state\", "
        << "\"measured_us\": " << linear_state_us
        << ", \"limit_us\": " << latency_limit_us
        << ", \"ok\": " << (latency_ok ? "true" : "false") << "},\n"
        << "    \"parity\": {\"bound\": 1e-7, \"ok\": "
        << (parity_ok ? "true" : "false") << "}\n"
        << "  }\n"
        << "}\n";
    out.flush();
    json_ok = out.good();
    if (json_ok) {
      std::printf("wrote %s\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    }
  }

  return latency_ok && parity_ok && json_ok ? 0 : 1;
}
