#include "src/sim/fleet.h"

#include <algorithm>
#include <cmath>

#include "src/sim/fleet_stream.h"
#include "src/trace/stream.h"

namespace femux {

std::vector<double> DemandSeries(const AppTrace& app, double epoch_seconds) {
  SeriesWorkspace workspace;
  std::vector<double> demand;
  DemandSeriesInto(app, epoch_seconds, &workspace, &demand);
  return demand;
}

std::vector<double> ArrivalSeries(const AppTrace& app, double epoch_seconds) {
  std::vector<double> arrivals;
  ArrivalSeriesInto(app, epoch_seconds, &arrivals);
  return arrivals;
}

void DemandSeriesInto(const AppTrace& app, double epoch_seconds,
                      SeriesWorkspace* workspace, std::vector<double>* out) {
  AverageConcurrencyInto(app, &workspace->concurrency);
  const std::vector<double>& conc = workspace->concurrency;
  const double limit = std::max(1, app.config.container_concurrency);
  // Sampling resolution of the trace itself (60 s for the Azure/IBM minute
  // grids, 1 s for the Huawei-like preset). The comparisons below are exact
  // for the minute grid, so the generalization is bit-identical there.
  const double sample_s =
      app.seconds_per_sample > 0 ? static_cast<double>(app.seconds_per_sample) : 60.0;
  out->clear();
  if (epoch_seconds == sample_s) {
    out->resize(conc.size());
    for (std::size_t m = 0; m < conc.size(); ++m) {
      (*out)[m] = conc[m] / limit;
    }
    return;
  }
  if (epoch_seconds < sample_s) {
    // Uniform-within-sample assumption: each sub-epoch sees the sample's
    // average concurrency.
    const std::size_t per_sample =
        static_cast<std::size_t>(std::llround(sample_s / epoch_seconds));
    out->reserve(conc.size() * per_sample);
    for (double c : conc) {
      for (std::size_t k = 0; k < per_sample; ++k) {
        out->push_back(c / limit);
      }
    }
    return;
  }
  // Coarser epochs: average the samples they cover.
  const std::size_t samples_per_epoch =
      static_cast<std::size_t>(std::llround(epoch_seconds / sample_s));
  out->reserve(conc.size() / samples_per_epoch + 1);
  for (std::size_t m = 0; m < conc.size(); m += samples_per_epoch) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t k = m; k < std::min(conc.size(), m + samples_per_epoch); ++k) {
      sum += conc[k];
      ++n;
    }
    out->push_back(n > 0 ? sum / static_cast<double>(n) / limit : 0.0);
  }
}

void ArrivalSeriesInto(const AppTrace& app, double epoch_seconds,
                       std::vector<double>* out) {
  const std::vector<double>& counts = app.minute_counts;
  const double sample_s =
      app.seconds_per_sample > 0 ? static_cast<double>(app.seconds_per_sample) : 60.0;
  out->clear();
  if (epoch_seconds == sample_s) {
    out->assign(counts.begin(), counts.end());
    return;
  }
  if (epoch_seconds < sample_s) {
    const std::size_t per_sample =
        static_cast<std::size_t>(std::llround(sample_s / epoch_seconds));
    out->reserve(counts.size() * per_sample);
    for (double c : counts) {
      for (std::size_t k = 0; k < per_sample; ++k) {
        out->push_back(c / static_cast<double>(per_sample));
      }
    }
    return;
  }
  const std::size_t samples_per_epoch =
      static_cast<std::size_t>(std::llround(epoch_seconds / sample_s));
  out->reserve(counts.size() / samples_per_epoch + 1);
  for (std::size_t m = 0; m < counts.size(); m += samples_per_epoch) {
    double sum = 0.0;
    for (std::size_t k = m; k < std::min(counts.size(), m + samples_per_epoch); ++k) {
      sum += counts[k];
    }
    out->push_back(sum);
  }
}

FleetResult SimulateFleet(const Dataset& dataset, const PolicyFactory& factory,
                          SimOptions options, bool respect_app_min_scale,
                          std::size_t threads) {
  FleetResult result;
  result.per_app.resize(dataset.apps.size());
  FleetStreamOptions stream;
  stream.sim = options;
  stream.respect_app_min_scale = respect_app_min_scale;
  stream.threads = threads;
  stream.chunk_apps = 0;  // About four chunks per participant.
  // Resident rows cost nothing to hold, so admission is never throttled.
  stream.max_pending_chunks = std::max<std::size_t>(1, dataset.apps.size());
  stream.per_app_sink = [&result](std::size_t i, const SimMetrics& row) {
    result.per_app[i] = row;
  };
  result.total = SimulateFleetStream(DatasetTraceSource(dataset), factory, stream).total;
  return result;
}

FleetResult SimulateFleetUniform(const Dataset& dataset, const ScalingPolicy& prototype,
                                 const SimOptions& options, bool respect_app_min_scale,
                                 std::size_t threads) {
  return SimulateFleet(
      dataset, [&prototype](int) { return prototype.Clone(); }, options,
      respect_app_min_scale, threads);
}

}  // namespace femux
