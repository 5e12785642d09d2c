// Fig. 17 (Appendix C): FeMux vs the individual forecasters in its set.
// Conservative members (fixed keep-alive, AR) minimize cold starts at high
// waste; aggressive ones (exponential smoothing, Markov chain) minimize
// waste at more cold starts; FeMux's multiplexed combination is more
// Pareto-optimal than any single member. The paper also reports switching:
// >65% of apps switch forecasters at least once, ~20% use 4 or more.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/sim/fleet.h"

namespace femux {
namespace {

void Run() {
  PrintHeader("Fig. 17 — FeMux vs individual forecasters",
              "multiplexing Pareto-dominates every single forecaster; >65% "
              "of apps switch, ~20% use 4+ forecasters");
  const Dataset dataset = BenchAzureDataset();
  const BenchSplit split = BenchAzureSplit(dataset);
  const Dataset test = Subset(dataset, split.test);
  const Rum rum = Rum::Default();
  const TrainedFemux trained = GetOrTrainFemux(Rum::Default());

  std::printf("%-18s %14s %16s %12s\n", "policy", "cold_s", "wasted_gbs", "rum");
  double best_single_rum = 1e300;
  for (const std::string& name : trained.model->forecaster_names) {
    ForecasterPolicy policy(BenchForecaster(name));
    const SimMetrics m = SimulateFleetUniform(test, policy, SimOptions{}).total;
    best_single_rum = std::min(best_single_rum, rum.Evaluate(m));
    std::printf("%-18s %14.1f %16.0f %12.1f\n", name.c_str(), m.cold_start_seconds,
                m.wasted_gb_seconds, rum.Evaluate(m));
  }

  // FeMux, keeping per-app policies alive to read the switching stats.
  SimMetrics femux;
  int switched = 0;
  int four_or_more = 0;
  for (const AppTrace& app : test.apps) {
    SimOptions sim;
    sim.memory_gb_per_unit = app.consumed_memory_mb / 1024.0;
    const std::vector<double> demand = DemandSeries(app, 60.0);
    const std::vector<double> arrivals = ArrivalSeries(app, 60.0);
    FemuxPolicy policy(trained.model, app.mean_execution_ms);
    femux += SimulateApp(demand, arrivals, policy, sim);
    switched += policy.switch_count() > 0;
    four_or_more += policy.distinct_forecasters_used() >= 4;
  }
  std::printf("%-18s %14.1f %16.0f %12.1f\n", "femux", femux.cold_start_seconds,
              femux.wasted_gb_seconds, rum.Evaluate(femux));

  const double apps = static_cast<double>(test.apps.size());
  PrintRow("FeMux RUM <= best single forecaster (1=yes)", 1.0,
           rum.Evaluate(femux) <= best_single_rum * 1.001 ? 1.0 : 0.0);
  PrintRow("FeMux RUM / best single forecaster", 0.90,
           rum.Evaluate(femux) / best_single_rum);
  PrintRow("apps that switched forecasters", 0.65, switched / apps);
  PrintRow("apps using 4+ forecasters", 0.20, four_or_more / apps);
}

}  // namespace
}  // namespace femux

int main() {
  femux::Run();
  return 0;
}
