// Fig. 11-Left (claim C3): FeMux vs FaasCache. FaasCache's fixed cache size
// is either too small (cold starts) or too large (wasted memory); every
// FeMux variant is more Pareto-optimal. Paper: FeMux-CS cuts cold starts
// >64% vs FaasCache@300GB at +3% memory; FeMux-Mem cuts cold starts >54%
// vs FaasCache@240GB at -1% memory; default FeMux cuts RUM 30% vs
// FaasCache@270GB.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/baselines/baselines.h"
#include "src/baselines/faascache.h"
#include "src/sim/fleet.h"

namespace femux {
namespace {

struct FemuxRun {
  const char* label;
  SimMetrics metrics;
};

SimMetrics RunFemux(const Dataset& test, const TrainedFemux& trained) {
  const FemuxPolicy prototype(trained.model);
  return SimulateFleetUniform(test, prototype, SimOptions{}).total;
}

void Run() {
  PrintHeader("Fig. 11-Left (C3) — FeMux vs FaasCache",
              "FeMux Pareto-dominates fixed cache sizes; -64% cold starts "
              "(CS variant), -30% RUM at matched waste");
  const Dataset dataset = BenchAzureDataset();
  const BenchSplit split = BenchAzureSplit(dataset);
  const Dataset test = Subset(dataset, split.test);

  // FaasCache cache-size sweep. The paper's 240/270/300 GB budgets are for
  // its 2,523-app population; we anchor the sweep to this population's
  // working set instead — the average warm footprint of a 10-minute
  // keep-alive — and sweep the same ~(-11 %, 0, +11 %) band around it.
  const SimMetrics ka10 =
      SimulateFleetUniform(test, *MakeKeepAlivePolicy(10), SimOptions{}).total;
  const double trace_seconds = dataset.duration_days * 24.0 * 3600.0;
  const double working_set_gb = ka10.allocated_gb_seconds / trace_seconds;
  std::vector<std::pair<double, FaasCacheResult>> sweep;
  std::printf("working set (10-min KA average): %.1f GB\n", working_set_gb);
  std::printf("%-24s %12s %12s %16s\n", "policy", "cold_starts", "cold_%",
              "wasted_gbs");
  for (double fraction : {240.0 / 270.0, 1.0, 300.0 / 270.0}) {
    FaasCacheOptions options;
    options.cache_size_gb = working_set_gb * fraction;
    FaasCacheResult result = SimulateFaasCache(test, options);
    std::printf("faascache@%-13.1fGB %12.0f %12.3f %16.0f\n",
                options.cache_size_gb, result.total.cold_starts,
                result.total.ColdStartPercent(), result.total.wasted_gb_seconds);
    sweep.emplace_back(options.cache_size_gb, std::move(result));
  }

  const FemuxRun runs[] = {
      {"femux_default", RunFemux(test, GetOrTrainFemux(Rum::Default()))},
      {"femux_cs", RunFemux(test, GetOrTrainFemux(Rum::ColdStartFocused()))},
      {"femux_mem", RunFemux(test, GetOrTrainFemux(Rum::MemoryFocused()))},
  };
  for (const FemuxRun& run : runs) {
    std::printf("%-24s %12.0f %12.3f %16.0f\n", run.label, run.metrics.cold_starts,
                run.metrics.ColdStartPercent(), run.metrics.wasted_gb_seconds);
  }

  const SimMetrics& fc240 = sweep[0].second.total;
  const SimMetrics& fc270 = sweep[1].second.total;
  const SimMetrics& fc300 = sweep[2].second.total;
  PrintRow("FeMux-CS cold-start cut vs FaasCache@300GB", 0.64,
           1.0 - runs[1].metrics.cold_starts / fc300.cold_starts);
  PrintRow("FeMux-CS extra waste vs FaasCache@300GB", 0.03,
           runs[1].metrics.wasted_gb_seconds / fc300.wasted_gb_seconds - 1.0);
  PrintRow("FeMux-Mem cold-start cut vs FaasCache@240GB", 0.54,
           1.0 - runs[2].metrics.cold_starts / fc240.cold_starts);
  PrintRow("FeMux-Mem waste change vs FaasCache@240GB", -0.01,
           runs[2].metrics.wasted_gb_seconds / fc240.wasted_gb_seconds - 1.0);
  const Rum rum = Rum::Default();
  PrintRow("FeMux RUM cut vs FaasCache@270GB", 0.30,
           1.0 - rum.Evaluate(runs[0].metrics) / rum.Evaluate(fc270));
}

}  // namespace
}  // namespace femux

int main() {
  femux::Run();
  return 0;
}
