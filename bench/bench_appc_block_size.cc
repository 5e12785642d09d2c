// Appendix C: block-size sensitivity. Block sizes from 7 to 24 hours change
// FeMux's RUM by under 3%; larger blocks capture longer patterns but adapt
// more slowly. 504 minutes balances the two (and divides the 14-day Azure
// trace into 40 blocks; the BDS test needs >= 400 points).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/sim/fleet.h"

namespace femux {
namespace {

void Run() {
  PrintHeader("Appendix C — block-size sensitivity",
              "7-24 h block sizes move RUM by <3%; 504 min is the balance "
              "point");
  const Dataset dataset = BenchAzureDataset();
  const BenchSplit split = BenchAzureSplit(dataset);
  // Smaller training subset: this bench retrains per block size.
  std::vector<int> train(split.train.begin(),
                         split.train.begin() + std::min<std::size_t>(
                                                   24, split.train.size()));
  const Dataset test = Subset(dataset, split.test);
  const Rum rum = Rum::Default();

  std::vector<double> rums;
  for (std::size_t block_minutes : {420u, 504u, 1008u}) {
    TrainerOptions trainer = BenchTrainerOptions();
    trainer.block_minutes = block_minutes;
    const TrainResult trained = TrainFemux(dataset, train, rum, trainer);
    auto model = std::make_shared<FemuxModel>(trained.model);
    const FemuxPolicy prototype(model);
    const SimMetrics m =
        SimulateFleetUniform(test, prototype, SimOptions{}, false, 0).total;
    rums.push_back(rum.Evaluate(m));
    std::printf("block=%4zu min rum=%12.1f cold_s=%12.1f wasted_gbs=%14.0f\n",
                block_minutes, rum.Evaluate(m), m.cold_start_seconds,
                m.wasted_gb_seconds);
  }
  const double lo = *std::min_element(rums.begin(), rums.end());
  const double hi = *std::max_element(rums.begin(), rums.end());
  PrintRow("max RUM spread across block sizes", 0.03, hi / lo - 1.0,
           "(paper: <3%)");
}

}  // namespace
}  // namespace femux

int main() {
  femux::Run();
  return 0;
}
