// The benchmark's four workloads. Each builds its inputs from the run's
// seed, times its closed loop for the run's seconds (untraced) or alternates
// untraced and traced passes (traced), checks its outputs, and reports
// either the end-to-end metrics or the per-layer ones. README.md says why
// each workload exists and which end-to-end metric each layer should move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace perfbench {

Result RunFemuxFleet(const RunConfig& config);
Result RunStreamFleet(const RunConfig& config);
Result RunFemuxTrain(const RunConfig& config);
Result RunDaemonServe(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
