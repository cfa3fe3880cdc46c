// The four workloads. Each runs for about `budget_s` seconds of measurement,
// adds its end-to-end metrics to `out` under their plain names, and — when
// `tracer` is non-null (the traced run) — also the per-layer metrics it owns.
// Correctness violations go to out->Violation(); they never just lower a number.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace perfbench {

// hotpath_private (shared = false) and hotpath_shared (shared = true).
void RunHotpath(const Args& args, bool shared, double budget_s, Tracer* tracer,
                Results* out);
// campaign: in-process RunCampaign, 4 workers, persistence to a fresh directory.
void RunCampaignWorkload(const Args& args, double budget_s, Tracer* tracer,
                         Results* out);
// fleet: FleetCoordinator on this thread, 4 sandboxed RunAgent threads over tcp.
void RunFleetWorkload(const Args& args, double budget_s, Tracer* tracer, Results* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
