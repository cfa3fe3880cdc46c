// Deliberately misbehaving test modules for sandbox and robustness testing.
//
// The paper's fleet survives instrumented runs that crash or hang (Sections 2.1,
// 5.1); these modules provoke exactly that on demand so the campaign's process
// sandbox, watchdog, retry/quarantine, and trap-salvage paths can be exercised
// end-to-end. Each fault module runs one genuinely buggy pattern test *first* — so
// by the time it crashes or hangs, the detector has learned near-miss pairs that a
// checkpointed trap export must not lose.
//
// WARNING: only schedule these under the process sandbox (or in a process you are
// willing to lose). The crash module segfaults the process it runs in; the hang
// module sleeps for `hang_us`.
#ifndef SRC_WORKLOAD_FAULTS_H_
#define SRC_WORKLOAD_FAULTS_H_

#include <string>

#include "src/workload/module.h"

namespace tsvd::workload {

// One buggy dictionary-race test, then a test that dereferences null (SIGSEGV).
ModuleSpec MakeCrashModule(const std::string& name, uint64_t seed,
                           const WorkloadParams& params);

// One buggy dictionary-race test, then a test that sleeps for hang_us (default ten
// minutes — far beyond any reasonable watchdog deadline).
ModuleSpec MakeHangModule(const std::string& name, uint64_t seed,
                          const WorkloadParams& params,
                          Micros hang_us = 600'000'000);

// A test that throws a value that is not a std::exception (the retry ladder must
// record it as crashed instead of terminating the agent).
ModuleSpec MakeNonStdThrowModule(const std::string& name, uint64_t seed,
                                 const WorkloadParams& params);

// The §4.2 hazard on demand: the trapped callsite holds a plain std::mutex —
// invisible to the instrumentation, like the unknown locks the paper warns about —
// that a peer thread needs to make progress. With an uninterruptible sleep the run
// stalls for the whole delay (or until the sandbox watchdog SIGKILLs it); the delay
// engine's progress sentinel must instead cancel the delay in-process, release the
// lock, and let the run finish with its learning intact.
ModuleSpec MakeDeadlockModule(const std::string& name, uint64_t seed,
                              const WorkloadParams& params);

}  // namespace tsvd::workload

#endif  // SRC_WORKLOAD_FAULTS_H_
