// Detector interface: the policy half of the trap framework (Fig. 5).
//
// The Runtime implements the mechanism — check_for_trap / set_trap / delay /
// clear_trap — identically for every variant; a Detector answers the two design
// questions of Section 3.1: WHERE to inject delays (which locations are eligible) and
// WHEN (at which dynamic instances). TSVD, DynamicRandom, StaticRandom/DataCollider and
// TSVDHB are all Detectors.
#ifndef SRC_CORE_DETECTOR_H_
#define SRC_CORE_DETECTOR_H_

#include <cstdint>
#include <string>

#include "src/core/access.h"
#include "src/report/trap_file.h"

namespace tsvd {

struct DelayDecision {
  bool inject = false;
  Micros duration_us = 0;
};

struct DelayOutcome {
  Micros start_us = 0;
  Micros end_us = 0;
  // True iff another thread walked into the trap during the sleep, i.e. the delay
  // exposed a violation.
  bool conflict_found = false;
  // True iff the delay was cut short by the progress sentinel (or the fail-open
  // firewall) rather than running its course. The [start_us, end_us] window is the
  // time actually slept. Aborted delays still count as failed ones for P_loc decay:
  // conflict_found is false, and a delay that stalls the run is exactly the kind of
  // site whose probability should drop.
  bool aborted = false;
};

class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string name() const = 0;

  // If true, the task runtime publishes fork/join/lock events via Runtime::OnSync.
  // Only TSVDHB returns true; TSVD's "local instrumentation only" property is that it
  // never needs these.
  virtual bool WantsSyncEvents() const { return false; }

  // Called first on every dynamic TSVD point, before any of the runtime's per-call
  // bookkeeping: a hint to start fetching the state OnCall will write for `obj`,
  // so that transfer overlaps the bookkeeping. Must not change any state.
  virtual void Prefetch(ObjectId /*obj*/, ThreadId /*tid*/) {}

  // Called on every dynamic TSVD point, before the instrumented operation executes and
  // after the runtime's trap-conflict check. Performs the variant's bookkeeping
  // (near-miss tracking, HB inference, vector clocks, ...) and decides whether to trap.
  virtual DelayDecision OnCall(const Access& access) = 0;

  // Called after a delay injected on behalf of this detector completes.
  virtual void OnDelayFinished(const Access& /*access*/, const DelayOutcome& /*outcome*/) {}

  // Called when a violation is caught between a trapped access and a racing access.
  virtual void OnViolation(const Access& /*trapped*/, const Access& /*racing*/) {}

  // Synchronization events (only delivered if WantsSyncEvents()).
  virtual void OnSync(const SyncEvent& /*event*/) {}

  // Trap-set persistence across runs (Section 3.4.6). Detectors without a trap set
  // return an empty file and ignore imports.
  virtual TrapFile ExportTrapFile() const { return {}; }
  virtual void ImportTrapFile(const TrapFile& /*file*/) {}

  // Current number of dangerous pairs (for run summaries).
  virtual uint64_t TrapSetSize() const { return 0; }
};

}  // namespace tsvd

#endif  // SRC_CORE_DETECTOR_H_
