// TSVD (Section 3.4): the paper's contribution.
//
// Where to inject delays: at locations belonging to the dynamically maintained trap
// set of dangerous pairs — near misses that ran in a concurrent phase, minus pairs
// pruned by HB inference or already-caught violations.
// When: in the same run the pair was discovered (plus subsequent runs via the trap
// file), with per-location probability P_loc that starts at 1 and decays on every
// unproductive delay.
#ifndef SRC_CORE_TSVD_DETECTOR_H_
#define SRC_CORE_TSVD_DETECTOR_H_

#include <memory>
#include <string>

#include "src/common/config.h"
#include "src/common/padded.h"
#include "src/common/per_thread.h"
#include "src/common/rng.h"
#include "src/core/detector.h"
#include "src/core/hb_inference.h"
#include "src/core/nearmiss_tracker.h"
#include "src/core/trap_set.h"

namespace tsvd {

class TsvdDetector : public Detector {
 public:
  explicit TsvdDetector(const Config& config);

  std::string name() const override { return "TSVD"; }

  void Prefetch(ObjectId obj, ThreadId tid) override { nearmiss_.Prefetch(obj, tid); }
  DelayDecision OnCall(const Access& access) override;
  void OnDelayFinished(const Access& access, const DelayOutcome& outcome) override;
  void OnViolation(const Access& trapped, const Access& racing) override;

  TrapFile ExportTrapFile() const override { return trap_set_.Export(); }
  void ImportTrapFile(const TrapFile& file) override { trap_set_.Import(file); }
  uint64_t TrapSetSize() const override { return trap_set_.PairCount(); }

  // Introspection for tests and ablation benches.
  const TrapSet& trap_set() const { return trap_set_; }
  uint64_t InferredHbEdges() const { return hb_.InferredEdges(); }

 private:
  // Line-aligned: the RNG state advances on every should_delay draw, and dense
  // ThreadIds would otherwise pack 2-3 threads' slots onto one cache line — a
  // false-sharing hotspot on exactly the workloads where the trap set is hot
  // (every thread drawing on every call). See src/common/padded.h.
  struct alignas(kCacheLineSize) RngSlot {
    Rng rng{0};
    bool initialized = false;
  };
  static_assert(sizeof(RngSlot) % kCacheLineSize == 0 &&
                    alignof(RngSlot) == kCacheLineSize,
                "RNG slots must not straddle a neighbor's cache line");
  Rng& RngFor(ThreadId tid);

  Config config_;
  TrapSet trap_set_;
  NearMissTracker nearmiss_;
  HbInference hb_;
  PerThread<RngSlot> rngs_;
};

}  // namespace tsvd

#endif  // SRC_CORE_TSVD_DETECTOR_H_
