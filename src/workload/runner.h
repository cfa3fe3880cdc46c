// Module runner: executes a module's unit tests uninstrumented (baseline) and under a
// detector for N consecutive runs with trap-file carry-over, validating every report
// against ground truth. This is the per-module test pipeline of the paper's
// integrated build-and-test environment, in miniature.
#ifndef SRC_WORKLOAD_RUNNER_H_
#define SRC_WORKLOAD_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/config.h"
#include "src/core/detector.h"
#include "src/report/run_summary.h"
#include "src/report/trap_file.h"
#include "src/workload/module.h"

namespace tsvd::tasks {
class ThreadPool;
}  // namespace tsvd::tasks

namespace tsvd::workload {

using DetectorFactory = std::function<std::unique_ptr<Detector>(const Config&)>;

// Factories for the four techniques of Table 2: "TSVD", "TSVDHB", "DynamicRandom",
// "DataCollider". Throws on unknown names.
DetectorFactory FactoryFor(const std::string& name);
// All four names, in the paper's Table 2 order.
const std::vector<std::string>& AllTechniques();

// One detected violation, classified against ground truth at detection time.
struct ReportRecord {
  LocationPair pair;
  bool read_write = false;     // one endpoint read, one write
  bool same_location = false;  // pair.first == pair.second
  bool async_flavor = false;   // pattern tagged async
  bool false_positive = false; // report hit a safe pattern's object (must not happen)
  size_t stack_depth = 0;      // mean of the two logical stacks
  uint64_t stack_pair_hash = 0;
  std::string api_first;
  std::string api_second;
};

struct RunResult {
  RunSummary summary;
  Micros wall_us = 0;
  std::unordered_set<LocationPair, LocationPairHash> pairs;  // unique bugs this run
  std::vector<ReportRecord> records;
  int false_positives = 0;
  // Dynamic hit counts of every location involved in a found pair (for the Table 1
  // "occurrences of a bug location" row).
  std::unordered_map<OpId, uint64_t> op_hits;
};

struct ModuleResult {
  std::string module;
  Micros baseline_us = 0;
  std::vector<RunResult> runs;

  // Unique bugs over all runs.
  std::unordered_set<LocationPair, LocationPairHash> AllPairs() const {
    std::unordered_set<LocationPair, LocationPairHash> all;
    for (const RunResult& r : runs) {
      all.insert(r.pairs.begin(), r.pairs.end());
    }
    return all;
  }
};

// Structured outcome of a single instrumented run: the campaign orchestrator's unit
// of scheduling. `traps` is the surviving dangerous-pair export, ready for merging
// into a fleet-wide trap store.
struct SingleRun {
  RunResult run;
  TrapFile traps;
  // Dangerous pairs armed from the imported trap file before the run started — the
  // pairs this run can trap on their first dynamic occurrence (Section 3.4.6).
  uint64_t imported_pairs = 0;
};

class ModuleRunner {
 public:
  // `pool` routes the module's tasks; null means the process-global pool. A campaign
  // worker passes its private pool so its run is fully isolated (see
  // tasks::ExecDomain) and can execute concurrently with other workers' runs.
  explicit ModuleRunner(const Config& config, tasks::ThreadPool* pool = nullptr)
      : config_(config), pool_(pool) {}

  // Wall time of one uninstrumented execution of the module's tests.
  Micros MeasureBaseline(const ModuleSpec& spec, uint64_t run_salt = 0);

  // Runs the module `num_runs` times under the detector, carrying the trap file from
  // run to run. `run_salt` perturbs workload randomness so repeated sessions explore
  // different timings (the paper reruns tests under naturally varying schedules).
  ModuleResult RunModule(const ModuleSpec& spec, const DetectorFactory& factory,
                         int num_runs, uint64_t run_salt = 0);

  // One instrumented run with a fresh Runtime, seeding the detector's trap set from
  // `import` and returning the structured outcome. RunModule is a loop over this.
  SingleRun RunOnce(const ModuleSpec& spec, const DetectorFactory& factory,
                    const TrapFile& import, uint64_t salt);

  // --- sandbox forensics hooks (all optional, instrumented runs only) ---
  //
  // Called with (test_index, test_name) just before each test of RunOnce starts.
  // The sandbox streams it as a phase marker so a crash mid-test is attributable.
  void set_test_begin_hook(std::function<void(int, const std::string&)> hook) {
    test_begin_hook_ = std::move(hook);
  }
  // Called after a test of RunOnce completes with the test index and the
  // detector's current canonical trap export, whenever that export differs from
  // the one last handed over (or, before the first, from an empty one). The sandbox
  // checkpoints it atomically so a later crash salvages every near-miss pair
  // learned so far.
  void set_checkpoint_hook(std::function<void(int, const TrapFile&)> hook) {
    checkpoint_hook_ = std::move(hook);
  }
  // Called with the site signature whenever the run arms a trap (delay injection).
  // Invoked from workload threads mid-run — must be cheap and thread-safe.
  void set_trap_arm_hook(std::function<void(const std::string&)> hook) {
    trap_arm_hook_ = std::move(hook);
  }

 private:
  void ExecuteTests(const ModuleSpec& spec, TruthRegistry* truth, uint64_t salt,
                    const std::function<void(int, const TestCase&)>& before_test = {},
                    const std::function<void(int)>& after_test = {});
  tasks::ThreadPool& pool() const;

  Config config_;
  tasks::ThreadPool* pool_;
  std::function<void(int, const std::string&)> test_begin_hook_;
  std::function<void(int, const TrapFile&)> checkpoint_hook_;
  std::function<void(const std::string&)> trap_arm_hook_;
};

}  // namespace tsvd::workload

#endif  // SRC_WORKLOAD_RUNNER_H_
