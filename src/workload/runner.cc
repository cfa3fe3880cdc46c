#include "src/workload/runner.h"

#include <mutex>
#include <stdexcept>

#include "src/common/callsite.h"
#include "src/common/scope_stack.h"
#include "src/core/runtime.h"
#include "src/core/random_detectors.h"
#include "src/core/tsvd_detector.h"
#include "src/hb/tsvd_hb_detector.h"
#include "src/tasks/exec_domain.h"
#include "src/tasks/task_runtime.h"
#include "src/tasks/thread_pool.h"

namespace tsvd::workload {

DetectorFactory FactoryFor(const std::string& name) {
  if (name == "TSVD") {
    return [](const Config& cfg) { return std::make_unique<TsvdDetector>(cfg); };
  }
  if (name == "TSVDHB") {
    return [](const Config& cfg) { return std::make_unique<TsvdHbDetector>(cfg); };
  }
  if (name == "DynamicRandom") {
    return [](const Config& cfg) { return std::make_unique<DynamicRandomDetector>(cfg); };
  }
  if (name == "DataCollider") {
    return [](const Config& cfg) { return std::make_unique<StaticRandomDetector>(cfg); };
  }
  throw std::invalid_argument("unknown detector: " + name);
}

const std::vector<std::string>& AllTechniques() {
  static const std::vector<std::string> names = {"DataCollider", "DynamicRandom",
                                                 "TSVDHB", "TSVD"};
  return names;
}

tasks::ThreadPool& ModuleRunner::pool() const {
  return pool_ != nullptr ? *pool_ : tasks::ThreadPool::Instance();
}

void ModuleRunner::ExecuteTests(const ModuleSpec& spec, TruthRegistry* truth,
                                uint64_t salt,
                                const std::function<void(int, const TestCase&)>& before_test,
                                const std::function<void(int)>& after_test) {
  Rng module_rng(spec.seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  int test_id = 0;
  for (const TestCase& test : spec.tests) {
    const int index = test_id++;
    if (before_test) {
      before_test(index, test);
    }
    // Fixture work (setup, teardown, assertions) unrelated to any race; identical in
    // baseline and instrumented runs.
    SleepMicros(spec.params.fixture_us);
    {
      ScopedFrame module_frame(spec.name);
      ScopedFrame test_frame(test.name);
      TestContext ctx(module_rng.Fork(), spec.params, truth, index, test.tags);
      test.fn(ctx);
    }
    if (after_test) {
      // Quiesce the pool so the checkpoint sees every pair the test produced.
      pool().WaitIdle();
      after_test(index);
    }
  }
  pool().WaitIdle();
}

Micros ModuleRunner::MeasureBaseline(const ModuleSpec& spec, uint64_t run_salt) {
  // Uninstrumented run: no runtime bound, the .NET inline optimization is on.
  tasks::ExecDomain domain{&pool(), /*runtime=*/nullptr, /*force_async=*/false};
  tasks::DomainGuard guard(&domain);
  const Micros start = NowMicros();
  ExecuteTests(spec, /*truth=*/nullptr, run_salt);
  return NowMicros() - start;
}

SingleRun ModuleRunner::RunOnce(const ModuleSpec& spec, const DetectorFactory& factory,
                                const TrapFile& import, uint64_t salt) {
  // The detector keeps the same seed in every run: a rerun of the same test repeats
  // the same sampling decisions (DataCollider keeps probing the same sites,
  // DynamicRandom the same dynamic positions), so consecutive runs are NOT
  // independent coin flips — only scheduling jitter and the workload's own
  // randomness vary, as in the paper's test environment.
  Config cfg = config_;
  Runtime runtime(cfg, factory(cfg));
  if (!import.empty()) {
    runtime.detector().ImportTrapFile(import);
  }

  SingleRun single;
  single.imported_pairs = runtime.detector().TrapSetSize();

  TruthRegistry truth;
  RunResult& run_result = single.run;
  std::mutex records_mu;
  runtime.SetReportObserver([&](const BugReport& report) {
    ReportRecord record;
    record.pair = report.Pair();
    record.read_write = report.trapped.kind != report.racing.kind;
    record.same_location = record.pair.first == record.pair.second;
    record.stack_depth =
        (report.trapped.stack.size() + report.racing.stack.size()) / 2;
    uint64_t h = 1469598103934665603ULL;
    for (const auto& frame : report.trapped.stack) {
      for (char c : frame) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
    }
    for (const auto& frame : report.racing.stack) {
      for (char c : frame) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
      }
    }
    record.stack_pair_hash = h;
    const CallSiteRegistry& registry = CallSiteRegistry::Instance();
    record.api_first = registry.Get(record.pair.first).api;
    record.api_second = registry.Get(record.pair.second).api;
    if (auto info = truth.Lookup(report.object)) {
      record.async_flavor = info->tags.async_flavor;
      record.false_positive = !info->buggy;
    }
    std::lock_guard<std::mutex> lock(records_mu);
    run_result.records.push_back(std::move(record));
  });

  if (trap_arm_hook_) {
    runtime.SetTrapArmObserver([this](OpId op) {
      trap_arm_hook_(CallSiteRegistry::Instance().Get(op).Signature());
    });
  }
  std::function<void(int, const TestCase&)> before_test;
  std::function<void(int)> after_test;
  if (test_begin_hook_) {
    before_test = [this](int index, const TestCase& test) {
      test_begin_hook_(index, test.name);
    };
  }
  // The last export handed to the checkpoint hook, empty before the first. A
  // test that taught the trap set nothing new leaves the export as it was, and
  // saving it again would only repeat the same durable write.
  TrapFile checkpointed;
  if (checkpoint_hook_) {
    after_test = [this, &runtime, &checkpointed](int index) {
      TrapFile traps = runtime.detector().ExportTrapFile();
      traps.Canonicalize();
      if (traps.pairs != checkpointed.pairs) {
        checkpoint_hook_(index, traps);
        checkpointed = std::move(traps);
      }
    };
  }

  const Micros start = NowMicros();
  {
    // Section 4: instrumentation forces asynchrony. The domain scopes the runtime,
    // pool, and force-async to this run, so campaign workers can execute RunOnce
    // concurrently without sharing instrumentation state.
    tasks::ExecDomain domain{&pool(), &runtime, /*force_async=*/true};
    tasks::DomainGuard guard(&domain);
    ExecuteTests(spec, &truth, salt, before_test, after_test);
  }
  run_result.wall_us = NowMicros() - start;

  run_result.summary = runtime.Summary();
  for (const ReportRecord& record : run_result.records) {
    run_result.pairs.insert(record.pair);
    if (record.false_positive) {
      ++run_result.false_positives;
    }
  }
  for (const LocationPair& pair : run_result.pairs) {
    run_result.op_hits[pair.first] = runtime.coverage().Lookup(pair.first).hits;
    run_result.op_hits[pair.second] = runtime.coverage().Lookup(pair.second).hits;
  }

  single.traps = runtime.detector().ExportTrapFile();
  single.traps.Canonicalize();
  return single;
}

ModuleResult ModuleRunner::RunModule(const ModuleSpec& spec, const DetectorFactory& factory,
                                     int num_runs, uint64_t run_salt) {
  ModuleResult result;
  result.module = spec.name;

  TrapFile carried;
  for (int run = 0; run < num_runs; ++run) {
    SingleRun single = RunOnce(spec, factory, carried, run_salt * 1000003ULL + run);
    carried = std::move(single.traps);
    result.runs.push_back(std::move(single.run));
  }
  return result;
}

}  // namespace tsvd::workload
