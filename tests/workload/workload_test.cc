// Corpus generation, runner mechanics, and ground-truth bookkeeping tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/workload/corpus.h"
#include "src/workload/stats.h"
#include "src/workload/runner.h"
#include "src/workload/scaling.h"

namespace tsvd::workload {
namespace {

TEST(CorpusTest, DeterministicForSameSeed) {
  CorpusOptions options;
  options.num_modules = 20;
  options.seed = 5;
  const auto a = GenerateCorpus(options);
  const auto b = GenerateCorpus(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    ASSERT_EQ(a[i].tests.size(), b[i].tests.size());
    for (size_t t = 0; t < a[i].tests.size(); ++t) {
      EXPECT_EQ(a[i].tests[t].name, b[i].tests[t].name);
    }
  }
}

TEST(CorpusTest, BuggyFractionApproximatelyRespected) {
  CorpusOptions options;
  options.num_modules = 300;
  options.buggy_module_fraction = 0.3;
  options.seed = 11;
  const auto corpus = GenerateCorpus(options);
  int buggy = 0;
  for (const ModuleSpec& spec : corpus) {
    for (const TestCase& test : spec.tests) {
      if (test.buggy) {
        ++buggy;
        break;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(buggy) / 300.0, 0.3, 0.08);
}

TEST(CorpusTest, AtMostOneBuggyTestPerModule) {
  CorpusOptions options;
  options.num_modules = 100;
  options.seed = 3;
  for (const ModuleSpec& spec : GenerateCorpus(options)) {
    int buggy = 0;
    for (const TestCase& test : spec.tests) {
      buggy += test.buggy ? 1 : 0;
    }
    EXPECT_LE(buggy, 1);
    EXPECT_GE(spec.tests.size(), static_cast<size_t>(options.safe_tests_min));
  }
}

TEST(CorpusTest, WeightedDrawsCoverAllBuggyPatterns) {
  Rng rng(1234);
  std::set<PatternId> seen;
  for (int i = 0; i < 5000; ++i) {
    seen.insert(DrawBuggyPattern(rng));
  }
  // Every buggy pattern has nonzero weight and must eventually appear.
  int buggy_patterns = 0;
  for (const PatternInfo& info : AllPatterns()) {
    if (info.buggy) {
      ++buggy_patterns;
      EXPECT_TRUE(seen.contains(info.id)) << info.name;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), buggy_patterns);
}

TEST(RunnerTest, FactoryForKnownAndUnknownNames) {
  for (const std::string& name : AllTechniques()) {
    EXPECT_NE(FactoryFor(name)(Config{}), nullptr);
  }
  EXPECT_THROW(FactoryFor("NoSuchDetector"), std::invalid_argument);
}

TEST(RunnerTest, BaselineIsPositiveAndRunsProduceSummaries) {
  ModuleSpec spec;
  spec.name = "runner-test";
  spec.seed = 17;
  spec.params = ScaledParams();
  spec.tests.push_back(MakeTest(PatternId::kReadOnlyParallel));
  ModuleRunner runner(ScaledConfig());
  EXPECT_GT(runner.MeasureBaseline(spec), 0);
  const ModuleResult result = runner.RunModule(spec, FactoryFor("TSVD"), 2);
  ASSERT_EQ(result.runs.size(), 2u);
  EXPECT_GT(result.runs[0].summary.oncall_count, 0u);
  EXPECT_GT(result.runs[0].wall_us, 0);
}

TEST(RunnerTest, TrapFileCarriesAcrossRuns) {
  // The single-occurrence pattern can only be near-missed in run 1; the trap file
  // makes it catchable in run 2 (Section 3.4.6). Use several seeds for robustness.
  int found_in_run2 = 0;
  int found_in_run1 = 0;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    ModuleSpec spec;
    spec.name = "single-occurrence";
    spec.seed = 100 + seed;
    spec.params = ScaledParams();
    spec.tests.push_back(MakeTest(PatternId::kSingleOccurrence));
    Config cfg = ScaledConfig();
    cfg.seed = seed + 1;
    ModuleRunner runner(cfg);
    const ModuleResult result = runner.RunModule(spec, FactoryFor("TSVD"), 2, seed);
    found_in_run1 += result.runs[0].pairs.empty() ? 0 : 1;
    found_in_run2 += result.runs[1].pairs.empty() ? 0 : 1;
  }
  EXPECT_LE(found_in_run1, 1);  // run 1 can essentially never trap it
  EXPECT_GE(found_in_run2, 5);  // run 2 almost always does
}

// A detector whose trap export after each test follows a fixed script, so the
// checkpoint hook's trigger can be checked without timing.
class ScriptedExportDetector : public Detector {
 public:
  explicit ScriptedExportDetector(std::vector<TrapFile> exports)
      : exports_(std::move(exports)) {}
  std::string name() const override { return "ScriptedExport"; }
  DelayDecision OnCall(const Access&) override { return {}; }
  TrapFile ExportTrapFile() const override {
    const size_t i = std::min(calls_++, exports_.size() - 1);
    return exports_[i];
  }

 private:
  std::vector<TrapFile> exports_;
  mutable size_t calls_ = 0;
};

TEST(RunnerTest, CheckpointHookFiresOncePerDistinctExport) {
  const TrapFile empty;
  TrapFile ab;
  ab.pairs = {{"a", "b"}};
  TrapFile ab_cd_unsorted;  // the same pairs as ab_cd, as a trap set may export them
  ab_cd_unsorted.pairs = {{"d", "c"}, {"b", "a"}};
  TrapFile ab_cd;
  ab_cd.pairs = {{"a", "b"}, {"c", "d"}};
  // One export per test, then the final export RunOnce returns.
  const std::vector<TrapFile> script = {empty, ab, ab, ab_cd_unsorted, ab_cd, ab_cd};

  ModuleSpec spec;
  spec.name = "checkpoint-test";
  spec.params = ScaledParams();
  for (int i = 0; i < 5; ++i) {
    spec.tests.push_back(TestCase{"t" + std::to_string(i), false, {}, [](TestContext&) {}});
  }
  ModuleRunner runner(ScaledConfig());
  std::vector<std::pair<int, TrapFile>> calls;
  runner.set_checkpoint_hook(
      [&calls](int index, const TrapFile& traps) { calls.emplace_back(index, traps); });
  const SingleRun run = runner.RunOnce(
      spec,
      [&script](const Config&) { return std::make_unique<ScriptedExportDetector>(script); },
      TrapFile{}, /*salt=*/0);

  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0].first, 1);
  EXPECT_EQ(calls[0].second.pairs, ab.pairs);
  EXPECT_EQ(calls[1].first, 3);
  EXPECT_EQ(calls[1].second.pairs, ab_cd.pairs);
  EXPECT_EQ(calls.back().second.pairs, run.traps.pairs);
}

TEST(RunnerTest, ExperimentAggregationMatchesModuleResults) {
  CorpusOptions options;
  options.num_modules = 6;
  options.buggy_module_fraction = 1.0;
  options.seed = 9;
  options.params = ScaledParams();
  const auto corpus = GenerateCorpus(options);
  const ExperimentResult result =
      RunCorpusExperiment(corpus, "TSVD", ScaledConfig(), 2, 9);
  ASSERT_EQ(result.modules.size(), corpus.size());
  uint64_t manual_total = 0;
  for (const ModuleResult& m : result.modules) {
    manual_total += m.AllPairs().size();
  }
  EXPECT_EQ(result.BugsTotal(), manual_total);
  EXPECT_EQ(result.BugsFoundByRun(0) + result.BugsFoundByRun(1), manual_total);
  const auto cumulative = result.CumulativeBugs();
  ASSERT_EQ(cumulative.size(), 2u);
  EXPECT_EQ(cumulative[1], manual_total);
  EXPECT_EQ(result.FalsePositives(), 0u);
}

}  // namespace
}  // namespace tsvd::workload
