// End-to-end sandbox campaign: a corpus with an always-SIGSEGV module and an
// always-hanging module completes every round, attributes both failures with crash
// signatures in the JSON and SARIF artifacts, quarantines the offenders, and merges
// the trap pairs salvaged from the crashed child's checkpoint. Also covers the
// in-process fallback surviving a non-std throw.
#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/campaign/campaign.h"
#include "src/campaign/json.h"
#include "src/common/clock.h"
#include "src/sandbox/sandbox.h"

namespace tsvd::campaign {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const RunOutcome* FindOutcome(const CampaignResult& result,
                              const std::string& module, int round) {
  for (const RunOutcome& outcome : result.outcomes) {
    if (outcome.module == module && outcome.round == round) {
      return &outcome;
    }
  }
  return nullptr;
}

class SandboxE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!sandbox::ForkSupported()) {
      GTEST_SKIP() << "no fork() on this platform";
    }
    // Unique per test *process*: ctest runs each test as its own concurrently
    // scheduled process, and two tests sharing a directory would race on TearDown's
    // remove_all while the other is writing artifacts.
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    out_dir_ = (std::filesystem::temp_directory_path() /
                ("tsvd-e2e-" + test_name + "-" + std::to_string(NowMicros())))
                   .string();
  }
  void TearDown() override {
    if (!out_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(out_dir_, ec);
    }
  }
  std::string out_dir_;
};

TEST_F(SandboxE2ETest, CrashingAndHangingModulesDoNotSinkTheCampaign) {
  CampaignOptions options;
  options.num_modules = 3;
  options.workers = 3;
  options.rounds = 2;
  options.stop_when_converged = false;  // both rounds must actually execute
  options.max_attempts = 2;
  options.scale = 0.02;
  options.seed = 42;
  options.out_dir = out_dir_;
  options.sandbox.enabled = true;
  options.sandbox.run_timeout_ms = 2000;
  options.sandbox.backoff_base_ms = 10;
  options.fault_crash_modules = 1;
  options.fault_hang_modules = 1;

  const CampaignResult result = RunCampaign(options);

  // The campaign survived: both rounds ran to completion.
  ASSERT_EQ(result.rounds.size(), 2u);

  // --- the segfaulting module: crash signature + salvaged checkpoint ---
  const RunOutcome* crash = FindOutcome(result, "fault_crash_0", 1);
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(crash->status, RunStatus::kCrashed);
  EXPECT_EQ(crash->attempts, 2);
  EXPECT_TRUE(crash->quarantined);
  EXPECT_EQ(crash->killed_by_signal, SIGSEGV);
  EXPECT_NE(crash->crash_signature.find("SIGSEGV"), std::string::npos)
      << crash->crash_signature;
  // The crash hit in the fault test, after the buggy dict test checkpointed — the
  // phase marker survived the SIGSEGV and the near-miss pairs were salvaged.
  EXPECT_NE(crash->crash_signature.find("fault_sigsegv"), std::string::npos)
      << crash->crash_signature;
  EXPECT_GT(crash->salvaged_trap_pairs, 0u);
  EXPECT_FALSE(crash->traps.empty());
  ASSERT_EQ(crash->attempt_errors.size(), 2u);
  EXPECT_NE(crash->attempt_errors[0].find("attempt 1"), std::string::npos);

  // --- the hanging module: watchdog timeout + delay degradation ---
  const RunOutcome* hang = FindOutcome(result, "fault_hang_0", 1);
  ASSERT_NE(hang, nullptr);
  EXPECT_EQ(hang->status, RunStatus::kTimedOut);
  EXPECT_TRUE(hang->quarantined);
  EXPECT_NE(hang->crash_signature.find("TIMEOUT"), std::string::npos)
      << hang->crash_signature;
  // The retry of a timed-out attempt ran one step down the degradation ladder.
  EXPECT_GE(hang->degrade_level, 1);

  // --- round statistics ---
  const RoundStats& round1 = result.rounds[0];
  EXPECT_GE(round1.crashed, 1);
  EXPECT_GE(round1.timed_out, 1);
  EXPECT_GE(round1.killed_by_signal, 1);
  EXPECT_EQ(round1.quarantined, 2);
  EXPECT_EQ(round1.runs, 5);  // 3 corpus + 2 fault modules

  // Quarantine: round 2 excludes both fault modules instead of re-dying on them.
  const RoundStats& round2 = result.rounds[1];
  EXPECT_EQ(round2.runs, 3);
  EXPECT_EQ(FindOutcome(result, "fault_crash_0", 2), nullptr);
  EXPECT_EQ(FindOutcome(result, "fault_hang_0", 2), nullptr);

  // Salvaged trap pairs made it into the fleet-wide merged store.
  for (const auto& pair : crash->traps.pairs) {
    EXPECT_TRUE(result.merged_traps.Contains(pair.first, pair.second));
  }

  // --- JSON artifact: counters and per-run crash signatures ---
  ASSERT_FALSE(result.json_path.empty());
  Json json;
  ASSERT_TRUE(Json::Parse(Slurp(result.json_path), &json));
  ASSERT_TRUE(json.Has("run_failures"));
  const Json& failures = *json.Find("run_failures");
  ASSERT_GE(failures.size(), 2u);
  bool saw_segv = false;
  bool saw_timeout = false;
  for (size_t i = 0; i < failures.size(); ++i) {
    const Json& f = failures.at(i);
    const std::string sig = f.Find("crash_signature")->as_string();
    if (sig.find("SIGSEGV") != std::string::npos) {
      saw_segv = true;
      EXPECT_GT(f.Find("salvaged_trap_pairs")->as_int(), 0);
    }
    if (sig.find("TIMEOUT") != std::string::npos) {
      saw_timeout = true;
    }
  }
  EXPECT_TRUE(saw_segv);
  EXPECT_TRUE(saw_timeout);
  const Json& jround1 = json.Find("rounds")->at(0);
  EXPECT_GE(jround1.Find("timed_out")->as_int(), 1);
  EXPECT_GE(jround1.Find("killed_by_signal")->as_int(), 1);
  EXPECT_EQ(jround1.Find("quarantined")->as_int(), 2);
  EXPECT_TRUE(json.Find("campaign")->Find("sandbox")->as_bool());

  // --- SARIF artifact: failed invocations with forensics ---
  ASSERT_FALSE(result.sarif_path.empty());
  Json sarif;
  ASSERT_TRUE(Json::Parse(Slurp(result.sarif_path), &sarif));
  const Json& run = sarif.Find("runs")->at(0);
  ASSERT_TRUE(run.Has("invocations"));
  const Json& invocations = *run.Find("invocations");
  ASSERT_GE(invocations.size(), 2u);
  bool sarif_segv = false;
  for (size_t i = 0; i < invocations.size(); ++i) {
    const Json& inv = invocations.at(i);
    EXPECT_FALSE(inv.Find("executionSuccessful")->as_bool());
    const Json& props = *inv.Find("properties");
    if (props.Find("crashSignature")->as_string().find("SIGSEGV") !=
        std::string::npos) {
      sarif_segv = true;
    }
  }
  EXPECT_TRUE(sarif_segv);
}

TEST_F(SandboxE2ETest, DeadlockFaultIsUnstalledBySentinelNotTheWatchdog) {
  // The §4.2 hazard made real: the deadlock module delays while holding a lock its
  // peer needs, and the injected delay (60s) dwarfs the watchdog deadline (15s). If
  // the progress sentinel failed to cancel the park, the child could only die by
  // SIGKILL and the run would show up timed out. Instead every run must complete
  // normally, with the stall recorded in the delay-engine counters and the trap
  // learning from the run preserved.
  CampaignOptions options;
  options.num_modules = 1;
  options.workers = 2;
  options.rounds = 1;
  options.scale = 0.05;
  options.seed = 42;
  options.out_dir = out_dir_;
  options.sandbox.enabled = true;
  options.sandbox.run_timeout_ms = 15000;
  options.sandbox.backoff_base_ms = 10;
  options.fault_deadlock_modules = 1;
  options.delay_us_override = 60'000'000;  // 60s >> the 15s watchdog
  options.stall_grace_us = 150'000;

  const CampaignResult result = RunCampaign(options);
  ASSERT_EQ(result.rounds.size(), 1u);

  // Zero runs needed the watchdog: the sentinel released every stalled park
  // in-process, well before any deadline.
  const RoundStats& round = result.rounds[0];
  EXPECT_EQ(round.runs, 2);  // 1 corpus + 1 deadlock module
  EXPECT_EQ(round.timed_out, 0);
  EXPECT_EQ(round.crashed, 0);
  EXPECT_EQ(round.killed_by_signal, 0);
  EXPECT_GT(round.delays_aborted_stall, 0u);

  const RunOutcome* deadlock = FindOutcome(result, "fault_deadlock_0", 1);
  ASSERT_NE(deadlock, nullptr);
  EXPECT_EQ(deadlock->status, RunStatus::kOk);
  EXPECT_EQ(deadlock->attempts, 1);
  EXPECT_FALSE(deadlock->quarantined);
  EXPECT_GT(deadlock->delays_aborted_stall, 0u);
  EXPECT_FALSE(deadlock->runtime_disabled);
  // A sentinel-cancelled run still contributes its near-miss learning.
  EXPECT_FALSE(deadlock->traps.empty());

  // The counters crossed the sandbox pipe into the JSON artifact.
  ASSERT_FALSE(result.json_path.empty());
  Json json;
  ASSERT_TRUE(Json::Parse(Slurp(result.json_path), &json));
  const Json* totals = json.Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_GT(totals->Find("delays_aborted_stall")->as_int(), 0);
  const Json& jround = json.Find("rounds")->at(0);
  EXPECT_EQ(jround.Find("timed_out")->as_int(), 0);
  EXPECT_GT(jround.Find("delays_aborted_stall")->as_int(), 0);
}

TEST_F(SandboxE2ETest, InProcessFallbackSurvivesNonStdThrow) {
  // No sandbox: the retry ladder's catch(...) must absorb a non-std throw, record the
  // attempts, and let the rest of the round finish untouched.
  CampaignOptions options;
  options.num_modules = 2;
  options.workers = 2;
  options.rounds = 1;
  options.max_attempts = 2;
  options.scale = 0.02;
  options.seed = 7;
  options.fault_throw_modules = 1;

  const CampaignResult result = RunCampaign(options);
  ASSERT_EQ(result.rounds.size(), 1u);
  const RunOutcome* thrown = FindOutcome(result, "fault_throw_0", 1);
  ASSERT_NE(thrown, nullptr);
  EXPECT_EQ(thrown->status, RunStatus::kCrashed);
  EXPECT_EQ(thrown->attempts, 2);
  EXPECT_TRUE(thrown->quarantined);
  EXPECT_NE(thrown->error.find("non-standard exception"), std::string::npos);
  // The healthy corpus modules still produced outcomes.
  EXPECT_EQ(result.rounds[0].runs, 3);
  int ok_runs = 0;
  for (const RunOutcome& outcome : result.outcomes) {
    if (outcome.status == RunStatus::kOk) {
      ++ok_runs;
    }
  }
  EXPECT_EQ(ok_runs, 2);
}

}  // namespace
}  // namespace tsvd::campaign
