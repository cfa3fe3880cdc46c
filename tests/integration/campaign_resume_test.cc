// Crash-consistency end-to-end: a campaign that is drained by a signal, killed
// with SIGKILL, or already complete must resume to the SAME unique-bug set as an
// uninterrupted campaign, without ever re-executing (or double-counting) a
// journaled run. This is the fault-injection proof for DESIGN.md §11.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "src/campaign/campaign.h"
#include "src/campaign/journal.h"
#include "src/report/trap_file.h"

namespace tsvd::campaign {
namespace {

namespace fs = std::filesystem;

struct ScopedTempDir {
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    const auto stamp =
        std::chrono::steady_clock::now().time_since_epoch().count();
    path = (fs::temp_directory_path() /
            ("tsvd_resume_test_" + std::to_string(stamp) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::create_directories(path);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// Small but bug-bearing campaign; journal_snapshot_every is tightened so resume
// exercises the snapshot-restore path, not just full-ledger replay.
CampaignOptions FastOptions(const std::string& out_dir) {
  CampaignOptions options;
  options.num_modules = 10;
  options.workers = 4;
  options.rounds = 3;
  options.scale = 0.01;
  options.seed = 42;
  options.pool_threads_per_worker = 4;
  options.out_dir = out_dir;
  options.journal_snapshot_every = 4;
  return options;
}

std::set<std::pair<std::string, std::string>> SignatureSet(
    const CampaignResult& result) {
  std::set<std::pair<std::string, std::string>> signatures;
  for (const auto& bug : result.bugs) {
    signatures.emplace(bug.sig_first, bug.sig_second);
  }
  return signatures;
}

// The never-double-counts invariant, checked at the ledger itself: every
// journaled (round, module) pair appears exactly once.
void ExpectNoDuplicateRunRecords(const std::string& out_dir) {
  JournalReplay replay;
  ASSERT_TRUE(CampaignJournal::Load(CampaignJournal::PathIn(out_dir), &replay));
  std::set<std::pair<int, int>> keys;
  for (const RunOutcome& outcome : replay.outcomes) {
    EXPECT_TRUE(keys.emplace(outcome.round, outcome.module_index).second)
        << "run journaled twice: round " << outcome.round << " module "
        << outcome.module_index;
  }
}

TEST(CampaignResumeTest, DrainedCampaignResumesToUninterruptedBugSet) {
  ScopedTempDir baseline_dir;
  ScopedTempDir drained_dir;
  const CampaignResult baseline = RunCampaign(FastOptions(baseline_dir.path));
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;
  ASSERT_FALSE(baseline.bugs.empty());

  // The second interrupt poll returns true: the drain lands mid-round-1 (in the
  // coordinator's round wait) or at the round-2 boundary, depending on timing —
  // both are paths resume must handle.
  CampaignOptions interrupted_options = FastOptions(drained_dir.path);
  std::atomic<int> polls{0};
  interrupted_options.interrupt = [&polls] { return polls.fetch_add(1) >= 1; };
  const CampaignResult drained = RunCampaign(interrupted_options);
  ASSERT_TRUE(drained.error.empty()) << drained.error;
  EXPECT_TRUE(drained.interrupted);
  EXPECT_FALSE(drained.converged);
  ASSERT_TRUE(fs::exists(CampaignJournal::PathIn(drained_dir.path)));

  CampaignOptions resume_options = FastOptions(drained_dir.path);
  resume_options.resume = true;
  const CampaignResult resumed = RunCampaign(resume_options);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed_runs, drained.RunsExecuted());

  // The determinism contract: resumed == uninterrupted, bug for bug.
  EXPECT_EQ(SignatureSet(resumed), SignatureSet(baseline));
  EXPECT_EQ(resumed.UniqueBugCount(), baseline.UniqueBugCount());
  EXPECT_EQ(resumed.RunsExecuted(), baseline.RunsExecuted());
  EXPECT_EQ(resumed.rounds.size(), baseline.rounds.size());
  EXPECT_EQ(resumed.converged, baseline.converged);
  ExpectNoDuplicateRunRecords(drained_dir.path);

  JournalReplay replay;
  ASSERT_TRUE(
      CampaignJournal::Load(CampaignJournal::PathIn(drained_dir.path), &replay));
  EXPECT_TRUE(replay.complete);
  EXPECT_EQ(replay.converged, baseline.converged);
}

TEST(CampaignResumeTest, ResumeOfCompletedCampaignIsANoOp) {
  ScopedTempDir dir;
  const CampaignResult first = RunCampaign(FastOptions(dir.path));
  ASSERT_TRUE(first.error.empty()) << first.error;

  CampaignOptions resume_options = FastOptions(dir.path);
  resume_options.resume = true;
  const CampaignResult resumed = RunCampaign(resume_options);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;

  // Everything is replayed, nothing re-executed.
  EXPECT_EQ(resumed.resumed_runs, first.RunsExecuted());
  EXPECT_EQ(resumed.RunsExecuted(), first.RunsExecuted());
  EXPECT_EQ(SignatureSet(resumed), SignatureSet(first));
  EXPECT_EQ(resumed.rounds.size(), first.rounds.size());
  EXPECT_EQ(resumed.converged, first.converged);
  EXPECT_FALSE(resumed.json_path.empty());
  ExpectNoDuplicateRunRecords(dir.path);
}

TEST(CampaignResumeTest, InterruptBeforeFirstRunLeavesResumableJournal) {
  ScopedTempDir dir;
  CampaignOptions options = FastOptions(dir.path);
  options.interrupt = [] { return true; };
  const CampaignResult cut = RunCampaign(options);
  ASSERT_TRUE(cut.error.empty()) << cut.error;
  EXPECT_TRUE(cut.interrupted);
  EXPECT_EQ(cut.RunsExecuted(), 0u);

  CampaignOptions resume_options = FastOptions(dir.path);
  resume_options.resume = true;
  const CampaignResult resumed = RunCampaign(resume_options);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_EQ(resumed.resumed_runs, 0u);
  EXPECT_FALSE(resumed.bugs.empty());
}

// The drain contract: a drain that lands while a failed run waits out a long
// retry backoff returns as soon as the in-flight runs finish — it waits out
// neither the backoff nor a lease timeout — and the cut run is reported but not
// journaled, so resume runs it fresh and reaches the uninterrupted bug set.
TEST(CampaignResumeTest, DrainCutsARetryPromptlyAndResumeRerunsIt) {
  const auto with_throw_module = [](const std::string& out_dir, int backoff_ms) {
    CampaignOptions options = FastOptions(out_dir);
    options.fault_throw_modules = 1;  // module 10: every attempt throws
    options.max_attempts = 3;
    options.sandbox.backoff_base_ms = backoff_ms;
    return options;
  };
  const int throw_module = 10;  // appended after FastOptions' 10 modules
  ScopedTempDir baseline_dir;
  ScopedTempDir drained_dir;
  const CampaignResult baseline = RunCampaign(with_throw_module(baseline_dir.path, 0));
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;
  ASSERT_FALSE(baseline.bugs.empty());

  // Drain 300 ms after round 1's other runs are all journaled: by then the
  // throw module's first attempt has failed and its 20 s backoff has begun.
  CampaignOptions options = with_throw_module(drained_dir.path, 20'000);
  const std::string journal = CampaignJournal::PathIn(drained_dir.path);
  Micros others_done_at = 0;
  options.interrupt = [&] {
    if (others_done_at == 0) {
      JournalReplay replay;
      if (CampaignJournal::Load(journal, &replay) &&
          replay.outcomes.size() >= static_cast<size_t>(throw_module)) {
        others_done_at = NowMicros();
      }
      return false;
    }
    return NowMicros() - others_done_at > 300'000;
  };
  const Micros start = NowMicros();
  const CampaignResult drained = RunCampaign(options);
  const Micros drain_wall = NowMicros() - start;
  ASSERT_TRUE(drained.error.empty()) << drained.error;
  EXPECT_TRUE(drained.interrupted);
  // Well under the 20 s backoff and the coordinator's 30 s lease timeout.
  EXPECT_LT(drain_wall, 10'000'000);

  // The cut run: reported after one attempt, neither quarantined nor journaled.
  bool cut_reported = false;
  for (const RunOutcome& o : drained.outcomes) {
    if (o.module_index == throw_module && o.round == 1) {
      cut_reported = true;
      EXPECT_EQ(o.status, RunStatus::kCrashed);
      EXPECT_EQ(o.attempts, 1);
      EXPECT_FALSE(o.quarantined);
    }
  }
  EXPECT_TRUE(cut_reported);
  JournalReplay replay;
  ASSERT_TRUE(CampaignJournal::Load(journal, &replay));
  EXPECT_EQ(replay.outcomes.size(), static_cast<size_t>(throw_module));
  for (const RunOutcome& o : replay.outcomes) {
    EXPECT_NE(o.module_index, throw_module) << "the cut run was journaled";
    EXPECT_TRUE(o.status == RunStatus::kOk || o.quarantined);
  }

  CampaignOptions resume_options = with_throw_module(drained_dir.path, 0);
  resume_options.resume = true;
  const CampaignResult resumed = RunCampaign(resume_options);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed_runs, static_cast<uint64_t>(throw_module));
  EXPECT_EQ(SignatureSet(resumed), SignatureSet(baseline));
  ExpectNoDuplicateRunRecords(drained_dir.path);
  // Resume ran the cut job fresh, to quarantine after all three attempts.
  bool requarantined = false;
  for (const RunOutcome& o : resumed.outcomes) {
    if (o.module_index == throw_module && o.round == 1) {
      requarantined = o.quarantined && o.attempts == 3;
    }
  }
  EXPECT_TRUE(requarantined);
}

TEST(CampaignResumeTest, ResumeRefusesIdentityMismatch) {
  ScopedTempDir dir;
  CampaignOptions options = FastOptions(dir.path);
  options.rounds = 1;
  ASSERT_TRUE(RunCampaign(options).error.empty());

  CampaignOptions mismatched = options;
  mismatched.resume = true;
  mismatched.seed = 43;  // replayed outcomes would not match this campaign
  const CampaignResult refused = RunCampaign(mismatched);
  EXPECT_FALSE(refused.error.empty());
  EXPECT_NE(refused.error.find("mismatch"), std::string::npos) << refused.error;
  EXPECT_EQ(refused.RunsExecuted(), 0u);
  EXPECT_TRUE(refused.rounds.empty());
}

TEST(CampaignResumeTest, ResumeWithoutOutDirIsAnError) {
  CampaignOptions options;
  options.num_modules = 2;
  options.resume = true;
  const CampaignResult result = RunCampaign(options);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(result.RunsExecuted(), 0u);
}

#ifndef _WIN32
// Fault injection: run the campaign in a forked child, SIGKILL it mid-flight
// (twice, at different depths), and resume in the parent. The final bug set must
// match an uninterrupted baseline exactly. fsync durability is off in the
// children — SIGKILL only loses user-space buffers, which the journal's
// per-append fflush already pushes to the kernel; fsync matters for machine
// crashes, which this test cannot stage.
TEST(CampaignResumeTest, SigkillMidCampaignResumesToSameBugSet) {
  ScopedTempDir baseline_dir;
  ScopedTempDir killed_dir;
  const CampaignResult baseline = RunCampaign(FastOptions(baseline_dir.path));
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;
  ASSERT_FALSE(baseline.bugs.empty());

  for (const int kill_after_ms : {30, 90}) {
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      SetDurableFileSync(false);
      CampaignOptions options = FastOptions(killed_dir.path);
      options.resume = true;  // first child starts fresh; second resumes
      RunCampaign(options);
      _exit(0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
    kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
  }

  SetDurableFileSync(false);
  CampaignOptions resume_options = FastOptions(killed_dir.path);
  resume_options.resume = true;
  const CampaignResult resumed = RunCampaign(resume_options);
  SetDurableFileSync(true);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_FALSE(resumed.interrupted);

  EXPECT_EQ(SignatureSet(resumed), SignatureSet(baseline));
  EXPECT_EQ(resumed.UniqueBugCount(), baseline.UniqueBugCount());
  EXPECT_EQ(resumed.rounds.size(), baseline.rounds.size());
  EXPECT_EQ(resumed.converged, baseline.converged);
  ExpectNoDuplicateRunRecords(killed_dir.path);

  JournalReplay replay;
  ASSERT_TRUE(
      CampaignJournal::Load(CampaignJournal::PathIn(killed_dir.path), &replay));
  EXPECT_TRUE(replay.complete);
  // A SIGKILL can tear at most the in-flight append; Load's salvage plus the
  // resume-side truncation must have kept the ledger whole.
  EXPECT_EQ(replay.malformed_records, 0);
}
#endif  // !_WIN32

}  // namespace
}  // namespace tsvd::campaign
