// The campaign's one retry ladder: retry on a throw (standard or not) and on a
// non-kOk outcome, every attempt error recorded, timeout degradation, backoff,
// salvaged-trap carry-over, forensics on a final failure, and the drain cut.
// Each attempt is a fake, so the ladder is tested without running a module.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/campaign/run_executor.h"

namespace tsvd::campaign {
namespace {

RunJob FirstAttempt(int module_index = 0) { return RunJob{module_index, 1, 1, 0}; }

RetryPolicy Attempts(int max_attempts) {
  RetryPolicy policy;
  policy.max_attempts = max_attempts;
  return policy;
}

RunOutcome Retry(const AttemptFn& attempt, const RetryPolicy& policy,
                 const std::function<bool()>& interrupt = {}) {
  return ExecuteWithRetries(FirstAttempt(), attempt, policy, interrupt);
}

TEST(ExecuteWithRetriesTest, ThrownAttemptIsRetriedAndSucceeds) {
  int calls = 0;
  const RunOutcome outcome = Retry(
      [&](const RunJob& job) {
        if (++calls == 1) {
          throw std::runtime_error("transient crash");
        }
        RunOutcome ok;
        ok.module_index = job.module_index;
        return ok;
      },
      Attempts(2));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(outcome.status, RunStatus::kOk);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_FALSE(outcome.quarantined);
}

TEST(ExecuteWithRetriesTest, ExhaustedJobIsReportedCrashedAndQuarantined) {
  int calls = 0;
  const RunOutcome outcome = ExecuteWithRetries(
      FirstAttempt(/*module_index=*/2),
      [&](const RunJob&) -> RunOutcome {
        ++calls;
        throw std::runtime_error("deterministic crash");
      },
      Attempts(3), {});
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(outcome.module_index, 2);
  EXPECT_EQ(outcome.round, 1);
  EXPECT_EQ(outcome.status, RunStatus::kCrashed);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_TRUE(outcome.quarantined);
  EXPECT_NE(outcome.error.find("deterministic crash"), std::string::npos);
}

TEST(ExecuteWithRetriesTest, NonStdThrowIsCapturedNotFatal) {
  const RunOutcome outcome =
      Retry([](const RunJob&) -> RunOutcome { throw 42; }, Attempts(1));
  EXPECT_EQ(outcome.status, RunStatus::kCrashed);
  EXPECT_NE(outcome.error.find("non-standard exception"), std::string::npos);
}

TEST(ExecuteWithRetriesTest, NonOkOutcomeTriggersRetryLikeAThrow) {
  // Sandbox-mode failures arrive as returned outcomes, not exceptions.
  int calls = 0;
  const RunOutcome outcome = Retry(
      [&](const RunJob& job) {
        RunOutcome o;
        o.module_index = job.module_index;
        if (++calls == 1) {
          o.status = RunStatus::kCrashed;
          o.error = "child died";
        }
        return o;
      },
      Attempts(2));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(outcome.status, RunStatus::kOk);
  EXPECT_EQ(outcome.attempts, 2);
  ASSERT_EQ(outcome.attempt_errors.size(), 1u);
  EXPECT_NE(outcome.attempt_errors[0].find("attempt 1: child died"),
            std::string::npos);
}

TEST(ExecuteWithRetriesTest, EveryFailedAttemptErrorIsRecorded) {
  const RunOutcome outcome = Retry(
      [](const RunJob& job) -> RunOutcome {
        throw std::runtime_error("boom attempt " + std::to_string(job.attempt));
      },
      Attempts(3));
  EXPECT_EQ(outcome.status, RunStatus::kCrashed);
  EXPECT_TRUE(outcome.quarantined);
  ASSERT_EQ(outcome.attempt_errors.size(), 3u);
  EXPECT_NE(outcome.attempt_errors[0].find("attempt 1: boom attempt 1"),
            std::string::npos);
  EXPECT_NE(outcome.attempt_errors[2].find("attempt 3: boom attempt 3"),
            std::string::npos);
}

TEST(ExecuteWithRetriesTest, SuccessfulRunIsNeverQuarantined) {
  const RunOutcome outcome = Retry([](const RunJob&) { return RunOutcome{}; }, Attempts(1));
  EXPECT_EQ(outcome.status, RunStatus::kOk);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_FALSE(outcome.quarantined);
  EXPECT_TRUE(outcome.attempt_errors.empty());
}

TEST(ExecuteWithRetriesTest, TimedOutAttemptRetriesDownTheDegradationLadder) {
  std::vector<int> levels_seen;
  const RunOutcome outcome = Retry(
      [&](const RunJob& job) {
        levels_seen.push_back(job.degrade_level);
        RunOutcome o;
        o.status = RunStatus::kTimedOut;
        o.error = "watchdog";
        return o;
      },
      Attempts(3));
  // Every timed-out retry stepped the ladder: 0, 1, 2.
  EXPECT_EQ(levels_seen, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(outcome.status, RunStatus::kTimedOut);
  EXPECT_EQ(outcome.degrade_level, 2);
}

TEST(ExecuteWithRetriesTest, CrashRetriesDoNotDegrade) {
  std::vector<int> levels_seen;
  const RunOutcome outcome = Retry(
      [&](const RunJob& job) -> RunOutcome {
        levels_seen.push_back(job.degrade_level);  // only timeouts walk the ladder
        throw std::runtime_error("crash");
      },
      Attempts(3));
  EXPECT_EQ(levels_seen, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(outcome.degrade_level, 0);
}

TEST(ExecuteWithRetriesTest, RetryWaitsOutTheExponentialBackoffWindow) {
  std::vector<Micros> attempt_times;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 60;
  policy.backoff_cap_ms = 2000;
  Retry(
      [&](const RunJob&) -> RunOutcome {
        attempt_times.push_back(NowMicros());
        throw std::runtime_error("always");
      },
      policy);
  ASSERT_EQ(attempt_times.size(), 3u);
  // Attempt 2 waits >= base (60ms), attempt 3 >= 2*base (120ms).
  EXPECT_GE(attempt_times[1] - attempt_times[0], 60'000);
  EXPECT_GE(attempt_times[2] - attempt_times[1], 120'000);
}

TEST(ExecuteWithRetriesTest, SalvagedTrapsFromFailedAttemptsSurviveIntoFinalOutcome) {
  // Attempt 1 fails but carries a salvaged checkpoint; attempt 2 succeeds with a
  // different pair. The final outcome must hold the union.
  const RunOutcome outcome = Retry(
      [](const RunJob& job) {
        RunOutcome o;
        if (job.attempt == 1) {
          o.status = RunStatus::kCrashed;
          o.error = "died mid-run";
          o.traps.pairs = {{"a.cc:1 Get", "a.cc:2 Set"}};
        } else {
          o.traps.pairs = {{"b.cc:3 Add", "b.cc:4 Remove"}};
        }
        o.traps.Canonicalize();
        return o;
      },
      Attempts(2));
  EXPECT_EQ(outcome.status, RunStatus::kOk);
  EXPECT_EQ(outcome.salvaged_trap_pairs, 1u);
  EXPECT_TRUE(outcome.traps.Contains("a.cc:1 Get", "a.cc:2 Set"));
  EXPECT_TRUE(outcome.traps.Contains("b.cc:3 Add", "b.cc:4 Remove"));
}

TEST(ExecuteWithRetriesTest, SalvagedTrapsAccumulateAcrossAllFailedAttempts) {
  const RunOutcome outcome = Retry(
      [](const RunJob& job) {
        RunOutcome o;
        o.status = RunStatus::kCrashed;
        o.error = "always dies";
        o.traps.pairs = {{"f.cc:" + std::to_string(job.attempt) + " Get", "g.cc:9 Set"}};
        o.traps.Canonicalize();
        return o;
      },
      Attempts(3));
  EXPECT_EQ(outcome.status, RunStatus::kCrashed);
  EXPECT_TRUE(outcome.quarantined);
  // All three attempts' salvage merged: f.cc:1, f.cc:2, f.cc:3 against g.cc:9.
  EXPECT_EQ(outcome.traps.size(), 3u);
  EXPECT_EQ(outcome.salvaged_trap_pairs, 3u);
  EXPECT_TRUE(outcome.traps.Contains("f.cc:2 Get", "g.cc:9 Set"));
}

TEST(ExecuteWithRetriesTest, FinalFailurePreservesSandboxForensics) {
  const RunOutcome outcome = Retry(
      [](const RunJob& job) {
        RunOutcome o;
        o.module_index = job.module_index;
        o.module = "victim";
        o.status = RunStatus::kCrashed;
        o.error = "run crashed: SIGSEGV";
        o.killed_by_signal = 11;
        o.crash_signature = "SIGSEGV in phase 'test:2:dict'";
        o.observations.push_back(BugObservation{});
        return o;
      },
      Attempts(1));
  EXPECT_EQ(outcome.module, "victim");
  EXPECT_EQ(outcome.killed_by_signal, 11);
  EXPECT_EQ(outcome.crash_signature, "SIGSEGV in phase 'test:2:dict'");
  EXPECT_TRUE(outcome.observations.empty());  // a failed run reports no bugs
  EXPECT_TRUE(outcome.quarantined);
}

TEST(ExecuteWithRetriesTest, DrainCutsRetriesWithoutQuarantining) {
  bool draining = false;
  int calls = 0;
  const RunOutcome outcome = Retry(
      [&](const RunJob&) -> RunOutcome {
        ++calls;
        draining = true;  // the drain lands while the first attempt runs
        throw std::runtime_error("failed while draining");
      },
      Attempts(3), [&] { return draining; });
  // The drain made the failure final without retries — but the job never
  // exhausted its attempts, so it is NOT quarantined: a resumed campaign re-runs
  // it fresh instead of benching the module.
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome.status, RunStatus::kCrashed);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_FALSE(outcome.quarantined);
}

TEST(ExecuteWithRetriesTest, DrainDuringBackoffEndsTheWaitAtOnce) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base_ms = 10'000;
  int calls = 0;
  Micros failed_at = 0;
  const RunOutcome outcome = Retry(
      [&](const RunJob&) -> RunOutcome {
        ++calls;
        failed_at = NowMicros();
        throw std::runtime_error("flaky");
      },
      policy, [&] { return failed_at != 0 && NowMicros() - failed_at > 20'000; });
  // The 10 s backoff ended with the drain, ~20 ms in, and no retry followed.
  EXPECT_EQ(calls, 1);
  EXPECT_LT(NowMicros() - failed_at, 5'000'000);
  EXPECT_FALSE(outcome.quarantined);
  EXPECT_EQ(outcome.degrade_level, 0);
}

}  // namespace
}  // namespace tsvd::campaign
