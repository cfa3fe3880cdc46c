// Process-sandbox behavior: clean outcome round-trip through the pipe protocol,
// crash signatures for signaled children, watchdog enforcement of the wall-clock
// deadline, and exception capture. Fork-dependent tests skip themselves on
// platforms without fork().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/round.h"
#include "src/common/clock.h"
#include "src/sandbox/sandbox.h"

namespace tsvd::sandbox {
namespace {

int* volatile g_null = nullptr;

campaign::RunOutcome SampleOutcome() {
  campaign::RunOutcome outcome;
  outcome.module_index = 7;
  outcome.module = "mod7";
  outcome.round = 2;
  outcome.wall_us = 1234;
  outcome.oncall_count = 99;
  outcome.delays_injected = 5;
  outcome.traps.pairs = {{"a.cc:1 Get", "b.cc:2 Set"}};
  outcome.traps.Canonicalize();
  return outcome;
}

TEST(SandboxTest, CleanChildDeliversDecodedOutcome) {
  if (!ForkSupported()) {
    GTEST_SKIP() << "no fork() on this platform";
  }
  ForkRun run = RunForked([] { return SampleOutcome(); }, /*timeout_ms=*/30000);
  ASSERT_EQ(run.status, ChildStatus::kOk) << run.error;
  EXPECT_EQ(run.outcome.module_index, 7);
  EXPECT_EQ(run.outcome.module, "mod7");
  EXPECT_EQ(run.outcome.round, 2);
  EXPECT_EQ(run.outcome.oncall_count, 99u);
  EXPECT_EQ(run.outcome.delays_injected, 5u);
  ASSERT_EQ(run.outcome.traps.size(), 1u);
  EXPECT_TRUE(run.outcome.traps.Contains("a.cc:1 Get", "b.cc:2 Set"));
}

TEST(SandboxTest, SegfaultingChildYieldsSignalSignatureWithForensics) {
  if (!ForkSupported()) {
    GTEST_SKIP() << "no fork() on this platform";
  }
  ForkRun run = RunForked(
      []() -> campaign::RunOutcome {
        MarkPhase("test:3:racy_dict");
        MarkTrapSite("dict.cc:42 Set");
        *g_null = 1;  // SIGSEGV
        return {};
      },
      /*timeout_ms=*/30000);
  ASSERT_EQ(run.status, ChildStatus::kSignaled) << run.error;
  EXPECT_EQ(run.signature.signal, SIGSEGV);
  EXPECT_EQ(run.signature.signal_name, "SIGSEGV");
  EXPECT_FALSE(run.signature.timed_out);
  // The streamed forensics survived the crash: signature knows the phase and the
  // last armed trap site.
  EXPECT_EQ(run.signature.phase, "test:3:racy_dict");
  EXPECT_EQ(run.signature.last_trap_site, "dict.cc:42 Set");
  const std::string rendered = run.signature.Render();
  EXPECT_NE(rendered.find("SIGSEGV"), std::string::npos);
  EXPECT_NE(rendered.find("test:3:racy_dict"), std::string::npos);
  EXPECT_NE(rendered.find("dict.cc:42 Set"), std::string::npos);
}

TEST(SandboxTest, WatchdogKillsHungChildWithinDeadline) {
  if (!ForkSupported()) {
    GTEST_SKIP() << "no fork() on this platform";
  }
  const Micros start = NowMicros();
  ForkRun run = RunForked(
      []() -> campaign::RunOutcome {
        MarkPhase("hanging");
        std::this_thread::sleep_for(std::chrono::seconds(600));
        return {};
      },
      /*timeout_ms=*/300);
  const Micros elapsed = NowMicros() - start;
  ASSERT_EQ(run.status, ChildStatus::kTimedOut) << run.error;
  EXPECT_TRUE(run.signature.timed_out);
  EXPECT_EQ(run.signature.signal, SIGKILL);
  EXPECT_EQ(run.signature.phase, "hanging");
  EXPECT_NE(run.signature.Render().find("TIMEOUT"), std::string::npos);
  // 300ms deadline must not stretch into the child's 600s sleep: allow generous
  // slack for process reaping on a loaded machine, nothing more.
  EXPECT_LT(elapsed, 30'000'000) << "watchdog failed to kill the hung child";
}

TEST(SandboxTest, ThrowingChildBecomesExitedWithMessage) {
  if (!ForkSupported()) {
    GTEST_SKIP() << "no fork() on this platform";
  }
  ForkRun run = RunForked(
      []() -> campaign::RunOutcome {
        throw std::runtime_error("child exploded");
      },
      /*timeout_ms=*/30000);
  ASSERT_EQ(run.status, ChildStatus::kExited) << run.error;
  EXPECT_NE(run.error.find("child exploded"), std::string::npos);
}

TEST(SandboxTest, NonStdThrowInChildIsCaptured) {
  if (!ForkSupported()) {
    GTEST_SKIP() << "no fork() on this platform";
  }
  ForkRun run = RunForked([]() -> campaign::RunOutcome { throw 42; },
                          /*timeout_ms=*/30000);
  ASSERT_EQ(run.status, ChildStatus::kExited) << run.error;
  EXPECT_NE(run.error.find("non-standard exception"), std::string::npos);
}

TEST(SandboxTest, ZeroTimeoutDisablesWatchdog) {
  if (!ForkSupported()) {
    GTEST_SKIP() << "no fork() on this platform";
  }
  ForkRun run = RunForked([] { return SampleOutcome(); }, /*timeout_ms=*/0);
  ASSERT_EQ(run.status, ChildStatus::kOk) << run.error;
  EXPECT_EQ(run.outcome.module, "mod7");
}

TEST(SandboxTest, ConcurrentForksFromMultipleThreads) {
  if (!ForkSupported()) {
    GTEST_SKIP() << "no fork() on this platform";
  }
  // Campaign agent threads fork concurrently in sandbox mode; the interning lock held
  // across fork() must not deadlock or cross wires between children.
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&ok, i] {
      ForkRun run = RunForked(
          [i] {
            campaign::RunOutcome outcome;
            outcome.module_index = i;
            return outcome;
          },
          /*timeout_ms=*/30000);
      if (run.status == ChildStatus::kOk && run.outcome.module_index == i) {
        ++ok;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(ok.load(), 4);
}

TEST(SandboxTest, MarkersAreNoOpsOutsideChild) {
  EXPECT_FALSE(InSandboxChild());
  MarkPhase("nobody listening");  // must not crash or block
  MarkTrapSite("nowhere");
}

TEST(SandboxTest, CrashSignatureRenderShapes) {
  CrashSignature sig;
  sig.exit_code = 3;
  EXPECT_EQ(sig.Render(), "exit 3");
  sig.signal = SIGABRT;
  sig.signal_name = "SIGABRT";
  sig.phase = "test:0:x";
  EXPECT_EQ(sig.Render(), "SIGABRT in phase 'test:0:x'");
  sig.timed_out = true;
  sig.last_trap_site = "f.cc:1 Get";
  EXPECT_EQ(sig.Render(),
            "TIMEOUT (watchdog SIGKILL) in phase 'test:0:x' last-armed-trap "
            "'f.cc:1 Get'");
}

TEST(SandboxTest, ChildStatusNamesAreStable) {
  EXPECT_STREQ(ChildStatusName(ChildStatus::kOk), "ok");
  EXPECT_STREQ(ChildStatusName(ChildStatus::kSignaled), "signaled");
  EXPECT_STREQ(ChildStatusName(ChildStatus::kTimedOut), "timed_out");
  EXPECT_STREQ(ChildStatusName(ChildStatus::kExited), "exited");
  EXPECT_STREQ(ChildStatusName(ChildStatus::kProtocolError), "protocol_error");
  EXPECT_STREQ(ChildStatusName(ChildStatus::kUnsupported), "unsupported");
}

}  // namespace
}  // namespace tsvd::sandbox
