// CampaignLedger over synthetic run outcomes: no detector runs, no timing. The
// ledger is the round-commit path both orchestrators share, so its contracts
// are checked here exactly, not statistically:
//   * ingestion order never leaks into stats or reports — outcomes arriving in
//     any order give identical RoundStats and byte-identical campaign.json;
//   * a round record is withheld when the trap store did not land;
//   * ENOSPC on the bug-manager snapshot drains the campaign to disk_full.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "src/campaign/journal.h"
#include "src/campaign/ledger.h"
#include "src/campaign/run_executor.h"
#include "src/io/chaos_fs.h"
#include "src/io/vfs.h"

namespace tsvd::campaign {
namespace {

namespace fs = std::filesystem;

struct ScopedTempDir {
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    const auto stamp =
        std::chrono::steady_clock::now().time_since_epoch().count();
    path = (fs::temp_directory_path() /
            ("tsvd_ledger_test_" + std::to_string(stamp) + "_" +
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

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

constexpr int kModules = 8;

CampaignOptions LedgerOptions(const std::string& out_dir) {
  CampaignOptions options;
  options.num_modules = kModules;
  options.rounds = 2;
  options.seed = 42;
  options.out_dir = out_dir;
  options.journal_snapshot_every = 0;
  return options;
}

BugObservation Observation(const std::string& a, const std::string& b,
                           const std::string& module, bool read_write) {
  BugObservation obs;
  obs.sig_first = a;
  obs.sig_second = b;
  obs.api_first = "Add";
  obs.api_second = read_write ? "Get" : "Add";
  obs.stack_digest = std::hash<std::string>{}(a + b + module);
  obs.module = module;
  obs.round = 1;
  obs.read_write = read_write;
  return obs;
}

// One round of outcomes over `corpus`. Several modules catch the same pairs
// with different flags, so the first ingested observation decides what the
// unique bug records: only a canonical ingestion order makes that stable.
std::vector<RunOutcome> SyntheticRound(
    const std::vector<workload::ModuleSpec>& corpus) {
  std::vector<RunOutcome> outcomes;
  for (int m = 0; m < static_cast<int>(corpus.size()); ++m) {
    RunOutcome o;
    o.module_index = m;
    o.module = corpus[m].name;
    o.round = 1;
    o.wall_us = 1000 + m;
    o.delays_injected = 3 * m;
    o.delays_early_woken = m;
    o.retrapped_imported = m % 2;
    o.false_positives = m == 5 ? 1 : 0;
    if (m == 2) {
      o.status = RunStatus::kCrashed;
      o.killed_by_signal = 11;
      o.attempts = 2;
      o.error = "attempt 2: SIGSEGV";
      o.quarantined = true;
    }
    if (m == 4) {
      o.status = RunStatus::kTimedOut;
      o.attempts = 2;
      o.error = "attempt 2: watchdog";
    }
    if (m == 6) {
      o.module.clear();  // a thrown attempt: the ledger backfills the name
      o.status = RunStatus::kCrashed;
    }
    const std::string pair = "a.cc:" + std::to_string(10 + m % 3);
    o.observations.push_back(
        Observation(pair + " Add", "b.cc:7 Add", corpus[m].name, m % 2 == 0));
    o.observations.push_back(Observation("c.cc:1 Add", "c.cc:2 Get",
                                         corpus[m].name, m % 3 == 0));
    o.traps.pairs.emplace_back(pair + " Add", "b.cc:7 Add");
    o.traps.pairs.emplace_back("t.cc:" + std::to_string(m) + " Add",
                               "t.cc:99 Add");
    o.traps.Canonicalize();
    outcomes.push_back(std::move(o));
  }
  return outcomes;
}

struct OneRound {
  RoundStats stats;
  CampaignResult result;
  std::string json;
  std::string sarif;
};

// Drives one ledger through one round the way both orchestrators do: runs
// journaled as they finish, then ingestion, trap-store commit and Finish.
OneRound RunOneRound(const std::string& out_dir,
                     std::vector<RunOutcome> outcomes) {
  const CampaignOptions options = LedgerOptions(out_dir);
  const std::vector<workload::ModuleSpec> corpus =
      BuildCampaignCorpus(options).modules;
  CampaignLedger ledger(options, &corpus, [] { return 4; });
  TrapFile store;
  EXPECT_TRUE(ledger.Open(&store)) << ledger.result().error;
  for (const RunOutcome& o : outcomes) {
    ledger.AppendRun(o);
  }
  OneRound out;
  out.stats = ledger.IngestRound(1, /*wall_us=*/5000, /*drained=*/false,
                                 std::move(outcomes), &store);
  ledger.CommitRound(out.stats, store.size(), store);
  out.result = ledger.Finish(std::move(store));
  out.json = ReadAll(out_dir + "/campaign.json");
  out.sarif = ReadAll(out_dir + "/campaign.sarif");
  return out;
}

void ExpectSameStats(const RoundStats& a, const RoundStats& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.killed_by_signal, b.killed_by_signal);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.new_unique_bugs, b.new_unique_bugs);
  EXPECT_EQ(a.retrapped_imported, b.retrapped_imported);
  EXPECT_EQ(a.trap_pairs_after, b.trap_pairs_after);
  EXPECT_EQ(a.interrupted, b.interrupted);
  EXPECT_EQ(a.delays_injected, b.delays_injected);
  EXPECT_EQ(a.delays_early_woken, b.delays_early_woken);
  EXPECT_EQ(a.delays_aborted_stall, b.delays_aborted_stall);
  EXPECT_EQ(a.delays_skipped_budget, b.delays_skipped_budget);
  EXPECT_EQ(a.runtime_disabled, b.runtime_disabled);
  EXPECT_EQ(a.wall_us, b.wall_us);
}

TEST(CampaignLedgerTest, ShuffledIngestionGivesIdenticalStatsAndReports) {
  const std::vector<workload::ModuleSpec> corpus =
      BuildCampaignCorpus(LedgerOptions("")).modules;
  ASSERT_EQ(corpus.size(), static_cast<size_t>(kModules));
  const std::vector<RunOutcome> ordered = SyntheticRound(corpus);

  ScopedTempDir reference_dir;
  const OneRound reference = RunOneRound(reference_dir.path, ordered);
  EXPECT_EQ(reference.stats.runs, kModules);
  EXPECT_EQ(reference.stats.crashed, 2);
  EXPECT_EQ(reference.stats.timed_out, 1);
  EXPECT_EQ(reference.stats.quarantined, 1);
  EXPECT_EQ(reference.stats.new_unique_bugs, 4u);
  EXPECT_EQ(reference.result.false_positives, 1);
  EXPECT_EQ(reference.result.outcomes[6].module, corpus[6].name);
  ASSERT_FALSE(reference.json.empty());

  std::mt19937 shuffle_rng(1234);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<RunOutcome> shuffled = ordered;
    std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
    ScopedTempDir dir;
    const OneRound run = RunOneRound(dir.path, std::move(shuffled));
    ExpectSameStats(run.stats, reference.stats);
    ASSERT_EQ(run.result.rounds.size(), 1u);
    ExpectSameStats(run.result.rounds[0], reference.result.rounds[0]);
    EXPECT_EQ(run.json, reference.json) << "trial " << trial;
    EXPECT_EQ(run.sarif, reference.sarif) << "trial " << trial;
    EXPECT_EQ(run.result.merged_traps.pairs, reference.result.merged_traps.pairs);
  }
}

TEST(CampaignLedgerTest, TrapStoreRenameFailureWithholdsTheRoundRecord) {
  ScopedTempDir dir;
  const CampaignOptions options = LedgerOptions(dir.path);
  const std::vector<workload::ModuleSpec> corpus =
      BuildCampaignCorpus(options).modules;
  io::ChaosFsSpec spec;
  spec.rename_fail = 1.0;
  spec.path_substr = "traps.tsvd";
  io::ChaosFs chaos(io::RealVfs(), spec);

  CampaignResult result;
  {
    io::ScopedVfs scoped(&chaos);
    CampaignLedger ledger(options, &corpus, [] { return 1; });
    TrapFile store;
    ASSERT_TRUE(ledger.Open(&store)) << ledger.result().error;
    std::vector<RunOutcome> outcomes = SyntheticRound(corpus);
    for (const RunOutcome& o : outcomes) {
      ledger.AppendRun(o);
    }
    const RoundStats stats =
        ledger.IngestRound(1, 5000, false, std::move(outcomes), &store);
    ledger.CommitRound(stats, store.size(), store);
    result = ledger.Finish(std::move(store));
  }
  EXPECT_GE(chaos.stats().rename_failures, 1u);
  EXPECT_TRUE(result.trap_path.empty());  // the store never landed
  EXPECT_FALSE(result.disk_full);         // EIO, not a full disk

  JournalReplay replay;
  ASSERT_TRUE(CampaignJournal::Load(CampaignJournal::PathIn(dir.path), &replay));
  EXPECT_EQ(replay.outcomes.size(), static_cast<size_t>(kModules));
  EXPECT_TRUE(replay.completed_rounds.empty())
      << "a round record must never claim a trap store that did not land";
}

TEST(CampaignLedgerTest, EnospcOnTheBugManagerSnapshotEndsDiskFull) {
  ScopedTempDir dir;
  CampaignOptions options = LedgerOptions(dir.path);
  options.journal_snapshot_every = 1;
  const std::vector<workload::ModuleSpec> corpus =
      BuildCampaignCorpus(options).modules;
  io::ChaosFsSpec spec;
  spec.enospc = 1.0;
  spec.path_substr = "bugmgr.snap";
  io::ChaosFs chaos(io::RealVfs(), spec);

  CampaignResult result;
  {
    io::ScopedVfs scoped(&chaos);
    CampaignLedger ledger(options, &corpus, [] { return 1; });
    TrapFile store;
    ASSERT_TRUE(ledger.Open(&store)) << ledger.result().error;
    std::vector<RunOutcome> outcomes = SyntheticRound(corpus);
    for (const RunOutcome& o : outcomes) {
      ledger.AppendRun(o);
    }
    const RoundStats stats =
        ledger.IngestRound(1, 5000, false, std::move(outcomes), &store);
    EXPECT_FALSE(ledger.StopRequested());
    ledger.CommitRound(stats, store.size(), store);
    // The failed snapshot drains the campaign like a signal would.
    EXPECT_TRUE(ledger.StopRequested());
    EXPECT_TRUE(ledger.StopBeforeRound());
    result = ledger.Finish(std::move(store));
  }
  EXPECT_GE(chaos.stats().enospc, 1u);
  EXPECT_TRUE(result.disk_full);
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.journal_degraded);

  // The round itself committed before the snapshot; no completion record, so
  // a resume on a healed disk continues from round 2.
  JournalReplay replay;
  ASSERT_TRUE(CampaignJournal::Load(CampaignJournal::PathIn(dir.path), &replay));
  EXPECT_EQ(replay.completed_rounds.size(), 1u);
  EXPECT_FALSE(replay.complete);
}

}  // namespace
}  // namespace tsvd::campaign
