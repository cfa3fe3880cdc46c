#include "src/campaign/campaign.h"

#include <filesystem>
#include <utility>

#include "src/campaign/journal.h"
#include "src/campaign/ledger.h"
#include "src/campaign/run_executor.h"
#include "src/campaign/scheduler.h"

namespace tsvd::campaign {

CampaignResult RunCampaign(const CampaignOptions& options) {
  // Corpus, config, and per-run execution all come from the shared core
  // (run_executor.h) so the distributed fleet executes runs bit-identically.
  const std::vector<workload::ModuleSpec> corpus =
      BuildCampaignCorpus(options).modules;

  Scheduler scheduler(options.workers, options.pool_threads_per_worker);
  CampaignLedger ledger(options, &corpus,
                        [&scheduler] { return scheduler.workers(); });
  TrapFile merged;  // the fleet-wide trap store, canonical at all times
  if (!ledger.Open(&merged)) {
    return std::move(ledger.result());
  }

  // Sandbox mode needs a scratch directory for the children's atomically-written
  // trap checkpoints (salvaged by the parent when a child dies mid-run).
  const bool sandboxed = options.sandbox.enabled && sandbox::ForkSupported();
  std::string checkpoint_dir;
  if (sandboxed) {
    std::filesystem::path dir =
        !options.out_dir.empty()
            ? std::filesystem::path(options.out_dir) / "sandbox"
            : std::filesystem::temp_directory_path() /
                  ("tsvd-sandbox-" +
                   std::to_string(static_cast<uint64_t>(NowMicros())));
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    checkpoint_dir = dir.string();
  }

  const RunExecutor executor(options, &corpus, checkpoint_dir);

  // Reap what a dead orchestrator's children left behind. On resume the salvaged
  // pairs rejoin the fleet store (below, after the next imported snapshot); a
  // fresh campaign only clears the litter so its own crash forensics can never
  // salvage another campaign's stale checkpoint.
  TrapFile stale_salvage;
  if (sandboxed) {
    ledger.result().salvaged_checkpoints =
        ReapStaleCheckpoints(checkpoint_dir, &stale_salvage);
    if (!options.resume) {
      stale_salvage = TrapFile{};
    }
  }

  if (ledger.journaled()) {
    // The commit point: one fsync'd ledger record the moment a run reaches its
    // final outcome, on the worker thread that finished it. Runs a drain skipped
    // or cut short are never journaled — resume re-executes them.
    scheduler.SetCompletionCallback(
        [&ledger](const RunOutcome& outcome) { ledger.AppendRun(outcome); });
  }

  RetryPolicy retry;
  retry.max_attempts = options.max_attempts;
  retry.backoff_base_ms = options.sandbox.backoff_base_ms;
  retry.backoff_cap_ms = options.sandbox.backoff_cap_ms;

  // Disk-full behaves exactly like a delivered SIGINT: the scheduler polls this
  // closure between runs and drains on the first true.
  const std::function<bool()> interrupt = [&ledger] {
    return ledger.StopRequested();
  };
  const int rounds = options.rounds > 0 ? options.rounds : 1;
  for (int round = ledger.start_round();
       !ledger.already_done() && round <= rounds; ++round) {
    if (ledger.StopBeforeRound()) {
      // Signal (or disk-full drain) arrived between rounds: stop before
      // dispatching anything.
      break;
    }
    // Runs of this round already committed to the ledger (resume of an
    // interrupted round): reconstructed, not re-executed.
    std::vector<RunOutcome> replayed = ledger.TakeReplayed(round);
    std::vector<char> already(corpus.size(), 0);
    for (const RunOutcome& o : replayed) {
      if (o.module_index >= 0 && o.module_index < static_cast<int>(already.size())) {
        already[o.module_index] = 1;
      }
    }

    std::vector<RunJob> jobs;
    jobs.reserve(corpus.size());
    for (size_t m = 0; m < corpus.size(); ++m) {
      if (ledger.quarantined(m) || already[m]) {
        continue;  // benched, or its ledger record already exists for this round
      }
      jobs.push_back(RunJob{static_cast<int>(m), round, 1, 0});
    }
    if (jobs.empty() && replayed.empty()) {
      break;
    }

    // Snapshot the store for the round: workers read it concurrently, the merge
    // below happens only after every run of the round completed. On resume this
    // equals the store the uninterrupted campaign would import — the replayed
    // partial round's own traps are merged only during round processing, exactly
    // like live outcomes' traps.
    const TrapFile imported = merged;
    if (!stale_salvage.empty()) {
      // Dead children's checkpointed learning joins the fleet store now — after
      // the imported snapshot, so the snapshot stays bit-identical to the
      // uninterrupted campaign's.
      merged.Merge(stale_salvage);
      stale_salvage = TrapFile{};
    }

    const Scheduler::JobFn run_job = [&](const RunJob& job,
                                         tasks::ThreadPool& pool) {
      return executor.Execute(job, imported, &pool);
    };

    const Micros round_start = NowMicros();
    std::vector<RunOutcome> outcomes;
    if (!jobs.empty()) {
      outcomes = scheduler.ExecuteRound(jobs, run_job, retry, interrupt);
    }
    for (RunOutcome& o : replayed) {
      outcomes.push_back(std::move(o));
    }
    const RoundStats stats =
        ledger.IngestRound(round, NowMicros() - round_start, scheduler.draining(),
                           std::move(outcomes), &merged);
    if (ledger.CommitRound(stats, merged.size(), merged)) {
      break;  // drained, or converged
    }
  }

  if (!stale_salvage.empty()) {
    merged.Merge(stale_salvage);  // no round ran; keep the reaped learning anyway
  }
  if (sandboxed) {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir, ec);
  }
  return ledger.Finish(std::move(merged));
}

}  // namespace tsvd::campaign
