// The campaign ledger: the durable round-commit path both orchestrators share
// (DESIGN.md §11, §13, §15).
//
// FleetCoordinator::Run drives it — for a fleet of agent processes and, through
// RunCampaign, for agent threads in its own process. Everything a round does once
// its outcomes are in lives here:
//
//   * journal identity and resume replay — a resumed campaign reconstructs its
//     completed rounds, dedup state, trap store and quarantine from the journal
//     and continues from the first unfinished run;
//   * errno-directed degradation — ENOSPC on any durable write drains the
//     campaign like a signal and ends it disk_full; any other journal failure
//     (EIO) keeps it running journal-less, reports stamped "durability":
//     "degraded";
//   * round ingestion in canonical module order into RoundStats, the
//     BugReportMgr and the false-positive count, so every artifact is a pure
//     function of the outcomes, not of which worker or agent finished first;
//   * the durable commit order per round: run records (appended as runs
//     finish) → trap store → round record (withheld when the store did not
//     land) → bug-manager snapshot on its cadence → reports;
//   * the completion record, skipped on interrupt, on a campaign the journal
//     already marks finished, and on an orchestration error (a dead fleet),
//     so every one of those stays resumable.
//
// The coordinator keeps the trap store (its versioned TrapStoreService) and
// passes in the round's store size and contents. AppendRun, AppendEvent and StopRequested are thread-safe; every
// other member is called from the orchestrator's round loop only.
#ifndef SRC_CAMPAIGN_LEDGER_H_
#define SRC_CAMPAIGN_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/campaign/bug_report_mgr.h"
#include "src/campaign/campaign.h"
#include "src/campaign/journal.h"
#include "src/workload/module.h"

namespace tsvd::campaign {

class CampaignLedger {
 public:
  // `options` and `corpus` must outlive the ledger. `workers` reports the
  // worker (or joined agent) count stamped into campaign.json; it is called
  // from the round loop.
  CampaignLedger(const CampaignOptions& options,
                 const std::vector<workload::ModuleSpec>* corpus,
                 std::function<int()> workers);
  CampaignLedger(const CampaignLedger&) = delete;
  CampaignLedger& operator=(const CampaignLedger&) = delete;

  // Creates out_dir, replays its journal when options.resume, and opens the
  // journal. `store` receives the trap store rebuilt from the replayed rounds
  // (empty on a fresh start). Returns false with result().error set on a
  // resume identity mismatch or a journal that cannot be opened.
  bool Open(TrapFile* store);

  int start_round() const { return start_round_; }
  // The journal says the campaign already finished: no round runs.
  bool already_done() const { return already_done_; }
  bool quarantined(size_t module_index) const {
    return quarantined_[module_index] != 0;
  }
  bool journaled() const { return journal_.is_open(); }

  // The interrupted round's journaled runs, carried into `round` when it is the
  // resume's start round (empty otherwise): reconstructed, never re-executed.
  std::vector<RunOutcome> TakeReplayed(int round);

  // The commit point of one run: an fsync'd ledger record the moment the run
  // reaches its final outcome. A failure feeds the degradation policy; the run
  // itself still counts. Thread-safe.
  void AppendRun(const RunOutcome& outcome);
  // Operational forensics record (journal.h). Thread-safe.
  void AppendEvent(const std::string& kind, const std::string& detail);

  // The drain poll: options.interrupt, or a disk-full drain in progress.
  // Thread-safe.
  bool StopRequested() const;
  // Polled between rounds: true, with the campaign marked interrupted, when no
  // further round may be dispatched.
  bool StopBeforeRound();

  // Ingests one round's outcomes in module order — replayed and fresh runs
  // alike — and merges their trap exports into `traps`.
  // Newly quarantined modules are benched from later rounds. The returned stats
  // lack only trap_pairs_after, which the caller's store decides.
  RoundStats IngestRound(int round, Micros wall_us, bool drained,
                         std::vector<RunOutcome> outcomes, TrapFile* traps);

  // Records the round with the store's size after it. A drained round stops
  // there, uncommitted. Otherwise the round commits in durable order — trap
  // store saved to traps.tsvd, round record only if that save landed,
  // bug-manager snapshot on its cadence — and the reports flush. Returns true
  // when the campaign stops: drained, or converged.
  bool CommitRound(RoundStats stats, size_t store_size, const TrapFile& store);

  // Writes the completion record (unless interrupted, already done, or
  // result().error is set), closes the journal, flushes the final reports and
  // hands over the result with `store` as its merged trap store.
  CampaignResult Finish(TrapFile store);

  // Orchestrator-owned fields (errors, salvage counts) are set through here.
  CampaignResult& result() { return result_; }

 private:
  void ApplyStorageErrno(int err);
  void FlushReports();

  const CampaignOptions& options_;
  const std::vector<workload::ModuleSpec>& corpus_;
  const std::function<int()> workers_;
  const bool persist_;

  CampaignResult result_;
  BugReportMgr mgr_;
  CampaignJournal journal_;
  std::vector<char> quarantined_;
  std::vector<RunOutcome> pending_;  // journaled runs of the interrupted round
  int start_round_ = 1;
  bool already_done_ = false;
  uint64_t last_snapshot_mark_ = 0;
  std::atomic<bool> storage_drain_{false};  // ENOSPC: drain like a signal
  std::atomic<bool> journal_lost_{false};   // EIO: journal-less degraded mode
};

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_LEDGER_H_
