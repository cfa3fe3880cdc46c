#include "src/campaign/ledger.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/campaign/run_executor.h"
#include "src/campaign/sinks.h"
#include "src/io/chaos_fs.h"
#include "src/sandbox/sandbox.h"

namespace tsvd::campaign {
namespace {

// Everything a dead campaign's journal yields for a resume, partitioned the way
// the round loop consumes it.
struct ResumePlan {
  // No resumable journal (missing/unreadable/headerless): start fresh. The other
  // fields are meaningless.
  bool fresh = true;
  // Identity mismatch or I/O failure; fatal when non-empty.
  std::string error;

  std::vector<RoundStats> completed_rounds;  // committed rounds, in round order
  // Outcomes of committed rounds as (ledger index, outcome), restored to the
  // canonical (round, module, ledger) order the live campaign ingests in. The
  // ledger index lets the caller skip observations a BugReportMgr snapshot
  // already covers.
  std::vector<std::pair<uint64_t, RunOutcome>> completed;
  // Run records of the interrupted round, sorted by module index: carried into
  // the round loop and processed uniformly with the runs that finish the round.
  std::vector<RunOutcome> pending;
  int start_round = 1;
  // The journal says the campaign finished (or died in the window between its
  // last round record and the complete record, with convergence already decided).
  bool already_done = false;
  bool converged = false;
  uint64_t resumed_runs = 0;
  // Modules whose journaled outcome was quarantined: they stay benched.
  std::vector<int> quarantined_modules;
  // BugReportMgr snapshot restore: when has_snapshot, Restore(snapshot.bugs) and
  // re-ingest only completed entries with ledger index >= snapshot.watermark.
  bool has_snapshot = false;
  BugMgrSnapshot snapshot;
};

// Loads out_dir's journal (and bugmgr snapshot) and builds the plan. Performs the
// torn-tail truncation so the resume writer appends on a clean line. Returns
// false when plan->error was set (identity mismatch); a missing journal returns
// true with plan->fresh.
bool LoadResumePlan(const std::string& out_dir, const JournalHeader& header,
                    size_t corpus_size, bool stop_when_converged,
                    ResumePlan* plan) {
  *plan = ResumePlan{};
  const std::string journal_path = CampaignJournal::PathIn(out_dir);
  JournalReplay replay;
  std::error_code ec;
  if (!std::filesystem::exists(journal_path, ec) ||
      !CampaignJournal::Load(journal_path, &replay) || !replay.has_header) {
    // A missing/unreadable/headerless journal falls through to a fresh start
    // (automation can always pass resume, even after a kill that predated the
    // first append); an identity mismatch is a hard error.
    return true;
  }
  std::string why;
  if (!header.CompatibleWith(replay.header, &why)) {
    plan->error = "resume refused: journal identity mismatch (" + why + ")";
    return false;
  }
  plan->fresh = false;
  if (replay.torn_tail) {
    // Cut the dangling partial record of the crashed append so this session's
    // records start on a clean line.
    std::filesystem::resize_file(journal_path, replay.valid_bytes, ec);
  }
  plan->completed_rounds = replay.completed_rounds;
  plan->resumed_runs = replay.outcomes.size();
  plan->start_round = static_cast<int>(replay.completed_rounds.size()) + 1;

  // Dedup-state fast path: restore the last snapshot, then re-ingest only the
  // ledger tail it does not cover.
  BugMgrSnapshot snap;
  if (LoadBugMgrSnapshot(CampaignJournal::SnapshotPathIn(out_dir), &snap) &&
      snap.watermark <= replay.outcomes.size()) {
    plan->has_snapshot = true;
    plan->snapshot = std::move(snap);
  }

  // Partition the run records: completed rounds are reconstructed by the caller
  // and never re-executed; records of the interrupted round are carried into the
  // round loop and processed uniformly with the runs that finish it.
  plan->completed.reserve(replay.outcomes.size());
  for (uint64_t i = 0; i < replay.outcomes.size(); ++i) {
    RunOutcome& o = replay.outcomes[i];
    if (o.quarantined && o.module_index >= 0 &&
        o.module_index < static_cast<int>(corpus_size)) {
      plan->quarantined_modules.push_back(o.module_index);  // stays benched
    }
    if (o.round >= plan->start_round) {
      plan->pending.push_back(std::move(o));
    } else {
      plan->completed.emplace_back(i, std::move(o));
    }
  }
  // The ledger appends in completion order (non-deterministic across workers);
  // the live campaign ingests and reports in (round, module) order. Restore that
  // canonical order so resumed artifacts match an uninterrupted campaign's.
  std::sort(plan->completed.begin(), plan->completed.end(),
            [](const auto& a, const auto& b) {
              if (a.second.round != b.second.round) {
                return a.second.round < b.second.round;
              }
              if (a.second.module_index != b.second.module_index) {
                return a.second.module_index < b.second.module_index;
              }
              return a.first < b.first;
            });
  std::sort(plan->pending.begin(), plan->pending.end(),
            [](const RunOutcome& a, const RunOutcome& b) {
              return a.module_index < b.module_index;
            });

  if (replay.complete) {
    plan->already_done = true;
    plan->converged = replay.converged;
  } else if (plan->pending.empty() && stop_when_converged &&
             !plan->completed_rounds.empty() &&
             plan->completed_rounds.back().new_unique_bugs == 0) {
    // Crash in the window between the round record and the complete record:
    // reconstruct the convergence decision the dead campaign was about to commit.
    plan->already_done = true;
    plan->converged = true;
  }
  return true;
}

// An attempt that threw produces a synthesized outcome with no module name (the
// retry ladder only knows indices); backfill it for the artifact trail.
void BackfillModuleName(const std::vector<workload::ModuleSpec>& corpus,
                        RunOutcome* o) {
  if (o->module.empty() && o->module_index >= 0 &&
      o->module_index < static_cast<int>(corpus.size())) {
    o->module = corpus[o->module_index].name;
  }
}

// Applies the completed-rounds part of a plan: marks quarantined modules,
// restores the snapshot into `mgr`, re-ingests the uncovered observation tail,
// rebuilds the merged trap store, backfills module names, and appends the
// outcomes (in canonical order) to `outcomes`. plan.pending is left for the
// round loop; names are backfilled here too. Returns the snapshot watermark
// restored (0 when none) — the snapshot-cadence baseline.
uint64_t ApplyResumePlan(ResumePlan* plan,
                         const std::vector<workload::ModuleSpec>& corpus,
                         BugReportMgr* mgr, TrapFile* merged,
                         std::vector<char>* quarantined,
                         std::vector<RunOutcome>* outcomes, int* false_positives) {
  for (const int m : plan->quarantined_modules) {
    if (m >= 0 && m < static_cast<int>(quarantined->size())) {
      (*quarantined)[m] = 1;
    }
  }
  uint64_t covered = 0;
  if (plan->has_snapshot) {
    covered = plan->snapshot.watermark;
    mgr->Restore(std::move(plan->snapshot.bugs));
  }
  for (auto& [index, o] : plan->completed) {
    BackfillModuleName(corpus, &o);
    if (index >= covered) {
      for (const BugObservation& obs : o.observations) {
        mgr->Ingest(obs);
      }
    }
    // The fleet store is exactly the union of every processed outcome's trap
    // export, so rebuilding it from the ledger reproduces the store the
    // interrupted round imported — traps.tsvd is not even needed.
    merged->Merge(o.traps);
    *false_positives += o.false_positives;
    outcomes->push_back(std::move(o));
  }
  plan->completed.clear();
  for (RunOutcome& o : plan->pending) {
    BackfillModuleName(corpus, &o);
  }
  return covered;
}

}  // namespace

CampaignLedger::CampaignLedger(const CampaignOptions& options,
                               const std::vector<workload::ModuleSpec>* corpus,
                               std::function<int()> workers)
    : options_(options),
      corpus_(*corpus),
      workers_(std::move(workers)),
      persist_(!options.out_dir.empty()),
      quarantined_(corpus->size(), 0) {
  result_.options = options;
}

bool CampaignLedger::Open(TrapFile* store) {
  if (options_.resume && !persist_) {
    result_.error = "resume requires an output directory (out_dir)";
    return false;
  }
  if (!persist_) {
    return true;
  }
  std::filesystem::create_directories(options_.out_dir);
  result_.trap_path =
      (std::filesystem::path(options_.out_dir) / "traps.tsvd").string();

  // The journal's identity stamp: resume refuses a ledger written under a
  // different (detector, seed, corpus, scale) — the replayed outcomes would not
  // match what this campaign would have produced.
  const JournalHeader header = MakeJournalHeader(options_, corpus_.size());
  const std::string journal_path = CampaignJournal::PathIn(options_.out_dir);
  result_.journal_path = journal_path;
  bool fresh = true;
  if (options_.resume) {
    ResumePlan plan;
    if (!LoadResumePlan(options_.out_dir, header, corpus_.size(),
                        options_.stop_when_converged, &plan)) {
      result_.error = plan.error;
      return false;
    }
    if (!plan.fresh) {
      fresh = false;
      result_.rounds = plan.completed_rounds;
      result_.resumed_rounds = static_cast<int>(plan.completed_rounds.size());
      result_.resumed_runs = plan.resumed_runs;
      start_round_ = plan.start_round;
      already_done_ = plan.already_done;
      result_.converged = plan.converged;
      last_snapshot_mark_ =
          ApplyResumePlan(&plan, corpus_, &mgr_, store, &quarantined_,
                          &result_.outcomes, &result_.false_positives);
      pending_ = std::move(plan.pending);
    }
  }
  if (!journal_.Open(journal_path, header, /*truncate=*/fresh,
                     /*fsync=*/DurableFileSyncEnabled())) {
    result_.error = "failed to open campaign journal at " + journal_path;
    if (journal_.last_errno() != 0) {
      result_.error += ": " + std::string(std::strerror(journal_.last_errno()));
    }
    return false;
  }
  journal_.set_replayed_run_records(result_.resumed_runs);
  return true;
}

std::vector<RunOutcome> CampaignLedger::TakeReplayed(int round) {
  if (round != start_round_) {
    return {};
  }
  return std::exchange(pending_, {});
}

void CampaignLedger::AppendRun(const RunOutcome& outcome) {
  if (!journal_.is_open()) {
    return;  // not persisting, failed closed, or finished
  }
  bool appended;
  if (outcome.module.empty()) {
    RunOutcome record = outcome;
    BackfillModuleName(corpus_, &record);
    appended = journal_.AppendRun(record);
  } else {
    appended = journal_.AppendRun(outcome);
  }
  if (!appended) {
    // The journal fail-closed (journal.cc retried once on a fresh handle
    // first). The run itself still counts — only its replay record is gone.
    ApplyStorageErrno(journal_.last_errno());
  }
}

void CampaignLedger::AppendEvent(const std::string& kind,
                                 const std::string& detail) {
  journal_.AppendEvent(kind, detail);
}

// Storage degradation (DESIGN.md §15), errno-directed. ENOSPC on any durable
// write arms storage_drain_, which StopRequested turns into the same graceful
// drain a SIGINT produces: in-flight runs finish, a partial report is flushed,
// and the result ends disk_full. Any other journal failure (EIO) arms
// journal_lost_: the ledger is fail-closed but the campaign keeps running
// journal-less, stamping its reports "durability": "degraded".
void CampaignLedger::ApplyStorageErrno(int err) {
  if (err == ENOSPC) {
    storage_drain_.store(true, std::memory_order_relaxed);
  } else {
    journal_lost_.store(true, std::memory_order_relaxed);
  }
}

bool CampaignLedger::StopRequested() const {
  return storage_drain_.load(std::memory_order_relaxed) ||
         (options_.interrupt && options_.interrupt());
}

bool CampaignLedger::StopBeforeRound() {
  if (StopRequested()) {
    result_.interrupted = true;
    return true;
  }
  return false;
}

RoundStats CampaignLedger::IngestRound(int round, Micros wall_us, bool drained,
                                       std::vector<RunOutcome> outcomes,
                                       TrapFile* traps) {
  RoundStats stats;
  stats.round = round;
  stats.wall_us = wall_us;
  stats.interrupted = drained;
  // Module order — the same ingestion order as an uninterrupted single-process
  // round, so every artifact is deterministic for a given seed regardless of
  // scheduling, agents, or where a crash split the round.
  std::stable_sort(outcomes.begin(), outcomes.end(),
                   [](const RunOutcome& a, const RunOutcome& b) {
                     return a.module_index < b.module_index;
                   });
  for (RunOutcome& outcome : outcomes) {
    ++stats.runs;
    BackfillModuleName(corpus_, &outcome);
    if (outcome.status == RunStatus::kCrashed) {
      ++stats.crashed;
      if (outcome.killed_by_signal != 0) {
        ++stats.killed_by_signal;
      }
    }
    if (outcome.status == RunStatus::kTimedOut) {
      ++stats.timed_out;
    }
    if (outcome.attempts > 1) {
      ++stats.retried;
    }
    if (outcome.quarantined) {
      ++stats.quarantined;
      if (outcome.module_index >= 0 &&
          outcome.module_index < static_cast<int>(quarantined_.size())) {
        quarantined_[outcome.module_index] = 1;
      }
    }
    stats.delays_injected += outcome.delays_injected;
    stats.delays_early_woken += outcome.delays_early_woken;
    stats.delays_aborted_stall += outcome.delays_aborted_stall;
    stats.delays_skipped_budget += outcome.delays_skipped_budget;
    if (outcome.runtime_disabled) {
      ++stats.runtime_disabled;
    }
    stats.retrapped_imported += outcome.retrapped_imported;
    result_.false_positives += outcome.false_positives;
    for (const BugObservation& obs : outcome.observations) {
      if (mgr_.Ingest(obs)) {
        ++stats.new_unique_bugs;
      }
    }
    traps->Merge(outcome.traps);
    result_.outcomes.push_back(std::move(outcome));
  }
  return stats;
}

bool CampaignLedger::CommitRound(RoundStats stats, size_t store_size,
                                 const TrapFile& store) {
  stats.trap_pairs_after = store_size;
  result_.rounds.push_back(stats);
  if (stats.interrupted) {
    // The round is uncommitted: no trap-store save, no round record, no
    // snapshot. The ledger's run records cover exactly the runs that finished
    // before the drain; a resumed campaign executes the rest with the same
    // imported trap snapshot and recomputes this round's stats in full.
    result_.interrupted = true;
    return true;
  }

  bool trap_store_committed = true;
  if (persist_) {
    int save_err = 0;
    if (!store.SaveTo(result_.trap_path, &save_err)) {
      trap_store_committed = false;
      result_.trap_path.clear();
      if (save_err == ENOSPC) {
        storage_drain_.store(true, std::memory_order_relaxed);
      }
    }
  }
  if (journal_.is_open() && trap_store_committed) {
    // Commit the round — strictly after the trap store hit disk, so a round
    // record always implies traps.tsvd reflects that round. When the trap
    // save failed the round record is withheld: resume re-executes the round
    // rather than trusting a store that never landed.
    if (!journal_.AppendRoundComplete(stats, mgr_.UniqueBugCount())) {
      ApplyStorageErrno(journal_.last_errno());
    }
    if (journal_.is_open() && options_.journal_snapshot_every > 0 &&
        journal_.run_records() - last_snapshot_mark_ >=
            static_cast<uint64_t>(options_.journal_snapshot_every)) {
      int snap_err = 0;
      if (SaveBugMgrSnapshot(CampaignJournal::SnapshotPathIn(options_.out_dir),
                             mgr_, journal_.run_records(),
                             DurableFileSyncEnabled(), &snap_err)) {
        last_snapshot_mark_ = journal_.run_records();
      } else if (snap_err == ENOSPC) {
        storage_drain_.store(true, std::memory_order_relaxed);
      }
    }
  }
  if (options_.stop_when_converged && stats.new_unique_bugs == 0) {
    result_.converged = true;
  }
  FlushReports();
  return result_.converged;
}

CampaignResult CampaignLedger::Finish(TrapFile store) {
  result_.bugs = mgr_.Bugs();
  result_.merged_traps = std::move(store);
  if (storage_drain_.load(std::memory_order_relaxed)) {
    // Disk-full drain: the campaign is cut short like a signal drain, plus the
    // distinct disk_full marker the CLIs map to their own exit code.
    result_.disk_full = true;
    result_.interrupted = true;
  }
  if (journal_.is_open() && !result_.interrupted && !already_done_ &&
      result_.error.empty()) {
    if (!journal_.AppendCampaignComplete(result_.converged)) {
      ApplyStorageErrno(journal_.last_errno());
      result_.disk_full =
          result_.disk_full || storage_drain_.load(std::memory_order_relaxed);
    }
  }
  result_.journal_degraded = journal_lost_.load(std::memory_order_relaxed);
  journal_.Close();
  FlushReports();
  return std::move(result_);
}

// Sinks flush after every committed round and once more at the end:
// campaign.json and campaign.sarif always reflect the last committed state,
// stamped "interrupted": true when a drain cut the campaign short.
void CampaignLedger::FlushReports() {
  if (!persist_) {
    return;
  }
  CampaignMeta meta;
  meta.detector = options_.detector;
  meta.num_modules = static_cast<int>(corpus_.size());
  meta.workers = workers_();
  meta.rounds_requested = options_.rounds > 0 ? options_.rounds : 1;
  meta.rounds_executed = static_cast<int>(result_.rounds.size());
  meta.converged = result_.converged;
  meta.interrupted = result_.interrupted;
  meta.sandbox = options_.sandbox.enabled && sandbox::ForkSupported();
  meta.scale = options_.scale;
  meta.seed = options_.seed;
  meta.durability =
      journal_lost_.load(std::memory_order_relaxed) ? "degraded" : "ok";
  if (const io::ChaosFs* chaos = io::InstalledChaosFs()) {
    meta.storage_faults = chaos->stats().Classes();
  }
  const std::filesystem::path dir(options_.out_dir);
  const std::string json_path = (dir / "campaign.json").string();
  const std::string sarif_path = (dir / "campaign.sarif").string();
  const std::vector<BugReportMgr::UniqueBug> bugs = mgr_.Bugs();
  int sink_err = 0;
  if (WriteFileAtomic(json_path,
                      RenderJson(meta, result_.rounds, bugs, result_.outcomes),
                      &sink_err)) {
    result_.json_path = json_path;
  } else if (sink_err == ENOSPC) {
    storage_drain_.store(true, std::memory_order_relaxed);
  }
  if (WriteFileAtomic(sarif_path, RenderSarif(meta, bugs, result_.outcomes),
                      &sink_err)) {
    result_.sarif_path = sarif_path;
  } else if (sink_err == ENOSPC) {
    storage_drain_.store(true, std::memory_order_relaxed);
  }
}

}  // namespace tsvd::campaign
