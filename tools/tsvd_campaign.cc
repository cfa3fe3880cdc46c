// tsvd_campaign: fleet-scale campaign runner — the CLI form of the cloud service the
// paper deployed over ~1,600 projects (Sections 2.1, 5.1). Schedules the synthetic
// corpus through rounds of parallel runs, carries merged trap files forward between
// rounds, and emits the unified JSON/SARIF artifact trail. With --sandbox, every run
// executes in a forked child under a watchdog, so crashing or hanging modules cost a
// run, never the campaign.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/json.h"
#include "src/campaign/run_executor.h"
#include "src/io/chaos_fs.h"
#include "src/sandbox/sandbox.h"
#include "src/tasks/thread_pool.h"
#include "tools/campaign_flags.h"
#include "tools/flag_parser.h"

namespace {

// Graceful-stop contract: the handler only records the signal; the campaign's
// interrupt poll observes it between runs, drains in-flight work, flushes the
// journal and partial artifacts, and returns normally. A second signal while
// draining falls through to the default disposition (immediate death) — the
// journal is fsync'd per run, so even that loses nothing committed.
std::atomic<int> g_stop_signal{0};

void HandleStopSignal(int signal) {
  g_stop_signal.store(signal, std::memory_order_relaxed);
  std::signal(signal, SIG_DFL);
}

void InstallStopHandlers() {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
}

constexpr const char kUsage[] =
    R"(tsvd_campaign: run a multi-round TSVD campaign over the synthetic corpus.

Usage: tsvd_campaign [--flag=value ...]

  --workers=N      parallel campaign workers, each with its own task pool (default 4)
  --rounds=N       max rounds; a round with no new unique bugs stops early (default 3)
  --modules=N      corpus size (default 40)
  --detector=NAME  TSVD | TSVDHB | DynamicRandom | DataCollider (default TSVD)
  --scale=F        time scale vs. paper defaults, (0, 1] (default 0.02 = 2ms delays)
  --seed=N         corpus + detector seed (default 42)
  --no-converge    run all rounds even if a round finds no new unique bugs
  --out=DIR        artifact directory: traps.tsvd, campaign.json, campaign.sarif,
                   journal.tsvdj (default "campaign-out"; --out= disables persistence)

 crash consistency (see DESIGN.md §11):
  --resume         replay DIR/journal.tsvdj and continue from the first unfinished
                   run; completed runs are never re-executed, and the resumed
                   campaign converges to the same unique-bug set as an
                   uninterrupted one. A missing journal starts fresh; one written
                   under a different seed/corpus/detector/scale is refused.
  --journal_snapshot_every=N  snapshot dedup state to DIR/bugmgr.snap.json at the
                   first round boundary after every N journaled runs, so resume
                   replays only the journal tail (default 64; 0 disables)
  SIGINT/SIGTERM   graceful drain: no new run starts, in-flight runs finish (a
                   failed one is not retried), the journal and partial reports
                   ("interrupted": true) are flushed, and the tool exits 0;
                   rerun with --resume

 storage faults (see DESIGN.md §15):
  --io_chaos=SPEC  deterministic storage-fault injection on every durable write
                   (journal, trap store, reports, snapshots). SPEC is comma-
                   separated key=value: seed=N, enospc=P, eio=P, short_write=P,
                   fsync_fail=P, rename_fail=P, after=N (exempt first N ops),
                   max_faults=N, crash_at=N (SIGKILL self at op N),
                   path=SUBSTR (fault only matching paths). Same seed =>
                   identical fault sequence. Injected fault counts are printed
                   in the run summary and recorded in campaign.json.
  disk full        ENOSPC on any durable write drains gracefully like a signal
                   (partial reports flushed, exit 5; rerun with --resume)
  journal EIO      any other journal failure drops to journal-less degraded
                   mode: the campaign completes, reports are stamped
                   "durability": "degraded", but it cannot be resumed

 process sandbox (POSIX only; elsewhere runs stay in-process):
  --sandbox            fork one child per run; a crash or hang kills the child only
  --run_timeout_ms=N   per-attempt watchdog deadline, SIGKILL on expiry; 0 disables
                       (default 30000)
  --max_attempts=N     attempts per run before quarantine (alias --retries; default 2)
  --backoff_ms=N       base retry backoff, doubling per attempt (default 50)

 fault injection (exercises the sandbox; pair with --sandbox):
  --fault-crash=N      append N modules whose last test SIGSEGVs (default 0)
  --fault-hang=N       append N modules whose last test outlives any deadline (default 0)
  --fault-throw=N      append N modules whose last test throws a non-std value (default 0)
  --fault-deadlock=N   append N modules that delay while holding a lock a peer needs;
                       the progress sentinel must unstall them in-process (default 0)

 delay engine (defaults derive from --scale; see src/core/delay_engine.h):
  --delay_ms=N           override the injected delay length
  --stall_grace_ms=N     progress-sentinel grace period; 0 disables the sentinel
  --max_overhead_pct=F   skip new delays when injected delay exceeds F%% of run time
  --max_internal_errors=N  internal faults absorbed before instrumentation
                       self-disables for the rest of the run (fail-open)

 module inventory:
  --list-modules   print the campaign's module inventory (per module: name, test
                   count, buggy tests, workload archetypes, fault flag) instead of
                   running; honors --modules/--seed/--fault-* so the listing shows
                   exactly the corpus those flags would run
  --json           with --list-modules, emit machine-readable JSON (the fleet
                   coordinator's job source)

  --help           this text

 exit codes: 0 success (including a graceful signal drain), 2 usage or fatal
             error, 5 disk-full drain (ENOSPC; journal consistent, --resume
             continues once space is freed)
)";

// The --list-modules inventory. Archetypes are the distinct workload pattern names
// of the module's tests, in test order; the fault kind is "" for generated modules
// and crash|hang|throw|deadlock for appended fault-injection modules.
int ListModules(const tsvd::campaign::CampaignOptions& options, bool as_json) {
  using tsvd::campaign::Json;
  const tsvd::campaign::CampaignCorpus corpus =
      tsvd::campaign::BuildCampaignCorpus(options);

  if (as_json) {
    Json doc = Json::MakeObject();
    doc.Set("detector", options.detector);
    doc.Set("seed", options.seed);
    doc.Set("num_modules", static_cast<int64_t>(corpus.modules.size()));
    Json modules = Json::MakeArray();
    for (size_t i = 0; i < corpus.modules.size(); ++i) {
      const auto& spec = corpus.modules[i];
      Json m = Json::MakeObject();
      m.Set("index", static_cast<int64_t>(i));
      m.Set("name", spec.name);
      m.Set("seed", spec.seed);
      m.Set("tests", static_cast<int64_t>(spec.tests.size()));
      int buggy = 0;
      Json archetypes = Json::MakeArray();
      std::vector<std::string> seen;
      for (const auto& test : spec.tests) {
        if (test.buggy) {
          ++buggy;
        }
        bool duplicate = false;
        for (const std::string& s : seen) {
          if (s == test.name) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          seen.push_back(test.name);
          archetypes.Push(test.name);
        }
      }
      m.Set("buggy_tests", buggy);
      m.Set("archetypes", std::move(archetypes));
      m.Set("fault", corpus.fault_kinds[i]);
      modules.Push(std::move(m));
    }
    doc.Set("modules", std::move(modules));
    std::printf("%s\n", doc.Dump(2).c_str());
    return 0;
  }

  std::printf(" index  name              tests  buggy  fault     archetypes\n");
  for (size_t i = 0; i < corpus.modules.size(); ++i) {
    const auto& spec = corpus.modules[i];
    int buggy = 0;
    std::string archetypes;
    std::vector<std::string> seen;
    for (const auto& test : spec.tests) {
      if (test.buggy) {
        ++buggy;
      }
      bool duplicate = false;
      for (const std::string& s : seen) {
        if (s == test.name) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        seen.push_back(test.name);
        if (!archetypes.empty()) {
          archetypes += ", ";
        }
        archetypes += test.name;
      }
    }
    std::printf(" %5zu  %-16s %6zu %6d  %-8s  %s\n", i, spec.name.c_str(),
                spec.tests.size(), buggy,
                corpus.fault_kinds[i].empty() ? "-" : corpus.fault_kinds[i].c_str(),
                archetypes.c_str());
  }
  std::printf(" %zu module(s)\n", corpus.modules.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tsvd;

  tools::FlagParser flags(argc, argv);
  if (flags.Has("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  campaign::CampaignOptions options = tools::ParseCampaignFlags(flags);
  options.workers = static_cast<int>(flags.GetInt("workers", 4, 1, 256));
  options.out_dir = flags.GetString("out", "campaign-out");
  options.resume = flags.GetBool("resume", false);
  const bool list_modules = flags.GetBool("list-modules", false);
  const bool list_json = flags.GetBool("json", false);
  const std::string io_chaos = flags.GetString("io_chaos", "");
  flags.RejectUnknown();
  if (!flags.ok()) {
    std::fprintf(stderr, "tsvd_campaign: %s\nTry --help.\n", flags.error().c_str());
    return 2;
  }
  std::string chaos_error;
  const std::unique_ptr<io::ChaosFs> chaos =
      io::InstallChaosFsFromSpec(io_chaos, /*salt=*/0, &chaos_error);
  if (!chaos_error.empty()) {
    std::fprintf(stderr, "tsvd_campaign: %s\nTry --help.\n", chaos_error.c_str());
    return 2;
  }
  if (list_modules) {
    return ListModules(options, list_json);
  }
  if (options.sandbox.enabled && !sandbox::ForkSupported()) {
    std::fprintf(stderr,
                 "tsvd_campaign: --sandbox needs fork(); running in-process.\n");
  }
  if (options.resume && options.out_dir.empty()) {
    std::fprintf(stderr, "tsvd_campaign: --resume requires --out=DIR\nTry --help.\n");
    return 2;
  }

  InstallStopHandlers();
  options.interrupt = [] {
    return g_stop_signal.load(std::memory_order_relaxed) != 0;
  };

  std::printf(
      "tsvd_campaign: %s, %d modules, %d worker(s), up to %d round(s), "
      "scale %.3f, seed %llu%s%s\n",
      options.detector.c_str(), options.num_modules, options.workers, options.rounds,
      options.scale, static_cast<unsigned long long>(options.seed),
      options.sandbox.enabled && sandbox::ForkSupported() ? ", sandboxed" : "",
      options.resume ? ", resuming" : "");

  const campaign::CampaignResult result = campaign::RunCampaign(options);
  if (!result.error.empty()) {
    std::fprintf(stderr, "tsvd_campaign: %s\n", result.error.c_str());
    return 2;
  }
  if (result.resumed_runs > 0) {
    std::printf(
        " resumed: %llu run record(s) across %d completed round(s) replayed from "
        "the journal%s\n",
        static_cast<unsigned long long>(result.resumed_runs), result.resumed_rounds,
        result.salvaged_checkpoints > 0 ? ", stale checkpoints salvaged" : "");
  }

  std::printf(
      "\n round  runs  crash  t/out  signal  retry  quar  new-bugs  retrapped  "
      "traps  wall\n");
  for (const campaign::RoundStats& stats : result.rounds) {
    std::printf(" %5d %5d %6d %6d %7d %6d %5d %9llu %10llu %6zu  %.2fs\n",
                stats.round, stats.runs, stats.crashed, stats.timed_out,
                stats.killed_by_signal, stats.retried, stats.quarantined,
                static_cast<unsigned long long>(stats.new_unique_bugs),
                static_cast<unsigned long long>(stats.retrapped_imported),
                stats.trap_pairs_after, static_cast<double>(stats.wall_us) / 1e6);
  }
  if (result.converged) {
    std::printf(" converged after %zu round(s)\n", result.rounds.size());
  }

  std::printf("\nunique bugs: %llu   runs executed: %llu   false positives: %d\n",
              static_cast<unsigned long long>(result.UniqueBugCount()),
              static_cast<unsigned long long>(result.RunsExecuted()),
              result.false_positives);

  unsigned long long early = 0, aborted = 0, skipped = 0;
  int disabled = 0;
  for (const campaign::RoundStats& stats : result.rounds) {
    early += stats.delays_early_woken;
    aborted += stats.delays_aborted_stall;
    skipped += stats.delays_skipped_budget;
    disabled += stats.runtime_disabled;
  }
  if (early + aborted + skipped > 0 || disabled > 0) {
    std::printf(
        "delay engine: %llu early-woken, %llu aborted by sentinel, "
        "%llu skipped by budget, %d run(s) fail-open disabled\n",
        early, aborted, skipped, disabled);
  }

  int printed = 0;
  for (const auto& bug : result.bugs) {
    if (printed++ == 8) {
      std::printf("  ... and %zu more\n", result.bugs.size() - 8);
      break;
    }
    std::printf("  [round %d, %llux] %s  <->  %s\n", bug.first_round,
                static_cast<unsigned long long>(bug.occurrences),
                bug.sig_first.c_str(), bug.sig_second.c_str());
  }

  // Failure forensics: every run that crashed, timed out, or needed a retry.
  printed = 0;
  for (const campaign::RunOutcome& outcome : result.outcomes) {
    if (outcome.status == campaign::RunStatus::kOk && outcome.attempts <= 1) {
      continue;
    }
    if (printed++ == 0) {
      std::printf("\nrun failures:\n");
    }
    std::printf("  [round %d] %s: %s after %d attempt(s)%s%s%s\n", outcome.round,
                outcome.module.c_str(),
                outcome.status == campaign::RunStatus::kOk          ? "recovered"
                : outcome.status == campaign::RunStatus::kTimedOut  ? "timed out"
                                                                    : "crashed",
                outcome.attempts, outcome.quarantined ? ", quarantined" : "",
                outcome.crash_signature.empty() ? "" : " — ",
                outcome.crash_signature.c_str());
  }

  if (!result.trap_path.empty()) {
    std::printf("\nartifacts:\n  %s\n  %s\n  %s\n", result.trap_path.c_str(),
                result.json_path.c_str(), result.sarif_path.c_str());
    if (!result.journal_path.empty()) {
      std::printf("  %s\n", result.journal_path.c_str());
    }
  }
  if (chaos != nullptr) {
    // Per-class injected-fault counts, so a CI job driving a seeded schedule
    // can assert from the output that the schedule actually fired.
    const io::ChaosFsStats stats = chaos->stats();
    std::printf("\nstorage chaos: %llu op(s)",
                static_cast<unsigned long long>(stats.ops));
    for (const auto& [cls, count] : stats.Classes()) {
      std::printf(", %s=%llu", cls.c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
  if (result.journal_degraded) {
    std::fprintf(stderr,
                 "tsvd_campaign: journal write failed (I/O error); campaign "
                 "completed journal-less — reports are stamped \"durability\": "
                 "\"degraded\" and this run cannot be resumed.\n");
  }
  if (result.disk_full) {
    // The distinct disk-full verdict: consistent partial state on disk, but
    // automation must know the campaign stopped for storage, not by choice.
    std::fprintf(stderr,
                 "tsvd_campaign: output device full (ENOSPC); drained gracefully "
                 "— journal and partial reports flushed. Free space and rerun "
                 "with --resume to continue.\n");
    return 5;
  }
  if (result.interrupted) {
    // A drained campaign is a clean exit (the journal and partial reports are
    // flushed and consistent), not a failure — so automation that wraps the tool
    // does not treat a routine preemption as an error.
    std::fprintf(stderr,
                 "tsvd_campaign: interrupted by signal %d after a graceful drain; "
                 "journal and partial reports flushed — rerun with --resume to "
                 "continue.\n",
                 g_stop_signal.load(std::memory_order_relaxed));
  }
  return 0;
}
