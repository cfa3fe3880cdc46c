// Shared campaign execution core: everything both the single-process orchestrator
// (RunCampaign) and the distributed fleet (src/fleet/) must do IDENTICALLY.
//
// The fleet's convergence contract — a 4-agent campaign with identical per-round
// salts reports the exact same unique-bug set as tsvd_campaign single-process, even
// when an agent is SIGKILLed mid-round — only holds if every process derives the
// corpus, the delay-engine config, the per-round salt, and the per-run execution
// (including the sandbox fork, checkpointing, and delay degradation) from one code
// path. This header is that path, factored out of campaign.cc so coordinator and
// agents cannot drift from the orchestrator.
#ifndef SRC_CAMPAIGN_RUN_EXECUTOR_H_
#define SRC_CAMPAIGN_RUN_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/journal.h"
#include "src/common/config.h"
#include "src/workload/module.h"
#include "src/workload/runner.h"

namespace tsvd::tasks {
class ThreadPool;
}  // namespace tsvd::tasks

namespace tsvd::campaign {

// The campaign corpus plus per-module fault tags ("" for generated modules,
// "crash" | "hang" | "throw" | "deadlock" for appended fault-injection modules).
// Fault modules ride at the end so their indices never shift the generated
// modules' seeds — the invariant both builders and the --list-modules inventory
// rely on.
struct CampaignCorpus {
  std::vector<workload::ModuleSpec> modules;
  std::vector<std::string> fault_kinds;  // parallel to `modules`
};

// Deterministic corpus for a campaign identity (seed, num_modules, fractions,
// fault counts). Every process of a fleet builds the same corpus from the same
// options.
CampaignCorpus BuildCampaignCorpus(const CampaignOptions& options);

// The scaled delay-engine config with the options' overrides applied.
Config BuildRunConfig(const CampaignOptions& options);

// The per-run workload salt. Depends only on (campaign seed, round): same-seed
// campaigns replay the same randomness per round no matter which worker, agent,
// or process executes the job, or in what order.
uint64_t RoundSalt(uint64_t campaign_seed, int round);

// The journal identity stamp for a campaign over `corpus_size` modules (fault
// modules included). Fleet coordinators write the same header as RunCampaign, so
// either tool can resume the other's journal.
JournalHeader MakeJournalHeader(const CampaignOptions& options, size_t corpus_size);

// Executes one (module, round) attempt exactly as a campaign worker would:
// in-process on the caller's private pool, or — when the options enable the
// sandbox and the platform can fork — in a forked child under the watchdog, with
// atomic trap checkpoints salvaged on crash. Stateless across calls; safe to use
// from any number of threads concurrently.
class RunExecutor {
 public:
  // `corpus` must outlive the executor. `checkpoint_dir` is the scratch directory
  // for sandbox children's atomic trap checkpoints (unused in-process).
  RunExecutor(const CampaignOptions& options,
              const std::vector<workload::ModuleSpec>* corpus,
              std::string checkpoint_dir);

  // True when runs fork: options.sandbox.enabled on a platform with fork().
  bool sandboxed() const { return sandboxed_; }
  const Config& config() const { return config_; }

  // One attempt. `imported` is the round's fleet trap-store snapshot; `pool`
  // routes the in-process run's tasks (null = process-global pool; sandbox mode
  // ignores it — the child builds its own).
  RunOutcome Execute(const RunJob& job, const TrapFile& imported,
                     tasks::ThreadPool* pool) const;

 private:
  RunOutcome ExecuteInProcess(const RunJob& job, const TrapFile& imported,
                              tasks::ThreadPool* pool) const;
  RunOutcome ExecuteForked(const RunJob& job, const TrapFile& imported) const;

  CampaignOptions options_;
  const std::vector<workload::ModuleSpec>* corpus_;
  workload::DetectorFactory factory_;
  Config config_;
  std::string checkpoint_dir_;
  bool sandboxed_;
};

// Retry shape for one job. backoff_base_ms 0 retries immediately; otherwise the
// n-th retry waits backoff_base_ms * 2^(n-1) ms, capped at backoff_cap_ms.
struct RetryPolicy {
  int max_attempts = 2;
  int backoff_base_ms = 0;
  int backoff_cap_ms = 2'000;
};

// One attempt of a job: RunExecutor::Execute with the round's snapshot bound in.
using AttemptFn = std::function<RunOutcome(const RunJob& job)>;

// The campaign's retry ladder — the only one; every run of a campaign or a fleet
// goes through it (on an agent's lease loop). An attempt that throws — any
// exception, standard or not — or returns a non-kOk outcome (a sandboxed child
// that crashed or hit its watchdog) is retried up to policy.max_attempts times,
// sleeping out the backoff in between; a timed-out attempt retries one step down
// the delay-degradation ladder. Every failed attempt's error is recorded, trap
// pairs salvaged from failed attempts carry into the final outcome, and a job
// that exhausts its attempts comes back quarantined, never dropped.
//
// `interrupt` (may be empty) is polled between attempts and during the backoff:
// once true, a failed attempt is returned as is — neither retried nor
// quarantined — so a drained campaign re-runs the job fresh on resume.
RunOutcome ExecuteWithRetries(RunJob job, const AttemptFn& attempt,
                              const RetryPolicy& policy,
                              const std::function<bool()>& interrupt);

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_RUN_EXECUTOR_H_
