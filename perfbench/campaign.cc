// The campaign and fleet workloads, and the traced run's probes of the
// workload, campaign, io, sandbox and fleet layers.
//
// Both workloads run the same corpus identity (seed, 64 modules, 4 rounds, TSVD,
// no early stop) as a closed loop of 4 workers: each takes the next job when its
// run ends. `campaign` is the default tsvd_campaign path in-process; `fleet`
// drives the same campaign through a coordinator and 4 agents over loopback TCP
// with every run forked into the sandbox.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/stats.h"
#include "perfbench/timing_vfs.h"
#include "perfbench/workloads.h"
#include "src/campaign/bug_report_mgr.h"
#include "src/campaign/campaign.h"
#include "src/campaign/json.h"
#include "src/campaign/run_executor.h"
#include "src/campaign/sinks.h"
#include "src/fleet/agent.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/wire.h"
#include "src/io/vfs.h"
#include "src/sandbox/outcome_codec.h"
#include "src/tasks/thread_pool.h"
#include "src/workload/runner.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tsvd::campaign::CampaignCorpus;
using tsvd::campaign::CampaignOptions;
using tsvd::campaign::CampaignResult;
using tsvd::campaign::RunOutcome;

constexpr int kModules = 256;
constexpr int kRounds = 2;
constexpr int kWorkers = 4;
constexpr int kSetupRepeats = 5;
constexpr int kBaselineModules = 64;  // modules whose uninstrumented wall is measured
constexpr int kProbeJobs = 16;        // jobs per sandbox fork-overhead probe

CampaignOptions BaseOptions(uint64_t seed) {
  CampaignOptions o;
  o.detector = "TSVD";
  o.num_modules = kModules;
  o.workers = kWorkers;
  o.rounds = kRounds;
  o.stop_when_converged = false;  // equal work in every campaign
  o.seed = seed;
  o.sandbox.enabled = false;
  return o;
}

std::vector<bool> BuggyModules(const CampaignCorpus& corpus) {
  std::vector<bool> buggy(corpus.modules.size(), false);
  for (size_t m = 0; m < corpus.modules.size(); ++m) {
    for (const auto& test : corpus.modules[m].tests) {
      buggy[m] = buggy[m] || test.buggy;
    }
  }
  return buggy;
}

CampaignCorpus BuildCorpus(const CampaignOptions& options, Tracer* tracer) {
  Span span(tracer, "workload.corpus");
  return tsvd::campaign::BuildCampaignCorpus(options);
}

// Runs fn(i, pool) for i in [0, n) on kWorkers threads, each with a private
// task pool of `pool_threads` — the parallelism a campaign runs its jobs at.
template <typename Fn>
void ForEachJob(size_t n, int pool_threads, Fn&& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      tsvd::tasks::ThreadPool pool(pool_threads);
      for (size_t i = next++; i < n; i = next++) {
        fn(i, pool);
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
}

// Uninstrumented wall (us) of the first kBaselineModules modules, kWorkers at a
// time. The other modules get 0, which Slowdown skips.
std::vector<double> MeasureBaselines(const CampaignOptions& options,
                                     const CampaignCorpus& corpus, Tracer* tracer) {
  const tsvd::Config cfg = tsvd::campaign::BuildRunConfig(options);
  const uint64_t salt = tsvd::campaign::RoundSalt(options.seed, 1);
  std::vector<double> baseline(corpus.modules.size(), 0);
  const size_t measured = std::min<size_t>(kBaselineModules, corpus.modules.size());
  ForEachJob(measured, options.pool_threads_per_worker,
             [&](size_t m, tsvd::tasks::ThreadPool& pool) {
               Span span(tracer, "workload.baseline");
               tsvd::workload::ModuleRunner runner(cfg, &pool);
               baseline[m] =
                   static_cast<double>(runner.MeasureBaseline(corpus.modules[m], salt));
             });
  return baseline;
}

// Everything the end-to-end metrics of one workload are computed from, summed
// over the campaigns of one run.
struct Tally {
  std::vector<double> setups;
  std::vector<double> rates;     // runs per second, one per campaign
  std::vector<double> run_us;    // RunOutcome::wall_us of every run
  std::vector<std::pair<int, double>> module_walls;
  std::vector<double> idle;
  std::vector<double> recall;
  std::vector<double> unique;
};

// The correctness gate over one finished campaign, plus its samples.
void Check(const CampaignResult& result, const std::vector<bool>& buggy, double wall_s,
           Tally* tally, Results* out) {
  if (!result.error.empty()) {
    out->Violation("campaign error: " + result.error);
    return;
  }
  const size_t expected = static_cast<size_t>(kModules) * kRounds;
  if (result.outcomes.size() != expected) {
    out->Violation("runs executed " + std::to_string(result.outcomes.size()) +
                   " != " + std::to_string(expected));
  }
  uint64_t failed = 0;
  std::vector<bool> found(buggy.size(), false);
  double busy_us = 0;
  for (const RunOutcome& o : result.outcomes) {
    if (o.status != tsvd::campaign::RunStatus::kOk || o.quarantined) {
      ++failed;
    }
    for (const auto& obs : o.observations) {
      if (obs.false_positive) {
        ++failed;
        out->Violation("false positive " + obs.sig_first + " x " + obs.sig_second +
                       " in " + o.module);
      } else if (o.module_index < 0 || static_cast<size_t>(o.module_index) >= buggy.size() ||
                 !buggy[o.module_index]) {
        out->Violation("pair " + obs.sig_first + " x " + obs.sig_second + " in " +
                       o.module + ", which has no planted bug");
      } else {
        found[o.module_index] = true;
      }
    }
    tally->run_us.push_back(static_cast<double>(o.wall_us));
    tally->module_walls.emplace_back(o.module_index, static_cast<double>(o.wall_us));
    busy_us += static_cast<double>(o.wall_us);
  }
  if (result.false_positives != 0) {
    out->Violation("campaign counted " + std::to_string(result.false_positives) +
                   " false positives");
  }
  const double recall = Recall(buggy, found);
  if (recall <= 0) {
    out->Violation("recall is 0: no planted bug was found");
  }
  out->Count(result.outcomes.size(), failed);
  tally->rates.push_back(static_cast<double>(result.outcomes.size()) / wall_s);
  tally->idle.push_back(IdleShare(busy_us, kWorkers, wall_s * 1e6));
  tally->recall.push_back(recall);
  tally->unique.push_back(static_cast<double>(result.UniqueBugCount()));
}

// The end-to-end metrics (and the detection figures printed beside them).
void Emit(const Tally& tally, const std::vector<double>& baseline,
          const std::string& workload, Results* out) {
  const PercentileResult p50 = Percentile(tally.run_us, 50);
  const PercentileResult p95 = Percentile(tally.run_us, 95, 10);
  if (!p95.ok) {
    out->Violation("too few runs for p95: " + std::to_string(tally.run_us.size()));
  }
  size_t ratios = 0;
  const double slowdown = Slowdown(tally.module_walls, baseline, &ratios);
  out->Add("setup_s", Median(tally.setups), "s", tally.setups.size());
  out->Add("ops_per_s", Median(tally.rates), "1/s", tally.rates.size());
  out->Add("op_p50_us", p50.value, "us", p50.samples);
  out->Add("op_tail_us", p95.value, "us", p95.samples);
  out->Add("slowdown", slowdown, "x", ratios);
  out->Add(workload + ".idle_share", Median(tally.idle), "share", tally.idle.size());
  out->Add("report.recall." + workload, Median(tally.recall), "share", tally.recall.size());
  out->Add("report.unique_bugs." + workload, Median(tally.unique), "count",
           tally.unique.size());
}

// Merge, bug-manager and sink costs replayed over one finished campaign's real
// data: the round's trap exports, every observation, the final result.
void ProbeResultLayers(const CampaignResult& result, bool sandbox, Tracer* tracer,
                       const std::string& suffix, Results* out) {
  tsvd::TrapFile merged;
  for (int round = 1; round <= kRounds; ++round) {
    Span span(tracer, "campaign.merge" + suffix);
    for (const RunOutcome& o : result.outcomes) {
      if (o.round == round) {
        merged.Merge(o.traps);
      }
    }
  }
  const std::vector<double> merge_ms = tracer->DurationsMs("campaign.merge" + suffix);
  out->Add("campaign.merge.ms" + suffix, Median(merge_ms), "ms", merge_ms.size());

  size_t observations = 0;
  {
    tsvd::campaign::BugReportMgr mgr;
    Span span(tracer, "campaign.bugmgr" + suffix);
    for (const RunOutcome& o : result.outcomes) {
      for (const auto& obs : o.observations) {
        mgr.Ingest(obs);
        ++observations;
      }
    }
  }
  const std::vector<double> ingest_ms = tracer->DurationsMs("campaign.bugmgr" + suffix);
  out->Add("campaign.bugmgr.ingest_us" + suffix,
           observations == 0 ? 0 : Median(ingest_ms) * 1000.0 / observations, "us",
           observations);

  tsvd::campaign::CampaignMeta meta;
  meta.detector = result.options.detector;
  meta.num_modules = kModules;
  meta.workers = kWorkers;
  meta.rounds_requested = kRounds;
  meta.rounds_executed = static_cast<int>(result.rounds.size());
  meta.converged = result.converged;
  meta.sandbox = sandbox;
  meta.scale = result.options.scale;
  meta.seed = result.options.seed;
  size_t bytes = 0;
  {
    Span span(tracer, "campaign.sinks" + suffix);
    bytes += tsvd::campaign::RenderJson(meta, result.rounds, result.bugs, result.outcomes)
                 .size();
    bytes += tsvd::campaign::RenderSarif(meta, result.bugs, result.outcomes).size();
  }
  const std::vector<double> sinks_ms = tracer->DurationsMs("campaign.sinks" + suffix);
  out->Add("campaign.sinks.ms" + suffix, Median(sinks_ms), "ms", sinks_ms.size());
  if (bytes == 0) {
    out->Violation("sinks rendered nothing");
  }
}

// io.* per campaign, from the timing Vfs totals.
void EmitIo(const TimingVfs& vfs, size_t campaigns, bool with_checkpoints,
            const std::string& suffix, Results* out) {
  const double n = static_cast<double>(campaigns);
  const TimingVfs::KindTotals journal = vfs.Totals(FileKind::kJournal);
  const TimingVfs::KindTotals traps = vfs.Totals(FileKind::kTrapStore);
  const TimingVfs::KindTotals reports = vfs.Totals(FileKind::kReports);
  uint64_t bytes = 0;
  for (int k = 0; k < static_cast<int>(FileKind::kCount); ++k) {
    bytes += vfs.Totals(static_cast<FileKind>(k)).bytes;
  }
  out->Add("io.journal.fsync_ms" + suffix, journal.fsync_ns / 1e6 / n, "ms", journal.fsyncs);
  out->Add("io.journal.fsyncs" + suffix, journal.fsyncs / n, "count", campaigns);
  out->Add("io.trap_store.ms" + suffix, traps.ns / 1e6 / n, "ms", traps.ops);
  out->Add("io.reports.ms" + suffix, reports.ns / 1e6 / n, "ms", reports.ops);
  if (with_checkpoints) {
    const TimingVfs::KindTotals ckpt = vfs.Totals(FileKind::kCheckpoint);
    out->Add("io.checkpoint.ms", ckpt.ns / 1e6 / n, "ms", ckpt.ops);
  }
  out->Add("io.write_bytes" + suffix, static_cast<double>(bytes) / n, "bytes", campaigns);
}

// Delay-engine and run figures from direct ModuleRunner::RunOnce calls: one
// round-1 run of each of the first kBaselineModules modules, kWorkers at a time.
void ProbeRuns(const CampaignOptions& options, const CampaignCorpus& corpus,
               Tracer* tracer, Results* out) {
  const tsvd::Config cfg = tsvd::campaign::BuildRunConfig(options);
  const auto factory = tsvd::workload::FactoryFor(options.detector);
  const uint64_t salt = tsvd::campaign::RoundSalt(options.seed, 1);
  const size_t runs = std::min<size_t>(kBaselineModules, corpus.modules.size());
  std::vector<tsvd::RunSummary> summaries(runs);
  std::vector<double> walls(runs, 0);
  const tsvd::TrapFile empty;
  ForEachJob(runs, options.pool_threads_per_worker,
             [&](size_t m, tsvd::tasks::ThreadPool& pool) {
               Span span(tracer, "workload.run");
               tsvd::workload::ModuleRunner runner(cfg, &pool);
               tsvd::workload::SingleRun run =
                   runner.RunOnce(corpus.modules[m], factory, empty, salt);
               summaries[m] = run.run.summary;
               walls[m] = static_cast<double>(run.run.wall_us);
             });
  double injected = 0, slept = 0, wall = 0, woken = 0, violations = 0;
  for (size_t m = 0; m < runs; ++m) {
    injected += static_cast<double>(summaries[m].delays_injected);
    slept += static_cast<double>(summaries[m].total_delay_us);
    woken += static_cast<double>(summaries[m].delays_early_woken);
    violations += static_cast<double>(summaries[m].reports.size());
    wall += walls[m];
  }
  out->Add("core.delay.injected_per_run", injected / runs, "count", runs);
  out->Add("core.delay.slept_share", wall > 0 ? slept / wall : 0, "share", runs);
  out->Add("core.delay.early_woken_share", injected > 0 ? woken / injected : 0, "share",
           runs);
  out->Add("core.delay.yield", injected > 0 ? violations / injected : 0, "share", runs);
  const std::vector<double> run_ms = tracer->DurationsMs("workload.run");
  out->Add("workload.run.ms", Median(run_ms), "ms", run_ms.size());
}

std::string NewDir(const Args& args, const std::string& name) {
  const fs::path dir = fs::path(args.scratch) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

double MeanOf(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// Binds loopback port 0 and reads back the kernel's pick.
int FreeTcpPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  int port = -1;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

// Waits until something accepts on 127.0.0.1:port; false after `timeout_s`.
bool WaitListening(int port, double timeout_s) {
  const auto start = Clock::now();
  while (SecondsSince(start) < timeout_s) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    const bool up =
        fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    if (fd >= 0) {
      ::close(fd);
    }
    if (up) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

struct FleetRun {
  CampaignResult result;
  tsvd::fleet::FleetStats stats;
  double join_s = 0;   // agents started until every agent joined
  double wall_s = 0;   // every agent joined until Run returned
};

// One fleet, from coordinator start until Run returns.
FleetRun RunOneFleet(const CampaignOptions& campaign, const std::string& dir,
                     Results* out) {
  FleetRun run;
  tsvd::fleet::FleetOptions options;
  options.campaign = campaign;
  options.campaign.out_dir = dir + "/out";
  const int port = FreeTcpPort();
  if (port < 0) {
    out->Violation("no free loopback tcp port");
    return run;
  }
  options.address = "tcp:127.0.0.1:" + std::to_string(port);

  const auto start = Clock::now();
  tsvd::fleet::FleetCoordinator coordinator(options);
  std::vector<std::thread> agents;
  std::vector<tsvd::fleet::AgentResult> agent_results(kWorkers);
  Clock::time_point joined = start;
  bool listening = false;
  // The launcher starts the agents once the coordinator listens, then notes when
  // the last hello has landed; Run() blocks this thread meanwhile.
  std::thread launcher([&] {
    listening = WaitListening(port, 60);
    if (!listening) {
      return;
    }
    const auto launched = Clock::now();
    for (int i = 0; i < kWorkers; ++i) {
      agents.emplace_back([&, i] {
        tsvd::fleet::AgentOptions agent;
        agent.address = options.address;
        agent.name = "agent-" + std::to_string(i);
        agent.work_dir = dir + "/" + agent.name;
        agent_results[i] = tsvd::fleet::RunAgent(agent);
      });
    }
    while (coordinator.stats().agents_joined < static_cast<uint64_t>(kWorkers) &&
           SecondsSince(launched) < 60) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    joined = Clock::now();
    run.join_s = std::chrono::duration<double>(joined - launched).count();
  });
  run.result = coordinator.Run();
  const auto end = Clock::now();
  launcher.join();
  for (std::thread& a : agents) {
    a.join();
  }
  run.stats = coordinator.stats();
  coordinator.Shutdown();
  if (!listening) {
    out->Violation("coordinator never listened on " + options.address);
  }
  for (const tsvd::fleet::AgentResult& r : agent_results) {
    if (!r.ok) {
      out->Violation("agent failed: " + r.error);
    }
  }
  run.wall_s = std::chrono::duration<double>(end - joined).count();
  return run;
}

// Sandbox cost on the same jobs: RunExecutor::Execute forked minus in-process,
// and the RunOutcome codec round trip over the fleet's real outcomes. The forked
// jobs all run before the in-process ones: a fork taken while another thread is
// inside a module run could copy a lock that thread holds into the child.
void ProbeSandbox(const Args& args, const CampaignOptions& campaign,
                  const CampaignCorpus& corpus, const CampaignResult& result,
                  Tracer* tracer, Results* out) {
  CampaignOptions forked = campaign;
  forked.sandbox.enabled = true;
  CampaignOptions in_process = campaign;
  in_process.sandbox.enabled = false;
  const std::string ckpt = NewDir(args, "probe-ckpt");
  const tsvd::campaign::RunExecutor sandboxed(forked, &corpus.modules, ckpt);
  const tsvd::campaign::RunExecutor direct(in_process, &corpus.modules, ckpt);
  const tsvd::TrapFile empty;
  std::vector<std::string> errors(kProbeJobs);
  auto timed = [&](const tsvd::campaign::RunExecutor& executor, const char* span_name) {
    std::vector<double> ms(kProbeJobs, 0);
    ForEachJob(kProbeJobs, campaign.pool_threads_per_worker,
               [&](size_t j, tsvd::tasks::ThreadPool& pool) {
                 tsvd::campaign::RunJob job;
                 job.module_index = static_cast<int>(j);
                 job.round = 1;
                 const auto t0 = Clock::now();
                 Span span(tracer, span_name);
                 // A forked run ignores the pool: the child builds its own.
                 const RunOutcome o = executor.Execute(job, empty, &pool);
                 ms[j] = SecondsSince(t0) * 1e3;
                 if (o.status != tsvd::campaign::RunStatus::kOk) {
                   errors[j] = o.error;
                 }
               });
    return ms;
  };
  const std::vector<double> forked_ms = timed(sandboxed, "sandbox.execute_forked");
  const std::vector<double> direct_ms = timed(direct, "sandbox.execute_in_process");
  std::vector<double> overhead(kProbeJobs, 0);
  for (int j = 0; j < kProbeJobs; ++j) {
    overhead[j] = forked_ms[j] - direct_ms[j];
    if (!errors[j].empty()) {
      out->Violation("sandbox probe run failed: " + errors[j]);
    }
  }
  fs::remove_all(ckpt);
  out->Add("sandbox.fork_overhead_ms", Median(overhead), "ms", overhead.size());

  size_t decoded = 0;
  for (const RunOutcome& o : result.outcomes) {
    Span span(tracer, "sandbox.codec");
    const std::string text = tsvd::sandbox::EncodeRunOutcome(o).Dump();
    tsvd::campaign::Json doc;
    RunOutcome back;
    if (tsvd::campaign::Json::Parse(text, &doc) &&
        tsvd::sandbox::DecodeRunOutcome(doc, &back) && back.wall_us == o.wall_us) {
      ++decoded;
    }
  }
  if (decoded != result.outcomes.size()) {
    out->Violation("outcome codec round trip failed on " +
                   std::to_string(result.outcomes.size() - decoded) + " outcomes");
  }
  const std::vector<double> codec_ms = tracer->DurationsMs("sandbox.codec");
  out->Add("sandbox.codec_us", Median(codec_ms) * 1000.0, "us", codec_ms.size());
}

// One frame each way over a socketpair per real result payload; half the round
// trip is the per-frame cost.
void ProbeFrames(const CampaignResult& result, Tracer* tracer, Results* out) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    out->Violation("socketpair failed");
    return;
  }
  std::thread echo([fd = fds[1]] {
    std::string payload;
    while (tsvd::fleet::wire::RecvFrame(fd, &payload) == 1 &&
           tsvd::fleet::wire::SendFrame(fd, payload)) {
    }
  });
  size_t echoed = 0;
  for (const RunOutcome& o : result.outcomes) {
    const std::string payload = tsvd::sandbox::EncodeRunOutcome(o).Dump();
    std::string back;
    Span span(tracer, "fleet.frame_round_trip");
    if (tsvd::fleet::wire::SendFrame(fds[0], payload) &&
        tsvd::fleet::wire::RecvFrame(fds[0], &back) == 1 && back == payload) {
      ++echoed;
    }
  }
  ::shutdown(fds[0], SHUT_WR);
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  if (echoed != result.outcomes.size()) {
    out->Violation("frame echo mismatch");
  }
  const std::vector<double> rt_ms = tracer->DurationsMs("fleet.frame_round_trip");
  out->Add("fleet.frame_us", Median(rt_ms) * 1000.0 / 2, "us", rt_ms.size());
}

}  // namespace

void RunCampaignWorkload(const Args& args, double budget_s, Tracer* tracer,
                         Results* out) {
  CampaignOptions options = BaseOptions(args.seed);
  Tally tally;
  CampaignCorpus corpus;
  // Set-up: the corpus, then a one-round warm-up campaign over 4 modules per worker
  // so thread pools, interned call sites and the page cache are warm.
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    corpus = BuildCorpus(options, tracer);
    CampaignOptions warm = options;
    warm.num_modules = 4 * kWorkers;
    warm.rounds = 1;
    warm.out_dir = NewDir(args, "campaign-warmup");
    tsvd::campaign::RunCampaign(warm);
    tally.setups.push_back(SecondsSince(start));
    fs::remove_all(warm.out_dir);
  }
  const std::vector<bool> buggy = BuggyModules(corpus);
  const std::vector<double> baseline = MeasureBaselines(options, corpus, tracer);

  std::unique_ptr<TimingVfs> vfs;
  std::unique_ptr<tsvd::io::ScopedVfs> installed;
  if (tracer != nullptr) {
    vfs = std::make_unique<TimingVfs>();
    installed = std::make_unique<tsvd::io::ScopedVfs>(vfs.get());
  }
  const auto start = Clock::now();
  std::vector<double> walls;
  CampaignResult last;
  while (walls.empty() || SecondsSince(start) + MeanOf(walls) <= budget_s) {
    options.out_dir = NewDir(args, "campaign-" + std::to_string(walls.size()));
    const auto t0 = Clock::now();
    CampaignResult result = [&] {
      Span span(tracer, "campaign.run");
      return tsvd::campaign::RunCampaign(options);
    }();
    walls.push_back(SecondsSince(t0));
    Check(result, buggy, walls.back(), &tally, out);
    fs::remove_all(options.out_dir);
    last = std::move(result);
  }
  installed.reset();
  Emit(tally, baseline, "campaign", out);

  if (tracer != nullptr) {
    EmitIo(*vfs, walls.size(), false, ".campaign", out);
    ProbeResultLayers(last, false, tracer, ".campaign", out);
    ProbeRuns(options, corpus, tracer, out);
    const std::vector<double> base_ms = tracer->DurationsMs("workload.baseline");
    out->Add("workload.baseline.ms", Median(base_ms), "ms", base_ms.size());
    const std::vector<double> corpus_ms = tracer->DurationsMs("workload.corpus");
    out->Add("workload.corpus.ms", Median(corpus_ms), "ms", corpus_ms.size());
  }
}

void RunFleetWorkload(const Args& args, double budget_s, Tracer* tracer, Results* out) {
  CampaignOptions campaign = BaseOptions(args.seed);
  campaign.sandbox.enabled = true;  // every run forks
  CampaignCorpus corpus = BuildCorpus(campaign, tracer);
  const std::vector<bool> buggy = BuggyModules(corpus);

  Tally tally;
  std::vector<double> joins;
  auto fleet = [&](const CampaignOptions& options, const std::string& name) {
    const std::string dir = NewDir(args, name);
    FleetRun run = [&] {
      Span span(tracer, "fleet.run");
      return RunOneFleet(options, dir, out);
    }();
    fs::remove_all(dir);
    joins.push_back(run.join_s * 1e3);
    return run;
  };
  // Set-up, as for the campaign: the corpus, then a one-round warm-up fleet over
  // 4 modules per agent — coordinator start, every hello, the first forks.
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    corpus = BuildCorpus(campaign, tracer);
    CampaignOptions warm = campaign;
    warm.num_modules = 4 * kWorkers;
    warm.rounds = 1;
    fleet(warm, "fleet-warmup");
    tally.setups.push_back(SecondsSince(start));
  }

  std::unique_ptr<TimingVfs> vfs;
  std::unique_ptr<tsvd::io::ScopedVfs> installed;
  if (tracer != nullptr) {
    vfs = std::make_unique<TimingVfs>();
    installed = std::make_unique<tsvd::io::ScopedVfs>(vfs.get());
  }
  std::vector<double> walls;
  double leases = 0;
  double runs = 0;
  uint64_t stolen = 0;
  uint64_t duplicates = 0;
  CampaignResult last;
  const auto start = Clock::now();
  while (out->violations().empty() &&
         (walls.empty() || SecondsSince(start) + MeanOf(walls) <= budget_s)) {
    FleetRun run = fleet(campaign, "fleet-" + std::to_string(walls.size()));
    walls.push_back(run.wall_s);
    Check(run.result, buggy, run.wall_s, &tally, out);
    leases += static_cast<double>(run.stats.leases_granted);
    runs += static_cast<double>(run.result.outcomes.size());
    stolen += run.stats.leases_stolen;
    duplicates += run.stats.duplicate_requests;
    last = std::move(run.result);
  }
  installed.reset();
  // Baselines last: until now no module has run in this process, so every
  // forked run started from a parent that never ran one, as an agent's does.
  const std::vector<double> baseline = MeasureBaselines(campaign, corpus, tracer);
  Emit(tally, baseline, "fleet", out);

  if (tracer != nullptr) {
    EmitIo(*vfs, walls.size(), true, ".fleet", out);
    out->Add("fleet.leases_per_run", runs > 0 ? leases / runs : 0, "count",
             static_cast<size_t>(runs));
    out->Add("fleet.leases_stolen", static_cast<double>(stolen), "count", walls.size());
    out->Add("fleet.duplicate_requests", static_cast<double>(duplicates), "count",
             walls.size());
    out->Add("fleet.join_ms", Median(joins), "ms", joins.size());
    ProbeResultLayers(last, true, tracer, ".fleet", out);
    ProbeSandbox(args, campaign, corpus, last, tracer, out);
    ProbeFrames(last, tracer, out);
  }
}

}  // namespace perfbench
