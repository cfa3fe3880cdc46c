// The hotpath_private and hotpath_shared workloads, and the traced run's
// per-stage probes of the core layer.
//
// A closed loop of kThreads threads calls Runtime::OnCall as fast as it can, each
// thread replaying a seeded access stream of kBatch calls. Each batch is timed
// with one pair of clock reads, so a per-call figure is the batch mean and the
// clock read is amortized. Raw wall time, never CPU-normalized.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/stats.h"
#include "perfbench/workloads.h"
#include "src/common/clock.h"
#include "src/common/config.h"
#include "src/common/rng.h"
#include "src/common/thread_id.h"
#include "src/core/delay_engine.h"
#include "src/core/hb_inference.h"
#include "src/core/nearmiss_tracker.h"
#include "src/core/phase_detector.h"
#include "src/core/runtime.h"
#include "src/core/trap_registry.h"
#include "src/core/trap_set.h"
#include "src/core/tsvd_detector.h"
#include "src/report/coverage.h"

namespace perfbench {
namespace {

using tsvd::Access;
using tsvd::ObjectId;
using tsvd::OpId;
using tsvd::OpKind;

constexpr int kThreads = 4;
constexpr int kBatch = 4096;
constexpr int kObjects = 16;
constexpr int kOps = 64;
constexpr int kWarmBatches = 16;   // untimed, per thread, before every loop
constexpr int kStageBatches = 96;  // timed batches per thread per stage probe
constexpr double kTrialSeconds = 1.0;  // a fresh runtime per trial

struct Call {
  ObjectId obj;
  OpId op;
  OpKind kind;
};

// One thread's access stream of kBatch calls. As in real code, each op id (a
// call site) always touches the same object and is always a read or always a
// write: the seed binds the kOps op ids to the kObjects objects (the thread's
// own or the shared pool) and makes one in four of them writes. The thread
// then calls seeded-random op ids.
std::vector<Call> MakeStream(uint64_t seed, int thread, bool shared) {
  tsvd::Rng binding(seed * 0x9e3779b97f4a7c15ULL + 0x51ed);
  // Object ids are pointer-shaped (64-byte spaced), as real ObjectIdOf values are.
  const ObjectId base = 0x7f3a00100000ULL + (shared ? 0 : 0x10000ULL * (thread + 1));
  std::vector<Call> sites(kOps);
  for (int op = 0; op < kOps; ++op) {
    sites[op].obj = base + 64 * binding.NextBelow(kObjects);
    sites[op].op = static_cast<OpId>(1 + op);
    sites[op].kind = op % 4 == 0 ? OpKind::kWrite : OpKind::kRead;
  }
  tsvd::Rng order(seed * 0x9e3779b97f4a7c15ULL + 0x7a11 + static_cast<uint64_t>(thread));
  std::vector<Call> stream(kBatch);
  for (Call& c : stream) {
    c = sites[order.NextBelow(kOps)];
  }
  return stream;
}

tsvd::Config HotpathConfig(uint64_t seed) {
  tsvd::Config cfg;
  cfg.delay_us = 0;  // decide, never park: the pure per-call cost
  cfg.seed = seed;
  return cfg;
}

struct LoopResult {
  std::vector<double> batch_ns;  // per-call ns, one sample per batch
  uint64_t calls = 0;            // timed calls
  uint64_t issued = 0;           // every call, warm-up included
  double wall_s = 0;
  double setup_s = 0;
  tsvd::RunSummary summary;
};

void SpinUntil(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

// The workload loop: a fresh Runtime, `threads` closed-loop callers, `seconds`
// of timed batches. Set-up covers Runtime construction, thread start and the
// warm-up batches.
LoopResult RunOnCallLoop(const std::vector<std::vector<Call>>& streams, int threads,
                         double seconds, uint64_t seed, Tracer* tracer,
                         const std::string& span_name) {
  LoopResult out;
  const auto setup_start = Clock::now();
  const tsvd::Config cfg = HotpathConfig(seed);
  tsvd::Runtime rt(cfg, std::make_unique<tsvd::TsvdDetector>(cfg));

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> samples(threads);
  std::vector<uint64_t> calls(threads, 0);
  std::vector<Clock::time_point> ends(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<Call>& s = streams[t];
      std::vector<Tracer::SpanRecord> spans;
      for (int b = 0; b < kWarmBatches; ++b) {
        for (const Call& c : s) {
          rt.OnCall(c.obj, c.op, c.kind);
        }
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
      SpinUntil(go);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto t0 = Clock::now();
        for (const Call& c : s) {
          rt.OnCall(c.obj, c.op, c.kind);
        }
        const auto t1 = Clock::now();
        samples[t].push_back(
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
            kBatch);
        calls[t] += kBatch;
        if (tracer != nullptr) {
          spans.push_back(tracer->Make(span_name, t0, t1, tracer->NewId()));
        }
      }
      ends[t] = Clock::now();
      if (tracer != nullptr) {
        tracer->AddAll(std::move(spans));
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  out.setup_s = SecondsSince(setup_start);
  const auto go_time = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) {
    w.join();
  }
  Clock::time_point last = go_time;
  for (int t = 0; t < threads; ++t) {
    last = std::max(last, ends[t]);
    out.calls += calls[t];
    out.batch_ns.insert(out.batch_ns.end(), samples[t].begin(), samples[t].end());
  }
  out.issued = out.calls + static_cast<uint64_t>(threads) * kWarmBatches * kBatch;
  out.wall_s = std::chrono::duration<double>(last - go_time).count();
  out.summary = rt.Summary();
  return out;
}

// Folds one loop's runtime summary into the correctness gate and the counts.
void CheckLoop(const LoopResult& loop, Results* out) {
  const tsvd::RunSummary& s = loop.summary;
  if (s.oncall_count != loop.issued) {
    out->Violation("oncall_count " + std::to_string(s.oncall_count) + " != calls issued " +
                   std::to_string(loop.issued));
  }
  if (s.internal_errors != 0) {
    out->Violation("internal_errors = " + std::to_string(s.internal_errors));
  }
  if (s.runtime_disabled) {
    out->Violation("runtime disabled itself");
  }
  out->Count(loop.issued, s.internal_errors + (s.runtime_disabled ? 1 : 0));
}

struct StageResult {
  PercentileResult ns;       // per-call ns over the timed batches
  uint64_t timed_sum = 0;    // sum of `call`'s return values over timed calls
  uint64_t timed_calls = 0;
};

// Standalone timing of one core stage at `streams.size()` threads over the same
// streams: `call(thread, index, access)` runs once per access, batch-timed;
// `prepare(thread, batch)` runs untimed before each batch. Every timed batch
// becomes a span named `name`, and the per-call figure comes from those spans.
template <typename Prepare, typename CallFn>
StageResult StageProbe(const std::vector<std::vector<Call>>& streams, Tracer* tracer,
                       const std::string& name, Prepare&& prepare, CallFn&& call) {
  const int threads = static_cast<int>(streams.size());
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> timed_sum{0};
  std::atomic<uint64_t> untimed_sum{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<Access> batch(kBatch);
      const tsvd::ThreadId tid = tsvd::CurrentThreadId();
      for (int j = 0; j < kBatch; ++j) {
        batch[j].tid = tid;
        batch[j].obj = streams[t][j].obj;
        batch[j].op = streams[t][j].op;
        batch[j].kind = streams[t][j].kind;
        batch[j].concurrent_phase = threads > 1;
      }
      std::vector<Tracer::SpanRecord> spans;
      // One clock read per batch stands in for the runtime's one read per call.
      auto run_batch = [&](bool timed) -> uint64_t {
        const tsvd::Micros now = tsvd::NowMicros();
        for (Access& a : batch) {
          a.time = now;
        }
        prepare(t, batch);
        const auto t0 = Clock::now();
        uint64_t sum = 0;
        for (int j = 0; j < kBatch; ++j) {
          sum += call(t, j, batch[j]);
        }
        if (timed) {
          spans.push_back(tracer->Make(name, t0, Clock::now(), tracer->NewId()));
        }
        return sum;
      };
      uint64_t warm = 0;
      for (int b = 0; b < kWarmBatches / 4; ++b) {
        warm += run_batch(false);
      }
      untimed_sum.fetch_add(warm, std::memory_order_relaxed);  // keeps the work live
      ready.fetch_add(1, std::memory_order_acq_rel);
      SpinUntil(go);
      uint64_t sum = 0;
      for (int b = 0; b < kStageBatches; ++b) {
        sum += run_batch(true);
      }
      timed_sum.fetch_add(sum, std::memory_order_relaxed);
      tracer->AddAll(std::move(spans));
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) {
    w.join();
  }
  std::vector<double> ns;
  for (double ms : tracer->DurationsMs(name)) {
    ns.push_back(ms * 1e6 / kBatch);
  }
  StageResult r;
  r.ns = Percentile(std::move(ns), 50);
  r.timed_sum = timed_sum.load();
  r.timed_calls = static_cast<uint64_t>(threads) * kStageBatches * kBatch;
  return r;
}

auto NoPrepare() {
  return [](int, std::vector<Access>&) {};
}

// The traced run's core-layer probes over `streams` (4 threads): which stages
// are probed on which stream follows the metric map in perfbench/README.md.
void ProbeCoreStages(const std::vector<std::vector<Call>>& streams, bool shared,
                     uint64_t seed, Tracer* tracer, const std::string& suffix,
                     Results* out) {
  const tsvd::Config cfg = HotpathConfig(seed);
  const size_t batches = static_cast<size_t>(kThreads) * kStageBatches;
  if (!shared) {
    {
      tsvd::PhaseDetector phase(cfg.phase_buffer_size);
      const StageResult r = StageProbe(streams, tracer, "core.phase", NoPrepare(),
                                [&](int, int, const Access& a) -> uint64_t {
                                  return phase.RecordAndCheck(a.tid);
                                });
      out->Add("core.phase.ns", r.ns.value, "ns", batches);
    }
    {
      tsvd::TrapRegistry traps;
      const StageResult r = StageProbe(streams, tracer, "core.trap_registry", NoPrepare(),
                                [&](int, int, const Access& a) -> uint64_t {
                                  return traps.CheckAndMark(a).found;
                                });
      out->Add("core.trap_registry.ns", r.ns.value, "ns", batches);
    }
    {
      tsvd::DelayEngine engine(cfg);
      const StageResult r = StageProbe(streams, tracer, "core.delay_engine", NoPrepare(),
                                [&](int, int, const Access& a) -> uint64_t {
                                  engine.NoteProgress(a.tid, a.time);
                                  return 1;
                                });
      out->Add("core.delay_engine.ns", r.ns.value, "ns", batches);
    }
    {
      tsvd::CoverageTracker coverage;
      const StageResult r = StageProbe(streams, tracer, "report.coverage", NoPrepare(),
                                [&](int, int, const Access& a) -> uint64_t {
                                  coverage.Record(a.op, a.tid, a.concurrent_phase);
                                  return 1;
                                });
      out->Add("report.coverage.ns", r.ns.value, "ns", batches);
    }
  } else {
    {
      tsvd::NearMissTracker nearmiss(cfg);
      const StageResult r = StageProbe(streams, tracer, "core.nearmiss", NoPrepare(),
                                       [&](int, int, const Access& a) -> uint64_t {
                                         tsvd::NearMissTracker::ConflictBuffer buf;
                                         nearmiss.RecordAndFindConflicts(a, buf);
                                         return buf.size();
                                       });
      out->Add("core.nearmiss.ns", r.ns.value, "ns", batches);
      out->Add("core.nearmiss.conflicts_per_call",
               static_cast<double>(r.timed_sum) / static_cast<double>(r.timed_calls),
               "count", r.timed_calls);
    }
    {
      // The trap set is fed the conflicts a near-miss pass finds over the same
      // batch; only AddPair + Prob are timed.
      tsvd::NearMissTracker nearmiss(cfg);
      tsvd::TrapSet trap_set(cfg);
      std::vector<std::vector<std::vector<OpId>>> partners(
          streams.size(), std::vector<std::vector<OpId>>(kBatch));
      auto prepare = [&](int t, std::vector<Access>& batch) {
        for (int j = 0; j < kBatch; ++j) {
          tsvd::NearMissTracker::ConflictBuffer buf;
          nearmiss.RecordAndFindConflicts(batch[j], buf);
          partners[t][j].clear();
          for (const auto& miss : buf) {
            partners[t][j].push_back(miss.other_op);
          }
        }
      };
      const StageResult r = StageProbe(streams, tracer, "core.trap_set", prepare,
                                [&](int t, int j, const Access& a) -> uint64_t {
                                  for (OpId other : partners[t][j]) {
                                    trap_set.AddPair(a.op, other);
                                  }
                                  return trap_set.Prob(a.op) > 0.0;
                                });
      out->Add("core.trap_set.ns", r.ns.value, "ns", batches);
      out->Add("core.trap_set.pairs", static_cast<double>(trap_set.PairCount()), "count",
               1);
    }
    {
      tsvd::TrapSet trap_set(cfg);
      tsvd::HbInference hb(cfg, trap_set);
      const StageResult r = StageProbe(streams, tracer, "core.hb", NoPrepare(),
                                [&](int, int, const Access& a) -> uint64_t {
                                  hb.OnAccess(a);
                                  return 1;
                                });
      out->Add("core.hb.ns", r.ns.value, "ns", batches);
    }
  }
  tsvd::TsvdDetector detector(cfg);
  const StageResult r = StageProbe(streams, tracer, "core.detector" + suffix, NoPrepare(),
                            [&](int, int, const Access& a) -> uint64_t {
                              return detector.OnCall(a).inject;
                            });
  out->Add("core.detector.ns" + suffix, r.ns.value, "ns", batches);
}

}  // namespace

void RunHotpath(const Args& args, bool shared, double budget_s, Tracer* tracer,
                Results* out) {
  std::vector<std::vector<Call>> streams;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(MakeStream(args.seed, t, shared));
  }
  const std::vector<std::vector<Call>> one_thread(streams.begin(), streams.begin() + 1);
  const std::string suffix = shared ? ".hotpath_shared" : ".hotpath_private";

  // Each trial: a fresh 4-thread runtime for 4/5 of kTrialSeconds, then a fresh
  // 1-thread runtime on thread 0's stream for the rest. Every figure is the
  // median over trials of that trial's own figure, so a trial that another
  // guest on the machine disturbed moves none of them.
  const int trials = std::max(3, static_cast<int>(budget_s / kTrialSeconds + 0.5));
  std::vector<double> setups, rates, p50s, p75s, p95s, ratios, p50s_1t;
  size_t batches = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const LoopResult four = RunOnCallLoop(streams, kThreads, kTrialSeconds * 0.8,
                                          args.seed, tracer, "core.runtime" + suffix);
    CheckLoop(four, out);
    const LoopResult one = RunOnCallLoop(one_thread, 1, kTrialSeconds * 0.2, args.seed,
                                         tracer, "core.runtime_1t" + suffix);
    CheckLoop(one, out);
    const PercentileResult p50 = Percentile(four.batch_ns, 50);
    const PercentileResult p75 = Percentile(four.batch_ns, 75, 10);
    const PercentileResult p50_1t = Percentile(one.batch_ns, 50);
    if (!p75.ok) {
      out->Violation("too few batches in a trial for p75: " +
                     std::to_string(four.batch_ns.size()));
    }
    setups.push_back(four.setup_s);
    rates.push_back(static_cast<double>(four.calls) / four.wall_s);
    p50s.push_back(p50.value);
    p75s.push_back(p75.value);
    p95s.push_back(Percentile(four.batch_ns, 95).value);
    p50s_1t.push_back(p50_1t.value);
    ratios.push_back(p50.value / p50_1t.value);
    batches += four.batch_ns.size();
  }
  out->Add("setup_s", Median(setups), "s", setups.size());
  out->Add("ops_per_s", Median(rates), "1/s", rates.size());
  out->Add("op_p50_us", Median(p50s) / 1000.0, "us", batches);
  // The tail is p75: above it, hotpath_shared measures the hypervisor. When a
  // vCPU holding a near-miss shard mutex is descheduled, all four callers
  // stall, and p90 and p95 then swing 2-3x between runs on a 4-vCPU VM. The p95
  // is still printed beside it.
  out->Add("op_tail_us", Median(p75s) / 1000.0, "us", batches);
  out->Add("op_p95_us", Median(p95s) / 1000.0, "us", batches);
  out->Add("slowdown", Median(ratios), "x", ratios.size());

  if (tracer != nullptr) {
    out->Add("core.runtime.ns_1t" + suffix, Median(p50s_1t), "ns", p50s_1t.size());
    ProbeCoreStages(streams, shared, args.seed, tracer, suffix, out);
  }
}

}  // namespace perfbench
