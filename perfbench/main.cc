// tsvdbench: one workload per invocation, every metric it measured printed with
// its unit and sample count, then one machine-readable result line.
//
//   tsvdbench --workload=NAME --seed=N --seconds=S --trace=0|1 --scratch=DIR
//             [--trace_out=FILE]
//
// NAME is campaign, fleet, hotpath_private or hotpath_shared. --trace=1 runs the
// layer suite instead: every workload for S/4 seconds with spans and probes, so
// that a traced run reports every per-layer metric whichever workload it names.
// The result line starts with "PERFBENCH_RESULT " followed by JSON. A correctness
// violation sets "correct": false and exits 1; bad arguments exit 2.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench/bench_util.h"
#include "perfbench/harness.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

constexpr int kHotpathThreads = 4;
const char* const kWorkloads[] = {"campaign", "fleet", "hotpath_private",
                                  "hotpath_shared"};

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "expected --flag=value, got %s\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "scratch") {
      args->scratch = value;
    } else if (key == "trace_out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) {
    known = known || args->workload == w;
  }
  if (!have_workload || !known) {
    std::fprintf(stderr, "--workload must be one of campaign, fleet, hotpath_private, "
                         "hotpath_shared\n");
    return false;
  }
  if (args->seconds <= 0 || args->scratch.empty()) {
    std::fprintf(stderr, "--seconds must be positive and --scratch set\n");
    return false;
  }
  return true;
}

void RunWorkload(const Args& args, const std::string& workload, double budget_s,
                 Tracer* tracer, Results* out) {
  if (workload == "campaign") {
    RunCampaignWorkload(args, budget_s, tracer, out);
  } else if (workload == "fleet") {
    RunFleetWorkload(args, budget_s, tracer, out);
  } else {
    RunHotpath(args, workload == "hotpath_shared", budget_s, tracer, out);
  }
}

// The end-to-end names (and the p95 printed beside the hot-path tail); in the
// traced suite they are reported per workload.
bool IsEndToEnd(const std::string& name) {
  return name == "setup_s" || name == "ops_per_s" || name == "op_p50_us" ||
         name == "op_tail_us" || name == "op_p95_us" || name == "slowdown";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  const int nproc = Nproc();
  const bool runs_hotpath = args.trace || args.workload.rfind("hotpath", 0) == 0;
  if (runs_hotpath && nproc < kHotpathThreads) {
    std::fprintf(stderr,
                 "refusing to run the hot-path workloads: they use %d threads and "
                 "nproc is %d\n",
                 kHotpathThreads, nproc);
    return 2;
  }
  std::filesystem::create_directories(args.scratch);

  Results results;
  if (!args.trace) {
    RunWorkload(args, args.workload, args.seconds, nullptr, &results);
    results.Add("peak_rss_mb", PeakRssMb(args.workload == "fleet"), "MB", 1);
  } else {
    // The fleet goes first so its forked runs start from a process that has not
    // yet executed any module in-process, as a real agent's would.
    Tracer tracer;
    for (const char* workload : {"fleet", "campaign", "hotpath_private", "hotpath_shared"}) {
      Results one;
      {
        Span span(&tracer, std::string("workload.") + workload);
        tracer.SetParent(span.id());
        RunWorkload(args, workload, args.seconds / 4, &tracer, &one);
        tracer.SetParent(0);
      }
      for (const Results::Metric& m : one.metrics()) {
        results.Add(IsEndToEnd(m.name) ? "traced." + std::string(workload) + "." + m.name
                                       : m.name,
                    m.value, m.unit, m.samples);
      }
      for (const std::string& v : one.violations()) {
        results.Violation(std::string(workload) + ": " + v);
      }
      results.Count(one.attempted(), one.failed());
    }
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      results.Violation("cannot write the trace to " + args.trace_out);
    }
  }

  const std::string cpu = tsvd::bench::CpuModel();
  const std::string governor = tsvd::bench::CpuGovernor();
  std::printf("machine: nproc %d, %s, governor %s\n", nproc, cpu.c_str(),
              governor.c_str());
  std::printf("%-44s %16s %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Results::Metric& m : results.metrics()) {
    std::printf("%-44s %16.6g %-6s %zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  for (const std::string& v : results.violations()) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  const bool correct = results.violations().empty();
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(results.attempted()) +
                     ", \"failed\": " + std::to_string(results.failed()) +
                     ", \"machine\": {\"nproc\": " + std::to_string(nproc) +
                     ", \"cpu_model\": \"" + Escape(cpu) + "\", \"governor\": \"" +
                     Escape(governor) + "\"}, \"violations\": [";
  for (size_t i = 0; i < results.violations().size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + Escape(results.violations()[i]) + "\"";
  }
  json += "], \"metrics\": {";
  for (size_t i = 0; i < results.metrics().size(); ++i) {
    const Results::Metric& m = results.metrics()[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + Escape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + Escape(m.unit) +
            "\", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  return correct ? 0 : 1;
}
