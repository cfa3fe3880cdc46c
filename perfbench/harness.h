// Benchmark plumbing shared by every workload: the metric sheet each run fills,
// the span recorder behind the traced run, and the machine facts stamped into
// each result.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string scratch;    // private directory for campaign artifacts
  std::string trace_out;  // where the traced run writes its spans
};

// One run's metric sheet: every metric with its unit and sample count, the
// operations attempted and failed, and every correctness violation seen.
class Results {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    size_t samples = 0;
  };

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples);
  // A correctness violation: the run's result is wrong, not just slow.
  void Violation(const std::string& what);
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& violations() const { return violations_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> violations_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files around calls into the program's public functions; the
// program itself is not instrumented. Thread-safe.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    int64_t start_ns = 0;  // since the tracer was created
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // the workload's span; 0 for a workload's own span
  };

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Every span made while `id` is set becomes its child; 0 clears it. The
  // traced suite sets it to each workload's span in turn.
  void SetParent(uint64_t id) { parent_.store(id, std::memory_order_relaxed); }
  // Builds a span without touching the span list, for hot loops that buffer
  // their spans per thread and hand them over with AddAll when the loop ends.
  SpanRecord Make(const std::string& name, Clock::time_point start, Clock::time_point end,
                  uint64_t id) const;
  void Record(const std::string& name, Clock::time_point start, Clock::time_point end,
              uint64_t id) {
    AddAll({Make(name, start, end, id)});
  }
  void AddAll(std::vector<SpanRecord> spans);
  // Durations in milliseconds of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  // Writes every span as a JSON array; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  const Clock::time_point origin_ = Clock::now();
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> parent_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span; a no-op when `tracer` is null (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, std::string name)
      : tracer_(tracer),
        name_(std::move(name)),
        id_(tracer != nullptr ? tracer->NewId() : 0),
        start_(Clock::now()) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->Record(name_, start_, Clock::now(), id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::string name_;
  uint64_t id_;
  Clock::time_point start_;
};

// CPUs this process may run on (what `nproc` prints).
int Nproc();
// Peak resident set of this process (VmHWM), plus the ru_maxrss of its largest
// reaped child when `with_children`, in MiB.
double PeakRssMb(bool with_children);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
