#include "perfbench/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

void Results::Add(const std::string& name, double value, const std::string& unit,
                  size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Results::Violation(const std::string& what) { violations_.push_back(what); }

Tracer::SpanRecord Tracer::Make(const std::string& name, Clock::time_point start,
                                Clock::time_point end, uint64_t id) const {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  return SpanRecord{name, duration_cast<nanoseconds>(start - origin_).count(),
                    duration_cast<nanoseconds>(end - origin_).count(), id,
                    parent_.load(std::memory_order_relaxed)};
}

void Tracer::AddAll(std::vector<SpanRecord> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), std::make_move_iterator(spans.begin()),
                std::make_move_iterator(spans.end()));
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

double PeakRssMb(bool with_children) {
  // VmHWM, not RUSAGE_SELF: ru_maxrss survives execve, so it would report the
  // launching process's footprint whenever that was larger than ours.
  double kb = 0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      kb = std::atof(line.c_str() + 6);
    }
  }
  if (with_children) {
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

}  // namespace perfbench
