#include "src/sandbox/sandbox.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "src/campaign/json.h"
#include "src/common/callsite.h"
#include "src/sandbox/outcome_codec.h"

#if defined(__unix__) || defined(__APPLE__)
#define TSVD_SANDBOX_HAS_FORK 1
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#define TSVD_SANDBOX_HAS_FORK 0
#endif

namespace tsvd::sandbox {

bool ForkSupported() { return TSVD_SANDBOX_HAS_FORK != 0; }

const char* ChildStatusName(ChildStatus status) {
  switch (status) {
    case ChildStatus::kOk:
      return "ok";
    case ChildStatus::kSignaled:
      return "signaled";
    case ChildStatus::kTimedOut:
      return "timed_out";
    case ChildStatus::kExited:
      return "exited";
    case ChildStatus::kProtocolError:
      return "protocol_error";
    case ChildStatus::kUnsupported:
      return "unsupported";
  }
  return "unknown";
}

namespace {

std::string SignalName(int sig) {
#if TSVD_SANDBOX_HAS_FORK
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
    case SIGILL:
      return "SIGILL";
    case SIGKILL:
      return "SIGKILL";
    case SIGTERM:
      return "SIGTERM";
    default:
      break;
  }
#endif
  return "signal " + std::to_string(sig);
}

// Flattens protocol payloads to one line so the line-oriented stream stays parseable.
std::string OneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r' || c == '\t') {
      c = ' ';
    }
  }
  return s;
}

}  // namespace

std::string CrashSignature::Render() const {
  std::string s;
  if (timed_out) {
    s = "TIMEOUT (watchdog SIGKILL)";
  } else if (signal != 0) {
    s = signal_name.empty() ? SignalName(signal) : signal_name;
  } else {
    s = "exit " + std::to_string(exit_code);
  }
  if (!phase.empty()) {
    s += " in phase '" + phase + "'";
  }
  if (!last_trap_site.empty()) {
    s += " last-armed-trap '" + last_trap_site + "'";
  }
  return s;
}

#if TSVD_SANDBOX_HAS_FORK

namespace {

// Write end of the status pipe; >= 0 only inside a sandbox child. Read by workload
// threads (progress markers) and by the fatal-signal handler, so plain volatile int.
volatile int g_child_fd = -1;

// Async-signal-safe full write (EINTR-restarting, no allocation).
void WriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // pipe gone; nothing useful left to do in a dying child
    }
    off += static_cast<size_t>(w);
  }
}

// Streams one "<tag> <payload>\n" record. Payloads are truncated well under
// PIPE_BUF so a single write() stays atomic and concurrent workload threads
// cannot interleave records.
void StreamRecord(const char* tag, const std::string& payload) {
  const int fd = g_child_fd;
  if (fd < 0) {
    return;
  }
  char buf[512];
  const std::string line = OneLine(payload);
  const int len = std::snprintf(buf, sizeof(buf), "%s %.*s\n", tag,
                                static_cast<int>(std::min<size_t>(line.size(), 400)),
                                line.c_str());
  if (len > 0) {
    WriteAll(fd, buf, static_cast<size_t>(len));
  }
}

// Fatal-signal handler: report the signal over the pipe (write() is on the
// async-signal-safe list), then re-raise so the parent observes the true
// termination status. SA_RESETHAND restored the default disposition already.
void FatalSignalHandler(int sig) {
  const int fd = g_child_fd;
  if (fd >= 0) {
    char buf[32];
    char* p = buf + sizeof(buf);
    *--p = '\n';
    int v = sig > 0 ? sig : 0;
    do {
      *--p = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v > 0);
    const char prefix[] = "fatal ";
    p -= sizeof(prefix) - 1;
    std::memcpy(p, prefix, sizeof(prefix) - 1);
    WriteAll(fd, p, static_cast<size_t>(buf + sizeof(buf) - p));
  }
  raise(sig);
}

void InstallFatalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = FatalSignalHandler;
  action.sa_flags = SA_RESETHAND | SA_NODEFER;
  sigemptyset(&action.sa_mask);
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    sigaction(sig, &action, nullptr);
  }
}

[[noreturn]] void RunChild(int fd, const std::function<campaign::RunOutcome()>& fn) {
  g_child_fd = fd;
  InstallFatalHandlers();
  MarkPhase("child-start");

  std::string payload;
  int exit_code = 0;
  try {
    campaign::RunOutcome outcome = fn();
    MarkPhase("serialize");
    payload = "outcome " + EncodeRunOutcome(outcome).Dump() + "\n";
  } catch (const std::exception& e) {
    payload = "error " + OneLine(e.what()) + "\n";
    exit_code = 3;
  } catch (...) {
    payload = "error non-standard exception escaped the sandboxed job\n";
    exit_code = 3;
  }
  WriteAll(fd, payload.data(), payload.size());
  g_child_fd = -1;
  ::close(fd);
  // _exit, not exit: the child inherited the parent's atexit chain and global
  // destructors (thread pools, registries with live threads in the parent); running
  // them in the forked copy could hang or double-release.
  ::_exit(exit_code);
}

struct ParsedStream {
  std::string phase;
  std::string trap_site;
  std::string error;
  int fatal_signal = 0;
  bool has_outcome = false;
  campaign::Json outcome;
};

ParsedStream ParseStream(const std::string& stream) {
  ParsedStream parsed;
  size_t pos = 0;
  while (pos < stream.size()) {
    size_t end = stream.find('\n', pos);
    if (end == std::string::npos) {
      end = stream.size();
    }
    const std::string line = stream.substr(pos, end - pos);
    pos = end + 1;
    const size_t space = line.find(' ');
    const std::string tag = line.substr(0, space);
    const std::string rest = space == std::string::npos ? "" : line.substr(space + 1);
    if (tag == "phase") {
      parsed.phase = rest;
    } else if (tag == "trap") {
      parsed.trap_site = rest;
    } else if (tag == "fatal") {
      parsed.fatal_signal = std::atoi(rest.c_str());
    } else if (tag == "error") {
      parsed.error = rest;
    } else if (tag == "outcome") {
      parsed.has_outcome = campaign::Json::Parse(rest, &parsed.outcome);
    }
  }
  return parsed;
}

}  // namespace

void MarkPhase(const std::string& phase) { StreamRecord("phase", phase); }

void MarkTrapSite(const std::string& site_signature) {
  StreamRecord("trap", site_signature);
}

bool InSandboxChild() { return g_child_fd >= 0; }

ForkRun RunForked(const std::function<campaign::RunOutcome()>& fn, int timeout_ms) {
  ForkRun result;
  int fds[2];
  if (::pipe(fds) != 0) {
    result.status = ChildStatus::kProtocolError;
    result.error = std::string("pipe() failed: ") + std::strerror(errno);
    return result;
  }

  // Hold the interning lock across fork(): a child forked while another agent
  // thread was mid-intern would otherwise inherit a locked mutex and
  // deadlock on its first instrumented call.
  CallSiteRegistry::Instance().LockForFork();
  const Micros start = NowMicros();
  const pid_t pid = ::fork();
  if (pid < 0) {
    CallSiteRegistry::Instance().UnlockForFork();
    ::close(fds[0]);
    ::close(fds[1]);
    result.status = ChildStatus::kProtocolError;
    result.error = std::string("fork() failed: ") + std::strerror(errno);
    return result;
  }
  if (pid == 0) {
    CallSiteRegistry::Instance().UnlockForFork();
    ::close(fds[0]);
    RunChild(fds[1], fn);  // never returns
  }
  CallSiteRegistry::Instance().UnlockForFork();
  ::close(fds[1]);

  // Watchdog: SIGKILL the child at the deadline. Armed only while the child is
  // alive and unreaped (it is joined at pipe EOF, before waitpid), so the kill can
  // never target a recycled pid.
  struct Watchdog {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool fired = false;
  } dog;
  std::thread watchdog;
  if (timeout_ms > 0) {
    watchdog = std::thread([&dog, pid, timeout_ms] {
      std::unique_lock<std::mutex> lock(dog.mu);
      if (!dog.cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                           [&dog] { return dog.done; })) {
        dog.fired = true;
        ::kill(pid, SIGKILL);
      }
    });
  }

  // Drain the status stream until EOF (the child exiting — or being killed —
  // closes the only write end).
  std::string stream;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      stream.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    break;
  }
  ::close(fds[0]);

  bool timed_out = false;
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(dog.mu);
      dog.done = true;
    }
    dog.cv.notify_all();
    watchdog.join();
    timed_out = dog.fired;
  }

  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  result.child_wall_us = NowMicros() - start;

  const ParsedStream parsed = ParseStream(stream);
  result.signature.phase = parsed.phase;
  result.signature.last_trap_site = parsed.trap_site;

  if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && parsed.has_outcome &&
      DecodeRunOutcome(parsed.outcome, &result.outcome)) {
    // A clean outcome wins even if the watchdog fired in the shutdown race.
    result.status = ChildStatus::kOk;
    return result;
  }

  if (timed_out) {
    result.status = ChildStatus::kTimedOut;
    result.signature.timed_out = true;
    result.signature.signal = SIGKILL;
    result.signature.signal_name = "SIGKILL";
    result.error = "run exceeded " + std::to_string(timeout_ms) + " ms; " +
                   result.signature.Render();
  } else if (WIFSIGNALED(status)) {
    result.status = ChildStatus::kSignaled;
    const int sig = parsed.fatal_signal != 0 ? parsed.fatal_signal : WTERMSIG(status);
    result.signature.signal = sig;
    result.signature.signal_name = SignalName(sig);
    result.error = "run crashed: " + result.signature.Render();
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    result.status = ChildStatus::kExited;
    result.signature.exit_code = WEXITSTATUS(status);
    result.error = "run exited " + std::to_string(WEXITSTATUS(status)) +
                   (parsed.error.empty() ? std::string() : ": " + parsed.error);
  } else {
    result.status = ChildStatus::kProtocolError;
    result.signature.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.error = "child exited without a decodable outcome";
  }
  return result;
}

#else  // !TSVD_SANDBOX_HAS_FORK

void MarkPhase(const std::string&) {}
void MarkTrapSite(const std::string&) {}
bool InSandboxChild() { return false; }

ForkRun RunForked(const std::function<campaign::RunOutcome()>&, int) {
  ForkRun result;
  result.status = ChildStatus::kUnsupported;
  result.error = "process sandbox requires fork(); run in-process instead";
  return result;
}

#endif  // TSVD_SANDBOX_HAS_FORK

}  // namespace tsvd::sandbox
