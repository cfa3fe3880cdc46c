#include "perfbench/timing_vfs.h"

#include <sys/mman.h>

#include <chrono>
#include <new>
#include <utility>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

// A handle opened through TimingVfs: the real handle plus its file kind.
class TimedFile : public tsvd::io::VfsFile {
 public:
  TimedFile(std::unique_ptr<tsvd::io::VfsFile> real, FileKind file_kind)
      : inner(std::move(real)), kind(file_kind) {}
  std::unique_ptr<tsvd::io::VfsFile> inner;
  FileKind kind;
};

// Directory fsyncs follow a rename in the atomic-replace idiom; they are charged
// to the kind of the file the thread last renamed.
thread_local FileKind last_renamed = FileKind::kOther;

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

FileKind KindOfPath(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.rfind("ckpt-", 0) == 0) {
    return FileKind::kCheckpoint;
  }
  if (name.rfind("journal.tsvdj", 0) == 0 || name.rfind("bugmgr.snap", 0) == 0) {
    return FileKind::kJournal;
  }
  if (name.rfind("traps.tsvd", 0) == 0) {
    return FileKind::kTrapStore;
  }
  if (name.rfind("campaign.json", 0) == 0 || name.rfind("campaign.sarif", 0) == 0 ||
      EndsWith(name, ".sarif")) {
    return FileKind::kReports;
  }
  return FileKind::kOther;
}

TimingVfs::TimingVfs() : real_(tsvd::io::RealVfs()) {
  void* mem = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::bad_alloc();
  }
  shared_ = new (mem) Shared{};
}

TimingVfs::~TimingVfs() {
  shared_->~Shared();
  ::munmap(shared_, sizeof(Shared));
}

void TimingVfs::Note(FileKind kind, uint64_t ns, bool fsync, uint64_t bytes) {
  Cell& c = shared_->cells[static_cast<int>(kind)];
  c.ops.fetch_add(1, std::memory_order_relaxed);
  c.ns.fetch_add(ns, std::memory_order_relaxed);
  if (fsync) {
    c.fsyncs.fetch_add(1, std::memory_order_relaxed);
    c.fsync_ns.fetch_add(ns, std::memory_order_relaxed);
  }
  c.bytes.fetch_add(bytes, std::memory_order_relaxed);
}

TimingVfs::KindTotals TimingVfs::Totals(FileKind kind) const {
  const Cell& c = shared_->cells[static_cast<int>(kind)];
  return KindTotals{c.ops.load(), c.ns.load(), c.fsyncs.load(), c.fsync_ns.load(),
                    c.bytes.load()};
}

int TimingVfs::Open(const std::string& path, OpenMode mode,
                    std::unique_ptr<tsvd::io::VfsFile>* out) {
  const auto start = Clock::now();
  std::unique_ptr<tsvd::io::VfsFile> inner;
  const int err = real_->Open(path, mode, &inner);
  const FileKind kind = KindOfPath(path);
  Note(kind, NsSince(start), false, 0);
  if (err == 0) {
    *out = std::make_unique<TimedFile>(std::move(inner), kind);
  }
  return err;
}

int TimingVfs::Write(tsvd::io::VfsFile* file, const char* data, size_t size) {
  auto* timed = static_cast<TimedFile*>(file);
  const auto start = Clock::now();
  const int err = real_->Write(timed->inner.get(), data, size);
  Note(timed->kind, NsSince(start), false, err == 0 ? size : 0);
  return err;
}

int TimingVfs::Fsync(tsvd::io::VfsFile* file) {
  auto* timed = static_cast<TimedFile*>(file);
  const auto start = Clock::now();
  const int err = real_->Fsync(timed->inner.get());
  Note(timed->kind, NsSince(start), true, 0);
  return err;
}

int TimingVfs::Close(std::unique_ptr<tsvd::io::VfsFile> file) {
  auto* timed = static_cast<TimedFile*>(file.get());
  const auto start = Clock::now();
  const int err = real_->Close(std::move(timed->inner));
  Note(timed->kind, NsSince(start), false, 0);
  return err;
}

int TimingVfs::Rename(const std::string& from, const std::string& to) {
  const auto start = Clock::now();
  const int err = real_->Rename(from, to);
  last_renamed = KindOfPath(to);
  Note(last_renamed, NsSince(start), false, 0);
  return err;
}

int TimingVfs::Unlink(const std::string& path) {
  const auto start = Clock::now();
  const int err = real_->Unlink(path);
  Note(KindOfPath(path), NsSince(start), false, 0);
  return err;
}

int TimingVfs::Mkdir(const std::string& path) {
  const auto start = Clock::now();
  const int err = real_->Mkdir(path);
  Note(FileKind::kOther, NsSince(start), false, 0);
  return err;
}

int TimingVfs::FsyncDir(const std::string& path) {
  const auto start = Clock::now();
  const int err = real_->FsyncDir(path);
  Note(last_renamed, NsSince(start), true, 0);
  return err;
}

int TimingVfs::Truncate(const std::string& path, uint64_t size) {
  const auto start = Clock::now();
  const int err = real_->Truncate(path, size);
  Note(KindOfPath(path), NsSince(start), false, 0);
  return err;
}

}  // namespace perfbench
