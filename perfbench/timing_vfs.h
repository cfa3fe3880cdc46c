// Timing Vfs decorator for the traced run's io.* metrics.
//
// Forwards every call to io::RealVfs() unchanged — durable fsync stays on — and
// adds the call's wall time, fsync count and bytes written to a per-file-kind
// counter. The counters live in an anonymous MAP_SHARED mapping, so writes made
// by forked sandbox children (their trap checkpoints) land in the same totals
// the parent reads.
#ifndef PERFBENCH_TIMING_VFS_H_
#define PERFBENCH_TIMING_VFS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/io/vfs.h"

namespace perfbench {

// What a durable file is, judged from its name.
enum class FileKind { kJournal, kTrapStore, kReports, kCheckpoint, kOther, kCount };

FileKind KindOfPath(const std::string& path);

class TimingVfs : public tsvd::io::Vfs {
 public:
  struct KindTotals {
    uint64_t ops = 0;
    uint64_t ns = 0;
    uint64_t fsyncs = 0;
    uint64_t fsync_ns = 0;
    uint64_t bytes = 0;
  };

  TimingVfs();
  ~TimingVfs() override;
  TimingVfs(const TimingVfs&) = delete;
  TimingVfs& operator=(const TimingVfs&) = delete;

  int Open(const std::string& path, OpenMode mode,
           std::unique_ptr<tsvd::io::VfsFile>* out) override;
  int Write(tsvd::io::VfsFile* file, const char* data, size_t size) override;
  int Fsync(tsvd::io::VfsFile* file) override;
  int Close(std::unique_ptr<tsvd::io::VfsFile> file) override;
  int Rename(const std::string& from, const std::string& to) override;
  int Unlink(const std::string& path) override;
  int Mkdir(const std::string& path) override;
  int FsyncDir(const std::string& path) override;
  int Truncate(const std::string& path, uint64_t size) override;
  using tsvd::io::Vfs::Write;

  KindTotals Totals(FileKind kind) const;

 private:
  struct Cell {
    std::atomic<uint64_t> ops;
    std::atomic<uint64_t> ns;
    std::atomic<uint64_t> fsyncs;
    std::atomic<uint64_t> fsync_ns;
    std::atomic<uint64_t> bytes;
  };
  struct Shared {
    Cell cells[static_cast<int>(FileKind::kCount)];
  };
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "counters shared with forked children must be lock-free");

  void Note(FileKind kind, uint64_t ns, bool fsync, uint64_t bytes);

  Shared* shared_;
  tsvd::io::Vfs* real_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_VFS_H_
