// Near-miss tracking (Section 3.4.2).
//
// A global hash table, sharded by object id, holds each object's most recent N_nm
// accesses. A new access forms a near miss with a recorded one if the threads differ,
// at least one operation is a write, and the two are within T_nm of each other. The
// paper indexes by the object's hash-code rather than object metadata; we shard by a
// mixed hash of the same id for scalability (ObjectIds are pointer-derived, so the
// unmixed id concentrates on few shards — see Mix64 in ids.h).
//
// Hot-path design. Under a shared object pool every thread records into the same
// few histories, so those lines really are contended, and what a call costs is how
// many lines it pulls from another core. The layout keeps that to about two.
//   - Each object's history is one line-aligned block, allocated when the object is
//     first seen: a 16-byte header (a 4-byte WordLock, head, count, owner) followed by
//     a ring of N_nm 16-byte records, with tid, kind and the concurrent flag packed
//     into one word. The lock sits on the line the insert writes anyway, so taking it
//     brings that line along. At the default N_nm = 5 the block is 96 bytes: the
//     header line plus one more. Every history size, up to the unwindowed
//     ablation's 64, uses this one layout.
//   - The common call reaches the block through its thread's MRU way (below) and
//     locks only the block: the shard's lock, hash map and sweep counter are
//     touched only when the way misses.
//   - The lock spins briefly, then blocks, so a contended call neither parks in the
//     kernel at once (as std::mutex does) nor spins without bound on an
//     oversubscribed machine.
// Because MRU ways are read without the shard lock, a way can point at a block the
// sweep has since retired. Blocks are therefore type-stable: the sweep returns a
// stale block to its shard's free list for reuse rather than freeing it, and the
// call re-checks the block's owner under the block's own lock before trusting it.
// Memory is bounded by the peak number of live objects, and every block is freed
// with the tracker. Conflicts are reported through a caller-supplied FixedVector,
// so after an object's first access a call performs no heap allocation.
#ifndef SRC_CORE_NEARMISS_TRACKER_H_
#define SRC_CORE_NEARMISS_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "src/common/config.h"
#include "src/common/fixed_vector.h"
#include "src/common/padded.h"
#include "src/common/word_lock.h"
#include "src/core/access.h"

namespace tsvd {

class NearMissTracker {
 public:
  explicit NearMissTracker(const Config& config);

  struct NearMiss {
    OpId other_op = kInvalidOp;
    // True if the recorded access executed in a concurrent phase; a dangerous pair
    // needs at least one endpoint in a concurrent phase (Section 3.4.1).
    bool other_concurrent = false;
  };

  // Upper bound on the per-object history, and therefore on the conflicts one access
  // can report (config.nearmiss_history_unwindowed is the largest deployment).
  static constexpr int kMaxHistory = 64;
  using ConflictBuffer = FixedVector<NearMiss, kMaxHistory>;

  // Records `access` and appends the conflicting near misses it forms with the
  // object's recent history to `out` (which the caller keeps on its stack).
  void RecordAndFindConflicts(const Access& access, ConflictBuffer& out);

  // Convenience wrapper for tests and non-hot-path callers.
  std::vector<NearMiss> RecordAndFindConflicts(const Access& access);

  // Number of objects currently tracked (diagnostics / memory accounting).
  size_t TrackedObjects() const;

  // One recorded access, 16 bytes so four share a line. `who` packs the thread id
  // (bits 2..31), the write bit (bit 1) and the concurrent-phase flag (bit 0).
  // PerThread bounds every ThreadId below 4096, far inside the 30 bits kept.
  struct Record {
    Micros time;
    OpId op;
    uint32_t who;

    static constexpr ThreadId kMaxTid = (ThreadId{1} << 30) - 1;
    static constexpr uint32_t Pack(ThreadId tid, OpKind kind, bool concurrent) {
      return (tid << 2) | (kind == OpKind::kWrite ? 2u : 0u) | (concurrent ? 1u : 0u);
    }
    ThreadId tid() const { return who >> 2; }
    OpKind kind() const { return (who & 2u) != 0 ? OpKind::kWrite : OpKind::kRead; }
    bool concurrent() const { return (who & 1u) != 0; }
  };
  static_assert(sizeof(Record) == 16, "four records per cache line");

 private:
  // Header of an object's line-aligned block; `history_` Records follow it. All of
  // it is guarded by `lock`. `owner` is the object the block records while `live`;
  // `head` is the next write position, `count` saturates at the capacity, and
  // oldest-first iteration starts at (head - count) mod capacity.
  struct alignas(sizeof(Record)) History {
    WordLock lock;
    uint8_t head = 0;
    uint8_t count = 0;
    bool live = false;
    ObjectId owner = 0;

    Record* ring() { return std::launder(reinterpret_cast<Record*>(this + 1)); }
    const Record* ring() const {
      return std::launder(reinterpret_cast<const Record*>(this + 1));
    }
  };
  static_assert(sizeof(History) == sizeof(Record), "records start on a 16-byte slot");
  static_assert(kMaxHistory <= UINT8_MAX, "head and count are bytes");
  struct HistoryDeleter {
    void operator()(History* history) const;
  };
  using HistoryPtr = std::unique_ptr<History, HistoryDeleter>;

  static constexpr size_t kShards = 64;
  // MRU hint of the last history touched, one way per thread-id residue class.
  // Accesses have strong per-object temporal locality *per thread*, so a thread's
  // way usually replaces the shard lock and hash lookup with one compare. A single
  // shared entry would be re-written on every cross-thread object change — under a
  // shared object pool each thread would evict every other thread's entry, so the
  // "cache" would degenerate into a line all threads dirty on every call while
  // almost never hitting. Per-tid ways keep each thread's entry stable (and its
  // writes on its own line) no matter how the other threads interleave. Ways are
  // written under the shard lock but read without it, so their fields are relaxed
  // atomics and a torn pair is harmless: the owner check under the block lock
  // rejects a wrong block.
  static constexpr size_t kMruWays = 8;
  struct MruWay {
    std::atomic<ObjectId> obj{0};
    std::atomic<History*> hist{nullptr};
  };
  struct alignas(kCacheLineSize) Shard {
    // Guards everything below; taken only when a call's MRU way misses.
    mutable WordLock lock;
    uint64_t slow_calls_since_sweep = 0;
    std::unordered_map<ObjectId, History*> objects;  // live blocks only
    std::vector<History*> free;                       // retired blocks, for reuse
    std::vector<HistoryPtr> blocks;                   // every block, for ownership
    CacheAligned<MruWay> mru[kMruWays];
  };
  static_assert(sizeof(Shard) % kCacheLineSize == 0 &&
                    alignof(Shard) == kCacheLineSize,
                "near-miss shards must not straddle a neighbor's cache line");

  Shard& ShardFor(ObjectId obj) { return shards_[Mix64(obj) % kShards]; }
  static MruWay& MruFor(Shard& shard, ThreadId tid) {
    return shard.mru[(tid - 1) & (kMruWays - 1)].value;
  }
  // Returns `obj`'s block, locked, creating or reusing one as needed. Takes the
  // shard lock, and sweeps the shard when due.
  History& LockHistorySlow(Shard& shard, const Access& access);
  History* NewHistory(Shard& shard);
  void ScanAndRecord(History& history, const Access& access, ConflictBuffer& out);
  void MaybeSweep(Shard& shard, Micros now);

  Micros window_us_;  // -1 = unwindowed (Table 3 ablation)
  int history_;
  size_t history_bytes_;  // header + ring, rounded up to whole cache lines
  Shard shards_[kShards];
};

}  // namespace tsvd

#endif  // SRC_CORE_NEARMISS_TRACKER_H_
