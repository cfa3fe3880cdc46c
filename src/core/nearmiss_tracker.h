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
// many lines it pulls from another core. The layout keeps that to one.
//   - Each object's history is one line-aligned block, allocated when the object is
//     first seen: a 24-byte header (a 4-byte WordLock, head, count, live, owner and
//     a 64-bit time base) followed by a ring of N_nm 8-byte records. A record keeps
//     its time as a signed 32-bit offset from the base, its op in 16 bits, and tid,
//     kind and flags in 16 more. The lock sits on the line the insert writes anyway,
//     so taking it brings that line along. At the default N_nm = 5 the block is
//     exactly one 64-byte line. Every history size, up to the unwindowed ablation's
//     64, uses this one layout.
//   - The common call reaches the block through its thread's MRU way (below) and
//     locks only the block: the shard's lock, hash map and sweep counter are
//     touched only when the way misses.
//   - Prefetch() lets the runtime ask for that line, for writing, when a call
//     enters OnCall, so its transfer from another core overlaps the runtime's own
//     per-call bookkeeping instead of stalling the insert.
//   - The lock spins briefly, then blocks, so a contended call neither parks in the
//     kernel at once (as std::mutex does) nor spins without bound on an
//     oversubscribed machine.
// Window decisions are exact. When an access's offset from the base no longer fits
// 32 bits, the block rebases to that access's time; a record left more than 2^31 µs
// behind the new base is pinned there, which is still outside any window (windows
// are capped at 2^31 - 1 µs, about 36 minutes). This holds as long as an access is
// recorded less than 2^31 - T_nm µs earlier than the newest time its object
// has seen, which a clock read just before the record always satisfies.
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
#include <limits>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

#include "src/common/config.h"
#include "src/common/fixed_vector.h"
#include "src/common/padded.h"
#include "src/common/per_thread.h"
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

  // Warms `obj`'s history block for a call `tid` is about to make: if the thread's
  // MRU way names `obj`, requests the block's line for writing. Only a hint; a
  // stale way costs one wasted prefetch (blocks are type-stable), and the owner
  // check under the block's lock stays the only trust check.
  void Prefetch(ObjectId obj, ThreadId tid) {
    const MruWay& way = MruFor(ShardFor(obj), tid);
    const History* hist = way.hist.load(std::memory_order_relaxed);
    if (hist != nullptr && way.obj.load(std::memory_order_relaxed) == obj) {
      PrefetchForWrite(hist);
    }
  }

  // Longest window kept exact: a record's time is a signed 32-bit offset.
  static constexpr Micros kMaxWindowUs = std::numeric_limits<int32_t>::max();

  // One recorded access, 8 bytes, so the header and five records fill one line.
  // `offset` is the access time in µs after its block's base. `op16` holds ops
  // below 2^16, which covers every op the trap set can hold; a wider op sets the
  // wide bit and reads back as kInvalidOp. `who` packs the thread id (bits
  // 3..15), the wide bit (bit 2), the write bit (bit 1) and the concurrent-phase
  // flag (bit 0).
  struct Record {
    int32_t offset;
    uint16_t op16;
    uint16_t who;

    static constexpr int kTidShift = 3;
    static constexpr ThreadId kMaxTid = (ThreadId{1} << (16 - kTidShift)) - 1;
    static constexpr OpId kMaxOp = std::numeric_limits<uint16_t>::max();
    static constexpr Record Pack(int32_t offset, OpId op, ThreadId tid, OpKind kind,
                                 bool concurrent) {
      const bool wide = op > kMaxOp;
      return Record{offset, static_cast<uint16_t>(wide ? 0 : op),
                    static_cast<uint16_t>((tid << kTidShift) | (wide ? 4u : 0u) |
                                          (kind == OpKind::kWrite ? 2u : 0u) |
                                          (concurrent ? 1u : 0u))};
    }
    OpId op() const { return (who & 4u) != 0 ? kInvalidOp : OpId{op16}; }
    ThreadId tid() const { return ThreadId{who} >> kTidShift; }
    OpKind kind() const { return (who & 2u) != 0 ? OpKind::kWrite : OpKind::kRead; }
    bool concurrent() const { return (who & 1u) != 0; }
  };
  static_assert(sizeof(Record) == 8, "eight records per cache line");
  static_assert(PerThread<int>::kDefaultCapacity - 1 <= Record::kMaxTid,
                "every runtime ThreadId fits the packed record");

 private:
  // Header of an object's line-aligned block; `history_` Records follow it. All of
  // it is guarded by `lock`. `owner` is the object the block records while `live`;
  // `head` is the next write position, `count` saturates at the capacity, and
  // oldest-first iteration starts at (head - count) mod capacity. A record's time
  // is `base` + its offset.
  struct History {
    WordLock lock;
    uint8_t head = 0;
    uint8_t count = 0;
    bool live = false;
    ObjectId owner = 0;
    Micros base = 0;

    Record* ring() { return std::launder(reinterpret_cast<Record*>(this + 1)); }
    const Record* ring() const {
      return std::launder(reinterpret_cast<const Record*>(this + 1));
    }
  };
  static_assert(sizeof(History) == 24 && sizeof(History) % alignof(Record) == 0,
                "records follow the header without padding");
  static_assert(sizeof(History) + 5 * sizeof(Record) == kCacheLineSize,
                "at the paper's N_nm = 5 a history is exactly one line");
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
  // Moves `history`'s base to `now`, re-expressing every record's offset.
  void Rebase(History& history, Micros now);
  void ScanAndRecord(History& history, const Access& access, ConflictBuffer& out);
  void MaybeSweep(Shard& shard, Micros now);

  Micros window_us_;  // -1 = unwindowed (Table 3 ablation)
  int history_;
  size_t history_bytes_;  // header + ring, rounded up to whole cache lines
  Shard shards_[kShards];
};

}  // namespace tsvd

#endif  // SRC_CORE_NEARMISS_TRACKER_H_
