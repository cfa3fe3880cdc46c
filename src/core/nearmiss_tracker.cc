#include "src/core/nearmiss_tracker.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <new>

namespace tsvd {

namespace {
constexpr std::align_val_t kLineAlign{kCacheLineSize};
}  // namespace

NearMissTracker::NearMissTracker(const Config& config)
    : window_us_(config.disable_nearmiss_window
                     ? -1
                     : std::min(config.nearmiss_window_us, kMaxWindowUs)),
      history_(config.disable_nearmiss_window ? config.nearmiss_history_unwindowed
                                              : config.nearmiss_history) {
  assert(history_ >= 1 && history_ <= kMaxHistory &&
         "per-object history must fit the inline conflict buffer");
  if (history_ > kMaxHistory) {
    history_ = kMaxHistory;  // fail soft in release builds
  }
  const size_t bytes = sizeof(History) + sizeof(Record) * static_cast<size_t>(history_);
  // Whole lines, so no other allocation shares the block's last line.
  history_bytes_ = (bytes + kCacheLineSize - 1) / kCacheLineSize * kCacheLineSize;
}

void NearMissTracker::HistoryDeleter::operator()(History* history) const {
  history->~History();
  ::operator delete(history, kLineAlign);
}

void NearMissTracker::RecordAndFindConflicts(const Access& access, ConflictBuffer& out) {
  assert(access.tid <= Record::kMaxTid && "thread id does not fit the packed record");
  Shard& shard = ShardFor(access.obj);
  MruWay& way = MruFor(shard, access.tid);
  History* hist = way.hist.load(std::memory_order_relaxed);
  if (hist != nullptr && way.obj.load(std::memory_order_relaxed) == access.obj) {
    hist->lock.lock();
    if (!hist->live || hist->owner != access.obj) {
      // The sweep retired the block (and maybe handed it to another object) after
      // the way was filled.
      hist->lock.unlock();
      hist = &LockHistorySlow(shard, access);
    }
  } else {
    hist = &LockHistorySlow(shard, access);
  }
  ScanAndRecord(*hist, access, out);
  hist->lock.unlock();
}

NearMissTracker::History& NearMissTracker::LockHistorySlow(Shard& shard,
                                                           const Access& access) {
  std::lock_guard<WordLock> shard_lock(shard.lock);
  ++shard.slow_calls_since_sweep;
  MaybeSweep(shard, access.time);
  History*& slot = shard.objects[access.obj];
  if (slot == nullptr) {
    // One block per live object; later accesses are allocation-free.
    slot = NewHistory(shard);
    slot->lock.lock();
    slot->live = true;
    slot->owner = access.obj;
  } else {
    slot->lock.lock();
  }
  MruWay& way = MruFor(shard, access.tid);
  way.obj.store(access.obj, std::memory_order_relaxed);
  way.hist.store(slot, std::memory_order_relaxed);
  return *slot;
}

NearMissTracker::History* NearMissTracker::NewHistory(Shard& shard) {
  if (!shard.free.empty()) {
    History* reused = shard.free.back();
    shard.free.pop_back();
    return reused;
  }
  void* block = ::operator new(history_bytes_, kLineAlign);
  History* history = ::new (block) History{};
  for (int i = 0; i < history_; ++i) {
    ::new (static_cast<void*>(history->ring() + i)) Record{};
  }
  shard.blocks.emplace_back(history);
  return history;
}

void NearMissTracker::ScanAndRecord(History& history, const Access& access,
                                    ConflictBuffer& out) {
  Record* ring = history.ring();
  if (history.count == 0) {
    history.base = access.time;
  }
  // Oldest-to-newest scan preserves the eviction order of the erase-from-front
  // implementation this replaces (conflicts are reported oldest first).
  int index = history.head - history.count;
  if (index < 0) {
    index += history_;
  }
  const Micros since_base = access.time - history.base;
  for (int k = 0; k < history.count; ++k) {
    const Record& rec = ring[index];
    if (++index == history_) {
      index = 0;
    }
    if (rec.tid() == access.tid || !KindsConflict(rec.kind(), access.kind)) {
      continue;
    }
    if (window_us_ >= 0 && since_base - rec.offset > window_us_) {
      continue;
    }
    out.push_back(NearMiss{rec.op(), rec.concurrent()});
  }

  if (since_base < std::numeric_limits<int32_t>::min() ||
      since_base > std::numeric_limits<int32_t>::max()) {
    Rebase(history, access.time);
  }
  ring[history.head] =
      Record::Pack(static_cast<int32_t>(access.time - history.base), access.op,
                   access.tid, access.kind, access.concurrent_phase);
  history.head = static_cast<uint8_t>(history.head + 1 == history_ ? 0 : history.head + 1);
  if (history.count < history_) {
    ++history.count;
  }
}

void NearMissTracker::Rebase(History& history, Micros now) {
  // A record more than 2^31 µs before `now` is pinned at -2^31: every later
  // access (see the header) is still more than kMaxWindowUs past it, so it stays
  // outside the window exactly as its true time would.
  constexpr Micros kLo = std::numeric_limits<int32_t>::min();
  constexpr Micros kHi = std::numeric_limits<int32_t>::max();
  Record* ring = history.ring();
  for (int i = 0; i < history_; ++i) {
    const Micros offset = history.base + ring[i].offset - now;
    ring[i].offset = static_cast<int32_t>(std::clamp(offset, kLo, kHi));
  }
  history.base = now;
}

std::vector<NearMissTracker::NearMiss> NearMissTracker::RecordAndFindConflicts(
    const Access& access) {
  ConflictBuffer buffer;
  RecordAndFindConflicts(access, buffer);
  return std::vector<NearMiss>(buffer.begin(), buffer.end());
}

void NearMissTracker::MaybeSweep(Shard& shard, Micros now) {
  // Objects whose entire history is older than the window can never again produce a
  // near miss; sweep them occasionally so long runs do not accumulate dead entries.
  // New objects always arrive through the slow path, so counting its calls bounds
  // the dead entries a shard can hold.
  if (window_us_ < 0 || shard.slow_calls_since_sweep < 4096) {
    return;
  }
  shard.slow_calls_since_sweep = 0;
  for (auto it = shard.objects.begin(); it != shard.objects.end();) {
    History& history = *it->second;
    std::lock_guard<WordLock> lock(history.lock);
    const int newest = (history.head - 1 + history_) % history_;
    const bool stale = history.count == 0 ||
                       now - (history.base + history.ring()[newest].offset) >
                           8 * window_us_;
    if (!stale) {
      ++it;
      continue;
    }
    // Retire in place: a way still pointing here sees !live under the block lock.
    history.live = false;
    history.head = 0;
    history.count = 0;
    shard.free.push_back(&history);
    it = shard.objects.erase(it);
  }
}

size_t NearMissTracker::TrackedObjects() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<WordLock> lock(shard.lock);
    n += shard.objects.size();
  }
  return n;
}

}  // namespace tsvd
