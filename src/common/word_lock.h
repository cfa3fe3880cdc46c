// A 4-byte mutex for short critical sections on contended hot paths.
//
// std::mutex is 40 bytes, so it takes most of a cache line of its own, and glibc
// parks a contended waiter in the kernel at once, paying two syscalls for a
// critical section that lasts tens of nanoseconds. WordLock is one 32-bit word:
// it sits on a line the holder writes anyway, spins briefly for a holder that is
// about to release, and only then blocks in the kernel through C++20
// std::atomic::wait/notify_one. The spin is bounded on purpose: campaign runs
// oversubscribe the cores, and a waiter must never burn a core while the holder
// is preempted.
//
// States follow the classic three-state futex mutex: 0 unlocked, 1 locked with no
// sleeper, 2 locked and a sleeper may exist (unlock then wakes one). Not fair, not
// recursive; satisfies BasicLockable, so std::lock_guard works.
#ifndef SRC_COMMON_WORD_LOCK_H_
#define SRC_COMMON_WORD_LOCK_H_

#include <atomic>
#include <cstdint>

namespace tsvd {

class WordLock {
 public:
  WordLock() = default;
  WordLock(const WordLock&) = delete;
  WordLock& operator=(const WordLock&) = delete;

  void lock() {
    uint32_t expected = kUnlocked;
    if (!state_.compare_exchange_strong(expected, kLocked, std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      LockSlow();
    }
  }

  void unlock() {
    if (state_.exchange(kUnlocked, std::memory_order_release) == kContended) {
      state_.notify_one();
    }
  }

 private:
  static constexpr uint32_t kUnlocked = 0;
  static constexpr uint32_t kLocked = 1;
  static constexpr uint32_t kContended = 2;
  // About as long as one block-and-wake round trip through the kernel costs (about
  // 20 us of pause instructions on a 4-vCPU Xeon VM), far longer than the critical
  // sections this lock guards and far shorter than a scheduler quantum. With 64
  // spins, 4 threads on shared objects slept often enough to lose over a quarter
  // of their throughput.
  static constexpr int kSpins = 1024;

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  void LockSlow() {
    for (int i = 0; i < kSpins; ++i) {
      CpuRelax();
      uint32_t seen = state_.load(std::memory_order_relaxed);
      if (seen == kUnlocked &&
          state_.compare_exchange_weak(seen, kLocked, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return;
      }
    }
    // Marking the word contended before sleeping makes the holder's unlock wake us.
    // Whoever takes the lock on this path keeps it marked contended, since other
    // sleepers may remain; the cost is at most one spurious notify.
    while (state_.exchange(kContended, std::memory_order_acquire) != kUnlocked) {
      state_.wait(kContended, std::memory_order_relaxed);
    }
  }

  std::atomic<uint32_t> state_{kUnlocked};
};

static_assert(sizeof(WordLock) == 4, "the lock must fit beside the data it guards");

}  // namespace tsvd

#endif  // SRC_COMMON_WORD_LOCK_H_
