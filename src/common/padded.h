// Cache-line isolation helpers for runtime-touched shared state.
//
// Every struct the OnCall hot path writes must own its cache line(s) outright:
// two logically independent fields that share a 64-byte line turn into one
// physically shared line, and a store by one thread invalidates the copy every
// other core holds — the classic false-sharing wall that caps thread scaling.
// CacheAligned<T> wraps a value so adjacent array elements land on distinct
// lines (PerThread slot arrays are the main customer: dense ThreadIds put
// neighboring threads' slots right next to each other).
//
// The audit convention: any struct placed in an array that multiple threads
// write carries `alignas(kCacheLineSize)` plus a `static_assert` on its size
// and alignment next to the definition, so a future field addition that spills
// a struct across an extra (shared) line fails the build instead of silently
// costing a ping-pong. std::hardware_destructive_interference_size is avoided
// on purpose: GCC warns that its value is ABI-unstable, and 64 is correct for
// every x86-64 and the common AArch64 parts this runtime targets.
#ifndef SRC_COMMON_PADDED_H_
#define SRC_COMMON_PADDED_H_

#include <cstddef>

namespace tsvd {

inline constexpr std::size_t kCacheLineSize = 64;

template <typename T>
struct alignas(kCacheLineSize) CacheAligned {
  T value{};
};

// A whole number of private lines per element, or the wrapper is pointless.
static_assert(sizeof(CacheAligned<char>) == kCacheLineSize);
static_assert(alignof(CacheAligned<char>) == kCacheLineSize);

// Asks for the line holding `p` in a state this core may write, so a later store
// does not wait for another core to give it up. A hint only: it never faults,
// whatever `p` points at. x86 uses PREFETCHW explicitly, since the compiler's
// generic write prefetch falls back to a read prefetch without -mprfchw.
inline void PrefetchForWrite(const void* p) {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("prefetchw %0" : : "m"(*static_cast<const char*>(p)));
#else
  __builtin_prefetch(p, 1, 3);
#endif
}

}  // namespace tsvd

#endif  // SRC_COMMON_PADDED_H_
