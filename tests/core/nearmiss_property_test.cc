// Property test: NearMissTracker agrees with a naive reference model over random
// access streams, including streams whose clock leaps past 32-bit offsets.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/nearmiss_tracker.h"

namespace tsvd {
namespace {

struct RefRecord {
  ThreadId tid;
  OpId op;
  OpKind kind;
  Micros time;
};

class NearMissProperty : public ::testing::TestWithParam<uint64_t> {};

// Drives `seed`'s random stream through the tracker and the naive model and
// asserts that every call reports the same conflicts. With `time_jumps`, the
// clock now and then leaps by about 2^31 µs or by 2^32 µs or more, so records
// are stored across offsets that no longer fit 32 bits.
void ExpectMatchesNaiveModel(uint64_t seed, bool time_jumps) {
  Config cfg;
  cfg.nearmiss_window_us = 500;
  cfg.nearmiss_history = 4;
  NearMissTracker tracker(cfg);

  std::map<ObjectId, std::deque<RefRecord>> model;
  Rng rng(seed);
  Micros now = 0;
  int jumps = 0;

  for (int step = 0; step < 3000; ++step) {
    now += static_cast<Micros>(rng.NextBelow(300));
    if (time_jumps && rng.NextBelow(100) == 0) {
      constexpr Micros k31 = Micros{1} << 31;
      switch (rng.NextBelow(3)) {
        case 0:
          now += k31 - 1 - static_cast<Micros>(rng.NextBelow(600));
          break;
        case 1:
          now += k31 + static_cast<Micros>(rng.NextBelow(600));
          break;
        default:
          now += 2 * k31 + static_cast<Micros>(rng.NextBelow(uint64_t{1} << 34));
          break;
      }
      ++jumps;
    }
    Access access;
    access.tid = static_cast<ThreadId>(1 + rng.NextBelow(3));
    access.obj = 0x1000 + rng.NextBelow(4) * 1024;  // few objects, same shard domain
    access.op = static_cast<OpId>(rng.NextBelow(16));
    access.kind = rng.NextBool(0.4) ? OpKind::kWrite : OpKind::kRead;
    access.time = now;
    access.concurrent_phase = rng.NextBool(0.5);

    // Reference: scan the object's (bounded) history with the same rule.
    std::multiset<OpId> expected;
    auto& history = model[access.obj];
    for (const RefRecord& rec : history) {
      if (rec.tid != access.tid && KindsConflict(rec.kind, access.kind) &&
          access.time - rec.time <= cfg.nearmiss_window_us) {
        expected.insert(rec.op);
      }
    }
    history.push_back(RefRecord{access.tid, access.op, access.kind, access.time});
    if (static_cast<int>(history.size()) > cfg.nearmiss_history) {
      history.pop_front();
    }

    std::multiset<OpId> actual;
    for (const auto& miss : tracker.RecordAndFindConflicts(access)) {
      actual.insert(miss.other_op);
    }
    ASSERT_EQ(actual, expected) << "step " << step;
  }
  if (time_jumps) {
    EXPECT_GT(jumps, 10) << "the stream barely jumped: the test is vacuous";
  }
}

TEST_P(NearMissProperty, MatchesNaiveModel) {
  ExpectMatchesNaiveModel(GetParam(), /*time_jumps=*/false);
}

TEST_P(NearMissProperty, MatchesNaiveModelAcrossTimeJumps) {
  ExpectMatchesNaiveModel(GetParam(), /*time_jumps=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NearMissProperty, ::testing::Values(3, 17, 2029, 777));
INSTANTIATE_TEST_SUITE_P(JumpSeeds, NearMissProperty,
                         ::testing::Values(5, 91, 4242, 65537));

}  // namespace
}  // namespace tsvd
