// Unit tests for the trap set: dangerous pairs, probabilities, decay, persistence
// (Sections 3.4.1, 3.4.5, 3.4.6).
#include <gtest/gtest.h>

#include "src/common/callsite.h"
#include "src/core/trap_set.h"

namespace tsvd {
namespace {

Config SetConfig(double decay = 0.5, double min_p = 0.05) {
  Config cfg;
  cfg.decay_factor = decay;
  cfg.min_probability = min_p;
  return cfg;
}

TEST(TrapSetTest, AddPairArmsBothLocations) {
  TrapSet traps(SetConfig());
  EXPECT_TRUE(traps.AddPair(1, 2));
  EXPECT_DOUBLE_EQ(traps.Prob(1), 1.0);
  EXPECT_DOUBLE_EQ(traps.Prob(2), 1.0);
  EXPECT_EQ(traps.PairCount(), 1u);
}

TEST(TrapSetTest, DuplicateAddIsNoOp) {
  TrapSet traps(SetConfig());
  EXPECT_TRUE(traps.AddPair(1, 2));
  EXPECT_FALSE(traps.AddPair(2, 1));  // canonical ordering
  EXPECT_EQ(traps.PairCount(), 1u);
}

TEST(TrapSetTest, SameLocationPairSupported) {
  TrapSet traps(SetConfig());
  EXPECT_TRUE(traps.AddPair(3, 3));
  EXPECT_DOUBLE_EQ(traps.Prob(3), 1.0);
  EXPECT_EQ(traps.PartnersOf(3).size(), 1u);
}

TEST(TrapSetTest, UnknownLocationHasZeroProbability) {
  TrapSet traps(SetConfig());
  EXPECT_DOUBLE_EQ(traps.Prob(99), 0.0);
}

TEST(TrapSetTest, HbPruneRemovesAndBlocksReaddition) {
  TrapSet traps(SetConfig());
  traps.AddPair(1, 2);
  traps.MarkHbOrdered(1, 2);
  EXPECT_EQ(traps.PairCount(), 0u);
  EXPECT_DOUBLE_EQ(traps.Prob(1), 0.0);
  EXPECT_TRUE(traps.WasHbPruned(1, 2));
  EXPECT_FALSE(traps.AddPair(1, 2));
}

TEST(TrapSetTest, FoundPruneRemovesAndBlocksReaddition) {
  TrapSet traps(SetConfig());
  traps.AddPair(1, 2);
  traps.MarkFound(2, 1);
  EXPECT_EQ(traps.PairCount(), 0u);
  EXPECT_FALSE(traps.AddPair(1, 2));
}

TEST(TrapSetTest, PruningOnePairKeepsOthersAlive) {
  TrapSet traps(SetConfig());
  traps.AddPair(1, 2);
  traps.AddPair(1, 3);
  traps.MarkHbOrdered(1, 2);
  EXPECT_EQ(traps.PairCount(), 1u);
  EXPECT_DOUBLE_EQ(traps.Prob(1), 1.0);  // still has the (1,3) pair
  EXPECT_DOUBLE_EQ(traps.Prob(2), 0.0);  // lost its only pair
}

TEST(TrapSetTest, DecayReducesProbabilityGeometrically) {
  TrapSet traps(SetConfig(0.5));
  traps.AddPair(1, 2);
  traps.DecayAfterFailedDelay(1);
  EXPECT_DOUBLE_EQ(traps.Prob(1), 0.5);
  EXPECT_DOUBLE_EQ(traps.Prob(2), 0.5);  // both endpoints of the pair decay
  traps.DecayAfterFailedDelay(1);
  EXPECT_DOUBLE_EQ(traps.Prob(1), 0.25);
}

TEST(TrapSetTest, DecayBelowMinimumRemovesPairs) {
  TrapSet traps(SetConfig(0.9, 0.2));
  traps.AddPair(1, 2);
  traps.DecayAfterFailedDelay(1);  // 1.0 -> 0.1 < 0.2 -> dead
  EXPECT_DOUBLE_EQ(traps.Prob(1), 0.0);
  EXPECT_EQ(traps.PairCount(), 0u);
  // Not HB-pruned or found: a fresh near miss may re-arm it.
  EXPECT_TRUE(traps.AddPair(1, 2));
}

TEST(TrapSetTest, DecayFactorZeroDisablesDecay) {
  TrapSet traps(SetConfig(0.0));
  traps.AddPair(1, 2);
  for (int i = 0; i < 100; ++i) {
    traps.DecayAfterFailedDelay(1);
  }
  EXPECT_DOUBLE_EQ(traps.Prob(1), 1.0);  // Fig. 9(g): factor 0 means no decay
}

TEST(TrapSetTest, ExportImportRoundtrip) {
  auto& registry = CallSiteRegistry::Instance();
  const OpId a = registry.InternRaw("ts.cc", 1, "Dictionary.Add", OpKind::kWrite);
  const OpId b = registry.InternRaw("ts.cc", 2, "Dictionary.Get", OpKind::kRead);
  TrapSet source(SetConfig());
  source.AddPair(a, b);
  const TrapFile file = source.Export();
  ASSERT_EQ(file.pairs.size(), 1u);

  TrapSet target(SetConfig());
  target.Import(file);
  EXPECT_EQ(target.PairCount(), 1u);
  EXPECT_DOUBLE_EQ(target.Prob(a), 1.0);
  EXPECT_DOUBLE_EQ(target.Prob(b), 1.0);
}

TEST(TrapSetTest, ImportSkipsUnknownSignatures) {
  TrapFile file;
  file.pairs.emplace_back("never_interned.cc:1 X", "never_interned.cc:2 Y");
  TrapSet traps(SetConfig());
  traps.Import(file);
  EXPECT_EQ(traps.PairCount(), 0u);
}

TEST(TrapSetTest, PartnersTracksAllPairsOfALocation) {
  TrapSet traps(SetConfig());
  traps.AddPair(1, 2);
  traps.AddPair(1, 3);
  traps.AddPair(1, 4);
  EXPECT_EQ(traps.PartnersOf(1).size(), 3u);
  EXPECT_EQ(traps.PartnersOf(2).size(), 1u);
}

// A working set far larger than a handful of cache slots: every pair is added
// exactly once no matter how often it recurs, and later passes are all no-ops.
TEST(TrapSetTest, LargeWorkingSetCountsEachPairOnce) {
  TrapSet traps(SetConfig(0.0));
  constexpr int kPairs = 200;
  int genuine = 0;
  for (int pass = 0; pass < 20; ++pass) {
    for (int i = 0; i < kPairs; ++i) {
      if (traps.AddPair(static_cast<OpId>(1 + i), static_cast<OpId>(1000 + 7 * i))) {
        ++genuine;
        EXPECT_EQ(pass, 0) << "pair " << i << " re-added";
      }
    }
  }
  EXPECT_EQ(genuine, kPairs);
  EXPECT_EQ(traps.PairCount(), static_cast<uint64_t>(kPairs));
}

// The no-op cache tags each entry with the removal epoch it was filled under. A
// pair cached by this thread and then removed by decay must be re-addable after the
// epoch bump, and again after a second removal, while an untouched cached pair
// stays a no-op.
TEST(TrapSetTest, CachedPairRemovedByDecayIsReaddedAfterEpochBump) {
  TrapSet traps(SetConfig(0.9, 0.2));  // one failed delay kills a fresh pair
  ASSERT_TRUE(traps.AddPair(5, 6));
  ASSERT_TRUE(traps.AddPair(1, 2));
  for (int removal = 0; removal < 3; ++removal) {
    ASSERT_FALSE(traps.AddPair(1, 2));  // cached as a no-op under the current epoch
    traps.DecayAfterFailedDelay(1);     // removes (1,2), bumps the epoch
    EXPECT_EQ(traps.PairCount(), 1u);
    EXPECT_TRUE(traps.AddPair(1, 2)) << "removal " << removal;
    EXPECT_FALSE(traps.AddPair(5, 6));  // never removed: still a no-op
    EXPECT_EQ(traps.PairCount(), 2u);
  }
}

}  // namespace
}  // namespace tsvd
