/**
 * @file
 * Unit tests for the set-associative cache array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/memsys/cache.h"
#include "src/support/rng.h"
#include "src/trace/micro_op.h"

namespace bp {
namespace {

CacheGeometry
smallCache()
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheGeometry{512, 2, 4};
}

TEST(CacheGeometryTest, DerivedQuantities)
{
    const CacheGeometry g{32 * 1024, 8, 4};
    EXPECT_EQ(g.numLines(), 512u);
    EXPECT_EQ(g.numSets(), 64u);
}

TEST(CacheTest, MissOnEmpty)
{
    SetAssocCache c(smallCache());
    EXPECT_EQ(c.lookup(0), -1);
    EXPECT_FALSE(c.contains(123));
    EXPECT_EQ(c.state(5), LineState::Invalid);
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheTest, InsertThenHit)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.insert(10, LineState::Shared).has_value());
    EXPECT_TRUE(c.contains(10));
    EXPECT_EQ(c.state(10), LineState::Shared);
    EXPECT_EQ(c.occupancy(), 1u);
}

TEST(CacheTest, LruEviction)
{
    SetAssocCache c(smallCache());
    // Lines 0, 4, 8 all map to set 0 (4 sets).
    c.insert(0, LineState::Shared);
    c.insert(4, LineState::Shared);
    // Touch line 0 so line 4 becomes LRU.
    c.touch(0, c.lookup(0));
    const auto ev = c.insert(8, LineState::Shared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 4u);
    EXPECT_FALSE(ev->dirty);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(8));
}

TEST(CacheTest, DirtyEviction)
{
    SetAssocCache c(smallCache());
    c.insert(0, LineState::Modified);
    c.insert(4, LineState::Shared);
    c.touch(4, c.lookup(4));
    const auto ev = c.insert(8, LineState::Shared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 0u);
    EXPECT_TRUE(ev->dirty);
}

TEST(CacheTest, ReinsertExistingLineKeepsOccupancy)
{
    SetAssocCache c(smallCache());
    c.insert(3, LineState::Shared);
    const auto ev = c.insert(3, LineState::Modified);
    EXPECT_FALSE(ev.has_value());
    EXPECT_EQ(c.occupancy(), 1u);
    EXPECT_EQ(c.state(3), LineState::Modified);
}

TEST(CacheTest, ReinsertSharedOverModifiedKeepsModified)
{
    // Regression: re-inserting a Shared copy over a resident Modified
    // line used to silently downgrade it, losing the dirtiness (and
    // the eventual writeback) without any writeback of its own.
    SetAssocCache c(smallCache());
    c.insert(3, LineState::Modified);
    c.insert(3, LineState::Shared);
    EXPECT_EQ(c.state(3), LineState::Modified);
    // The merged line still writes back when evicted.
    c.insert(7, LineState::Shared);
    c.touch(7, c.lookup(7));
    const auto ev = c.insert(11, LineState::Shared);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->line, 3u);
    EXPECT_TRUE(ev->dirty);
}

TEST(CacheTest, ReinsertSharedOverSharedStaysShared)
{
    SetAssocCache c(smallCache());
    c.insert(3, LineState::Shared);
    c.insert(3, LineState::Shared);
    EXPECT_EQ(c.state(3), LineState::Shared);
}

TEST(CacheTest, InvalidateReturnsPriorState)
{
    SetAssocCache c(smallCache());
    c.insert(5, LineState::Modified);
    EXPECT_EQ(c.invalidate(5), LineState::Modified);
    EXPECT_FALSE(c.contains(5));
    EXPECT_EQ(c.invalidate(5), LineState::Invalid);
}

TEST(CacheTest, InvalidWaysPreferredOverEviction)
{
    SetAssocCache c(smallCache());
    c.insert(0, LineState::Shared);
    c.insert(4, LineState::Shared);
    c.invalidate(0);
    const auto ev = c.insert(8, LineState::Shared);
    EXPECT_FALSE(ev.has_value());
    EXPECT_TRUE(c.contains(4));
}

TEST(CacheTest, SetIsolation)
{
    SetAssocCache c(smallCache());
    // Lines 0..3 map to distinct sets; no evictions possible.
    for (uint64_t line = 0; line < 4; ++line)
        EXPECT_FALSE(c.insert(line, LineState::Shared).has_value());
    EXPECT_EQ(c.occupancy(), 4u);
}

TEST(CacheTest, ResetClears)
{
    SetAssocCache c(smallCache());
    c.insert(1, LineState::Modified);
    c.reset();
    EXPECT_EQ(c.occupancy(), 0u);
    EXPECT_FALSE(c.contains(1));
}

TEST(CacheTest, RefillAfterResetMatchesFreshCache)
{
    // reset() leaves the old ways in place; a set must refill exactly
    // as in a new cache, with none of them visible or evicted.
    SetAssocCache reused(smallCache()), fresh(smallCache());
    for (uint64_t line : {1, 5, 2})
        reused.insert(line, LineState::Modified);
    reused.reset();
    for (uint64_t line : {9, 13, 17, 9, 21, 6}) {
        const auto a = reused.insert(line, LineState::Shared);
        const auto b = fresh.insert(line, LineState::Shared);
        ASSERT_EQ(a.has_value(), b.has_value()) << line;
        if (a) {
            EXPECT_EQ(a->line, b->line);
            EXPECT_EQ(a->dirty, b->dirty);
        }
    }
    for (uint64_t line = 0; line < 32; ++line)
        EXPECT_EQ(reused.lookup(line), fresh.lookup(line)) << line;
    EXPECT_EQ(reused.occupancy(), fresh.occupancy());
}

TEST(CacheTest, SetStateOnResidentLine)
{
    SetAssocCache c(smallCache());
    int way = -1;
    c.insert(2, LineState::Shared, &way);
    ASSERT_EQ(c.lookup(2), way);
    c.at(2, way).state = LineState::Modified;
    EXPECT_EQ(c.state(2), LineState::Modified);
}

/** Parameterized fill test across realistic geometries. */
class CacheGeometryFillTest
    : public ::testing::TestWithParam<CacheGeometry>
{};

TEST_P(CacheGeometryFillTest, FillToCapacityThenEvict)
{
    const CacheGeometry g = GetParam();
    SetAssocCache c(g);
    const uint64_t lines = g.numLines();
    for (uint64_t line = 0; line < lines; ++line)
        EXPECT_FALSE(c.insert(line, LineState::Shared).has_value());
    EXPECT_EQ(c.occupancy(), lines);
    // One more line per set must evict.
    for (uint64_t line = lines; line < lines + g.numSets(); ++line)
        EXPECT_TRUE(c.insert(line, LineState::Shared).has_value());
    EXPECT_EQ(c.occupancy(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryFillTest,
    ::testing::Values(CacheGeometry{512, 2, 1},
                      CacheGeometry{32 * 1024, 8, 4},
                      CacheGeometry{256 * 1024, 8, 8},
                      CacheGeometry{1024 * 1024, 16, 30}));

/** LRU stress: behaviour must match a naive per-set LRU model. */
TEST(CacheTest, MatchesNaiveLruModel)
{
    const CacheGeometry g{1024, 4, 1};  // 4 sets x 4 ways
    SetAssocCache c(g);
    std::vector<std::vector<uint64_t>> naive(g.numSets());

    uint64_t seed = 2024;
    for (int i = 0; i < 3000; ++i) {
        const uint64_t line = splitMix64(seed) % 64;
        const size_t set = line % g.numSets();
        auto &mru = naive[set];
        const auto it = std::find(mru.begin(), mru.end(), line);

        const int way = c.lookup(line);
        if (it != mru.end()) {
            ASSERT_GE(way, 0) << "naive model says hit";
            c.touch(line, way);
            mru.erase(it);
            mru.push_back(line);
        } else {
            ASSERT_EQ(way, -1) << "naive model says miss";
            c.insert(line, LineState::Shared);
            if (mru.size() == g.assoc)
                mru.erase(mru.begin());
            mru.push_back(line);
        }
    }
}

} // namespace
} // namespace bp
