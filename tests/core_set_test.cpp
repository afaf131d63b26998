/**
 * @file
 * Unit and property tests for CoreSet (support/core_set.h):
 * the word-array bitmap must agree with std::bitset<1024> on every
 * operation, with explicit attention to the 64-bit word boundaries
 * the old flat-mask representation ended at.
 */

#include <gtest/gtest.h>

#include <bitset>
#include <vector>

#include "src/support/core_set.h"
#include "src/support/rng.h"

namespace bp {
namespace {

using Wide = CoreSet<1024>;
using Ref = std::bitset<1024>;

std::vector<unsigned>
setBitsOf(const Wide &s)
{
    std::vector<unsigned> bits;
    s.forEachSetBit([&](unsigned b) { bits.push_back(b); });
    return bits;
}

std::vector<unsigned>
setBitsOf(const Ref &r)
{
    std::vector<unsigned> bits;
    for (unsigned b = 0; b < r.size(); ++b) {
        if (r.test(b))
            bits.push_back(b);
    }
    return bits;
}

void
expectEquivalent(const Wide &s, const Ref &r)
{
    ASSERT_EQ(s.count(), r.count());
    ASSERT_EQ(s.none(), r.none());
    ASSERT_EQ(s.any(), r.any());
    ASSERT_EQ(setBitsOf(s), setBitsOf(r));
}

// ------------------------------------------------------- word boundaries

TEST(CoreSetTest, WordBoundaryBits)
{
    // Each boundary of the old single-word mask and of every internal
    // CoreSet word: set, test, clear must be exact and neighbors must
    // be untouched.
    for (const unsigned bit : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 255u,
                               256u, 511u, 512u, 513u, 1022u, 1023u}) {
        Wide s;
        s.set(bit);
        EXPECT_TRUE(s.test(bit)) << bit;
        EXPECT_EQ(s.count(), 1u) << bit;
        EXPECT_EQ(s.firstSet(), static_cast<int>(bit)) << bit;
        EXPECT_EQ(s.nextSet(bit), -1) << bit;
        if (bit > 0) {
            EXPECT_FALSE(s.test(bit - 1)) << bit;
            EXPECT_EQ(s.nextSet(bit - 1), static_cast<int>(bit)) << bit;
        }
        if (bit + 1 < Wide::kBits)
            EXPECT_FALSE(s.test(bit + 1)) << bit;
        EXPECT_FALSE(s.anyOtherThan(bit)) << bit;
        s.clear(bit);
        EXPECT_TRUE(s.none()) << bit;
    }
}

TEST(CoreSetTest, IterationCrossesWords)
{
    Wide s;
    const std::vector<unsigned> bits = {0, 63, 64, 511, 512, 1023};
    for (const unsigned b : bits)
        s.set(b);
    EXPECT_EQ(setBitsOf(s), bits);  // ascending order
    EXPECT_EQ(s.firstSet(), 0);
    EXPECT_EQ(s.nextSet(0), 63);
    EXPECT_EQ(s.nextSet(63), 64);
    EXPECT_EQ(s.nextSet(64), 511);
    EXPECT_EQ(s.nextSet(512), 1023);
    EXPECT_EQ(s.nextSet(1023), -1);
    EXPECT_TRUE(s.anyOtherThan(64));
}

TEST(CoreSetTest, SingleAndEquality)
{
    const auto a = Wide::single(512);
    Wide b;
    b.set(512);
    EXPECT_EQ(a, b);
    b.set(0);
    EXPECT_NE(a, b);
    b.clear(0);
    EXPECT_EQ(a, b);
}

TEST(CoreSetTest, NarrowCapacityUsesPartialWord)
{
    // Non-multiple-of-64 capacities must work (kMaxSockets-style).
    CoreSet<100> s;
    s.set(99);
    EXPECT_TRUE(s.test(99));
    EXPECT_EQ(s.firstSet(), 99);
    EXPECT_EQ(s.nextSet(99), -1);
    EXPECT_EQ(s.count(), 1u);
}

// ------------------------------------------------ randomized vs bitset

TEST(CoreSetTest, RandomOpsMatchStdBitset)
{
    Rng rng(0xC0DE5E7);
    Wide s;
    Ref r;
    for (int i = 0; i < 20000; ++i) {
        const unsigned bit =
            static_cast<unsigned>(rng.nextBounded(Wide::kBits));
        switch (rng.nextBounded(4)) {
          case 0:
            s.set(bit);
            r.set(bit);
            break;
          case 1:
            s.clear(bit);
            r.reset(bit);
            break;
          case 2:
            ASSERT_EQ(s.test(bit), r.test(bit));
            break;
          case 3:
            ASSERT_EQ(s.anyOtherThan(bit),
                      (Ref(r).reset(bit)).any());
            break;
        }
        if (i % 256 == 0)
            expectEquivalent(s, r);
    }
    expectEquivalent(s, r);
}

TEST(CoreSetTest, AndNotOrWithIntersectsMatchStdBitset)
{
    Rng rng(0xBEEF);
    for (int round = 0; round < 200; ++round) {
        Wide a, b;
        Ref ra, rb;
        const unsigned n = static_cast<unsigned>(rng.nextBounded(64)) + 1;
        for (unsigned i = 0; i < n; ++i) {
            const unsigned abit =
                static_cast<unsigned>(rng.nextBounded(Wide::kBits));
            const unsigned bbit =
                static_cast<unsigned>(rng.nextBounded(Wide::kBits));
            a.set(abit);
            ra.set(abit);
            b.set(bbit);
            rb.set(bbit);
        }
        ASSERT_EQ(a.intersects(b), (ra & rb).any());

        Wide and_not = a;
        and_not.andNot(b);
        expectEquivalent(and_not, ra & ~rb);

        Wide or_with = a;
        or_with.orWith(b);
        expectEquivalent(or_with, ra | rb);
    }
}

} // namespace
} // namespace bp
