/**
 * @file
 * Unit and property tests for the set-associative cache and the ESP
 * cachelets (way reservation / rotation / isolation).
 */

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/cachelet.hh"
#include "common/rng.hh"

using namespace espsim;

TEST(Cache, HitAfterInsert)
{
    SetAssocCache c({"t", 1024, 2, 1});
    EXPECT_FALSE(c.lookup(0x1000));
    c.insert(0x1000);
    EXPECT_TRUE(c.lookup(0x1000));
    EXPECT_TRUE(c.contains(0x1040 - 1)); // same block
    EXPECT_FALSE(c.contains(0x1040));
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2 ways, 8 sets (1 KB): addresses with equal set index conflict.
    SetAssocCache c({"t", 1024, 2, 1});
    const Addr set_stride = 8 * blockBytes;
    const Addr a = 0, b = set_stride, d = 2 * set_stride;
    c.insert(a);
    c.insert(b);
    EXPECT_TRUE(c.lookup(a)); // a is now MRU
    c.insert(d);              // evicts b (LRU)
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, InsertExistingRefreshesLru)
{
    SetAssocCache c({"t", 1024, 2, 1});
    const Addr set_stride = 8 * blockBytes;
    const Addr a = 0, b = set_stride, d = 2 * set_stride;
    c.insert(a);
    c.insert(b);
    c.insert(a); // refresh a
    c.insert(d); // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
}

TEST(Cache, InvalidateAllEmptiesPopulation)
{
    SetAssocCache c({"t", 4096, 4, 1});
    for (Addr a = 0; a < 4096; a += blockBytes)
        c.insert(a);
    EXPECT_EQ(c.population(), 64u);
    c.invalidateAll();
    EXPECT_EQ(c.population(), 0u);
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, PopulationNeverExceedsCapacity)
{
    SetAssocCache c({"t", 2048, 2, 1});
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        c.insert(rng.below(1 << 20) * blockBytes);
    EXPECT_LE(c.population(), c.geometry().numBlocks());
}

TEST(CacheDeathTest, BadGeometryFatals)
{
    EXPECT_DEATH(SetAssocCache({"t", 1000, 3, 1}), "not divisible");
    EXPECT_DEATH(SetAssocCache({"t", 1024, 0, 1}), "associativity");
}

/**
 * Property test: a fully-associative SetAssocCache (one set) must
 * behave exactly like a reference LRU list for any access sequence.
 */
TEST(CacheProperty, FullyAssociativeMatchesReferenceLru)
{
    const unsigned ways = 8;
    SetAssocCache c({"t", ways * blockBytes, ways, 1});
    std::vector<Addr> reference; // front = MRU

    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(32) * blockBytes;
        // Reference model.
        bool ref_hit = false;
        for (std::size_t j = 0; j < reference.size(); ++j) {
            if (reference[j] == addr) {
                reference.erase(reference.begin() + j);
                ref_hit = true;
                break;
            }
        }
        reference.insert(reference.begin(), addr);
        if (reference.size() > ways)
            reference.pop_back();

        const bool hit = c.lookup(addr);
        ASSERT_EQ(hit, ref_hit) << "iteration " << i;
        if (!hit)
            c.insert(addr);
    }
}

/** Geometry sweep: hits/misses are consistent for every shape. */
class CacheGeometrySweep
    : public ::testing::TestWithParam<std::pair<std::size_t, unsigned>>
{
};

TEST_P(CacheGeometrySweep, SequentialFillThenRescanHits)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache c({"t", size, assoc, 1});
    const std::size_t blocks = size / blockBytes;
    // Fill exactly to capacity with one pass...
    for (std::size_t i = 0; i < blocks; ++i)
        c.insert(i * blockBytes);
    // ...every block must still be resident (no self-eviction).
    for (std::size_t i = 0; i < blocks; ++i)
        ASSERT_TRUE(c.contains(i * blockBytes)) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometrySweep,
    ::testing::Values(std::pair<std::size_t, unsigned>{1024, 2},
                      std::pair<std::size_t, unsigned>{2048, 4},
                      std::pair<std::size_t, unsigned>{32 * 1024, 2},
                      std::pair<std::size_t, unsigned>{6 * 1024, 12},
                      std::pair<std::size_t, unsigned>{64 * 1024, 16}));

// --- Victim order -------------------------------------------------
//
// These pin the exact replacement sequence of the tag array: the
// victim is the first invalid way of the allowed range, else its
// least recently used way, and a block already resident in any way is
// refreshed in place.

namespace
{

/** Block @p n of a one-set cache (every block maps to set 0). */
constexpr Addr
blk(unsigned n)
{
    return Addr{n} * blockBytes;
}

constexpr std::optional<Addr> noVictim = std::nullopt;

} // namespace

TEST(Cache, VictimOrderIsLeastRecentlyUsed)
{
    SetAssocCache c({"t", 4 * blockBytes, 4, 1}); // one set, 4 ways
    EXPECT_EQ(c.insertEvicting(blk(0)), noVictim);
    EXPECT_EQ(c.insertEvicting(blk(1)), noVictim);
    EXPECT_EQ(c.insertEvicting(blk(2)), noVictim);
    EXPECT_EQ(c.insertEvicting(blk(3)), noVictim);
    EXPECT_TRUE(c.lookup(blk(0)));
    EXPECT_TRUE(c.lookup(blk(2))); // LRU order now 1, 3, 0, 2
    EXPECT_EQ(c.insertEvicting(blk(4)), std::optional<Addr>(blk(1)));
    // Refreshing a resident block evicts nothing and makes it MRU.
    EXPECT_EQ(c.insertEvicting(blk(3)), noVictim); // order 0, 2, 4, 3
    EXPECT_EQ(c.insertEvicting(blk(5)), std::optional<Addr>(blk(0)));
    EXPECT_EQ(c.insertEvicting(blk(6)), std::optional<Addr>(blk(2)));
    EXPECT_EQ(c.insertEvicting(blk(7)), std::optional<Addr>(blk(4)));
    // The victim comes back block-aligned whatever offset the filling
    // address carries; contains() is block-granular.
    EXPECT_EQ(c.insertEvicting(blk(8) + 17),
              std::optional<Addr>(blk(3)));
    EXPECT_TRUE(c.contains(blk(8)));
    EXPECT_EQ(c.population(), 4u);
    // A miss does not touch replacement state: 5 is still the LRU.
    EXPECT_FALSE(c.lookup(blk(9)));
    EXPECT_EQ(c.insertEvicting(blk(9)), std::optional<Addr>(blk(5)));
}

TEST(Cache, FirstInvalidWayWinsOverLeastRecent)
{
    // A cachelet can invalidate some ways of a set and keep others;
    // plain insert() then spans every way.
    Cachelet c({"cl", 4 * blockBytes, 4, 1}); // ESP-1 ways 0-2, ESP-2 3
    c.insertFor(EspDepth::Esp1, blk(0));
    c.insertFor(EspDepth::Esp1, blk(1));
    c.insertFor(EspDepth::Esp1, blk(2));
    c.insertFor(EspDepth::Esp2, blk(3));
    c.invalidateFor(EspDepth::Esp1);
    EXPECT_EQ(c.population(), 1u);
    // Ways 0-2 are free: they fill in way order even though block 3
    // (way 3) is the only valid line and would be the LRU.
    EXPECT_EQ(c.insertEvicting(blk(4)), noVictim);
    EXPECT_EQ(c.insertEvicting(blk(5)), noVictim);
    EXPECT_EQ(c.insertEvicting(blk(6)), noVictim);
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, blk(4)));
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, blk(5)));
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, blk(6)));
    // Full: the LRU line (block 3, way 3) goes next, and the new block
    // lands in the ESP-2 way.
    EXPECT_EQ(c.insertEvicting(blk(7)), std::optional<Addr>(blk(3)));
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp2, blk(7)));
}

TEST(Cache, DirtyBitSurvivesRefreshAndLeavesWithTheLine)
{
    SetAssocCache c({"t", 2 * blockBytes, 2, 1}); // one set, 2 ways
    c.insert(blk(0), true);
    EXPECT_EQ(c.dirtyPopulation(), 1u);
    c.insert(blk(0), false); // a clean refresh keeps the dirty bit
    EXPECT_EQ(c.dirtyPopulation(), 1u);
    c.insert(blk(1), false);
    EXPECT_EQ(c.dirtyPopulation(), 1u);
    c.insert(blk(1), true); // a dirty refresh sets it
    EXPECT_EQ(c.dirtyPopulation(), 2u);
    // Block 0 is the LRU; its dirty bit leaves with it.
    EXPECT_EQ(c.insertEvicting(blk(2)), std::optional<Addr>(blk(0)));
    EXPECT_EQ(c.population(), 2u);
    EXPECT_EQ(c.dirtyPopulation(), 1u);
    c.markDirty(c.lookupLine(blk(2))); // a store hit
    EXPECT_EQ(c.dirtyPopulation(), 2u);
    // A clean fill into a way a dirty line vacated starts clean.
    EXPECT_EQ(c.insertEvicting(blk(3)), std::optional<Addr>(blk(1)));
    EXPECT_EQ(c.dirtyPopulation(), 1u);
    c.invalidateAll();
    EXPECT_EQ(c.population(), 0u);
    EXPECT_EQ(c.dirtyPopulation(), 0u);
    c.insert(blk(2));
    EXPECT_EQ(c.dirtyPopulation(), 0u);
}

TEST(Cachelet, WayPartitionAcrossRotationAndInvalidation)
{
    Cachelet c({"cl", 4 * blockBytes, 4, 1}); // one set, 4 ways
    ASSERT_EQ(c.reservedWay(), 3u);           // ESP-1 owns ways 0-2
    c.insertFor(EspDepth::Esp1, blk(0));      // way 0
    c.insertFor(EspDepth::Esp1, blk(1));      // way 1
    c.insertFor(EspDepth::Esp1, blk(2));      // way 2
    c.insertFor(EspDepth::Esp2, blk(3));      // way 3
    // A block resident in the other partition is refreshed in place,
    // not duplicated.
    c.insertFor(EspDepth::Esp1, blk(3));
    EXPECT_EQ(c.population(), 4u);
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp1, blk(3)));
    // ESP-1 is full: its LRU way (block 0) is the victim, never the
    // ESP-2 way.
    c.insertFor(EspDepth::Esp1, blk(4)); // way 0
    EXPECT_FALSE(c.contains(blk(0)));
    EXPECT_TRUE(c.contains(blk(3)));

    // Rotation: way 0 becomes ESP-2's and is cleared; block 3 (way 3)
    // is promoted into ESP-1's ways 1-3.
    c.rotateReservedWay();
    EXPECT_EQ(c.reservedWay(), 0u);
    EXPECT_FALSE(c.contains(blk(4)));
    EXPECT_EQ(c.population(), 3u);
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, blk(3)));
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, blk(1)));
    c.insertFor(EspDepth::Esp2, blk(5)); // way 0
    // ESP-1's LRU among ways 1-3 is block 2 (blocks 3 and 1 were just
    // touched).
    c.insertFor(EspDepth::Esp1, blk(6));
    EXPECT_FALSE(c.contains(blk(2)));
    EXPECT_TRUE(c.contains(blk(6)));
    EXPECT_EQ(c.population(), 4u);

    c.invalidateFor(EspDepth::Esp2);
    EXPECT_FALSE(c.contains(blk(5)));
    EXPECT_EQ(c.population(), 3u);

    // Rotating back clears way 3 (block 3) and hands ways 0-2 to ESP-1.
    c.rotateReservedWay();
    EXPECT_EQ(c.reservedWay(), 3u);
    EXPECT_FALSE(c.contains(blk(3)));
    EXPECT_EQ(c.population(), 2u);
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, blk(1)));
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, blk(6)));
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp2, blk(1)));
    c.invalidateFor(EspDepth::Esp1);
    EXPECT_EQ(c.population(), 0u);
    EXPECT_EQ(c.dirtyPopulation(), 0u);
}

// --- Cachelet ------------------------------------------------------

TEST(Cachelet, PartitionIsolation)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    c.insertFor(EspDepth::Esp1, 0x1000);
    c.insertFor(EspDepth::Esp2, 0x2000);
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, 0x1000));
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp2, 0x1000));
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp2, 0x2000));
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp1, 0x2000));
}

TEST(Cachelet, Esp2OwnsExactlyOneWay)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    // Insert many conflicting blocks for ESP-2: only one way per set,
    // so at most numSets blocks survive.
    const std::size_t sets = c.geometry().numSets();
    for (Addr i = 0; i < 64; ++i)
        c.insertFor(EspDepth::Esp2, i * blockBytes);
    std::size_t resident = 0;
    for (Addr i = 0; i < 64; ++i)
        resident += c.contains(i * blockBytes);
    EXPECT_LE(resident, sets);
}

TEST(Cachelet, RotationPromotesEsp2Blocks)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    const unsigned before = c.reservedWay();
    c.insertFor(EspDepth::Esp2, 0x4000);
    c.rotateReservedWay();
    EXPECT_NE(c.reservedWay(), before);
    // The promoted block now belongs to the ESP-1 partition.
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, 0x4000));
    // And the fresh ESP-2 way is clean.
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp2, 0x4000));
}

TEST(Cachelet, RotationClearsNewReservedWay)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    // Fill ESP-1 ways heavily.
    for (Addr i = 0; i < 256; ++i)
        c.insertFor(EspDepth::Esp1, i * blockBytes);
    c.rotateReservedWay();
    // New ESP-2 partition must not see stale ESP-1 blocks.
    std::size_t hits = 0;
    for (Addr i = 0; i < 256; ++i)
        hits += c.lookupFor(EspDepth::Esp2, i * blockBytes);
    EXPECT_EQ(hits, 0u);
}

TEST(Cachelet, DoubleRotationRoundTrips)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    const unsigned w0 = c.reservedWay();
    c.rotateReservedWay();
    c.rotateReservedWay();
    EXPECT_EQ(c.reservedWay(), w0);
}

TEST(Cachelet, InvalidateForDepth)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    c.insertFor(EspDepth::Esp1, 0x1000);
    c.insertFor(EspDepth::Esp2, 0x2000);
    c.invalidateFor(EspDepth::Esp1);
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp1, 0x1000));
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp2, 0x2000));
}

TEST(CacheletDeathTest, NeedsTwoWays)
{
    EXPECT_DEATH(Cachelet({"cl", 64, 1, 1}), "at least 2 ways");
}
