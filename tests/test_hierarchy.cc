/**
 * @file
 * Unit tests for the memory hierarchy: access levels and latencies,
 * inclusive fills, prefetch issue/lateness, probes, warm-up, perfect
 * modes, and speculative stat gating.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "prefetch/inflight.hh"

using namespace espsim;

namespace
{

HierarchyConfig
smallConfig()
{
    HierarchyConfig c;
    c.l1i = {"L1-I", 1024, 2, 2};
    c.l1d = {"L1-D", 1024, 2, 2};
    c.l2 = {"L2", 16 * 1024, 4, 21};
    c.memLatency = 101;
    return c;
}

} // namespace

TEST(Hierarchy, ColdAccessGoesToMemory)
{
    MemoryHierarchy mem(smallConfig());
    const AccessResult r = mem.accessInstr(0x1000, 0);
    EXPECT_EQ(r.level, HitLevel::Memory);
    EXPECT_TRUE(r.llcMiss());
    EXPECT_EQ(r.latency, 2u + 21u + 101u);
    EXPECT_EQ(mem.l1iMisses(), 1u);
    EXPECT_EQ(mem.l2Misses(), 1u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    MemoryHierarchy mem(smallConfig());
    mem.accessInstr(0x1000, 0);
    const AccessResult r = mem.accessInstr(0x1004, 1);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_EQ(r.latency, 2u);
    EXPECT_EQ(mem.l1iAccesses(), 2u);
    EXPECT_EQ(mem.l1iMisses(), 1u);
}

TEST(Hierarchy, L1EvictionFallsBackToL2)
{
    MemoryHierarchy mem(smallConfig());
    // L1-D is 16 blocks (2-way x 8 sets). Stream 64 distinct blocks
    // through; early ones get evicted from L1 but remain in L2.
    for (Addr a = 0; a < 64 * blockBytes; a += blockBytes)
        mem.accessData(a, false, 0);
    const AccessResult r = mem.accessData(0, false, 0);
    EXPECT_EQ(r.level, HitLevel::L2);
    EXPECT_EQ(r.latency, 2u + 21u);
}

TEST(Hierarchy, StoresMarkDirtyAndCount)
{
    MemoryHierarchy mem(smallConfig());
    mem.accessData(0x2000, true, 0);
    const AccessResult r = mem.accessData(0x2000, false, 1);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_EQ(mem.l1dAccesses(), 2u);
}

TEST(Hierarchy, ProbeDoesNotFill)
{
    MemoryHierarchy mem(smallConfig());
    const AccessResult p = mem.probeInstr(0x5000);
    EXPECT_EQ(p.level, HitLevel::Memory);
    // Still a miss afterwards: probe must not have inserted anything.
    EXPECT_EQ(mem.probeInstr(0x5000).level, HitLevel::Memory);
    EXPECT_EQ(mem.l1iAccesses(), 0u);
}

TEST(Hierarchy, PrefetchMakesLaterAccessHit)
{
    MemoryHierarchy mem(smallConfig());
    EXPECT_TRUE(mem.prefetchInstr(0x3000, 0));
    // Long after the fill latency: clean hit.
    const AccessResult r = mem.accessInstr(0x3000, 10'000);
    EXPECT_EQ(r.level, HitLevel::L1);
    EXPECT_EQ(r.latency, 2u);
    EXPECT_EQ(mem.latePrefetchHits(), 0u);
    EXPECT_EQ(mem.prefetchesIssued(), 1u);
}

TEST(Hierarchy, LatePrefetchPaysResidualLatency)
{
    MemoryHierarchy mem(smallConfig());
    mem.prefetchData(0x3000, 1000); // ready at 1000 + 124
    const AccessResult r = mem.accessData(0x3000, false, 1010);
    EXPECT_GT(r.latency, 2u);
    EXPECT_LT(r.latency, 124u + 2u);
    EXPECT_EQ(mem.latePrefetchHits(), 1u);
}

TEST(Hierarchy, PrefetchOfResidentBlockIsNoOp)
{
    MemoryHierarchy mem(smallConfig());
    mem.accessInstr(0x1000, 0);
    EXPECT_FALSE(mem.prefetchInstr(0x1000, 1));
    EXPECT_EQ(mem.prefetchesIssued(), 0u);
}

TEST(Hierarchy, PerfectL1INeverMisses)
{
    HierarchyConfig c = smallConfig();
    c.perfectL1I = true;
    MemoryHierarchy mem(c);
    for (Addr a = 0; a < 100 * blockBytes; a += blockBytes) {
        const AccessResult r = mem.accessInstr(a, 0);
        ASSERT_EQ(r.level, HitLevel::L1);
        ASSERT_EQ(r.latency, 2u);
    }
    EXPECT_EQ(mem.l1iMisses(), 0u);
}

TEST(Hierarchy, PerfectL1DNeverMisses)
{
    HierarchyConfig c = smallConfig();
    c.perfectL1D = true;
    MemoryHierarchy mem(c);
    for (Addr a = 0; a < 100 * blockBytes; a += blockBytes)
        ASSERT_EQ(mem.accessData(a, false, 0).level, HitLevel::L1);
    EXPECT_EQ(mem.l1dMisses(), 0u);
}

TEST(Hierarchy, StatGatingSuppressesCounters)
{
    MemoryHierarchy mem(smallConfig());
    mem.setStatCounting(false);
    mem.accessInstr(0x1000, 0);
    mem.accessData(0x2000, false, 0);
    EXPECT_EQ(mem.l1iAccesses(), 0u);
    EXPECT_EQ(mem.l1dAccesses(), 0u);
    EXPECT_EQ(mem.l2Misses(), 0u);
    mem.setStatCounting(true);
    // But the fills really happened (state changed).
    EXPECT_EQ(mem.accessInstr(0x1000, 1).level, HitLevel::L1);
}

TEST(Hierarchy, ReportExportsCounters)
{
    MemoryHierarchy mem(smallConfig());
    mem.accessInstr(0x1000, 0);
    StatRegistry reg;
    mem.registerStats(reg, "mem.");
    const StatGroup g = reg.snapshot();
    EXPECT_DOUBLE_EQ(g.get("mem.l1i.accesses"), 1.0);
    EXPECT_DOUBLE_EQ(g.get("mem.l1i.misses"), 1.0);
    EXPECT_DOUBLE_EQ(g.get("mem.l2.misses"), 1.0);
}

// --- InflightPrefetchBuffer ----------------------------------------

TEST(Inflight, IssueAndConsume)
{
    InflightPrefetchBuffer buf(4);
    EXPECT_TRUE(buf.issue(0x1000, 50));
    EXPECT_FALSE(buf.issue(0x1000, 60)); // duplicate
    EXPECT_TRUE(buf.contains(0x1000));
    const auto ready = buf.consume(0x1000);
    ASSERT_TRUE(ready.has_value());
    EXPECT_EQ(*ready, 50u);
    EXPECT_FALSE(buf.contains(0x1000));
    EXPECT_FALSE(buf.consume(0x1000).has_value());
}

TEST(Inflight, CapacityEvictsOldest)
{
    InflightPrefetchBuffer buf(2);
    buf.issue(0x1000, 1);
    buf.issue(0x2000, 2);
    buf.issue(0x3000, 3); // evicts 0x1000
    EXPECT_FALSE(buf.contains(0x1000));
    EXPECT_TRUE(buf.contains(0x2000));
    EXPECT_TRUE(buf.contains(0x3000));
    EXPECT_LE(buf.size(), 2u);
}

TEST(Inflight, ClearEmpties)
{
    InflightPrefetchBuffer buf(4);
    buf.issue(0x1000, 1);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_FALSE(buf.contains(0x1000));
}

TEST(Inflight, StaleFifoEntriesSkippedOnEvict)
{
    InflightPrefetchBuffer buf(2);
    buf.issue(0x1000, 1);
    buf.consume(0x1000); // stale fifo entry remains
    buf.issue(0x2000, 2);
    buf.issue(0x3000, 3);
    // Both live entries must still be present (capacity 2).
    EXPECT_TRUE(buf.contains(0x2000));
    EXPECT_TRUE(buf.contains(0x3000));
}
