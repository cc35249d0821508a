/**
 * @file
 * Tests for the streaming workload core: EventSource equivalence with
 * a fully-materialised trace, bounded residency, free-list recycling
 * of retired EventTrace objects (their op arrays are replaced, not
 * reused), and (in ESPSIM_ALLOC_COUNTER builds) the amortised-O(1)
 * allocation guarantee — steady-state streaming allocates only at
 * window-advance boundaries.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/alloc_counter.hh"
#include "sim/simulator.hh"
#include "workload/streaming.hh"

using namespace espsim;

namespace
{

AppProfile
smallProfile()
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 40;
    return p;
}

StreamingWorkload
makeStreaming(std::size_t window = 8)
{
    return StreamingWorkload(
        std::make_unique<GeneratorSource>(smallProfile()), window);
}

} // namespace

TEST(Streaming, MatchesMaterializedTrace)
{
    const AppProfile p = smallProfile();
    StreamingWorkload streamed(std::make_unique<GeneratorSource>(p));
    const auto eager = SyntheticGenerator(p).generate();
    ASSERT_EQ(streamed.numEvents(), eager->numEvents());
    EXPECT_EQ(streamed.name(), eager->name());
    for (std::size_t i = 0; i < streamed.numEvents(); ++i) {
        const EventTrace &a = streamed.event(i);
        const EventTrace &b = eager->event(i);
        ASSERT_EQ(a.size(), b.size()) << i;
        ASSERT_EQ(a.handlerPc, b.handlerPc) << i;
        for (std::size_t k = 0; k < a.size(); ++k) {
            ASSERT_EQ(a.ops[k].pc, b.ops[k].pc);
            ASSERT_EQ(a.ops[k].memAddr, b.ops[k].memAddr);
        }
    }
    EXPECT_EQ(streamed.warmSet().size(), eager->warmSet().size());
}

TEST(Streaming, ResidencyStaysBoundedOverFullPass)
{
    StreamingWorkload w = makeStreaming(4);
    for (std::size_t i = 0; i < w.numEvents(); ++i) {
        (void)w.event(i);
        if (i + 2 < w.numEvents()) {
            (void)w.event(i + 1); // the ESP lookahead pattern
            (void)w.event(i + 2);
        }
        // One reader: window-many pins plus the freshly-admitted
        // lookahead entries.
        EXPECT_LE(w.residentTraces(), 8u) << "at event " << i;
    }
}

TEST(Streaming, SequentialPassRecyclesRetiredTraces)
{
    StreamingWorkload w = makeStreaming(4);
    for (std::size_t i = 0; i < w.numEvents(); ++i)
        (void)w.event(i);
    // Every event was generated exactly once...
    EXPECT_EQ(w.generations(), w.numEvents());
    // ...and once the window filled, retired EventTrace objects
    // received the newly generated traces.
    EXPECT_GT(w.recycled(), 0u);
    EXPECT_LT(w.recycled(), w.generations());
}

TEST(Streaming, LookaheadReferenceSurvivesContractWindow)
{
    StreamingWorkload w = makeStreaming(6);
    const EventTrace &current = w.event(5);
    const Addr pc = current.ops[0].pc;
    const std::size_t len = current.size();
    (void)w.event(6);
    (void)w.event(7);
    (void)w.event(8); // the contract's idx + 3
    EXPECT_EQ(current.ops[0].pc, pc);
    EXPECT_EQ(current.size(), len);
}

TEST(Streaming, SimulatesIdenticallyToMaterialized)
{
    const AppProfile p = smallProfile();
    StreamingWorkload streamed(std::make_unique<GeneratorSource>(p));
    const auto eager = SyntheticGenerator(p).generate();
    const SimResult a =
        Simulator(SimConfig::espFull(true)).run(streamed);
    const SimResult b =
        Simulator(SimConfig::espFull(true)).run(*eager);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.core.mispredicts, b.core.mispredicts);
    EXPECT_DOUBLE_EQ(a.l1iMpki, b.l1iMpki);
}

TEST(StreamingDeathTest, OutOfRangePanics)
{
    StreamingWorkload w = makeStreaming();
    EXPECT_DEATH((void)w.event(999), "out of range");
}

// --------------------------------------------------------------------
// Zero-alloc invariant (only meaningful in ESPSIM_ALLOC_COUNTER builds)
// --------------------------------------------------------------------

TEST(Streaming, SteadyStateReRequestDoesNotAllocate)
{
    if (!allocCounterActive())
        GTEST_SKIP() << "build without ESPSIM_ALLOC_COUNTER";
    StreamingWorkload w = makeStreaming(8);
    for (std::size_t i = 0; i <= 30; ++i)
        (void)w.event(i);
    // Cache hits inside the pinned window are pure lookups.
    const std::uint64_t before = allocCount();
    (void)w.event(28);
    (void)w.event(29);
    (void)w.event(30);
    EXPECT_EQ(allocCount(), before);
}

TEST(Streaming, AllocationsPerEventStayFlat)
{
    if (!allocCounterActive())
        GTEST_SKIP() << "build without ESPSIM_ALLOC_COUNTER";
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 240;
    StreamingWorkload w(std::make_unique<GeneratorSource>(p), 8);
    // Warm past the first window so the free list is populated.
    for (std::size_t i = 0; i < 40; ++i)
        (void)w.event(i);
    const std::uint64_t c0 = allocCount();
    for (std::size_t i = 40; i < 140; ++i)
        (void)w.event(i);
    const std::uint64_t first = allocCount() - c0;
    const std::uint64_t c1 = allocCount();
    for (std::size_t i = 140; i < 240; ++i)
        (void)w.event(i);
    const std::uint64_t second = allocCount() - c1;
    // Amortised O(1)/event: a later window of 100 events must not
    // allocate meaningfully more than an earlier one (no growth with
    // stream position). Slack covers variance in trace sizes.
    EXPECT_LE(second, first * 2 + 64);
}
