/**
 * @file
 * Tests for the lazy, memory-bounded workload (a StreamingWorkload
 * over a GeneratorSource): equivalence with the eager generator,
 * cache-window behaviour, reference stability over the simulator's
 * access pattern, and end-to-end bit-identical simulation.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.hh"
#include "workload/streaming.hh"

using namespace espsim;

namespace
{

AppProfile
smallProfile()
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 20;
    return p;
}

} // namespace

TEST(Lazy, MatchesEagerGeneration)
{
    const AppProfile p = smallProfile();
    StreamingWorkload lazy(std::make_unique<GeneratorSource>(p));
    const auto eager = SyntheticGenerator(p).generate();
    ASSERT_EQ(lazy.numEvents(), eager->numEvents());
    for (std::size_t i = 0; i < lazy.numEvents(); ++i) {
        const EventTrace &a = lazy.event(i);
        const EventTrace &b = eager->event(i);
        ASSERT_EQ(a.size(), b.size()) << i;
        ASSERT_EQ(a.handlerPc, b.handlerPc);
        for (std::size_t k = 0; k < a.size(); ++k)
            ASSERT_EQ(a.ops[k].pc, b.ops[k].pc);
    }
    EXPECT_EQ(lazy.warmSet().size(), eager->warmSet().size());
}

TEST(Lazy, CacheStaysBounded)
{
    StreamingWorkload lazy(
        std::make_unique<GeneratorSource>(smallProfile()), 4);
    for (std::size_t i = 0; i < lazy.numEvents(); ++i) {
        (void)lazy.event(i);
        if (i + 2 < lazy.numEvents()) {
            (void)lazy.event(i + 1); // the ESP lookahead pattern
            (void)lazy.event(i + 2);
        }
        EXPECT_LE(lazy.residentTraces(), 5u);
    }
}

TEST(Lazy, SequentialPassGeneratesEachEventOnce)
{
    StreamingWorkload lazy(
        std::make_unique<GeneratorSource>(smallProfile()), 8);
    for (std::size_t i = 0; i < lazy.numEvents(); ++i)
        (void)lazy.event(i);
    EXPECT_EQ(lazy.generations(), lazy.numEvents());
}

TEST(Lazy, LookaheadReferencesStayValid)
{
    StreamingWorkload lazy(
        std::make_unique<GeneratorSource>(smallProfile()), 6);
    const EventTrace &current = lazy.event(5);
    const Addr pc = current.ops[0].pc;
    (void)lazy.event(6);
    (void)lazy.event(7);
    (void)lazy.event(8); // the contract's idx + 3
    EXPECT_EQ(current.ops[0].pc, pc);
}

TEST(Lazy, RandomRevisitRegeneratesIdentically)
{
    StreamingWorkload lazy(
        std::make_unique<GeneratorSource>(smallProfile()), 4);
    const std::size_t probe = 2;
    const std::size_t len_first = lazy.event(probe).size();
    // March far enough ahead that the probe event is evicted...
    for (std::size_t i = 0; i < lazy.numEvents(); ++i)
        (void)lazy.event(i);
    EXPECT_GT(lazy.generations(), lazy.numEvents() - 1);
    // ...then revisit: deterministic regeneration.
    EXPECT_EQ(lazy.event(probe).size(), len_first);
}

TEST(Lazy, SimulatesIdenticallyToEager)
{
    const AppProfile p = smallProfile();
    StreamingWorkload lazy(std::make_unique<GeneratorSource>(p));
    const auto eager = SyntheticGenerator(p).generate();
    const SimResult a = Simulator(SimConfig::espFull(true)).run(lazy);
    const SimResult b = Simulator(SimConfig::espFull(true)).run(*eager);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.core.mispredicts, b.core.mispredicts);
    EXPECT_DOUBLE_EQ(a.l1iMpki, b.l1iMpki);
}

TEST(LazyDeathTest, OutOfRangePanics)
{
    StreamingWorkload lazy(
        std::make_unique<GeneratorSource>(smallProfile()));
    EXPECT_DEATH((void)lazy.event(999), "out of range");
}
