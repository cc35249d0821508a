/**
 * @file
 * Tests of the host profiler's span accounting and SampleStat
 * percentile edge cases.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/histogram.hh"
#include "report/host_profile.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

/** Tiny app so the profiled run takes milliseconds. */
AppProfile
tinyProfile()
{
    AppProfile p = AppProfile::byName("amazon");
    p.name = "amazon-tiny";
    p.numEvents = 8;
    p.avgEventLen = 3000;
    return p;
}

} // namespace

// --------------------------------------------------------------------
// Host profiler
// --------------------------------------------------------------------

TEST(HostProfile, WallClockSpansAccumulate)
{
    HostCellProfile profile;
    {
        WallClockSpan span(&profile.simMs);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const double first = profile.simMs;
    EXPECT_GE(first, 2.0);
    {
        WallClockSpan span(&profile.simMs);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(profile.simMs, first + 1.0); // adds, never overwrites
    { WallClockSpan free_span(nullptr); } // must be a no-op
    EXPECT_EQ(profile.warmupMs, 0.0);
    EXPECT_EQ(profile.reportMs, 0.0);
    EXPECT_GT(peakRssMb(), 0.0);
}

TEST(HostProfile, ProfiledRunFillsEveryPhaseSpan)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    HostCellProfile profile;
    RunInstrumentation inst;
    inst.hostProfile = &profile;
    (void)Simulator(SimConfig::espFull(true)).run(*workload, inst);
    // Simulation always takes measurable time; warmup and reporting
    // may round to ~0 but must never be negative.
    EXPECT_GT(profile.simMs, 0.0);
    EXPECT_GE(profile.warmupMs, 0.0);
    EXPECT_GE(profile.reportMs, 0.0);
}

// --------------------------------------------------------------------
// SampleStat percentile edge cases
// --------------------------------------------------------------------

TEST(SampleStat, PercentileOfEmptyIsZero)
{
    const SampleStat s;
    EXPECT_EQ(s.percentile(95.0), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(SampleStat, PercentileOfSingleElementIsThatElement)
{
    SampleStat s;
    s.record(42.0);
    EXPECT_EQ(s.percentile(0.0), 42.0);
    EXPECT_EQ(s.percentile(50.0), 42.0);
    EXPECT_EQ(s.percentile(95.0), 42.0);
    EXPECT_EQ(s.percentile(100.0), 42.0);
}

TEST(SampleStat, PercentileOfTwoElementsPicksByNearestRank)
{
    SampleStat s;
    s.record(10.0);
    s.record(20.0);
    EXPECT_EQ(s.percentile(0.0), 10.0);
    EXPECT_EQ(s.percentile(100.0), 20.0);
    EXPECT_EQ(s.percentile(95.0), 20.0);
    EXPECT_EQ(s.max(), 20.0);
    EXPECT_EQ(s.mean(), 15.0);
}
