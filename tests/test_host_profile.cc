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

TEST(HostProfile, WallClockSpansAccumulateAndMergeAsHostStats)
{
    HostCellProfile profile;
    {
        WallClockSpan span(&profile.simMs);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    { WallClockSpan free_span(nullptr); } // must be a no-op
    EXPECT_GT(profile.simMs, 0.0);
    EXPECT_EQ(profile.genMs, 0.0);

    StatGroup stats;
    mergeHostStats(stats, profile);
    EXPECT_EQ(stats.get("host.sim_ms"), profile.simMs);
    EXPECT_EQ(stats.get("host.total_ms"), profile.totalMs());
    EXPECT_GE(stats.get("host.peak_rss_mb"), 0.0);
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
    EXPECT_GT(profile.totalMs(), 0.0);
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
