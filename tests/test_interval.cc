/**
 * @file
 * Tests of the interval series: exact delta closure against the
 * end-of-run aggregates, agreement with a telemetry stream on the same
 * grid, byte-identical series regardless of concurrent sibling runs,
 * the rendered artifact, the host profiler's span accounting, and
 * SampleStat percentile edge cases.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "common/histogram.hh"
#include "report/artifact.hh"
#include "report/host_profile.hh"
#include "report/interval.hh"
#include "report/json_reader.hh"
#include "report/telemetry.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

/** Tiny app so interval tests run in milliseconds. */
AppProfile
tinyProfile()
{
    AppProfile p = AppProfile::byName("amazon");
    p.name = "amazon-tiny";
    p.numEvents = 8;
    p.avgEventLen = 3000;
    return p;
}

IntervalSeries
runSampled(const Workload &workload, IntervalConfig period)
{
    RunInstrumentation inst;
    inst.interval = period;
    IntervalSeries series;
    inst.intervalSeries = &series;
    (void)Simulator(SimConfig::espFull(true)).run(workload, inst);
    return series;
}

} // namespace

// --------------------------------------------------------------------
// Delta closure
// --------------------------------------------------------------------

TEST(IntervalSampler, DeltasTelescopeToFinalSnapshotExactly)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    IntervalConfig period;
    period.sampleCycles = 5'000;
    const IntervalSeries series = runSampled(*workload, period);

    ASSERT_FALSE(series.names.empty());
    ASSERT_EQ(series.names.size(), series.baseline.size());
    ASSERT_EQ(series.names.size(), series.finalValues.size());
    ASSERT_FALSE(series.intervals.empty());

    std::vector<double> acc = series.baseline;
    Cycle prev = series.baselineCycle;
    for (const IntervalPoint &point : series.intervals) {
        ASSERT_EQ(point.deltas.size(), acc.size());
        EXPECT_GE(point.endCycle, prev);
        prev = point.endCycle;
        for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] += point.deltas[i];
    }
    // Exact, not approximate: counters are uint64-backed and well
    // below 2^53, so the telescoped doubles must match bit-for-bit.
    for (std::size_t i = 0; i < acc.size(); ++i)
        EXPECT_EQ(acc[i], series.finalValues[i]) << series.names[i];
    EXPECT_EQ(series.intervals.back().endCycle, series.finalCycle);
}

TEST(IntervalSeries, DeltasAreFirstDifferencesOfTelemetrySnapshots)
{
    // One run arms the interval series and a telemetry stream on the
    // same cycle grid: both read the same snapshots, so each interval
    // is the difference of consecutive stream snapshots (the first
    // against the series baseline).
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    RunInstrumentation inst;
    inst.interval.sampleCycles = 5'000;
    IntervalSeries series;
    inst.intervalSeries = &series;
    inst.telemetry.periodCycles = 5'000;
    std::string captured;
    TelemetryStream stream;
    stream.captureTo(&captured);
    inst.telemetryStream = &stream;
    (void)Simulator(SimConfig::espFull(true)).run(*workload, inst);

    std::vector<std::unique_ptr<JsonValue>> lines;
    std::size_t start = 0;
    while (start < captured.size()) {
        const std::size_t end = captured.find('\n', start);
        lines.push_back(parseJson(captured.substr(start, end - start)));
        ASSERT_TRUE(lines.back());
        start = end + 1;
    }
    ASSERT_GE(lines.size(), 3u); // header, a grid snapshot, final
    const JsonValue &names = lines.front()->at("names");
    ASSERT_EQ(names.array.size(), series.names.size());
    for (std::size_t i = 0; i < series.names.size(); ++i)
        EXPECT_EQ(names.array[i].string, series.names[i]);

    // Grid snapshots pair with grid intervals; a kept trailing
    // interval pairs with the final snapshot.
    const std::size_t snapshots = lines.size() - 1;
    ASSERT_GE(series.intervals.size(), snapshots - 1);
    ASSERT_LE(series.intervals.size(), snapshots);
    std::vector<double> prev = series.baseline;
    for (std::size_t k = 0; k < series.intervals.size(); ++k) {
        const IntervalPoint &point = series.intervals[k];
        const JsonValue &snap = *lines[1 + k];
        EXPECT_EQ(snap.at("cycle").number,
                  static_cast<double>(point.endCycle));
        EXPECT_EQ(snap.at("events").number,
                  static_cast<double>(point.endEvents));
        const std::vector<JsonValue> &values = snap.at("values").array;
        ASSERT_EQ(values.size(), prev.size());
        for (std::size_t i = 0; i < prev.size(); ++i) {
            EXPECT_EQ(point.deltas[i], values[i].number - prev[i])
                << series.names[i] << " interval " << k;
            prev[i] = values[i].number;
        }
    }
    const std::vector<JsonValue> &last = lines.back()->at("values").array;
    ASSERT_EQ(last.size(), series.finalValues.size());
    for (std::size_t i = 0; i < last.size(); ++i)
        EXPECT_EQ(last[i].number, series.finalValues[i]);
}

TEST(IntervalSampler, EventPeriodSamplesEveryRetire)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    IntervalConfig period;
    period.sampleEvents = 1;
    const IntervalSeries series = runSampled(*workload, period);

    // One sample per retired event; the trailing partial interval (if
    // any counter moved after the last grid point) may add one more.
    ASSERT_FALSE(series.intervals.empty());
    EXPECT_GE(series.intervals.size(), workload->numEvents());
    EXPECT_LE(series.intervals.size(), workload->numEvents() + 1);
    std::uint64_t prev = series.baselineEvents;
    for (const IntervalPoint &point : series.intervals) {
        EXPECT_GE(point.endEvents, prev);
        prev = point.endEvents;
    }
    EXPECT_EQ(series.finalEvents, workload->numEvents());
}

TEST(IntervalSampler, DisabledSamplingLeavesSeriesUntouched)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    const IntervalSeries series = runSampled(*workload, {});
    EXPECT_TRUE(series.names.empty());
    EXPECT_TRUE(series.intervals.empty());
}

// --------------------------------------------------------------------
// Determinism
// --------------------------------------------------------------------

TEST(IntervalSampler, SeriesBytesIdenticalUnderConcurrentRuns)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    IntervalConfig period;
    period.sampleCycles = 7'000;

    // Serial reference series (the "--jobs 1" world).
    const IntervalSeries solo = runSampled(*workload, period);
    ArtifactManifest manifest;
    manifest.source = "test";
    manifest.toolVersion = "test";
    manifest.buildType = "test";
    const std::string solo_json =
        renderIntervalSeriesJson(manifest, solo);

    // Four concurrent samplers over the same immutable workload (the
    // "--jobs 4" world): every rendered artifact must be
    // byte-identical to the serial one.
    std::vector<std::string> rendered(4);
    std::vector<std::thread> threads;
    for (std::string &out : rendered) {
        threads.emplace_back([&workload, &period, &manifest, &out] {
            const IntervalSeries series =
                runSampled(*workload, period);
            out = renderIntervalSeriesJson(manifest, series);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &json : rendered)
        EXPECT_EQ(json, solo_json);
}

// --------------------------------------------------------------------
// Artifact rendering
// --------------------------------------------------------------------

TEST(IntervalSeriesArtifact, CarriesSchemaManifestAndAlignedArrays)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    IntervalConfig period;
    period.sampleCycles = 5'000;
    period.sampleEvents = 3;
    const IntervalSeries series = runSampled(*workload, period);

    ArtifactManifest manifest;
    manifest.source = "test-interval";
    const std::string json =
        renderIntervalSeriesJson(manifest, series);

    std::string err;
    const auto doc = parseJson(json, &err);
    ASSERT_TRUE(doc) << err;
    const JsonValue *schema = doc->find("schema");
    ASSERT_TRUE(schema);
    EXPECT_EQ(schema->string, "espsim-interval-series");
    const JsonValue *mf = doc->find("manifest");
    ASSERT_TRUE(mf);
    EXPECT_EQ(mf->find("source")->string, "test-interval");
    EXPECT_EQ(mf->find("sample_cycles")->number, 5'000.0);
    EXPECT_EQ(mf->find("sample_events")->number, 3.0);

    const JsonValue *names = doc->find("names");
    const JsonValue *intervals = doc->find("intervals");
    ASSERT_TRUE(names && names->isArray());
    ASSERT_TRUE(intervals && intervals->isArray());
    EXPECT_EQ(names->array.size(), series.names.size());
    EXPECT_EQ(intervals->array.size(), series.intervals.size());
    for (const JsonValue &point : intervals->array) {
        const JsonValue *deltas = point.find("deltas");
        ASSERT_TRUE(deltas && deltas->isArray());
        EXPECT_EQ(deltas->array.size(), series.names.size());
    }
}

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
