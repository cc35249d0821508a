/**
 * @file
 * Tests of the counter time series: exact final-snapshot closure
 * against the end-of-run registry, monotone/contiguous JSONL streams,
 * the cycle grid, the timeline's interval.* counter tracks as first
 * differences of the stream's snapshots, byte-identical streams under
 * concurrent runs, and byte-identical artifacts with telemetry on vs
 * off.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "report/json_reader.hh"
#include "report/telemetry.hh"
#include "report/timeline.hh"
#include "server/profile.hh"
#include "server/serve.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

/** Tiny app so telemetry tests run in milliseconds. */
AppProfile
tinyProfile()
{
    AppProfile p = AppProfile::byName("amazon");
    p.name = "amazon-tiny";
    p.numEvents = 8;
    p.avgEventLen = 3000;
    return p;
}

SimResult
runWithTelemetry(const Workload &workload, TelemetryConfig cfg,
                 std::string *captured, EventTimeline *timeline = nullptr)
{
    RunInstrumentation inst;
    inst.telemetry = cfg;
    inst.timeline = timeline;
    TelemetryStream stream;
    if (captured != nullptr) {
        stream.captureTo(captured);
        inst.telemetryStream = &stream;
    }
    return Simulator(SimConfig::espFull(true)).run(workload, inst);
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

/** The snapshot lines of a one-block stream, parsed. */
std::vector<std::unique_ptr<JsonValue>>
parseSnapshots(const std::string &captured)
{
    std::vector<std::unique_ptr<JsonValue>> snaps;
    const std::vector<std::string> lines = splitLines(captured);
    for (std::size_t i = 1; i < lines.size(); ++i)
        snaps.push_back(parseJson(lines[i]));
    return snaps;
}

/** The timeline's interval counter points: ts -> metric -> value. */
std::map<double, std::map<std::string, double>>
intervalTracks(const EventTimeline &timeline)
{
    std::map<double, std::map<std::string, double>> tracks;
    const auto doc = parseJson(timeline.renderChromeTrace());
    for (const JsonValue &rec : doc->at("traceEvents").array) {
        const JsonValue *cat = rec.find("cat");
        if (cat == nullptr || cat->string != "interval")
            continue;
        EXPECT_EQ(rec.at("ph").string, "C");
        tracks[rec.at("ts").number][rec.at("name").string] =
            rec.at("args").at("value").number;
    }
    return tracks;
}

} // namespace

// --------------------------------------------------------------------
// Stream closure and monotonicity
// --------------------------------------------------------------------

TEST(Telemetry, FinalSnapshotEqualsRegistryExactly)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    TelemetryConfig cfg;
    cfg.periodCycles = 5'000;
    std::string captured;
    const SimResult result =
        runWithTelemetry(*workload, cfg, &captured);

    const std::vector<std::string> lines = splitLines(captured);
    ASSERT_GE(lines.size(), 2u); // header + at least the final line

    const auto header = parseJson(lines.front());
    ASSERT_TRUE(header);
    EXPECT_EQ(header->at("schema").string, "espsim-telemetry-stream");
    const JsonValue &names = header->at("names");
    ASSERT_TRUE(names.isArray());
    ASSERT_FALSE(names.array.empty());

    const auto last = parseJson(lines.back());
    ASSERT_TRUE(last);
    const JsonValue *final_flag = last->find("final");
    ASSERT_TRUE(final_flag != nullptr);
    EXPECT_TRUE(final_flag->boolean);
    const JsonValue &values = last->at("values");
    ASSERT_EQ(values.array.size(), names.array.size());

    // Exact, not approximate: the closing snapshot reads the same
    // uint64-backed getters the registry snapshot does.
    for (std::size_t i = 0; i < names.array.size(); ++i) {
        const std::string &name = names.array[i].string;
        ASSERT_TRUE(result.stats.has(name)) << name;
        EXPECT_EQ(values.array[i].number, result.stats.get(name))
            << name;
    }
    EXPECT_EQ(last->at("events").number,
              static_cast<double>(workload->numEvents()));
}

TEST(Telemetry, StreamIsMonotoneWithContiguousSeq)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    TelemetryConfig cfg;
    cfg.periodCycles = 2'000;
    std::string captured;
    (void)runWithTelemetry(*workload, cfg, &captured);

    const std::vector<std::string> lines = splitLines(captured);
    ASSERT_GE(lines.size(), 3u); // header + >=1 periodic + final
    std::uint64_t prev_seq = 0;
    double prev_cycle = -1.0;
    double prev_events = -1.0;
    std::vector<double> prev_values;
    std::size_t finals = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const auto snap = parseJson(lines[i]);
        ASSERT_TRUE(snap) << lines[i];
        EXPECT_EQ(static_cast<std::uint64_t>(snap->at("seq").number),
                  prev_seq + 1);
        ++prev_seq;
        EXPECT_GE(snap->at("cycle").number, prev_cycle);
        prev_cycle = snap->at("cycle").number;
        EXPECT_GE(snap->at("events").number, prev_events);
        prev_events = snap->at("events").number;
        const JsonValue &values = snap->at("values");
        if (!prev_values.empty()) {
            ASSERT_EQ(values.array.size(), prev_values.size());
            for (std::size_t j = 0; j < prev_values.size(); ++j)
                EXPECT_GE(values.array[j].number, prev_values[j]);
        }
        prev_values.clear();
        for (const JsonValue &v : values.array)
            prev_values.push_back(v.number);
        finals += snap->find("final") != nullptr;
    }
    // Exactly one final line, and it is the last one.
    EXPECT_EQ(finals, 1u);
    EXPECT_TRUE(parseJson(lines.back())->find("final") != nullptr);
}

TEST(Telemetry, HeaderCarriesRunIdentityAndSortedNames)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    TelemetryConfig cfg;
    cfg.periodCycles = 5'000;
    std::string captured;
    (void)runWithTelemetry(*workload, cfg, &captured);

    const auto header = parseJson(splitLines(captured).front());
    ASSERT_TRUE(header);
    EXPECT_EQ(header->at("format_version").number, 2.0);
    EXPECT_FALSE(header->at("config").string.empty());
    EXPECT_EQ(header->at("workload").string, "amazon-tiny");
    EXPECT_EQ(header->at("period_cycles").number, 5'000.0);
    const JsonValue &names = header->at("names");
    for (std::size_t i = 1; i < names.array.size(); ++i)
        EXPECT_LT(names.array[i - 1].string, names.array[i].string);
}

TEST(Telemetry, FinalizeAloneStillClosesTheBlock)
{
    // No pacing at all, stream attached: the block must still be
    // header + exactly one final snapshot.
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    std::string captured;
    (void)runWithTelemetry(*workload, {}, &captured);
    const std::vector<std::string> lines = splitLines(captured);
    ASSERT_EQ(lines.size(), 2u);
    const auto last = parseJson(lines.back());
    ASSERT_TRUE(last);
    EXPECT_TRUE(last->find("final") != nullptr);
    EXPECT_EQ(last->at("seq").number, 1.0);
}

// --------------------------------------------------------------------
// The cycle grid
// --------------------------------------------------------------------

TEST(IntervalSampler, DeltasTelescopeToFinalSnapshotExactly)
{
    // The measured run starts with every counter at zero, so the
    // differences of consecutive snapshots (the ones
    // tools/plot_intervals.py plots) telescope to the end-of-run
    // counters exactly. Every grid snapshot is the first retire at or
    // past a fresh grid point (a long event skips points rather than
    // bursting), and the closing one lands on the run's last cycle.
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    TelemetryConfig cfg;
    cfg.periodCycles = 5'000;
    std::string captured;
    const SimResult result =
        runWithTelemetry(*workload, cfg, &captured);

    const auto header = parseJson(splitLines(captured).front());
    const JsonValue &names = header->at("names");
    const auto snaps = parseSnapshots(captured);
    ASSERT_GE(snaps.size(), 3u);
    std::vector<double> prev(names.array.size(), 0.0);
    std::vector<double> acc(names.array.size(), 0.0);
    double prev_point = 0;
    for (std::size_t k = 0; k < snaps.size(); ++k) {
        const std::vector<JsonValue> &values =
            snaps[k]->at("values").array;
        ASSERT_EQ(values.size(), acc.size());
        for (std::size_t i = 0; i < acc.size(); ++i) {
            acc[i] += values[i].number - prev[i];
            prev[i] = values[i].number;
        }
        if (k + 1 == snaps.size())
            break;
        const double point =
            std::floor(snaps[k]->at("cycle").number / 5'000.0) *
            5'000.0;
        EXPECT_GT(point, prev_point) << "snapshot " << k;
        prev_point = point;
    }
    for (std::size_t i = 0; i < acc.size(); ++i) {
        const std::string &name = names.array[i].string;
        EXPECT_EQ(acc[i], result.stats.get(name)) << name;
    }
    EXPECT_EQ(snaps.back()->at("cycle").number,
              static_cast<double>(result.cycles));
}

TEST(IntervalSampler, EventPeriodSamplesEveryRetire)
{
    // A one-cycle period is due at every retire: one snapshot per
    // retired event, then the closing one.
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    TelemetryConfig cfg;
    cfg.periodCycles = 1;
    std::string captured;
    (void)runWithTelemetry(*workload, cfg, &captured);

    const auto snaps = parseSnapshots(captured);
    ASSERT_EQ(snaps.size(), workload->numEvents() + 1);
    for (std::size_t k = 0; k < workload->numEvents(); ++k)
        EXPECT_EQ(snaps[k]->at("events").number,
                  static_cast<double>(k + 1));
    EXPECT_EQ(snaps.back()->at("events").number,
              static_cast<double>(workload->numEvents()));
}

TEST(IntervalSampler, DisabledSamplingLeavesSeriesUntouched)
{
    // No period and no stream: no snapshotter, so a timeline carries
    // no interval.* counter tracks.
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    EventTimeline timeline;
    (void)runWithTelemetry(*workload, {}, nullptr, &timeline);
    EXPECT_GT(timeline.numEvents(), 0u);
    EXPECT_TRUE(intervalTracks(timeline).empty());
}

// --------------------------------------------------------------------
// Timeline counter tracks
// --------------------------------------------------------------------

TEST(IntervalTracks, DeltasAreFirstDifferencesOfTelemetrySnapshots)
{
    // One run arms the stream and a timeline: the counter tracks are
    // the rates over consecutive stream snapshots (the first against
    // the measured run's start, where every counter is zero).
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    TelemetryConfig cfg;
    cfg.periodCycles = 5'000;
    std::string captured;
    EventTimeline timeline;
    (void)runWithTelemetry(*workload, cfg, &captured, &timeline);

    const auto header = parseJson(splitLines(captured).front());
    const JsonValue &names = header->at("names");
    std::map<std::string, std::size_t> at;
    for (std::size_t i = 0; i < names.array.size(); ++i)
        at[names.array[i].string] = i;
    const auto snaps = parseSnapshots(captured);
    const auto tracks = intervalTracks(timeline);
    ASSERT_GE(tracks.size(), 2u);

    std::vector<double> prev(names.array.size(), 0.0);
    std::size_t matched = 0;
    for (const auto &snap : snaps) {
        const std::vector<JsonValue> &values = snap->at("values").array;
        const auto delta = [&](const char *name) {
            const std::size_t i = at.at(name);
            return values[i].number - prev[i];
        };
        const double cycles = delta("core.cycles");
        const double instrs = delta("core.instructions");
        const auto it = tracks.find(snap->at("cycle").number);
        if (cycles > 0) {
            ASSERT_TRUE(it != tracks.end());
            EXPECT_EQ(it->second.at("interval.ipc"), instrs / cycles);
            EXPECT_EQ(it->second.at("interval.esp_occupancy"),
                      delta("core.cycle_bucket.esp_pre_exec") / cycles);
            EXPECT_EQ(it->second.at("interval.l1i_mpki"),
                      delta("mem.l1i.misses") / (instrs / 1000.0));
            EXPECT_EQ(it->second.at("interval.l1d_miss_rate"),
                      delta("mem.l1d.misses") /
                          delta("mem.l1d.accesses"));
            ++matched;
        }
        for (std::size_t i = 0; i < prev.size(); ++i)
            prev[i] = values[i].number;
    }
    EXPECT_EQ(matched, tracks.size());
}

// --------------------------------------------------------------------
// Determinism
// --------------------------------------------------------------------

TEST(IntervalSampler, SeriesBytesIdenticalUnderConcurrentRuns)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    TelemetryConfig cfg;
    cfg.periodCycles = 7'000;

    // Serial reference stream (the "--jobs 1" world).
    std::string solo;
    (void)runWithTelemetry(*workload, cfg, &solo);
    ASSERT_GE(splitLines(solo).size(), 3u);

    // Four concurrent snapshotters over the same immutable workload
    // (the "--jobs 4" world): every stream must be byte-identical to
    // the serial one.
    std::vector<std::string> streams(4);
    std::vector<std::thread> threads;
    for (std::string &out : streams) {
        threads.emplace_back([&workload, &cfg, &out] {
            (void)runWithTelemetry(*workload, cfg, &out);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &stream : streams)
        EXPECT_EQ(stream, solo);
}

// --------------------------------------------------------------------
// Artifact byte-identity
// --------------------------------------------------------------------

TEST(Telemetry, LatencyArtifactBytesIdenticalOnAndOff)
{
    namespace fs = std::filesystem;
    const fs::path jsonl =
        fs::temp_directory_path() /
        ("espsim_telemetry_onoff_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
         ".jsonl");
    ServeOptions off;
    off.events = 200;
    off.arrival.meanGapCycles = 2000.0;
    ServeOptions on = off;
    on.telemetry.period.periodCycles = 3'000;
    on.telemetry.jsonlPath = jsonl.string();

    ArtifactManifest manifest;
    manifest.source = "test";
    manifest.toolVersion = "test";
    manifest.buildType = "test";
    const std::vector<SimConfig> configs = {SimConfig::baseline(),
                                            SimConfig::espFull(true)};
    const ServeReport with =
        runServe(ServerProfile::testProfile(), configs, on);
    EXPECT_FALSE(with.telemetryFailed);
    EXPECT_GT(with.telemetrySnapshots, configs.size());
    const std::string with_telemetry =
        renderLatencyArtifactJson(manifest, with);
    const std::string without_telemetry = renderLatencyArtifactJson(
        manifest,
        runServe(ServerProfile::testProfile(), configs, off));
    EXPECT_EQ(with_telemetry, without_telemetry);
    fs::remove(jsonl);
}

TEST(Telemetry, UnwritableStreamFailsServeBeforeSimulating)
{
    ServeOptions opts;
    opts.events = 50;
    opts.telemetry.period.periodCycles = 3'000;
    opts.telemetry.jsonlPath = "/nonexistent-espsim-dir/t.jsonl";
    const ServeReport report = runServe(
        ServerProfile::testProfile(), {SimConfig::baseline()}, opts);
    EXPECT_TRUE(report.telemetryFailed);
    EXPECT_TRUE(report.cells.empty());
}
