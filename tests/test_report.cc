/**
 * @file
 * Tests of the observability subsystem: the JSON writer/reader pair,
 * the StatRegistry, suite/table artifacts (including the byte-identity
 * guarantee across --jobs counts), and the Chrome-trace timeline.
 */

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <limits>
#include <set>

#include "report/artifact.hh"
#include "report/json_reader.hh"
#include "report/json_writer.hh"
#include "report/stat_registry.hh"
#include "report/timeline.hh"
#include "sim/simulator.hh"
#include "sim/stats_report.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

/** Tiny app so artifact tests run in milliseconds. */
AppProfile
tinyProfile()
{
    AppProfile p = AppProfile::byName("amazon");
    p.name = "amazon-tiny";
    p.numEvents = 6;
    p.avgEventLen = 3000;
    return p;
}

} // namespace

// --------------------------------------------------------------------
// JSON writer
// --------------------------------------------------------------------

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, PassesUtf8Through)
{
    // Multi-byte UTF-8 must survive unmangled (RFC 8259 allows raw
    // UTF-8 in strings).
    const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x94\xa5";
    EXPECT_EQ(jsonEscape(utf8), utf8);
}

TEST(JsonWriter, NumberFormattingIsShortestRoundTrip)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(-0.0), "0");
    EXPECT_EQ(jsonNumber(3.0), "3");
    EXPECT_EQ(jsonNumber(0.1), "0.1");
    EXPECT_EQ(jsonNumber(-2.5), "-2.5");
    // Round-trip: parsing the text recovers the exact double. (Not
    // std::stod — it throws out_of_range on subnormals.)
    for (const double v : {1.0 / 3.0, 1e300, 5e-324, 123456789.125}) {
        const std::string text = jsonNumber(v);
        double parsed = 0.0;
        const auto res = std::from_chars(
            text.data(), text.data() + text.size(), parsed);
        ASSERT_EQ(res.ec, std::errc()) << text;
        EXPECT_EQ(parsed, v) << text;
    }
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonWriter, WritesNestedDocument)
{
    JsonWriter w;
    w.beginObject();
    w.key("name").value("esp");
    w.key("vals").beginArray().value(1.5).value(std::uint64_t{2})
        .null().endArray();
    w.key("ok").value(true);
    w.endObject();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(),
              "{\"name\":\"esp\",\"vals\":[1.5,2,null],\"ok\":true}");
}

// --------------------------------------------------------------------
// JSON reader (used by tests and the validator round-trip)
// --------------------------------------------------------------------

TEST(JsonReader, ParsesWriterOutput)
{
    JsonWriter w;
    w.beginObject();
    w.key("s").value("a\"\\\n\xc3\xa9");
    w.key("n").value(-0.125);
    w.key("arr").beginArray().value(false).null().endArray();
    w.endObject();

    std::string err;
    const auto root = parseJson(w.str(), &err);
    ASSERT_TRUE(root) << err;
    EXPECT_EQ(root->at("s").string, "a\"\\\n\xc3\xa9");
    EXPECT_DOUBLE_EQ(root->at("n").number, -0.125);
    ASSERT_EQ(root->at("arr").array.size(), 2u);
    EXPECT_EQ(root->at("arr").array[0].kind, JsonValue::Kind::Bool);
    EXPECT_EQ(root->at("arr").array[1].kind, JsonValue::Kind::Null);
}

TEST(JsonReader, DecodesUnicodeEscapes)
{
    std::string err;
    const auto root = parseJson("\"\\u00e9\\u2192\"", &err);
    ASSERT_TRUE(root) << err;
    EXPECT_EQ(root->string, "\xc3\xa9\xe2\x86\x92");
}

TEST(JsonReader, RejectsMalformedInput)
{
    std::string err;
    EXPECT_FALSE(parseJson("{\"a\":}", &err));
    EXPECT_FALSE(parseJson("[1, 2", &err));
    EXPECT_FALSE(parseJson("tru", &err));
    EXPECT_FALSE(parseJson("{} garbage", &err));
    EXPECT_FALSE(parseJson("", &err));
}

TEST(JsonReader, ByteMutationsParseOrAreRejected)
{
    // Every truncation, and every byte overwritten by each of a few
    // bytes that steer the parser (structure, escapes, number parts,
    // NUL, a stray UTF-8 lead), either parses or is rejected with a
    // reason; none may crash or read past the text.
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-span-artifact");
    w.key("s").value("q\"b\\n\n\xc3\xa9\x01");
    w.key("nums").beginArray().value(-0.125).value(std::uint64_t{
        18446744073709551615ull}).value(1e-300).endArray();
    w.key("nested").beginObject();
    w.key("ok").value(true);
    w.key("none").null();
    w.key("empty").beginArray().endArray();
    w.endObject();
    w.endObject();
    const std::string doc = w.str();
    ASSERT_TRUE(parseJson(doc));

    std::size_t parsed = 0;
    std::size_t rejected = 0;
    const auto check = [&](const std::string &text) {
        std::string err;
        if (parseJson(text, &err)) {
            ++parsed;
        } else {
            EXPECT_FALSE(err.empty()) << text;
            ++rejected;
        }
    };
    for (std::size_t len = 0; len < doc.size(); ++len)
        check(doc.substr(0, len));
    const char replacements[] = {'{', '}', '[', ']', '"', '\\', ',',
                                 ':', '-', 'e', '0', 'u', '\0',
                                 static_cast<char>(0xc3)};
    for (std::size_t pos = 0; pos < doc.size(); ++pos) {
        for (const char byte : replacements) {
            if (doc[pos] == byte)
                continue;
            std::string mutated = doc;
            mutated[pos] = byte;
            check(mutated);
        }
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, doc.size());
}

// --------------------------------------------------------------------
// StatRegistry
// --------------------------------------------------------------------

TEST(StatRegistry, SnapshotsLiveCountersAndDerived)
{
    std::uint64_t hits = 0;
    double ratio = 0.0;
    StatRegistry reg;
    reg.registerScalar("cache.hits", &hits);
    reg.registerScalar("cache.ratio", &ratio);
    reg.registerDerived("cache.double_hits", [&hits] {
        return 2.0 * static_cast<double>(hits);
    });

    hits = 21;
    ratio = 0.75;
    const StatGroup snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.get("cache.hits"), 21.0);
    EXPECT_DOUBLE_EQ(snap.get("cache.ratio"), 0.75);
    EXPECT_DOUBLE_EQ(snap.get("cache.double_hits"), 42.0);
}

TEST(StatRegistry, ExpandsSampleStats)
{
    SampleStat s;
    for (const double v : {1.0, 2.0, 3.0, 4.0})
        s.record(v);
    StatRegistry reg;
    reg.registerSamples("ws", &s);
    const StatGroup snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.get("ws.count"), 4.0);
    EXPECT_DOUBLE_EQ(snap.get("ws.mean"), 2.5);
    EXPECT_DOUBLE_EQ(snap.get("ws.max"), 4.0);
    EXPECT_DOUBLE_EQ(snap.get("ws.p95"), s.percentile(95));
}

TEST(StatRegistry, DuplicateNamePanics)
{
    std::uint64_t a = 0;
    StatRegistry reg;
    reg.registerScalar("dup", &a);
    EXPECT_DEATH(reg.registerScalar("dup", &a), "duplicate stat");
}

TEST(StatRegistry, SimulatorStatsMatchHeadlineFields)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    const SimResult r = Simulator(SimConfig::espFull(true))
                            .run(*workload);
    // The headline fields are views over the registry snapshot.
    EXPECT_EQ(static_cast<double>(r.cycles), r.stats.get("core.cycles"));
    EXPECT_DOUBLE_EQ(r.ipc, r.stats.get("derived.ipc"));
    EXPECT_DOUBLE_EQ(r.l1iMpki, r.stats.get("derived.l1i_mpki"));
    EXPECT_DOUBLE_EQ(r.mispredictRate,
                     r.stats.get("derived.mispredict_rate"));
    EXPECT_DOUBLE_EQ(r.energy.total(), r.stats.get("energy.total"));
}

// --------------------------------------------------------------------
// Suite artifacts
// --------------------------------------------------------------------

namespace
{

std::vector<SuiteRow>
tinySweep(unsigned jobs, const std::vector<SimConfig> &configs)
{
    SuiteRunner runner({tinyProfile()});
    runner.setJobs(jobs);
    return runner.run(configs);
}

} // namespace

TEST(Artifact, JsonRoundTripsWithExpectedShape)
{
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::espFull(true)};
    const auto rows = tinySweep(1, configs);

    ArtifactManifest manifest;
    manifest.source = "test_report";
    manifest.toolVersion = "test";
    manifest.buildType = "test";
    const std::string text =
        renderSuiteArtifactJson(manifest, configs, rows);

    std::string err;
    const auto root = parseJson(text, &err);
    ASSERT_TRUE(root) << err;
    EXPECT_EQ(root->at("schema").string, "espsim-suite-artifact");
    EXPECT_DOUBLE_EQ(root->at("format_version").number,
                     artifactFormatVersion);

    const JsonValue &m = root->at("manifest");
    EXPECT_EQ(m.at("source").string, "test_report");
    EXPECT_EQ(m.at("tool_version").string, "test");
    EXPECT_EQ(m.at("config_hash").string, configsHash(configs));
    EXPECT_DOUBLE_EQ(m.at("points").number, 2.0);

    const JsonValue &results = root->at("results");
    ASSERT_EQ(results.array.size(), 2u);
    for (const JsonValue &entry : results.array) {
        EXPECT_EQ(entry.at("app").string, "amazon-tiny");
        const JsonValue &stats = entry.at("stats");
        EXPECT_TRUE(stats.find("core.cycles"));
        EXPECT_TRUE(stats.find("derived.ipc"));
        EXPECT_TRUE(stats.find("mem.l1i.misses"));
    }
    // The artifact's stats agree with the in-memory results.
    EXPECT_DOUBLE_EQ(
        results.array[0].at("stats").at("core.cycles").number,
        static_cast<double>(rows[0].results[0].cycles));
}

TEST(Artifact, ByteIdenticalAcrossJobsCounts)
{
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::nextLine(),
                                         SimConfig::espFull(true)};
    ArtifactManifest manifest;
    manifest.source = "test_report";
    manifest.toolVersion = "test";
    manifest.buildType = "test";

    const auto serial = tinySweep(1, configs);
    const auto parallel = tinySweep(4, configs);
    EXPECT_EQ(renderSuiteArtifactJson(manifest, configs, serial),
              renderSuiteArtifactJson(manifest, configs, parallel));
}

TEST(Artifact, ConfigsHashTracksParameters)
{
    const std::vector<SimConfig> a{SimConfig::baseline()};
    std::vector<SimConfig> b{SimConfig::baseline()};
    EXPECT_EQ(configsHash(a), configsHash(b));
    EXPECT_EQ(configsHash(a).size(), 16u);

    b[0].core.robSize += 1;
    EXPECT_NE(configsHash(a), configsHash(b));

    std::vector<SimConfig> c{SimConfig::baseline()};
    c[0].esp.maxDepth = 1;
    EXPECT_NE(configsHash(a), configsHash(c));
}

TEST(Artifact, TableArtifactRoundTrips)
{
    TextTable table("Figure T: test table");
    table.header({"app", "va,lue"});
    table.row({"amazon", "1.5"});
    table.row({"bing", "2.5"});

    ArtifactManifest manifest;
    manifest.source = "test_report";
    manifest.toolVersion = "test";
    manifest.buildType = "test";

    std::string err;
    const auto root =
        parseJson(renderTableArtifactJson(manifest, table), &err);
    ASSERT_TRUE(root) << err;
    EXPECT_EQ(root->at("schema").string, "espsim-table-artifact");
    EXPECT_EQ(root->at("title").string, "Figure T: test table");
    ASSERT_EQ(root->at("rows").array.size(), 2u);
    EXPECT_EQ(root->at("rows").array[1].array[0].string, "bing");
    EXPECT_EQ(root->at("header").array[1].string, "va,lue");
}

// --------------------------------------------------------------------
// Event timeline
// --------------------------------------------------------------------

TEST(Timeline, RecordsEventsAndExportsValidChromeTrace)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    EventTimeline timeline;
    RunInstrumentation inst;
    inst.timeline = &timeline;
    const SimResult r =
        Simulator(SimConfig::espFull(true)).run(*workload, inst);

    // One span per simulated event; ESP ran, so windows exist.
    EXPECT_EQ(timeline.numEvents(), workload->numEvents());
    EXPECT_GT(timeline.numStalls(), 0u);
    EXPECT_GT(timeline.numEspWindows(), 0u);
    EXPECT_GT(r.cycles, 0u);

    std::string err;
    const auto root = parseJson(timeline.renderChromeTrace(), &err);
    ASSERT_TRUE(root) << err;

    const JsonValue &other = root->at("otherData");
    EXPECT_EQ(other.at("config").string, "ESP+NL");
    EXPECT_EQ(other.at("workload").string, "amazon-tiny");
    EXPECT_DOUBLE_EQ(other.at("timeline_format_version").number,
                     timelineFormatVersion);

    const JsonValue &events = root->at("traceEvents");
    ASSERT_GT(events.array.size(), 0u);

    std::size_t event_slices = 0;
    std::size_t esp_slices = 0;
    std::size_t meta_records = 0;
    std::size_t counter_records = 0;
    double last_event_ts = -1.0;
    for (const JsonValue &e : events.array) {
        const std::string &ph = e.at("ph").string;
        if (ph == "M") {
            ++meta_records;
            continue;
        }
        if (ph == "C") {
            // Cycle-accounting counter track: one sample per event,
            // with at least one named bucket.
            ++counter_records;
            EXPECT_EQ(e.at("name").string, "cycle buckets");
            EXPECT_GT(e.at("args").object.size(), 0u);
            continue;
        }
        ASSERT_EQ(ph, "X");
        EXPECT_GE(e.at("ts").number, 0.0);
        EXPECT_GE(e.at("dur").number, 0.0);
        EXPECT_DOUBLE_EQ(e.at("pid").number, 1.0);
        const std::string &name = e.at("name").string;
        if (name.rfind("event ", 0) == 0) {
            ++event_slices;
            // Event slices appear in simulation order.
            EXPECT_GE(e.at("ts").number, last_event_ts);
            last_event_ts = e.at("ts").number;
        }
        if (name.rfind("ESP-", 0) == 0)
            ++esp_slices;
    }
    EXPECT_GE(meta_records, 5u); // process + four thread names
    EXPECT_EQ(event_slices, workload->numEvents());
    EXPECT_EQ(esp_slices, timeline.numEspWindows());
    EXPECT_EQ(counter_records, workload->numEvents());
}

TEST(Timeline, BaselineRunHasNoEspWindows)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    EventTimeline timeline;
    RunInstrumentation inst;
    inst.timeline = &timeline;
    Simulator(SimConfig::baseline()).run(*workload, inst);
    EXPECT_EQ(timeline.numEvents(), workload->numEvents());
    EXPECT_EQ(timeline.numEspWindows(), 0u);
}

TEST(Timeline, TimelineDoesNotPerturbResults)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    EventTimeline timeline;
    RunInstrumentation inst;
    inst.timeline = &timeline;
    const SimResult with =
        Simulator(SimConfig::espFull(true)).run(*workload, inst);
    const SimResult without =
        Simulator(SimConfig::espFull(true)).run(*workload);
    EXPECT_EQ(with.cycles, without.cycles);
    EXPECT_DOUBLE_EQ(with.ipc, without.ipc);
}

TEST(Timeline, StallNamesAreStable)
{
    EXPECT_STREQ(timelineStallName(TimelineStall::InstrMiss),
                 "icache-miss");
    EXPECT_STREQ(timelineStallName(TimelineStall::DataMiss),
                 "dcache-miss");
    EXPECT_STREQ(timelineStallName(TimelineStall::LsqFull), "lsq-full");
    EXPECT_STREQ(timelineStallName(TimelineStall::Mispredict),
                 "mispredict-flush");
    EXPECT_STREQ(timelineStallName(TimelineStall::BtbMiss),
                 "btb-miss");
}
