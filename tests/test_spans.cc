/**
 * @file
 * Tests for request-flow span tracing: the SpanCollector flight
 * recorder (ring wrap-around, worst-K ordering, one-shot anomaly
 * dump), the span closure invariant against a real simulated run
 * (Σ span buckets == retire - startCycle, consecutive spans tile the
 * run), determinism of the span artifact under concurrent replays,
 * the injected-spike end-to-end detector path, the per-handler
 * latency breakdown, and the zero-steady-state-allocation contract.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_counter.hh"
#include "common/job_pool.hh"
#include "cpu/ooo_core.hh"
#include "report/flight_recorder.hh"
#include "report/json_reader.hh"
#include "report/spans.hh"
#include "report/timeline.hh"
#include "server/latency.hh"
#include "server/profile.hh"
#include "server/serve.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/streaming.hh"

using namespace espsim;

namespace
{

/** A synthetic span with the given latency, arriving back to back. */
RequestSpan
makeSpan(std::uint64_t index, Cycle total)
{
    RequestSpan span;
    span.index = index;
    span.handlerType = static_cast<std::uint32_t>(index % 3);
    span.startCycle = index * 1000;
    span.arrival = index * 1000;
    span.dispatch = index * 1000;
    span.retire = index * 1000 + total;
    span.instructions = total / 2;
    span.buckets[static_cast<std::size_t>(CycleBucket::Retiring)] =
        total;
    return span;
}

/** Feed @p n steady spans of latency @p total into @p collector. */
void
feedSteady(SpanCollector &collector, std::uint64_t n, Cycle total,
           std::uint64_t first_index = 0)
{
    for (std::uint64_t i = 0; i < n; ++i)
        collector.onSpan(makeSpan(first_index + i, total));
}

/** The numeric members of a JSON object, by name. */
std::map<std::string, double>
numberMembers(const JsonValue &object)
{
    std::map<std::string, double> out;
    for (const auto &[name, value] : object.object)
        out[name] = value.number;
    return out;
}

/** A trace's per-event records: event/execute slices and the
 *  cycle-bucket counter track, in trace order. */
std::vector<const JsonValue *>
eventRecords(const JsonValue &trace)
{
    std::vector<const JsonValue *> out;
    for (const JsonValue &e : trace.at("traceEvents").array) {
        const JsonValue *cat = e.find("cat");
        if (cat && (cat->string == "event" || cat->string == "accounting"))
            out.push_back(&e);
    }
    return out;
}

ServeOptions
spikedOptions()
{
    ServeOptions opts;
    opts.events = 400;
    opts.arrival.meanGapCycles = 2000.0;
    opts.spans.enabled = true;
    opts.spans.flightRecorder = 64;
    opts.spans.worstK = 8;
    opts.spans.anomalyThreshold = 4.0;
    opts.spans.anomalyMinSamples = 50;
    opts.spans.spikeEvent = 350;
    opts.spans.spikeScale = 40;
    return opts;
}

} // namespace

// --------------------------------------------------------------------
// SpanCollector: ring, worst-K, anomaly detector
// --------------------------------------------------------------------

TEST(SpanCollector, RingWrapsKeepingTheNewestSpans)
{
    SpanCollectorConfig cfg;
    cfg.ringCapacity = 8;
    SpanCollector collector(cfg);
    feedSteady(collector, 20, 500);

    EXPECT_EQ(collector.spansRecorded(), 20u);
    ASSERT_EQ(collector.ring().size(), 8u);
    // The ring holds exactly the last capacity spans, oldest first.
    for (std::size_t i = 0; i < collector.ring().size(); ++i)
        EXPECT_EQ(collector.ring().at(i).index, 12u + i);
}

TEST(SpanCollector, WorstSpansAreSortedAndBounded)
{
    SpanCollectorConfig cfg;
    cfg.worstK = 4;
    SpanCollector collector(cfg);
    // Latencies 100, 200, ..., 1200 in shuffled-ish order.
    const Cycle totals[] = {300, 1200, 100, 700, 500, 1100,
                            200, 900,  400, 600, 800, 1000};
    std::uint64_t index = 0;
    for (const Cycle t : totals)
        collector.onSpan(makeSpan(index++, t));

    const std::vector<RequestSpan> worst = collector.worstSpans();
    ASSERT_EQ(worst.size(), 4u);
    EXPECT_EQ(worst[0].totalCycles(), 1200u);
    EXPECT_EQ(worst[1].totalCycles(), 1100u);
    EXPECT_EQ(worst[2].totalCycles(), 1000u);
    EXPECT_EQ(worst[3].totalCycles(), 900u);
}

TEST(SpanCollector, AnomalyDetectorIsArmedOnlyAfterWarmup)
{
    SpanCollectorConfig cfg;
    cfg.anomalyMinSamples = 64;
    cfg.anomalyThreshold = 4.0;
    SpanCollector collector(cfg);

    // A huge span before the warmup threshold must not trigger.
    feedSteady(collector, 10, 500);
    collector.onSpan(makeSpan(10, 1'000'000));
    EXPECT_TRUE(collector.anomalies().empty());
    EXPECT_FALSE(collector.dumpTriggered());
}

TEST(SpanCollector, AnomalyDumpFiresExactlyOnce)
{
    SpanCollectorConfig cfg;
    cfg.anomalyMinSamples = 32;
    cfg.anomalyThreshold = 4.0;
    SpanCollector collector(cfg);

    int fired = 0;
    std::uint64_t fired_index = 0;
    collector.setAnomalyCallback(
        [&fired, &fired_index](const SpanCollector &c,
                               const RequestSpan &trigger) {
            ++fired;
            fired_index = trigger.index;
            // The trigger is the newest ring entry at callback time.
            ASSERT_GT(c.ring().size(), 0u);
            EXPECT_EQ(c.ring().at(c.ring().size() - 1).index,
                      trigger.index);
        });

    feedSteady(collector, 100, 500);
    collector.onSpan(makeSpan(100, 50'000));
    collector.onSpan(makeSpan(101, 60'000)); // second anomaly
    feedSteady(collector, 20, 500, 102);

    EXPECT_EQ(fired, 1);
    EXPECT_EQ(fired_index, 100u);
    EXPECT_TRUE(collector.dumpTriggered());
    EXPECT_EQ(collector.dumpEvent(), 100u);
    // Both anomalies are recorded even though the dump is one-shot.
    ASSERT_EQ(collector.anomalies().size(), 2u);
    EXPECT_EQ(collector.anomalies()[0].span.index, 100u);
    EXPECT_EQ(collector.anomalies()[1].span.index, 101u);
}

TEST(SpanCollector, SteadyStateRecordsWithoutAllocating)
{
    if (!allocCounterActive())
        GTEST_SKIP() << "build without ESPSIM_ALLOC_COUNTER";

    SpanCollectorConfig cfg;
    cfg.ringCapacity = 64;
    cfg.worstK = 8;
    cfg.anomalyMinSamples = 16;
    SpanCollector collector(cfg);

    // Warm the detector, then measure a long steady stream that
    // exercises ring wrap, worst-K replacement, and anomaly recording.
    feedSteady(collector, 32, 500);
    const std::uint64_t before = allocCount();
    for (std::uint64_t i = 0; i < 10'000; ++i)
        collector.onSpan(makeSpan(32 + i, 400 + i % 300));
    collector.onSpan(makeSpan(20'000, 1'000'000)); // bounded record
    EXPECT_EQ(allocCount(), before);
}

// --------------------------------------------------------------------
// Span capture against a real run
// --------------------------------------------------------------------

TEST(SpanCapture, SpansTileTheRunAndBucketsClose)
{
    ServerProfile p = ServerProfile::testProfile();
    p.app.numEvents = 120;
    StreamingWorkload workload(
        std::make_unique<ServerTraceSource>(p));
    ArrivalConfig acfg;
    acfg.meanGapCycles = 3000.0;
    ServePacer pacer(makeArrivalProcess(acfg), 1024, acfg.seed,
                     p.app.numHandlerTypes);

    SpanCollectorConfig scfg;
    scfg.ringCapacity = 256; // > numEvents: every span survives
    SpanCollector collector(scfg);

    RunInstrumentation inst;
    inst.pacer = &pacer;
    inst.spans = &collector;
    const SimResult r =
        Simulator(SimConfig::espFull(true)).run(workload, inst);

    ASSERT_EQ(collector.spansRecorded(), p.app.numEvents);
    ASSERT_EQ(collector.ring().size(), p.app.numEvents);

    Cycle prev_retire = 0;
    Cycle span_cycle_sum = 0;
    for (std::size_t i = 0; i < collector.ring().size(); ++i) {
        const RequestSpan &span = collector.ring().at(i);
        // Spans tile the run: each window opens where the previous
        // one closed (the first opens at cycle 0).
        EXPECT_EQ(span.startCycle, prev_retire);
        prev_retire = span.retire;
        // Closure: the captured bucket deltas account for every
        // cycle of the span window, exactly.
        EXPECT_EQ(span.bucketSum(), span.spanCycles());
        EXPECT_EQ(span.queueCycles() + span.serviceCycles(),
                  span.totalCycles());
        EXPECT_GE(span.retire, span.dispatch);
        span_cycle_sum += span.spanCycles();
    }
    // The tiled spans cover the whole run up to the last retirement.
    EXPECT_EQ(span_cycle_sum, prev_retire);
    EXPECT_LE(prev_retire, r.cycles);
    // ESP ran, so some span must carry pre-exec blame.
    Cycle pre_exec = 0;
    for (std::size_t i = 0; i < collector.ring().size(); ++i)
        pre_exec += collector.ring().at(i).espPreExecCycles();
    EXPECT_EQ(pre_exec,
              r.core.bucketCycles[static_cast<std::size_t>(
                  CycleBucket::EspPreExec)]);
}

TEST(SpanCapture, LiveTimelineAndFlightReplayShareEventSlices)
{
    AppProfile p = AppProfile::byName("amazon");
    p.name = "amazon-tiny";
    p.numEvents = 12;
    p.avgEventLen = 3000;
    const auto workload = SyntheticGenerator(p).generate();

    EventTimeline timeline;
    SpanCollectorConfig scfg;
    scfg.ringCapacity = 64; // > numEvents: the ring holds every event
    SpanCollector collector(scfg);
    RunInstrumentation inst;
    inst.timeline = &timeline;
    inst.spans = &collector;
    (void)Simulator(SimConfig::espFull(true)).run(*workload, inst);
    ASSERT_EQ(collector.ring().size(), workload->numEvents());
    ASSERT_GT(timeline.numStalls(), 0u);

    std::string err;
    const auto live = parseJson(timeline.renderChromeTrace(), &err);
    ASSERT_TRUE(live) << err;
    const auto replay = parseJson(
        renderFlightRecorderTrace(collector, "ESP+NL", p.name), &err);
    ASSERT_TRUE(replay) << err;

    // Both traces convert the same records: every event slice, execute
    // slice and cycle-bucket counter matches field for field. Only the
    // stall tallies differ — the ring carries no stalls.
    const std::vector<const JsonValue *> a = eventRecords(*live);
    const std::vector<const JsonValue *> b = eventRecords(*replay);
    ASSERT_EQ(a.size(), 3 * workload->numEvents());
    ASSERT_EQ(a.size(), b.size());
    std::uint64_t prefetches = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const JsonValue &x = *a[i];
        const JsonValue &y = *b[i];
        EXPECT_EQ(x.at("name").string, y.at("name").string) << i;
        EXPECT_EQ(x.at("ph").string, y.at("ph").string) << i;
        EXPECT_EQ(x.at("ts").number, y.at("ts").number) << i;
        if (x.at("ph").string == "C") {
            EXPECT_EQ(numberMembers(x.at("args")),
                      numberMembers(y.at("args")))
                << i;
            continue;
        }
        EXPECT_EQ(x.at("dur").number, y.at("dur").number) << i;
        const JsonValue &xa = x.at("args");
        const JsonValue &ya = y.at("args");
        EXPECT_EQ(xa.at("index").number, ya.at("index").number) << i;
        if (x.at("name").string == "execute")
            continue;
        for (const char *key : {"queued_cycle", "dispatch_cycle",
                                "retire_cycle", "instructions"})
            EXPECT_EQ(xa.at(key).number, ya.at(key).number) << key;
        EXPECT_EQ(numberMembers(xa.at("cycle_buckets")),
                  numberMembers(ya.at("cycle_buckets")))
            << i;
        EXPECT_EQ(numberMembers(xa.at("prefetches")),
                  numberMembers(ya.at("prefetches")))
            << i;
        for (const auto &[name, n] : numberMembers(xa.at("prefetches")))
            prefetches += static_cast<std::uint64_t>(n);
    }
    // ESP+NL issues prefetches, so the prefetch args were compared on
    // real tallies, not zeros.
    EXPECT_GT(prefetches, 0u);
}

TEST(SpanCapture, SpanArtifactIsDeterministicAcrossConcurrency)
{
    const ServerProfile profile = ServerProfile::testProfile();
    const std::vector<SimConfig> configs{SimConfig::baseline()};
    const ServeOptions opts = spikedOptions();

    ArtifactManifest manifest;
    manifest.source = "test";
    manifest.toolVersion = "test";
    manifest.buildType = "test";

    const std::string serial = renderSpanArtifactJson(
        manifest, runServe(profile, configs, opts));

    // Four concurrent replays of the identical run must each render
    // byte-for-byte the same artifact as the serial one.
    std::vector<std::string> parallel(4);
    {
        JobPool pool(4);
        for (std::string &out : parallel) {
            pool.submit([&] {
                out = renderSpanArtifactJson(
                    manifest, runServe(profile, configs, opts));
            });
        }
        pool.wait();
    }
    for (const std::string &artifact : parallel)
        EXPECT_EQ(artifact, serial);
    EXPECT_NE(serial.find("\"schema\":\"espsim-span-artifact\""),
              std::string::npos);
}

TEST(SpanCapture, InjectedSpikeTriggersExactlyOneDump)
{
    const ServeReport report = runServe(
        ServerProfile::testProfile(), {SimConfig::baseline()},
        spikedOptions());
    ASSERT_EQ(report.cells.size(), 1u);
    const ServeCell &cell = report.cells[0];

    EXPECT_TRUE(cell.dumpTriggered);
    EXPECT_EQ(cell.dumpEvent, 350u);
    ASSERT_FALSE(cell.anomalies.empty());
    EXPECT_EQ(cell.anomalies[0].span.index, 350u);
    // The spiked request (or a victim queued right behind it — the
    // backlog can out-wait the spike itself) tops the worst-K table,
    // and the spike itself is in it.
    ASSERT_FALSE(cell.worstSpans.empty());
    EXPECT_GE(cell.worstSpans[0].index, 350u);
    bool spike_listed = false;
    for (const RequestSpan &span : cell.worstSpans)
        spike_listed = spike_listed || span.index == 350;
    EXPECT_TRUE(spike_listed);
    EXPECT_EQ(cell.spansRecorded, 400u);

    // The flight-recorder trace replays the ring into a renderable
    // Chrome trace tagged with its kind.
    SpanCollectorConfig scfg;
    SpanCollector collector(scfg);
    for (const RequestSpan &span : cell.worstSpans)
        collector.onSpan(span);
    const std::string trace =
        renderFlightRecorderTrace(collector, "base", "testsrv");
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"trace_kind\":\"flight-recorder\""),
              std::string::npos);
}

TEST(SpanCapture, QuietRunTriggersNoDump)
{
    ServeOptions opts = spikedOptions();
    opts.spans.spikeEvent = noSpikeEvent; // no injected spike
    const ServeReport report = runServe(
        ServerProfile::testProfile(), {SimConfig::baseline()}, opts);
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_FALSE(report.cells[0].dumpTriggered);
}

// --------------------------------------------------------------------
// Per-handler latency breakdown
// --------------------------------------------------------------------

TEST(HandlerBreakdown, RowsPartitionTheEventStream)
{
    ServeOptions opts;
    opts.events = 300;
    opts.arrival.meanGapCycles = 2000.0;
    const ServeReport report = runServe(
        ServerProfile::testProfile(), {SimConfig::baseline()}, opts);
    ASSERT_EQ(report.cells.size(), 1u);
    const ServeCell &cell = report.cells[0];

    ASSERT_FALSE(cell.handlers.empty());
    std::uint64_t handler_events = 0;
    for (const HandlerLatencyRow &row : cell.handlers) {
        EXPECT_GT(row.events, 0u);
        EXPECT_EQ(row.queue.count, row.events);
        EXPECT_EQ(row.service.count, row.events);
        EXPECT_LE(row.queue.p50, row.queue.p99);
        EXPECT_LE(row.service.p50, row.service.p99);
        handler_events += row.events;
    }
    EXPECT_EQ(handler_events, cell.events);
}

TEST(HandlerBreakdown, StatsSurfaceInTheRegistrySnapshot)
{
    ServerProfile p = ServerProfile::testProfile();
    p.app.numEvents = 200;
    StreamingWorkload workload(
        std::make_unique<ServerTraceSource>(p));
    ArrivalConfig acfg;
    ServePacer pacer(makeArrivalProcess(acfg), 1024, acfg.seed,
                     p.app.numHandlerTypes);
    RunInstrumentation inst;
    inst.pacer = &pacer;
    const SimResult r =
        Simulator(SimConfig::baseline()).run(workload, inst);

    ASSERT_TRUE(r.stats.has("server.handler.0.events"));
    ASSERT_TRUE(r.stats.has("server.handler.0.queue.p50"));
    ASSERT_TRUE(r.stats.has("server.handler.0.queue.p99"));
    ASSERT_TRUE(r.stats.has("server.handler.0.service.p50"));
    ASSERT_TRUE(r.stats.has("server.handler.0.service.p99"));
    EXPECT_LE(r.stats.get("server.handler.0.queue.p50"),
              r.stats.get("server.handler.0.queue.p99"));
    // The rows partition the stream across the profile's handlers.
    double total = 0.0;
    for (std::size_t h = 0; h < p.app.numHandlerTypes; ++h) {
        const std::string key =
            "server.handler." + std::to_string(h) + ".events";
        if (r.stats.has(key))
            total += r.stats.get(key);
    }
    EXPECT_EQ(total, static_cast<double>(p.app.numEvents));
}
