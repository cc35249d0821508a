#include "server/serve.hh"

#include <memory>
#include <utility>

#include <mutex>

#include "common/logging.hh"
#include "common/version.hh"
#include "cpu/ooo_core.hh"
#include "report/flight_recorder.hh"
#include "report/host_profile.hh"
#include "report/json_writer.hh"
#include "report/metrics_http.hh"
#include "report/telemetry.hh"
#include "report/watchdog.hh"
#include "workload/streaming.hh"

namespace espsim
{

namespace
{

/**
 * EventSource decorator that amplifies one event's op stream by an
 * integer factor: a deterministic, injectable service-time spike for
 * exercising the tail-anomaly detector end to end. Every other event
 * passes through bit-identically, so the surrounding latency
 * distribution is untouched.
 */
class SpikedSource final : public EventSource
{
  public:
    SpikedSource(std::unique_ptr<const EventSource> inner,
                 std::uint64_t spikeEvent, unsigned scale)
        : inner_(std::move(inner)), spikeEvent_(spikeEvent),
          scale_(scale < 2 ? 2 : scale)
    {
    }

    const std::string &name() const override { return inner_->name(); }
    std::size_t numEvents() const override
    {
        return inner_->numEvents();
    }
    std::vector<AddrRange> warmSet() const override
    {
        return inner_->warmSet();
    }

    EventTrace
    makeEvent(std::uint64_t id) const override
    {
        EventTrace trace = inner_->makeEvent(id);
        if (id != spikeEvent_)
            return trace;
        OpSequence amplified;
        amplified.reserve(trace.ops.size() * scale_);
        for (unsigned r = 0; r < scale_; ++r) {
            for (std::size_t i = 0; i < trace.ops.size(); ++i)
                amplified.push_back(trace.ops[i]);
        }
        trace.ops = std::move(amplified);
        // The replicated stream invalidates any recorded divergence
        // index; treat the spiked event as independent.
        trace.divergencePoint = noDivergence;
        trace.divergedTail.clear();
        return trace;
    }

  private:
    std::unique_ptr<const EventSource> inner_;
    std::uint64_t spikeEvent_;
    unsigned scale_;
};

} // namespace

ServeReport
runServe(const ServerProfile &profile,
         const std::vector<SimConfig> &configs,
         const ServeOptions &opts)
{
    if (configs.empty())
        panic("runServe: no configs");

    ServerProfile p = profile;
    if (opts.events > 0)
        p.app.numEvents = opts.events;

    ServeReport report;
    report.profile = p.name;
    report.profileDescription = p.description;
    report.events = p.app.numEvents;
    report.window = opts.window;
    report.reservoirCapacity = opts.reservoirCapacity;
    report.arrival = opts.arrival;
    report.spans = opts.spans;
    report.configHash = configsHash(configs);
    for (const SimConfig &c : configs)
        report.configNames.push_back(c.name);

    // Live-telemetry plane: one plane/stream/endpoint/watchdog spans
    // the whole sweep (the progress counter and health state are
    // sweep-global; each config opens its own JSONL block).
    std::unique_ptr<TelemetryPlane> plane;
    std::unique_ptr<TelemetryStream> stream;
    std::unique_ptr<MetricsHttpServer> metrics;
    std::unique_ptr<StallWatchdog> watchdog;
    // The watchdog thread dumps the flight-recorder ring of whichever
    // config is currently running; the pointer swap is mutex-guarded
    // (the stalled simulation thread is by definition not mid-span
    // when the watchdog reads the ring).
    struct WatchdogTarget
    {
        std::mutex mu;
        const SpanCollector *collector = nullptr;
        std::string config;
    };
    auto wd_target = std::make_shared<WatchdogTarget>();
    if (opts.telemetry.any()) {
        plane = std::make_unique<TelemetryPlane>();
        if (!opts.telemetry.jsonlPath.empty()) {
            stream = std::make_unique<TelemetryStream>();
            if (!stream->openFile(opts.telemetry.jsonlPath)) {
                logLine(LogLevel::Error,
                        "cannot open telemetry stream '%s'",
                        opts.telemetry.jsonlPath.c_str());
                stream.reset();
            }
        }
        if (opts.telemetry.metricsEnabled) {
            metrics = std::make_unique<MetricsHttpServer>(*plane);
            if (!metrics->start(opts.telemetry.metricsPort)) {
                logLine(LogLevel::Error,
                        "cannot bind metrics port %u",
                        unsigned{opts.telemetry.metricsPort});
                metrics.reset();
            } else {
                logLine(LogLevel::Info,
                        "# metrics endpoint: http://127.0.0.1:%u"
                        "/metrics",
                        unsigned{metrics->port()});
            }
        }
        if (opts.telemetry.watchdogBudgetMs > 0) {
            const std::string prefix =
                opts.telemetry.watchdogDumpPrefix;
            watchdog = std::make_unique<StallWatchdog>(
                *plane, opts.telemetry.watchdogBudgetMs,
                [wd_target, prefix, &p](const StallReport &stall) {
                    logLine(LogLevel::Warn,
                            "# watchdog: host peak RSS %.1f MB, "
                            "stalled %.0f ms at progress %llu",
                            peakRssMb(), stall.stalledMs,
                            static_cast<unsigned long long>(
                                stall.lastProgress));
                    std::lock_guard<std::mutex> lock(wd_target->mu);
                    if (wd_target->collector == nullptr ||
                        prefix.empty())
                        return;
                    const std::string path = prefix + "." +
                        wd_target->config + ".stall.trace.json";
                    if (writeFlightRecorderTrace(
                            *wd_target->collector, wd_target->config,
                            p.name, path))
                        logLine(LogLevel::Warn,
                                "# watchdog: wrote flight-recorder "
                                "dump %s",
                                path.c_str());
                    else
                        logLine(LogLevel::Error,
                                "cannot write watchdog dump '%s'",
                                path.c_str());
                });
        }
    }

    for (const SimConfig &config : configs) {
        // A fresh streaming workload per config: each replay starts at
        // event 0 with an empty pin window, so resident-trace bounds
        // (and thus peak RSS) don't accumulate across configs.
        std::unique_ptr<const EventSource> source =
            std::make_unique<ServerTraceSource>(p);
        if (opts.spans.spikeEvent != noSpikeEvent) {
            source = std::make_unique<SpikedSource>(
                std::move(source), opts.spans.spikeEvent,
                opts.spans.spikeScale);
        }
        StreamingWorkload workload(std::move(source), opts.window);
        ServePacer pacer(makeArrivalProcess(opts.arrival),
                         opts.reservoirCapacity, opts.arrival.seed,
                         p.app.numHandlerTypes);
        RunInstrumentation inst;
        inst.pacer = &pacer;

        std::unique_ptr<SpanCollector> spans;
        std::string dump_path;
        if (opts.spans.enabled) {
            SpanCollectorConfig scfg;
            scfg.ringCapacity = opts.spans.flightRecorder;
            scfg.worstK = opts.spans.worstK;
            scfg.anomalyThreshold = opts.spans.anomalyThreshold;
            scfg.anomalyMinSamples = opts.spans.anomalyMinSamples;
            spans = std::make_unique<SpanCollector>(scfg);
            if (!opts.spans.dumpPrefix.empty()) {
                dump_path = opts.spans.dumpPrefix + "." + config.name +
                    ".trace.json";
                spans->setAnomalyCallback(
                    [&dump_path, &config, &p](
                        const SpanCollector &collector,
                        const RequestSpan &trigger) {
                        if (!writeFlightRecorderTrace(collector,
                                                      config.name,
                                                      p.name,
                                                      dump_path)) {
                            logLine(LogLevel::Error,
                                    "cannot write flight-recorder "
                                    "dump '%s'",
                                    dump_path.c_str());
                            return;
                        }
                        logLine(LogLevel::Info,
                                "# flight recorder: event %zu tripped "
                                "the tail detector; wrote %s",
                                trigger.index, dump_path.c_str());
                    });
            }
            inst.spans = spans.get();
        }

        if (plane) {
            inst.telemetry = opts.telemetry.period;
            inst.telemetryStream = stream.get();
            inst.telemetryPlane = plane.get();
            inst.telemetryConfigHash = report.configHash;
            std::lock_guard<std::mutex> lock(wd_target->mu);
            wd_target->collector = spans.get();
            wd_target->config = config.name;
        }

        const SimResult r = Simulator(config).run(workload, inst);

        if (plane) {
            // The per-run snapshotter is gone; detach the watchdog's
            // dump target before the collector dies with this scope.
            report.telemetrySnapshots += plane->latest().snap.seq;
            std::lock_guard<std::mutex> lock(wd_target->mu);
            wd_target->collector = nullptr;
        }

        ServeCell cell;
        cell.config = config.name;
        cell.cycles = r.cycles;
        cell.ipc = r.ipc;
        cell.idleCycles = r.core.bucketCycles[static_cast<std::size_t>(
            CycleBucket::Idle)];
        cell.events = pacer.events();
        cell.queue = summarizeLatency(pacer.queueLatency());
        cell.service = summarizeLatency(pacer.serviceLatency());
        cell.total = summarizeLatency(pacer.totalLatency());
        cell.histogram.assign(pacer.histogram().begin(),
                              pacer.histogram().end());
        for (std::size_t h = 0; h < pacer.handlers().size(); ++h) {
            const HandlerLatency &hl = pacer.handlers()[h];
            if (hl.events == 0)
                continue;
            HandlerLatencyRow row;
            row.handler = static_cast<std::uint32_t>(h);
            row.events = hl.events;
            row.queue = summarizeLatency(hl.queue);
            row.service = summarizeLatency(hl.service);
            cell.handlers.push_back(row);
        }
        if (spans) {
            cell.spansRecorded = spans->spansRecorded();
            cell.runningP99 = spans->runningP99();
            cell.worstSpans = spans->worstSpans();
            cell.anomalies = spans->anomalies();
            cell.anomalyOverflow = spans->anomalyOverflow();
            cell.dumpTriggered = spans->dumpTriggered();
            cell.dumpEvent = spans->dumpEvent();
            if (cell.dumpTriggered && !dump_path.empty())
                cell.dumpPath = dump_path;
        }
        report.cells.push_back(std::move(cell));
    }

    if (watchdog) {
        watchdog->stop();
        report.watchdogFires = watchdog->fireCount();
    }
    if (metrics)
        metrics->stop();
    if (plane && plane->degraded()) {
        report.degraded = true;
        report.degradedReason = plane->degradedReason();
    }
    if (stream && !stream->close())
        logLine(LogLevel::Error, "telemetry stream '%s': write failed",
                opts.telemetry.jsonlPath.c_str());
    return report;
}

namespace
{

void
writeLatencyClass(JsonWriter &w, const char *name,
                  const LatencySummary &s)
{
    w.key(name).beginObject();
    w.key("count").value(std::uint64_t{s.count});
    w.key("mean").value(s.mean);
    w.key("max").value(s.max);
    w.key("p50").value(s.p50);
    w.key("p95").value(s.p95);
    w.key("p99").value(s.p99);
    w.key("p999").value(s.p999);
    w.endObject();
}

void
writeHandlerRows(JsonWriter &w, const ServeCell &cell)
{
    w.key("handlers").beginArray();
    for (const HandlerLatencyRow &row : cell.handlers) {
        w.beginObject();
        w.key("handler").value(std::uint64_t{row.handler});
        w.key("events").value(std::uint64_t{row.events});
        writeLatencyClass(w, "queue", row.queue);
        writeLatencyClass(w, "service", row.service);
        w.endObject();
    }
    w.endArray();
}

void
writeManifestCommon(JsonWriter &w, const ArtifactManifest &manifest,
                    const ServeReport &report)
{
    w.key("source").value(manifest.source);
    w.key("tool_version")
        .value(manifest.toolVersion.empty() ? versionString()
                                            : manifest.toolVersion);
    w.key("build_type")
        .value(manifest.buildType.empty() ? buildTypeString()
                                          : manifest.buildType);
    w.key("config_hash").value(report.configHash);
    w.key("profile").value(report.profile);
    w.key("events").value(std::uint64_t{report.events});
    w.key("window").value(std::uint64_t{report.window});
    w.key("reservoir_capacity")
        .value(std::uint64_t{report.reservoirCapacity});
    w.key("arrival").beginObject();
    w.key("kind").value(arrivalKindName(report.arrival.kind));
    w.key("mean_gap_cycles").value(report.arrival.meanGapCycles);
    w.key("burst_gap_factor").value(report.arrival.burstGapFactor);
    w.key("calm_gap_factor").value(report.arrival.calmGapFactor);
    w.key("mean_burst_cycles").value(report.arrival.meanBurstCycles);
    w.key("mean_calm_cycles").value(report.arrival.meanCalmCycles);
    w.key("concurrency")
        .value(std::uint64_t{report.arrival.concurrency});
    w.key("think_cycles")
        .value(std::uint64_t{report.arrival.thinkCycles});
    w.key("seed").value(std::uint64_t{report.arrival.seed});
    w.endObject();
    // Opt-in like the suite artifact's `host` block: the health
    // object only appears on degraded runs, so healthy telemetry-on
    // artifacts stay byte-identical to telemetry-off ones.
    if (report.degraded) {
        w.key("health").beginObject();
        w.key("status").value("degraded");
        w.key("reason").value(report.degradedReason);
        w.key("watchdog_fires")
            .value(std::uint64_t{report.watchdogFires});
        w.endObject();
    }
    w.key("configs").beginArray();
    for (const std::string &name : report.configNames)
        w.value(name);
    w.endArray();
}

void
writeSpanRecord(JsonWriter &w, const RequestSpan &span)
{
    w.beginObject();
    w.key("event").value(std::uint64_t{span.index});
    w.key("handler").value(std::uint64_t{span.handlerType});
    w.key("arrival").value(std::uint64_t{span.arrival});
    w.key("dispatch").value(std::uint64_t{span.dispatch});
    w.key("retire").value(std::uint64_t{span.retire});
    w.key("queue_cycles").value(std::uint64_t{span.queueCycles()});
    w.key("service_cycles").value(std::uint64_t{span.serviceCycles()});
    w.key("total_cycles").value(std::uint64_t{span.totalCycles()});
    w.key("span_cycles").value(std::uint64_t{span.spanCycles()});
    w.key("instructions").value(std::uint64_t{span.instructions});
    w.key("buckets").beginObject();
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        w.key(cycleBucketName(static_cast<CycleBucket>(b)))
            .value(std::uint64_t{span.buckets[b]});
    }
    w.endObject();
    w.key("esp").beginObject();
    w.key("pre_exec_cycles")
        .value(std::uint64_t{span.espPreExecCycles()});
    w.key("prefetch").beginObject();
    for (unsigned s = 0; s < numPrefetchSources; ++s) {
        const SpanPrefetchDelta &d = span.prefetch[s];
        w.key(prefetchSourceName(static_cast<PrefetchSource>(s)))
            .beginObject();
        w.key("issued").value(std::uint64_t{d.issued});
        w.key("timely").value(std::uint64_t{d.timely});
        w.key("late").value(std::uint64_t{d.late});
        w.key("harmful").value(std::uint64_t{d.harmful});
        w.endObject();
    }
    w.endObject();
    w.endObject();
    w.endObject();
}

} // namespace

std::string
renderLatencyArtifactJson(const ArtifactManifest &manifest,
                          const ServeReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-latency-artifact");
    w.key("format_version").value(std::uint64_t{artifactFormatVersion});

    w.key("manifest").beginObject();
    writeManifestCommon(w, manifest, report);
    w.endObject();

    w.key("results").beginArray();
    for (const ServeCell &cell : report.cells) {
        w.beginObject();
        w.key("config").value(cell.config);
        w.key("cycles").value(std::uint64_t{cell.cycles});
        w.key("ipc").value(cell.ipc);
        w.key("idle_cycles").value(std::uint64_t{cell.idleCycles});
        w.key("events").value(std::uint64_t{cell.events});
        w.key("latency").beginObject();
        writeLatencyClass(w, "queue", cell.queue);
        writeLatencyClass(w, "service", cell.service);
        writeLatencyClass(w, "total", cell.total);
        w.endObject();
        writeHandlerRows(w, cell);
        w.key("histogram").beginObject();
        w.key("scale").value("pow2_cycles");
        w.key("buckets").beginArray();
        for (const std::uint64_t count : cell.histogram)
            w.value(std::uint64_t{count});
        w.endArray();
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
renderSpanArtifactJson(const ArtifactManifest &manifest,
                       const ServeReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-span-artifact");
    w.key("format_version").value(std::uint64_t{artifactFormatVersion});

    w.key("manifest").beginObject();
    writeManifestCommon(w, manifest, report);
    w.key("flight_recorder")
        .value(std::uint64_t{report.spans.flightRecorder});
    w.key("worst_k").value(std::uint64_t{report.spans.worstK});
    w.key("anomaly_threshold").value(report.spans.anomalyThreshold);
    w.key("anomaly_min_samples")
        .value(std::uint64_t{report.spans.anomalyMinSamples});
    if (report.spans.spikeEvent != noSpikeEvent) {
        w.key("spike_event")
            .value(std::uint64_t{report.spans.spikeEvent});
        w.key("spike_scale")
            .value(std::uint64_t{report.spans.spikeScale});
    }
    w.endObject();

    w.key("results").beginArray();
    for (const ServeCell &cell : report.cells) {
        w.beginObject();
        w.key("config").value(cell.config);
        w.key("cycles").value(std::uint64_t{cell.cycles});
        w.key("events").value(std::uint64_t{cell.events});
        w.key("spans_recorded")
            .value(std::uint64_t{cell.spansRecorded});
        w.key("running_p99").value(cell.runningP99);
        w.key("dump").beginObject();
        w.key("triggered").value(cell.dumpTriggered);
        if (cell.dumpTriggered) {
            w.key("event").value(std::uint64_t{cell.dumpEvent});
            if (!cell.dumpPath.empty())
                w.key("path").value(cell.dumpPath);
        }
        w.endObject();
        w.key("worst").beginArray();
        for (const RequestSpan &span : cell.worstSpans)
            writeSpanRecord(w, span);
        w.endArray();
        w.key("anomalies").beginArray();
        for (const AnomalyRecord &record : cell.anomalies) {
            w.beginObject();
            w.key("running_p99").value(record.runningP99);
            w.key("span");
            writeSpanRecord(w, record.span);
            w.endObject();
        }
        w.endArray();
        w.key("anomaly_overflow")
            .value(std::uint64_t{cell.anomalyOverflow});
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace espsim
