/**
 * @file
 * The serve driver: stream a request-serving profile through the
 * simulator under an arrival discipline, once per config, and collect
 * tail-latency reports.
 *
 * One ServeCell per config carries the architectural headlines plus
 * the queue/service/total latency summaries and a power-of-two
 * total-latency histogram. renderLatencyArtifactJson() writes the
 * versioned `espsim-latency-artifact` (validated by
 * tools/validate_artifact.py) — deterministic and free of wall-clock
 * facts, like every other espsim artifact.
 */

#ifndef ESPSIM_SERVER_SERVE_HH
#define ESPSIM_SERVER_SERVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report/artifact.hh"
#include "report/spans.hh"
#include "server/arrival.hh"
#include "server/latency.hh"
#include "server/profile.hh"
#include "sim/simulator.hh"

namespace espsim
{

/** Sentinel: no latency spike injected. */
constexpr std::uint64_t noSpikeEvent = ~std::uint64_t{0};

/** Span-tracing knobs of one serve run (see report/spans.hh). */
struct ServeSpanOptions
{
    bool enabled = false;
    /** Flight-recorder ring capacity (spans). */
    std::size_t flightRecorder = 256;
    /** Worst-request table size in the span artifact. */
    std::size_t worstK = 8;
    /** Anomaly: total latency > threshold x running p99. */
    double anomalyThreshold = 8.0;
    /** Detector warmup (spans before triggers are armed). */
    std::uint64_t anomalyMinSamples = 64;
    /**
     * Flight-recorder dump path prefix; the first anomaly per config
     * writes `<prefix>.<config>.trace.json` (`espsim serve
     * --trace-spans X.json` sets `X.flight`). Empty = no dump files
     * (the detector still records anomalies in the artifact).
     */
    std::string dumpPrefix;
    /** Inject a service-time spike into this event id (tests the
     *  detector end to end); noSpikeEvent = off. */
    std::uint64_t spikeEvent = noSpikeEvent;
    /** Op-count amplification of the spiked event: large enough that
     *  the default detector trips on it. */
    unsigned spikeScale = 100;
};

/**
 * Counter time-series knobs of one serve run (see
 * report/telemetry.hh). The stream never perturbs the deterministic
 * artifacts.
 */
struct ServeTelemetryOptions
{
    /** Snapshot pacing (the CLI defaults it when a path is set). */
    TelemetryConfig period;
    /** JSONL snapshot stream path ("" = telemetry off). */
    std::string jsonlPath;
};

/** Knobs of one serve run (applied identically to every config). */
struct ServeOptions
{
    /** Override profile.app.numEvents when non-zero. */
    std::size_t events = 0;
    /** Streaming window (resident trace budget per reader). */
    std::size_t window = 16;
    /** Latency reservoir capacity (0 = buffer every sample). */
    std::size_t reservoirCapacity = 4096;
    ArrivalConfig arrival;
    ServeSpanOptions spans;
    ServeTelemetryOptions telemetry;
};

/** One handler type's latency breakdown (span/latency artifacts). */
struct HandlerLatencyRow
{
    std::uint32_t handler = 0;
    std::uint64_t events = 0;
    LatencySummary queue;
    LatencySummary service;
};

/** Results of one (profile, config) serve run. */
struct ServeCell
{
    std::string config;
    Cycle cycles = 0;
    double ipc = 0.0;
    Cycle idleCycles = 0;
    std::uint64_t events = 0;
    LatencySummary queue;
    LatencySummary service;
    LatencySummary total;
    std::vector<std::uint64_t> histogram;
    /** Per-handler queue/service breakdown (handlers that served). */
    std::vector<HandlerLatencyRow> handlers;

    // --- span tracing (populated when opts.spans.enabled) ----------
    std::uint64_t spansRecorded = 0;
    double runningP99 = 0.0;
    std::vector<RequestSpan> worstSpans;
    std::vector<AnomalyRecord> anomalies;
    std::uint64_t anomalyOverflow = 0;
    bool dumpTriggered = false;
    std::uint64_t dumpEvent = 0;
    std::string dumpPath;
};

/** A full serve sweep over one profile. */
struct ServeReport
{
    std::string profile;
    std::string profileDescription;
    std::size_t events = 0;
    std::size_t window = 0;
    std::size_t reservoirCapacity = 0;
    ArrivalConfig arrival;
    ServeSpanOptions spans;
    std::vector<std::string> configNames;
    std::string configHash;
    std::vector<ServeCell> cells;

    /** Telemetry snapshots streamed across the sweep. */
    std::uint64_t telemetrySnapshots = 0;
    /** The telemetry stream could not be opened (nothing was
     *  simulated), written or closed. */
    bool telemetryFailed = false;
};

/**
 * Run @p profile under every config in @p configs (serially; each
 * config replays the identical request stream and arrival schedule).
 */
ServeReport runServe(const ServerProfile &profile,
                     const std::vector<SimConfig> &configs,
                     const ServeOptions &opts);

/** Render the versioned espsim-latency-artifact JSON. */
std::string renderLatencyArtifactJson(const ArtifactManifest &manifest,
                                      const ServeReport &report);

/**
 * Render the versioned espsim-span-artifact JSON: per config, the
 * worst-K tail requests decomposed into queue vs service, per-bucket
 * cycle blame and ESP prefetch deltas, plus the anomaly records and
 * flight-recorder dump provenance. Requires opts.spans.enabled runs.
 */
std::string renderSpanArtifactJson(const ArtifactManifest &manifest,
                                   const ServeReport &report);

} // namespace espsim

#endif // ESPSIM_SERVER_SERVE_HH
