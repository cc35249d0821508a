/**
 * @file
 * Live telemetry plane: online counter exposition for long runs.
 *
 * Everything else in src/report is post-mortem — artifacts, spans and
 * flight-recorder dumps land after the run ends. A multi-minute
 * `espsim serve` run streaming millions of events needs the opposite
 * shape: in-flight visibility. This header provides it in three
 * pieces:
 *
 *  - **TelemetrySnapshotter** — the one counter-snapshot mechanism.
 *    It freezes the StatRegistry's counter name set and reads a
 *    baseline at construction, then observes the core's per-event
 *    records (it is a SpanSink) and takes *absolute* counter snapshots
 *    at event-retire boundaries (the only points where the stat
 *    surface is consistent), paced by simulated cycles, retired
 *    events and/or wall-clock time. Every snapshot is a
 *    self-contained readout: counters are monotone across snapshots
 *    and the final snapshot — always taken at finalize — equals the
 *    end-of-run registry values exactly (uint64 counters are exact in
 *    double below 2^53). In its telemetry form snapshots stream as
 *    versioned JSON-lines through a TelemetryStream and publish into
 *    a TelemetryPlane; in its interval form each snapshot's first
 *    difference becomes one interval of an IntervalSeries
 *    (report/interval.hh).
 *
 *  - **TelemetryStream** — a JSON-lines sink (file or in-memory for
 *    tests). One stream may carry several run blocks (a serve sweep
 *    writes one block per config); each block opens with a header
 *    line carrying the schema, run identity and the frozen counter
 *    name set, followed by snapshot lines and exactly one line with
 *    `"final": true`.
 *
 *  - **TelemetryPlane** — the thread-safe rendezvous between the
 *    simulation thread and external observers (the /metrics HTTP
 *    endpoint, the stall watchdog). The snapshotter owns a private
 *    back buffer and *publishes* each completed snapshot into the
 *    plane's front buffer under a short lock (a classic
 *    double-buffer: the hot loop never waits on a reader holding a
 *    half-read snapshot). The plane also carries the run's health
 *    state (ok/degraded, set by the watchdog) and a relaxed-atomic
 *    retire-progress counter the watchdog monitors.
 *
 * Determinism: telemetry is an opt-in observer. With it off, no code
 * path changes and every artifact stays byte-identical; with it on,
 * the run's *artifacts* are still byte-identical (telemetry only
 * reads counters), and the JSONL itself is deterministic when paced
 * purely by cycles (wall-clock pacing trades determinism for a fixed
 * real-time cadence, which is the point of a live feed).
 *
 * Test hook: ESPSIM_STALL_INJECT="<event>:<ms>" (the
 * ESPSIM_FAULT_INJECT pattern) makes the snapshotter sleep <ms>
 * milliseconds when event <event> retires — an injectable wedge for
 * exercising the stall watchdog end to end. See report/watchdog.hh.
 */

#ifndef ESPSIM_REPORT_TELEMETRY_HH
#define ESPSIM_REPORT_TELEMETRY_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hh"
#include "report/interval.hh"
#include "report/spans.hh"
#include "report/stat_registry.hh"

namespace espsim
{

/** Version of the telemetry-stream schema this build writes. */
constexpr std::uint32_t telemetryStreamFormatVersion = 1;

/** When the snapshotter samples. Either pace may be 0 (= disabled). */
struct TelemetryConfig
{
    /** Snapshot when ≥ this many simulated cycles passed. */
    Cycle periodCycles = 0;
    /** Snapshot when ≥ this many wall-clock ms passed. */
    double wallMs = 0;

    bool
    enabled() const
    {
        return periodCycles > 0 || wallMs > 0;
    }
};

/** One absolute counter readout (aligned with the run's name set). */
struct TelemetrySnapshot
{
    std::uint64_t seq = 0; //!< 1-based within the run block
    Cycle cycle = 0;
    std::uint64_t events = 0;
    bool isFinal = false;
    std::vector<double> values;
};

/** Identity of the run a telemetry block describes. */
struct TelemetryRunInfo
{
    std::string config;
    std::string workload;
    std::string configHash;
};

/**
 * JSON-lines sink for telemetry blocks. Lines are flushed as written
 * so a live `tail -f` (or a post-crash read) always sees complete
 * records. Not thread-safe: only the simulation thread writes.
 */
class TelemetryStream
{
  public:
    TelemetryStream() = default;
    ~TelemetryStream();
    TelemetryStream(const TelemetryStream &) = delete;
    TelemetryStream &operator=(const TelemetryStream &) = delete;

    /** Open @p path for writing. @return false on I/O failure. */
    bool openFile(const std::string &path);

    /** Capture lines into @p sink instead of a file (tests). */
    void captureTo(std::string *sink) { sink_ = sink; }

    bool good() const { return file_ != nullptr || sink_ != nullptr; }

    /** Append one record (newline added, file flushed). */
    void writeLine(const std::string &line);

    std::uint64_t linesWritten() const { return lines_; }

    /** Close the file (no-op for capture mode). @return false on
     *  I/O failure. */
    bool close();

  private:
    std::FILE *file_ = nullptr;
    std::string *sink_ = nullptr;
    std::uint64_t lines_ = 0;
    bool writeFailed_ = false;
};

/**
 * Thread-safe rendezvous between the run and its observers: the
 * published front buffer (latest snapshot + run identity), the health
 * state, and the retire-progress counter.
 */
class TelemetryPlane
{
  public:
    /** A copy of the front buffer; `valid` is false before the first
     *  publish. */
    struct View
    {
        bool valid = false;
        std::string config;
        std::string workload;
        std::string configHash;
        std::shared_ptr<const std::vector<std::string>> names;
        TelemetrySnapshot snap;
    };

    /** Writer side: replace the front buffer (short lock). */
    void publish(const TelemetryRunInfo &info,
                 const std::shared_ptr<const std::vector<std::string>>
                     &names,
                 const TelemetrySnapshot &snap);

    /** Reader side: copy the front buffer out. */
    View latest() const;

    /** One event retired (relaxed; the watchdog's liveness signal). */
    void
    noteProgress()
    {
        progress_.fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t
    progress() const
    {
        return progress_.load(std::memory_order_relaxed);
    }

    /** Latch the degraded health state (first reason wins). */
    void markDegraded(const std::string &reason);

    bool
    degraded() const
    {
        return degraded_.load(std::memory_order_acquire);
    }

    /** The first degradation reason ("" while healthy). */
    std::string degradedReason() const;

  private:
    mutable std::mutex mu_;
    View front_;
    std::string reason_;
    std::atomic<std::uint64_t> progress_{0};
    std::atomic<bool> degraded_{false};
};

/**
 * Snapshots a StatRegistry's counters over one run. Construct after
 * every pre-run counter is registered (the name set and the baseline
 * freeze now), attach to the core as an observer, finalize after the
 * run.
 */
class TelemetrySnapshotter final : public SpanSink
{
  public:
    /** Telemetry form, paced by @p cfg. @p stream and @p plane are
     *  both nullable (either sink alone is useful); the header line
     *  is written immediately. */
    TelemetrySnapshotter(const StatRegistry &reg, TelemetryConfig cfg,
                         TelemetryRunInfo info, TelemetryStream *stream,
                         TelemetryPlane *plane);

    /**
     * Interval form, paced by @p period's cycle and event grids: fills
     * @p series with the names and baseline now, one interval per
     * snapshot (its difference from the previous one), and the final
     * values at finalize. The trailing interval is dropped when no
     * counter moved after the last grid snapshot.
     */
    TelemetrySnapshotter(const StatRegistry &reg, IntervalConfig period,
                         IntervalSeries *series);

    /** A retired event (its record's index + 1 events have retired). */
    void onSpan(const RequestSpan &span) override;

    /**
     * Take the closing snapshot (always, flagged `"final": true`),
     * whose values equal the end-of-run registry counters exactly.
     */
    void finalize(Cycle now, std::uint64_t events_retired);

    const std::vector<std::string> &names() const { return *names_; }
    std::uint64_t snapshots() const { return seq_; }
    /** The back buffer: the baseline until the first snapshot. */
    const TelemetrySnapshot &lastSnapshot() const { return snap_; }

  private:
    TelemetryConfig cfg_;
    std::uint64_t periodEvents_ = 0;
    TelemetryRunInfo info_;
    TelemetryStream *stream_ = nullptr;
    TelemetryPlane *plane_ = nullptr;
    IntervalSeries *series_ = nullptr;
    std::shared_ptr<std::vector<std::string>> names_;
    std::vector<StatRegistry::Getter> getters_;
    TelemetrySnapshot snap_; //!< writer-owned back buffer (reused)
    std::uint64_t seq_ = 0;
    Cycle nextCycle_ = 0;
    std::uint64_t nextEvents_ = 0;
    std::chrono::steady_clock::time_point lastWall_;
    unsigned sinceWallCheck_ = 0;
    bool finalized_ = false;
    //!< ESPSIM_STALL_INJECT state (testing the watchdog).
    bool stallArmed_ = false;
    std::uint64_t stallEvent_ = 0;
    unsigned stallMs_ = 0;

    /** Freeze the name set and read the baseline into snap_. */
    explicit TelemetrySnapshotter(const StatRegistry &reg);
    void writeHeader();
    void sample(Cycle now, std::uint64_t events_retired, bool final_);
};

/** Render one snapshot line (or the /snapshot.json body). */
std::string renderTelemetrySnapshotJson(
    const TelemetryRunInfo &info,
    const std::vector<std::string> &names,
    const TelemetrySnapshot &snap, bool includeNames);

/**
 * Render the latest published view as Prometheus/OpenMetrics text
 * exposition: one `espsim_`-prefixed counter family per registry
 * counter with config/workload labels, plus liveness and health
 * meta-series. @p degraded folds the plane's health state in.
 */
std::string renderPrometheusText(const TelemetryPlane::View &view,
                                 bool degraded);

} // namespace espsim

#endif // ESPSIM_REPORT_TELEMETRY_HH
