/**
 * @file
 * The counter time series: one mechanism snapshots counters over a
 * run.
 *
 * Every figure in the paper is an end-of-run aggregate; the counter
 * time series shows how a run got there. It has two pieces:
 *
 *  - **TelemetrySnapshotter** — freezes the StatRegistry's counter
 *    name set and reads a baseline at construction, then observes the
 *    core's per-event records (it is a SpanSink) and takes *absolute*
 *    counter snapshots at event-retire boundaries (the only points
 *    where the stat surface is consistent), paced by simulated cycles.
 *    Counters are monotone across snapshots and the final snapshot —
 *    always taken at finalize — equals the end-of-run registry values
 *    exactly (uint64 counters are exact in double below 2^53). Each
 *    snapshot is written to a TelemetryStream and, with a timeline
 *    attached, its first difference against the previous snapshot
 *    (the baseline before the first) lands as Perfetto `interval.*`
 *    counter tracks: IPC, L1-I MPKI, L1-D miss rate and ESP
 *    occupancy.
 *
 *  - **TelemetryStream** — a JSON-lines sink (file or in-memory for
 *    tests). One stream may carry several run blocks (a serve sweep
 *    writes one block per config); each block opens with a header
 *    line carrying the schema, run identity and the frozen counter
 *    name set, followed by snapshot lines and exactly one line with
 *    `"final": true`. The stream is the series' only file output;
 *    rates are derived downstream from counter differences
 *    (tools/plot_intervals.py shows how).
 *
 * Determinism: the snapshotter only reads counters, so every other
 * artifact stays byte-identical with it on or off, and the stream and
 * the counter tracks are themselves deterministic.
 */

#ifndef ESPSIM_REPORT_TELEMETRY_HH
#define ESPSIM_REPORT_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"
#include "report/spans.hh"
#include "report/stat_registry.hh"

namespace espsim
{

class EventTimeline;

/** Version of the telemetry-stream schema this build writes. */
constexpr std::uint32_t telemetryStreamFormatVersion = 2;

/** When the snapshotter samples. */
struct TelemetryConfig
{
    /** Snapshot when ≥ this many simulated cycles passed (0 = only
     *  the final snapshot). */
    Cycle periodCycles = 0;

    bool
    enabled() const
    {
        return periodCycles > 0;
    }
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

    /** Append one record (newline added, file flushed). */
    void writeLine(const std::string &line);

    std::uint64_t linesWritten() const { return lines_; }

    /** Close the file (no-op for capture mode). @return false when a
     *  write or the close failed. */
    bool close();

  private:
    std::FILE *file_ = nullptr;
    std::string *sink_ = nullptr;
    std::uint64_t lines_ = 0;
    bool writeFailed_ = false;
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
    /**
     * Paced by @p cfg. @p stream and @p timeline are both nullable:
     * the stream receives the header line now and one line per
     * snapshot; the timeline receives each snapshot's counter-track
     * points.
     */
    TelemetrySnapshotter(const StatRegistry &reg, TelemetryConfig cfg,
                         TelemetryRunInfo info, TelemetryStream *stream,
                         EventTimeline *timeline);

    /** A retired event (its record's index + 1 events have retired). */
    void onSpan(const RequestSpan &span) override;

    /**
     * Take the closing snapshot (always, flagged `"final": true`),
     * whose values equal the end-of-run registry counters exactly.
     */
    void finalize(Cycle now, std::uint64_t events_retired);

    /** Snapshots taken so far (the final one included). */
    std::uint64_t snapshots() const { return seq_; }

  private:
    /** The counters the timeline tracks are derived from. */
    enum Tracked
    {
        TrackCycles,
        TrackInstructions,
        TrackL1iMisses,
        TrackL1dAccesses,
        TrackL1dMisses,
        TrackEspPreExec,
        NumTracked
    };

    TelemetryConfig cfg_;
    TelemetryRunInfo info_;
    TelemetryStream *stream_ = nullptr;
    EventTimeline *timeline_ = nullptr;
    std::vector<std::string> names_;
    std::vector<StatRegistry::Getter> getters_;
    std::vector<double> values_; //!< the last snapshot (or baseline)
    /** Index of each tracked counter in names_ (npos = absent). */
    std::array<std::size_t, NumTracked> tracked_{};
    std::uint64_t seq_ = 0;
    Cycle nextCycle_ = 0;
    bool finalized_ = false;

    void writeHeader();
    void sample(Cycle now, std::uint64_t events_retired, bool final_);
    void recordTracks(Cycle now,
                      const std::array<double, NumTracked> &prev);
};

} // namespace espsim

#endif // ESPSIM_REPORT_TELEMETRY_HH
