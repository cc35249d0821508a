/**
 * @file
 * Opt-in per-event timeline recorder with Chrome trace_event export.
 *
 * When attached to a run (espsim run --timeline out.json), the timeline
 * consumes the core's per-event record (RequestSpan, see
 * report/spans.hh) like every other observer, and additionally hears
 * every stall the core hits (I-miss bubble, ROB-head data miss, LSQ
 * full, mispredict flush, BTB miss) and every pre-execution window the
 * ESP controller spends inside a stall shadow. Stalls and windows
 * recorded since the previous record belong to the next record. The
 * flight recorder (report/flight_recorder.hh) replays a span ring
 * through the same record consumer, so a live trace and a dump render
 * their event slices with one conversion. writeChromeTrace()
 * serializes it all in the Chrome trace_event JSON format, which loads
 * directly in Perfetto (https://ui.perfetto.dev) or chrome://tracing —
 * fitting, given the paper's workloads are Chromium's renderer events.
 *
 * Cycle-to-time mapping: 1 simulated cycle = 1 microsecond of trace
 * time (`ts`/`dur` are microseconds in the trace_event spec), so a
 * slice's `dur` reads directly as its cycle count.
 *
 * Memory behaviour: by default the recorder buffers every span and
 * renderChromeTrace() serializes them in one pass. streamTo(path)
 * keeps long runs bounded by switching to incremental export — each
 * event's record group (slices, stalls, ESP windows) is serialized and
 * written as soon as its record arrives, so the buffer holds at most
 * one event's spans. Both modes produce byte-identical files.
 *
 * The counter time series (src/report/telemetry.hh) appends counter
 * tracks — recordIntervalCounters() samples land on their own trace
 * row so IPC/miss-rate phases line up visually with the event slices.
 *
 * The recorder costs nothing when absent: components hold a nullable
 * pointer and skip all bookkeeping when it is null.
 */

#ifndef ESPSIM_REPORT_TIMELINE_HH
#define ESPSIM_REPORT_TIMELINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "report/spans.hh"

namespace espsim
{

class JsonWriter;

/** Trace format version written into the exported file. */
constexpr std::uint32_t timelineFormatVersion = 1;

/** Why the core sat idle (timeline view; richer than StallKind). */
enum class TimelineStall : std::uint8_t
{
    InstrMiss,  //!< fetch bubble beyond the hidden L1 latency
    DataMiss,   //!< load miss shadow (ROB-head / MLP window)
    LsqFull,    //!< oldest memory op blocking a full LSQ
    Mispredict, //!< branch mispredict flush
    BtbMiss,    //!< taken branch with no/old BTB target
};

const char *timelineStallName(TimelineStall kind);

/** Records one run's per-event timing; exports Chrome trace JSON. */
class EventTimeline final : public SpanSink
{
  public:
    EventTimeline();
    ~EventTimeline();

    EventTimeline(const EventTimeline &) = delete;
    EventTimeline &operator=(const EventTimeline &) = delete;

    /**
     * One retired event: its queue-head-to-retire slice, nested
     * execute slice, cycle-bucket counter track, and the cycle-bucket
     * and prefetch-issue args, grouped with the stalls and ESP windows
     * recorded since the previous record.
     */
    void onSpan(const RequestSpan &span) override;

    /** One stall of @p kind, @p dur cycles starting at @p start. */
    void recordStall(TimelineStall kind, Cycle start, Cycle dur);

    /**
     * ESP spent @p dur cycles of a stall shadow pre-executing event
     * @p spec_event_idx at depth @p depth (1-based: ESP-1, ESP-2).
     */
    void recordEspWindow(unsigned depth, std::size_t spec_event_idx,
                         Cycle start, Cycle dur);

    /**
     * One counter time-series interval at cycle @p ts: each
     * (metric, value) pair becomes a point on its own counter track.
     * Samples are buffered (they are tiny) and emitted after the
     * event slices in both buffered and streaming modes.
     */
    void recordIntervalCounters(
        Cycle ts, std::vector<std::pair<std::string, double>> values);

    /** Run metadata stamped into the trace header. */
    void setRunInfo(const std::string &config_name,
                    const std::string &workload_name);

    /**
     * Label the trace's provenance in otherData.trace_kind (e.g.
     * "flight-recorder" for anomaly dumps); empty = omitted, which is
     * what live full-run timelines write.
     */
    void setTraceKind(const std::string &kind) { traceKind_ = kind; }

    std::size_t numEvents() const
    {
        return flushedEvents_ + events_.size();
    }
    std::size_t numStalls() const
    {
        return flushedStalls_ + stalls_.size();
    }
    std::size_t numEspWindows() const
    {
        return flushedWindows_ + windows_.size();
    }

    /**
     * Begin streaming the trace to @p path: the header is written now
     * and each completed event record is appended as the run
     * progresses. Finish with closeStream(). @return false on I/O.
     */
    bool streamTo(const std::string &path);

    /** True between streamTo() and closeStream(). */
    bool streaming() const { return stream_ != nullptr; }

    /**
     * Flush the last event record, the interval counter tracks and
     * the trace footer, then close the stream. @return false on I/O.
     */
    bool closeStream();

    /** Serialize as Chrome trace_event JSON (buffered mode only). */
    std::string renderChromeTrace() const;

    /** Write renderChromeTrace() to @p path. @return false on I/O. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    /** One record plus the stalls and windows attributed to it. */
    struct EventSpan
    {
        RequestSpan record;
        Cycle stallCycles[5] = {0, 0, 0, 0, 0}; //!< per TimelineStall
        std::uint32_t stallCount = 0;
        std::uint32_t espWindows = 0;
    };

    struct StallSpan
    {
        TimelineStall kind;
        std::size_t eventIdx = 0;
        Cycle start = 0;
        Cycle dur = 0;
    };

    struct EspSpan
    {
        unsigned depth = 1;
        std::size_t specEventIdx = 0;
        std::size_t triggerEventIdx = 0;
        Cycle start = 0;
        Cycle dur = 0;
    };

    struct CounterSample
    {
        Cycle ts = 0;
        std::vector<std::pair<std::string, double>> values;
    };

    std::vector<EventSpan> events_;
    EventSpan pending_; //!< tallies for the next record
    std::vector<StallSpan> stalls_;
    std::vector<EspSpan> windows_;
    std::vector<CounterSample> counters_;
    std::string configName_;
    std::string workloadName_;
    std::string traceKind_;
    std::size_t curEvent_ = 0; //!< index the next record will carry

    //!< Records already streamed out (still counted by numEvents()).
    std::size_t flushedEvents_ = 0;
    std::size_t flushedStalls_ = 0;
    std::size_t flushedWindows_ = 0;

    struct Stream; //!< ofstream + JsonWriter (defined in the .cc)
    std::unique_ptr<Stream> stream_;

    void renderHeader(JsonWriter &w) const;
    void renderFooter(JsonWriter &w) const;
    /** Every buffered event group, then any stalls and windows
     *  recorded after the last buffered record. */
    void renderBuffered(JsonWriter &w) const;
    void renderEventGroup(JsonWriter &w, const EventSpan &ev) const;
    /** Stall and window slices from the cursors up to (and
     *  including) those attributed to event @p last_event. */
    void renderStallsAndWindows(JsonWriter &w, std::size_t last_event,
                                std::size_t &stall_cursor,
                                std::size_t &window_cursor) const;
    void renderCounterSamples(JsonWriter &w) const;
    bool flushBuffered();
};

} // namespace espsim

#endif // ESPSIM_REPORT_TIMELINE_HH
