#include "report/timeline.hh"

#include <fstream>

#include "common/logging.hh"
#include "report/json_writer.hh"

namespace espsim
{

/** Streaming state: the open file plus the comma-tracking writer. */
struct EventTimeline::Stream
{
    std::ofstream out;
    JsonWriter writer;

    bool
    drainTo()
    {
        const std::string text = writer.drain();
        out.write(text.data(),
                  static_cast<std::streamsize>(text.size()));
        return static_cast<bool>(out);
    }
};

EventTimeline::EventTimeline() = default;

EventTimeline::~EventTimeline()
{
    // An abandoned stream still holds an open scope; close it so the
    // file is at least valid-prefix JSON, but don't warn — the owner
    // already reported whatever error abandoned it.
    if (stream_)
        closeStream();
}

const char *
timelineStallName(TimelineStall kind)
{
    switch (kind) {
      case TimelineStall::InstrMiss:
        return "icache-miss";
      case TimelineStall::DataMiss:
        return "dcache-miss";
      case TimelineStall::LsqFull:
        return "lsq-full";
      case TimelineStall::Mispredict:
        return "mispredict-flush";
      case TimelineStall::BtbMiss:
        return "btb-miss";
    }
    return "unknown";
}

void
EventTimeline::onSpan(const RequestSpan &span)
{
    curEvent_ = span.index + 1;
    pending_.record = span;
    events_.push_back(pending_);
    pending_ = EventSpan{};
    if (stream_)
        flushBuffered();
}

void
EventTimeline::recordStall(TimelineStall kind, Cycle start, Cycle dur)
{
    StallSpan span;
    span.kind = kind;
    span.eventIdx = curEvent_;
    span.start = start;
    span.dur = dur;
    stalls_.push_back(span);
    pending_.stallCycles[static_cast<unsigned>(kind)] += dur;
    ++pending_.stallCount;
}

void
EventTimeline::recordEspWindow(unsigned depth,
                               std::size_t spec_event_idx, Cycle start,
                               Cycle dur)
{
    EspSpan span;
    span.depth = depth;
    span.specEventIdx = spec_event_idx;
    span.triggerEventIdx = curEvent_;
    span.start = start;
    span.dur = dur;
    windows_.push_back(span);
    ++pending_.espWindows;
}

void
EventTimeline::recordIntervalCounters(
    Cycle ts, std::vector<std::pair<std::string, double>> values)
{
    CounterSample sample;
    sample.ts = ts;
    sample.values = std::move(values);
    counters_.push_back(std::move(sample));
}

void
EventTimeline::setRunInfo(const std::string &config_name,
                          const std::string &workload_name)
{
    configName_ = config_name;
    workloadName_ = workload_name;
}

namespace
{

/** Trace rows: one pid, five named tids. */
constexpr int tracePid = 1;
constexpr int tidEvents = 1;
constexpr int tidStalls = 2;
constexpr int tidEsp = 3;
constexpr int tidAccounting = 4;
constexpr int tidIntervals = 5;

void
metadataRecord(JsonWriter &w, const char *name, int tid,
               const char *value)
{
    w.beginObject();
    w.key("name").value(name);
    w.key("ph").value("M");
    w.key("pid").value(tracePid);
    if (tid >= 0)
        w.key("tid").value(tid);
    w.key("args").beginObject().key("name").value(value).endObject();
    w.endObject();
}

void
sliceCommon(JsonWriter &w, const char *cat, Cycle ts, Cycle dur,
            int tid)
{
    w.key("cat").value(cat);
    w.key("ph").value("X");
    w.key("ts").value(std::uint64_t{ts});
    w.key("dur").value(std::uint64_t{dur});
    w.key("pid").value(tracePid);
    w.key("tid").value(tid);
}

} // namespace

void
EventTimeline::renderHeader(JsonWriter &w) const
{
    w.beginObject();
    w.key("traceEvents").beginArray();

    metadataRecord(w, "process_name", -1, "espsim");
    metadataRecord(w, "thread_name", tidEvents, "events");
    metadataRecord(w, "thread_name", tidStalls, "stalls");
    metadataRecord(w, "thread_name", tidEsp, "esp pre-execution");
    metadataRecord(w, "thread_name", tidAccounting, "cycle accounting");
    metadataRecord(w, "thread_name", tidIntervals, "interval stats");
}

void
EventTimeline::renderEventGroup(JsonWriter &w, const EventSpan &ev) const
{
    const RequestSpan &rec = ev.record;
    // The full event span: queue-head to retire.
    w.beginObject();
    w.key("name").value("event " + std::to_string(rec.index));
    sliceCommon(w, "event", rec.arrival, rec.retire - rec.arrival,
                tidEvents);
    w.key("args").beginObject();
    w.key("index").value(std::uint64_t{rec.index});
    w.key("queued_cycle").value(std::uint64_t{rec.arrival});
    w.key("dispatch_cycle").value(std::uint64_t{rec.dispatch});
    w.key("retire_cycle").value(std::uint64_t{rec.retire});
    w.key("instructions").value(std::uint64_t{rec.instructions});
    w.key("stall_count").value(std::uint64_t{ev.stallCount});
    w.key("esp_windows").value(std::uint64_t{ev.espWindows});
    w.key("stall_cycles").beginObject();
    for (unsigned k = 0; k < 5; ++k) {
        w.key(timelineStallName(static_cast<TimelineStall>(k)))
            .value(std::uint64_t{ev.stallCycles[k]});
    }
    w.endObject();
    w.key("cycle_buckets").beginObject();
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        w.key(cycleBucketName(static_cast<CycleBucket>(b)))
            .value(std::uint64_t{rec.buckets[b]});
    }
    w.endObject();
    w.key("prefetches").beginObject();
    for (unsigned s = 0; s < numPrefetchSources; ++s) {
        w.key(prefetchSourceName(static_cast<PrefetchSource>(s)))
            .value(std::uint64_t{rec.prefetch[s].issued});
    }
    w.endObject();
    w.endObject();
    w.endObject();

    // Counter track: the event's cycle-accounting breakdown as a
    // stacked Perfetto counter sampled at queue-head time.
    w.beginObject();
    w.key("name").value("cycle buckets");
    w.key("cat").value("accounting");
    w.key("ph").value("C");
    w.key("ts").value(std::uint64_t{rec.arrival});
    w.key("pid").value(tracePid);
    w.key("tid").value(tidAccounting);
    w.key("args").beginObject();
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        w.key(cycleBucketName(static_cast<CycleBucket>(b)))
            .value(std::uint64_t{rec.buckets[b]});
    }
    w.endObject();
    w.endObject();

    // Nested execute slice: dispatch to retire (the looper-gap
    // prefix of the outer slice is the queue/dequeue overhead).
    w.beginObject();
    w.key("name").value("execute");
    sliceCommon(w, "event", rec.dispatch, rec.retire - rec.dispatch,
                tidEvents);
    w.key("args")
        .beginObject()
        .key("index")
        .value(std::uint64_t{rec.index})
        .endObject();
    w.endObject();
}

void
EventTimeline::renderStallsAndWindows(JsonWriter &w,
                                      std::size_t last_event,
                                      std::size_t &stall_cursor,
                                      std::size_t &window_cursor) const
{
    // Spans are recorded in event order, so a cursor walk groups them
    // without indexing.
    while (stall_cursor < stalls_.size() &&
           stalls_[stall_cursor].eventIdx <= last_event) {
        const StallSpan &st = stalls_[stall_cursor++];
        w.beginObject();
        w.key("name").value(timelineStallName(st.kind));
        sliceCommon(w, "stall", st.start, st.dur, tidStalls);
        w.key("args")
            .beginObject()
            .key("event")
            .value(std::uint64_t{st.eventIdx})
            .endObject();
        w.endObject();
    }
    while (window_cursor < windows_.size() &&
           windows_[window_cursor].triggerEventIdx <= last_event) {
        const EspSpan &sp = windows_[window_cursor++];
        w.beginObject();
        w.key("name").value("ESP-" + std::to_string(sp.depth));
        sliceCommon(w, "esp", sp.start, sp.dur, tidEsp);
        w.key("args").beginObject();
        w.key("depth").value(sp.depth);
        w.key("pre_executed_event")
            .value(std::uint64_t{sp.specEventIdx});
        w.key("triggering_event")
            .value(std::uint64_t{sp.triggerEventIdx});
        w.endObject();
        w.endObject();
    }
}

void
EventTimeline::renderBuffered(JsonWriter &w) const
{
    std::size_t stall_cursor = 0;
    std::size_t window_cursor = 0;
    for (const EventSpan &ev : events_) {
        renderEventGroup(w, ev);
        renderStallsAndWindows(w, ev.record.index, stall_cursor,
                               window_cursor);
    }
    renderStallsAndWindows(w, static_cast<std::size_t>(-1),
                           stall_cursor, window_cursor);
}

void
EventTimeline::renderCounterSamples(JsonWriter &w) const
{
    // One record per metric per sample: each metric gets its own
    // Perfetto counter track on the interval row.
    for (const CounterSample &sample : counters_) {
        for (const auto &[name, value] : sample.values) {
            w.beginObject();
            w.key("name").value(name);
            w.key("cat").value("interval");
            w.key("ph").value("C");
            w.key("ts").value(std::uint64_t{sample.ts});
            w.key("pid").value(tracePid);
            w.key("tid").value(tidIntervals);
            w.key("args")
                .beginObject()
                .key("value")
                .value(value)
                .endObject();
            w.endObject();
        }
    }
}

void
EventTimeline::renderFooter(JsonWriter &w) const
{
    w.endArray();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    w.key("tool").value("espsim");
    w.key("timeline_format_version")
        .value(std::uint64_t{timelineFormatVersion});
    w.key("config").value(configName_);
    w.key("workload").value(workloadName_);
    if (!traceKind_.empty())
        w.key("trace_kind").value(traceKind_);
    w.key("cycles_per_us").value(std::uint64_t{1});
    w.endObject();
    w.endObject();
}

std::string
EventTimeline::renderChromeTrace() const
{
    JsonWriter w;
    renderHeader(w);
    renderBuffered(w);
    renderCounterSamples(w);
    renderFooter(w);
    return w.str();
}

bool
EventTimeline::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    const std::string text = renderChromeTrace();
    out.write(text.data(),
              static_cast<std::streamsize>(text.size()));
    return static_cast<bool>(out);
}

bool
EventTimeline::streamTo(const std::string &path)
{
    if (stream_)
        panic("EventTimeline: streamTo() while already streaming");
    stream_ = std::make_unique<Stream>();
    stream_->out.open(path, std::ios::binary);
    if (!stream_->out) {
        stream_.reset();
        return false;
    }
    renderHeader(stream_->writer);
    return stream_->drainTo();
}

bool
EventTimeline::flushBuffered()
{
    // In streaming mode the buffers hold exactly the spans recorded
    // since the previous flush: at most one event and its stalls and
    // windows.
    renderBuffered(stream_->writer);
    flushedEvents_ += events_.size();
    flushedStalls_ += stalls_.size();
    flushedWindows_ += windows_.size();
    events_.clear();
    stalls_.clear();
    windows_.clear();
    return stream_->drainTo();
}

bool
EventTimeline::closeStream()
{
    if (!stream_)
        return false;
    bool ok = flushBuffered();
    renderCounterSamples(stream_->writer);
    renderFooter(stream_->writer);
    ok = stream_->drainTo() && ok;
    stream_->out.close();
    ok = static_cast<bool>(stream_->out) && ok;
    stream_.reset();
    return ok;
}

} // namespace espsim
