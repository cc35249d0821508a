#include "report/telemetry.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "report/json_writer.hh"

namespace espsim
{

namespace
{

/**
 * Parse ESPSIM_STALL_INJECT="<event>:<ms>". Returns true and fills
 * the outputs when the variable is present and well-formed; a
 * malformed value is ignored (telemetry must never take a run down).
 */
bool
stallInjectRequested(std::uint64_t *event, unsigned *ms)
{
    const char *spec = std::getenv("ESPSIM_STALL_INJECT");
    if (spec == nullptr || *spec == '\0')
        return false;
    const char *colon = std::strchr(spec, ':');
    if (colon == nullptr)
        return false;
    char *end = nullptr;
    const unsigned long long ev = std::strtoull(spec, &end, 10);
    if (end != colon)
        return false;
    const unsigned long sleep_ms = std::strtoul(colon + 1, &end, 10);
    if (end == colon + 1 || *end != '\0')
        return false;
    *event = ev;
    *ms = static_cast<unsigned>(sleep_ms);
    return true;
}

/** Prometheus metric names: [a-zA-Z0-9_:]; everything else → '_'. */
std::string
promName(const std::string &stat)
{
    std::string out = "espsim_";
    out.reserve(out.size() + stat.size());
    for (const char c : stat) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9');
        out.push_back(ok ? c : '_');
    }
    return out;
}

/** Escape a Prometheus label value (backslash, quote, newline). */
std::string
promLabel(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

// --------------------------------------------------------------------
// TelemetryStream
// --------------------------------------------------------------------

TelemetryStream::~TelemetryStream()
{
    close();
}

bool
TelemetryStream::openFile(const std::string &path)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    return file_ != nullptr;
}

void
TelemetryStream::writeLine(const std::string &line)
{
    if (sink_ != nullptr) {
        sink_->append(line);
        sink_->push_back('\n');
    }
    if (file_ != nullptr) {
        if (std::fwrite(line.data(), 1, line.size(), file_) !=
                line.size() ||
            std::fputc('\n', file_) == EOF)
            writeFailed_ = true;
        // Flush per record: a live tail (or a post-crash read) must
        // only ever see whole lines.
        std::fflush(file_);
    }
    ++lines_;
}

bool
TelemetryStream::close()
{
    bool ok = !writeFailed_;
    if (file_ != nullptr) {
        if (std::fclose(file_) != 0)
            ok = false;
        file_ = nullptr;
    }
    return ok;
}

// --------------------------------------------------------------------
// TelemetryPlane
// --------------------------------------------------------------------

void
TelemetryPlane::publish(
    const TelemetryRunInfo &info,
    const std::shared_ptr<const std::vector<std::string>> &names,
    const TelemetrySnapshot &snap)
{
    std::lock_guard<std::mutex> lock(mu_);
    front_.valid = true;
    front_.config = info.config;
    front_.workload = info.workload;
    front_.configHash = info.configHash;
    front_.names = names;
    front_.snap = snap;
}

TelemetryPlane::View
TelemetryPlane::latest() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return front_;
}

void
TelemetryPlane::markDegraded(const std::string &reason)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!degraded_.load(std::memory_order_relaxed)) {
        reason_ = reason;
        degraded_.store(true, std::memory_order_release);
    }
}

std::string
TelemetryPlane::degradedReason() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return reason_;
}

// --------------------------------------------------------------------
// TelemetrySnapshotter
// --------------------------------------------------------------------

TelemetrySnapshotter::TelemetrySnapshotter(const StatRegistry &reg)
    : names_(std::make_shared<std::vector<std::string>>())
{
    // Freeze the counter name set now: stats registered after the run
    // (handler breakdown, derived metrics) never appear, so every
    // snapshot reads the same names. Interning the getters makes each
    // snapshot a plain walk over them — no per-snapshot string maps.
    getters_.reserve(reg.size());
    for (StatRegistry::CounterHandle &h : reg.counterHandles()) {
        names_->push_back(std::move(h.name));
        getters_.push_back(std::move(h.getter));
    }
    snap_.values.reserve(getters_.size());
    for (const StatRegistry::Getter &getter : getters_)
        snap_.values.push_back(getter());
    lastWall_ = std::chrono::steady_clock::now();
}

TelemetrySnapshotter::TelemetrySnapshotter(const StatRegistry &reg,
                                           TelemetryConfig cfg,
                                           TelemetryRunInfo info,
                                           TelemetryStream *stream,
                                           TelemetryPlane *plane)
    : TelemetrySnapshotter(reg)
{
    cfg_ = cfg;
    info_ = std::move(info);
    stream_ = stream;
    plane_ = plane;
    nextCycle_ = cfg_.periodCycles;
    stallArmed_ = stallInjectRequested(&stallEvent_, &stallMs_);
    writeHeader();
}

TelemetrySnapshotter::TelemetrySnapshotter(const StatRegistry &reg,
                                           IntervalConfig period,
                                           IntervalSeries *series)
    : TelemetrySnapshotter(reg)
{
    cfg_.periodCycles = period.sampleCycles;
    periodEvents_ = period.sampleEvents;
    series_ = series;
    nextCycle_ = period.sampleCycles;
    nextEvents_ = period.sampleEvents;
    series_->period = period;
    series_->names = *names_;
    series_->baseline = snap_.values;
}

void
TelemetrySnapshotter::writeHeader()
{
    if (stream_ == nullptr)
        return;
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-telemetry-stream");
    w.key("format_version")
        .value(static_cast<std::uint64_t>(telemetryStreamFormatVersion));
    w.key("config").value(info_.config);
    w.key("workload").value(info_.workload);
    w.key("config_hash").value(info_.configHash);
    w.key("period_cycles").value(cfg_.periodCycles);
    w.key("wall_ms").value(cfg_.wallMs);
    w.key("names");
    w.beginArray();
    for (const std::string &name : *names_)
        w.value(name);
    w.endArray();
    w.endObject();
    stream_->writeLine(w.drain());
}

void
TelemetrySnapshotter::sample(Cycle now, std::uint64_t events_retired,
                             bool final_)
{
    ++seq_;
    snap_.seq = seq_;
    snap_.cycle = now;
    snap_.events = events_retired;
    snap_.isFinal = final_;
    if (series_ == nullptr) {
        for (std::size_t i = 0; i < getters_.size(); ++i)
            snap_.values[i] = getters_[i]();
    } else {
        // The interval is the first difference against the previous
        // snapshot (the baseline before the first one).
        IntervalPoint point;
        point.endCycle = now;
        point.endEvents = events_retired;
        point.deltas.resize(getters_.size());
        bool moved = false;
        for (std::size_t i = 0; i < getters_.size(); ++i) {
            const double value = getters_[i]();
            point.deltas[i] = value - snap_.values[i];
            moved = moved || point.deltas[i] != 0.0;
            snap_.values[i] = value;
        }
        if (!final_ || moved)
            series_->intervals.push_back(std::move(point));
        if (final_) {
            series_->finalCycle = now;
            series_->finalEvents = events_retired;
            series_->finalValues = snap_.values;
        }
    }
    if (stream_ != nullptr)
        stream_->writeLine(renderTelemetrySnapshotJson(
            info_, *names_, snap_, /*includeNames=*/false));
    if (plane_ != nullptr)
        plane_->publish(info_, names_, snap_);
}

void
TelemetrySnapshotter::onSpan(const RequestSpan &span)
{
    if (finalized_)
        return;
    const std::uint64_t events_retired = span.index + 1;
    const Cycle now = span.retire;
    if (plane_ != nullptr)
        plane_->noteProgress();
    if (stallArmed_ && events_retired == stallEvent_) {
        // One-shot injected wedge: hold the retire boundary long
        // enough for the watchdog to notice no progress.
        stallArmed_ = false;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stallMs_));
    }
    // Either grid re-anchors past the current point once crossed, so
    // a long event skips grid points instead of emitting a burst of
    // stale snapshots (the registry is only consistent at retires).
    bool due = false;
    if (cfg_.periodCycles > 0 && now >= nextCycle_) {
        due = true;
        nextCycle_ +=
            ((now - nextCycle_) / cfg_.periodCycles + 1) *
            cfg_.periodCycles;
    }
    if (periodEvents_ > 0 && events_retired >= nextEvents_) {
        due = true;
        nextEvents_ +=
            ((events_retired - nextEvents_) / periodEvents_ + 1) *
            periodEvents_;
    }
    if (cfg_.wallMs > 0 && !due) {
        // The steady_clock read costs far more than a retire; check
        // it only every 64 retires. Worst-case staleness at serve
        // throughput is microseconds — invisible at ms-scale pacing.
        if (++sinceWallCheck_ >= 64) {
            sinceWallCheck_ = 0;
            const auto now_wall = std::chrono::steady_clock::now();
            const double elapsed_ms =
                std::chrono::duration<double, std::milli>(now_wall -
                                                          lastWall_)
                    .count();
            if (elapsed_ms >= cfg_.wallMs) {
                due = true;
                lastWall_ = now_wall;
            }
        }
    }
    if (due)
        sample(now, events_retired, /*final_=*/false);
}

void
TelemetrySnapshotter::finalize(Cycle now, std::uint64_t events_retired)
{
    if (finalized_)
        return;
    finalized_ = true;
    // The closing snapshot is unconditional: its values are read from
    // the same getters the registry snapshot uses, so the last JSONL
    // line equals the end-of-run counter values exactly.
    sample(now, events_retired, /*final_=*/true);
}

// --------------------------------------------------------------------
// Renderers
// --------------------------------------------------------------------

std::string
renderTelemetrySnapshotJson(const TelemetryRunInfo &info,
                            const std::vector<std::string> &names,
                            const TelemetrySnapshot &snap,
                            bool includeNames)
{
    JsonWriter w;
    w.beginObject();
    if (includeNames) {
        // Standalone form (/snapshot.json): self-describing.
        w.key("schema").value("espsim-telemetry-snapshot");
        w.key("format_version").value(
            static_cast<std::uint64_t>(telemetryStreamFormatVersion));
        w.key("config").value(info.config);
        w.key("workload").value(info.workload);
        w.key("config_hash").value(info.configHash);
    }
    w.key("seq").value(snap.seq);
    w.key("cycle").value(snap.cycle);
    w.key("events").value(snap.events);
    if (snap.isFinal)
        w.key("final").value(true);
    if (includeNames) {
        w.key("names");
        w.beginArray();
        for (const std::string &name : names)
            w.value(name);
        w.endArray();
    }
    w.key("values");
    w.beginArray();
    for (const double v : snap.values)
        w.value(v);
    w.endArray();
    w.endObject();
    return w.drain();
}

std::string
renderPrometheusText(const TelemetryPlane::View &view, bool degraded)
{
    std::string out;
    // Health and liveness series exist even before the first publish
    // so scrapers always get a well-formed page.
    out += "# TYPE espsim_health_degraded gauge\n";
    out += "espsim_health_degraded ";
    out += degraded ? '1' : '0';
    out += '\n';
    if (!view.valid)
        return out;

    const std::string labels = "{config=\"" + promLabel(view.config) +
                               "\",workload=\"" +
                               promLabel(view.workload) + "\"}";
    char buf[64];

    out += "# TYPE espsim_snapshot_seq counter\n";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(view.snap.seq));
    out += "espsim_snapshot_seq" + labels + " " + buf + "\n";
    out += "# TYPE espsim_cycles counter\n";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(view.snap.cycle));
    out += "espsim_cycles" + labels + " " + buf + "\n";
    out += "# TYPE espsim_events counter\n";
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(view.snap.events));
    out += "espsim_events" + labels + " " + buf + "\n";

    const std::size_t n =
        view.names ? std::min(view.names->size(),
                              view.snap.values.size())
                   : 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string name = promName((*view.names)[i]);
        out += "# TYPE " + name + " counter\n";
        // Counters are uint64-backed; print integral when exact so
        // the exposition round-trips without float noise.
        const double v = view.snap.values[i];
        if (v == static_cast<double>(static_cast<std::uint64_t>(v)))
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(v));
        else
            std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += name + labels + " " + buf + "\n";
    }
    return out;
}

} // namespace espsim
