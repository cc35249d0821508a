#include "report/telemetry.hh"

#include <algorithm>
#include <utility>

#include "report/json_writer.hh"
#include "report/timeline.hh"

namespace espsim
{

namespace
{

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/** Index of @p name in sorted @p names, or npos. */
std::size_t
indexOf(const std::vector<std::string> &names, const char *name)
{
    const auto it = std::lower_bound(names.begin(), names.end(), name);
    if (it == names.end() || *it != name)
        return npos;
    return static_cast<std::size_t>(it - names.begin());
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
        if (std::fflush(file_) != 0)
            writeFailed_ = true;
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
// TelemetrySnapshotter
// --------------------------------------------------------------------

TelemetrySnapshotter::TelemetrySnapshotter(const StatRegistry &reg,
                                           TelemetryConfig cfg,
                                           TelemetryRunInfo info,
                                           TelemetryStream *stream,
                                           EventTimeline *timeline)
    : cfg_(cfg), info_(std::move(info)), stream_(stream),
      timeline_(timeline), nextCycle_(cfg.periodCycles),
      lastWall_(std::chrono::steady_clock::now())
{
    // Freeze the counter name set now: stats registered after the run
    // (handler breakdown, derived metrics) never appear, so every
    // snapshot reads the same names. Interning the getters makes each
    // snapshot a plain walk over them — no per-snapshot string maps.
    getters_.reserve(reg.size());
    for (StatRegistry::CounterHandle &h : reg.counterHandles()) {
        names_.push_back(std::move(h.name));
        getters_.push_back(std::move(h.getter));
    }
    values_.reserve(getters_.size());
    for (const StatRegistry::Getter &getter : getters_)
        values_.push_back(getter());
    tracked_[TrackCycles] = indexOf(names_, "core.cycles");
    tracked_[TrackInstructions] = indexOf(names_, "core.instructions");
    tracked_[TrackL1iMisses] = indexOf(names_, "mem.l1i.misses");
    tracked_[TrackL1dAccesses] = indexOf(names_, "mem.l1d.accesses");
    tracked_[TrackL1dMisses] = indexOf(names_, "mem.l1d.misses");
    tracked_[TrackEspPreExec] =
        indexOf(names_, "core.cycle_bucket.esp_pre_exec");
    writeHeader();
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
    for (const std::string &name : names_)
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
    std::array<double, NumTracked> prev{};
    if (timeline_ != nullptr) {
        for (unsigned k = 0; k < NumTracked; ++k)
            prev[k] = tracked_[k] == npos ? 0.0 : values_[tracked_[k]];
    }
    for (std::size_t i = 0; i < getters_.size(); ++i)
        values_[i] = getters_[i]();
    if (timeline_ != nullptr)
        recordTracks(now, prev);
    if (stream_ == nullptr)
        return;
    JsonWriter w;
    w.beginObject();
    w.key("seq").value(seq_);
    w.key("cycle").value(now);
    w.key("events").value(events_retired);
    if (final_)
        w.key("final").value(true);
    w.key("values");
    w.beginArray();
    for (const double v : values_)
        w.value(v);
    w.endArray();
    w.endObject();
    stream_->writeLine(w.drain());
}

void
TelemetrySnapshotter::recordTracks(
    Cycle now, const std::array<double, NumTracked> &prev)
{
    // Rates over the interval since the previous snapshot, derived
    // from counter differences; a snapshot after which nothing moved
    // (a final one on a grid point) yields no point.
    const auto delta = [&](Tracked k) {
        return tracked_[k] == npos ? 0.0
                                   : values_[tracked_[k]] - prev[k];
    };
    const double cycles = delta(TrackCycles);
    const double instrs = delta(TrackInstructions);
    std::vector<std::pair<std::string, double>> metrics;
    if (cycles > 0) {
        metrics.emplace_back("interval.ipc", instrs / cycles);
        if (tracked_[TrackEspPreExec] != npos) {
            metrics.emplace_back("interval.esp_occupancy",
                                 delta(TrackEspPreExec) / cycles);
        }
    }
    if (instrs > 0 && tracked_[TrackL1iMisses] != npos) {
        metrics.emplace_back("interval.l1i_mpki",
                             delta(TrackL1iMisses) / (instrs / 1000.0));
    }
    const double l1d_accesses = delta(TrackL1dAccesses);
    if (l1d_accesses > 0 && tracked_[TrackL1dMisses] != npos) {
        metrics.emplace_back("interval.l1d_miss_rate",
                             delta(TrackL1dMisses) / l1d_accesses);
    }
    if (!metrics.empty())
        timeline_->recordIntervalCounters(now, std::move(metrics));
}

void
TelemetrySnapshotter::onSpan(const RequestSpan &span)
{
    if (finalized_)
        return;
    const Cycle now = span.retire;
    // The grid re-anchors past the current point once crossed, so a
    // long event skips grid points instead of emitting a burst of
    // stale snapshots (the registry is only consistent at retires).
    bool due = false;
    if (cfg_.periodCycles > 0 && now >= nextCycle_) {
        due = true;
        nextCycle_ +=
            ((now - nextCycle_) / cfg_.periodCycles + 1) *
            cfg_.periodCycles;
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
        sample(now, span.index + 1, /*final_=*/false);
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

} // namespace espsim
