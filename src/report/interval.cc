#include "report/interval.hh"

#include <algorithm>
#include <utility>

#include "common/version.hh"
#include "report/artifact.hh"
#include "report/json_writer.hh"
#include "report/timeline.hh"

namespace espsim
{

namespace
{

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/** Index of @p name in sorted @p names, or npos. */
std::size_t
indexOf(const std::vector<std::string> &names, const std::string &name)
{
    const auto it =
        std::lower_bound(names.begin(), names.end(), name);
    if (it == names.end() || *it != name)
        return npos;
    return static_cast<std::size_t>(it - names.begin());
}

} // namespace

void
recordIntervalTracks(const IntervalSeries &series, EventTimeline &timeline)
{
    const std::vector<std::string> &names = series.names;
    const std::size_t idx_cycles = indexOf(names, "core.cycles");
    const std::size_t idx_instructions =
        indexOf(names, "core.instructions");
    const std::size_t idx_l1i_misses = indexOf(names, "mem.l1i.misses");
    const std::size_t idx_l1d_accesses =
        indexOf(names, "mem.l1d.accesses");
    const std::size_t idx_l1d_misses = indexOf(names, "mem.l1d.misses");
    const std::size_t idx_esp_pre_exec =
        indexOf(names, "core.cycle_bucket.esp_pre_exec");
    for (const IntervalPoint &point : series.intervals) {
        const auto delta = [&point](std::size_t idx) {
            return idx == npos ? 0.0 : point.deltas[idx];
        };
        const double cycles = delta(idx_cycles);
        const double instrs = delta(idx_instructions);
        std::vector<std::pair<std::string, double>> metrics;
        if (cycles > 0) {
            metrics.emplace_back("interval.ipc", instrs / cycles);
            if (idx_esp_pre_exec != npos) {
                metrics.emplace_back("interval.esp_occupancy",
                                     delta(idx_esp_pre_exec) / cycles);
            }
        }
        if (instrs > 0 && idx_l1i_misses != npos) {
            metrics.emplace_back("interval.l1i_mpki",
                                 delta(idx_l1i_misses) /
                                     (instrs / 1000.0));
        }
        const double l1d_accesses = delta(idx_l1d_accesses);
        if (l1d_accesses > 0 && idx_l1d_misses != npos) {
            metrics.emplace_back("interval.l1d_miss_rate",
                                 delta(idx_l1d_misses) / l1d_accesses);
        }
        if (!metrics.empty())
            timeline.recordIntervalCounters(point.endCycle,
                                            std::move(metrics));
    }
}

std::string
renderIntervalSeriesJson(const ArtifactManifest &manifest,
                         const IntervalSeries &series)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-interval-series");
    w.key("format_version")
        .value(std::uint64_t{intervalSeriesFormatVersion});
    w.key("manifest").beginObject();
    w.key("source").value(manifest.source);
    w.key("tool_version")
        .value(manifest.toolVersion.empty() ? versionString()
                                            : manifest.toolVersion);
    w.key("build_type")
        .value(manifest.buildType.empty() ? buildTypeString()
                                          : manifest.buildType);
    w.key("config_hash").value(series.configHash);
    w.key("config").value(series.configName);
    w.key("workload").value(series.workloadName);
    w.key("sample_cycles")
        .value(std::uint64_t{series.period.sampleCycles});
    w.key("sample_events")
        .value(std::uint64_t{series.period.sampleEvents});
    w.endObject();

    w.key("names").beginArray();
    for (const std::string &name : series.names)
        w.value(name);
    w.endArray();

    w.key("baseline").beginObject();
    w.key("cycle").value(std::uint64_t{series.baselineCycle});
    w.key("events").value(std::uint64_t{series.baselineEvents});
    w.key("values").beginArray();
    for (const double v : series.baseline)
        w.value(v);
    w.endArray();
    w.endObject();

    w.key("intervals").beginArray();
    for (const IntervalPoint &point : series.intervals) {
        w.beginObject();
        w.key("end_cycle").value(std::uint64_t{point.endCycle});
        w.key("end_events").value(std::uint64_t{point.endEvents});
        w.key("deltas").beginArray();
        for (const double v : point.deltas)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("final").beginObject();
    w.key("cycle").value(std::uint64_t{series.finalCycle});
    w.key("events").value(std::uint64_t{series.finalEvents});
    w.key("values").beginArray();
    for (const double v : series.finalValues)
        w.value(v);
    w.endArray();
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace espsim
