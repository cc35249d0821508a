#include "report/observatory.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "common/version.hh"
#include "report/json_reader.hh"
#include "report/json_writer.hh"

namespace espsim
{

namespace fs = std::filesystem;

namespace
{

std::string
stringField(const JsonValue *obj, const char *name)
{
    if (obj == nullptr)
        return "";
    const JsonValue *v = obj->find(name);
    return v != nullptr ? v->string : "";
}

double
numberField(const JsonValue *obj, const char *name, double fallback)
{
    if (obj == nullptr)
        return fallback;
    const JsonValue *v = obj->find(name);
    return v != nullptr ? v->number : fallback;
}

void
addMetric(ObservatoryRun &run, std::string name, double value)
{
    run.metricNames.push_back(std::move(name));
    run.metricValues.push_back(value);
}

/**
 * Workload fingerprint: the part of a run's identity the config hash
 * does not cover. Two runs only trend against each other when they
 * measured the same workload shape — trending a 100k-event serve run
 * against a 1M-event one would compare raw cycle counts across
 * scales.
 *
 * A bench run's `--repeat` is part of it: `suite_wall_ms` sums every
 * repeat plus generation, so runs with different repeat counts are
 * not comparable. The repeat-5 BENCH_8fd3d74-dirty.json reads +18.5%
 * suite wall against the repeat-3 seed although every one of its
 * cells is 4–54% faster; it stays a one-run group.
 */
std::string
workloadFingerprint(const JsonValue &doc, const std::string &schema)
{
    const JsonValue *manifest = doc.find("manifest");
    std::string fp;
    if (schema == "espsim-suite-artifact") {
        fp = "apps=";
        const JsonValue *apps =
            manifest != nullptr ? manifest->find("apps") : nullptr;
        if (apps != nullptr && apps->isArray()) {
            for (const JsonValue &app : apps->array) {
                if (fp.back() != '=')
                    fp += ',';
                fp += app.string;
            }
        }
    } else if (schema == "espsim-latency-artifact") {
        const JsonValue *arrival =
            manifest != nullptr ? manifest->find("arrival") : nullptr;
        char buf[64];
        std::snprintf(buf, sizeof(buf), ":%.0f ev",
                      numberField(manifest, "events", 0));
        fp = stringField(manifest, "profile") + buf + " " +
             stringField(arrival, "kind");
    } else { // bench: the sorted set of apps its cells cover
        std::set<std::string> apps;
        const JsonValue *cells = doc.find("cells");
        if (cells != nullptr && cells->isArray()) {
            for (const JsonValue &cell : cells->array)
                apps.insert(stringField(&cell, "app"));
        }
        apps.erase("");
        fp = "apps=";
        for (const std::string &app : apps) {
            if (fp.back() != '=')
                fp += ',';
            fp += app;
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), " x%.0f",
                      numberField(manifest, "repeat", 1));
        fp += buf;
    }
    return fp;
}

/** Headline metrics of one suite artifact: per-config mean IPC and
 *  mean cycles over its apps. */
void
extractSuiteMetrics(const JsonValue &doc, ObservatoryRun &run)
{
    const JsonValue *results = doc.find("results");
    if (results == nullptr || !results->isArray())
        return;
    std::map<std::string, std::pair<double, double>> sums; // ipc, cyc
    std::map<std::string, std::size_t> counts;
    for (const JsonValue &row : results->array) {
        const std::string config = stringField(&row, "config");
        const JsonValue *stats = row.find("stats");
        if (config.empty() || stats == nullptr)
            continue;
        sums[config].first += numberField(stats, "derived.ipc", 0);
        sums[config].second += numberField(stats, "core.cycles", 0);
        ++counts[config];
    }
    for (const auto &[config, sum] : sums) {
        const double n = static_cast<double>(counts[config]);
        addMetric(run, "ipc." + config, sum.first / n);
        addMetric(run, "cycles." + config, sum.second / n);
    }
}

/** Headline metrics of one latency artifact: per-config p50/p99 total
 *  latency and cycles. */
void
extractLatencyMetrics(const JsonValue &doc, ObservatoryRun &run)
{
    const JsonValue *results = doc.find("results");
    if (results == nullptr || !results->isArray())
        return;
    for (const JsonValue &cell : results->array) {
        const std::string config = stringField(&cell, "config");
        if (config.empty())
            continue;
        const JsonValue *latency = cell.find("latency");
        const JsonValue *total =
            latency != nullptr ? latency->find("total") : nullptr;
        addMetric(run, "p50." + config,
                  numberField(total, "p50", 0));
        addMetric(run, "p99." + config,
                  numberField(total, "p99", 0));
        addMetric(run, "cycles." + config,
                  numberField(&cell, "cycles", 0));
        addMetric(run, "ipc." + config,
                  numberField(&cell, "ipc", 0));
    }
}

/** Headline metrics of one bench artifact: Mcycles/s per cell and
 *  the sweep wall time. */
void
extractBenchMetrics(const JsonValue &doc, ObservatoryRun &run)
{
    addMetric(run, "suite_wall_ms",
              numberField(&doc, "suite_wall_ms", 0));
    const JsonValue *cells = doc.find("cells");
    if (cells == nullptr || !cells->isArray())
        return;
    for (const JsonValue &cell : cells->array) {
        const std::string app = stringField(&cell, "app");
        const std::string config = stringField(&cell, "config");
        if (app.empty() || config.empty())
            continue;
        addMetric(run, "mcps." + app + "." + config,
                  numberField(&cell, "cycles_per_sec", 0) / 1e6);
    }
}

/**
 * The files @p dir contributes, oldest first. A directory with an
 * INDEX contributes exactly the names it lists, in that order (blank
 * lines and `#` comments ignored); one without contributes its *.json
 * files sorted by name, which records no age, so @p indexed is false.
 * Unusable INDEX entries and *.json files the INDEX leaves out land in
 * @p skipped. False when @p dir cannot be listed.
 */
bool
listRuns(const fs::path &dir, std::vector<fs::path> &files,
         std::vector<std::string> &skipped, bool &indexed)
{
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
        skipped.push_back(dir.string() + " (" + ec.message() + ")");
        return false;
    }
    std::set<std::string> jsons; // sorted by name
    for (const fs::directory_entry &entry : it) {
        if (entry.path().extension() == ".json" &&
            entry.is_regular_file(ec))
            jsons.insert(entry.path().filename().string());
    }

    std::ifstream index(dir / "INDEX");
    indexed = static_cast<bool>(index);
    if (!indexed) {
        for (const std::string &name : jsons)
            files.push_back(dir / name);
        return true;
    }
    std::set<std::string> listed;
    for (std::string line; std::getline(index, line);) {
        const std::size_t begin = line.find_first_not_of(" \t\r");
        if (begin == std::string::npos || line[begin] == '#')
            continue;
        const std::string name = line.substr(
            begin, line.find_last_not_of(" \t\r") - begin + 1);
        const char *problem = nullptr;
        if (name.find('/') != std::string::npos ||
            name.find("..") != std::string::npos)
            problem = "unsafe INDEX entry";
        else if (!listed.insert(name).second)
            problem = "duplicate INDEX entry";
        else if (!fs::is_regular_file(dir / name, ec))
            problem = "listed in INDEX, missing";
        if (problem == nullptr)
            files.push_back(dir / name);
        else
            skipped.push_back((dir / "INDEX").string() + ": " + name +
                              " (" + problem + ")");
    }
    for (const std::string &name : jsons) {
        if (listed.count(name) == 0)
            skipped.push_back((dir / name).string() +
                              " (not in INDEX)");
    }
    return true;
}

/** Parse one artifact into a run, or note in `skipped` why not. */
void
ingestRun(const fs::path &path, ObservatoryReport &report)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    const auto doc = parseJson(text.str(), &err);
    if (!doc) {
        report.skipped.push_back(path.string() + " (parse error)");
        return;
    }
    const std::string schema = stringField(doc.get(), "schema");
    const bool known = schema == "espsim-suite-artifact" ||
                       schema == "espsim-latency-artifact" ||
                       schema == "espsim-bench-artifact";
    if (!known) {
        report.skipped.push_back(
            path.string() + " (schema " +
            (schema.empty() ? "none" : schema) + ")");
        return;
    }
    ObservatoryRun run;
    run.path = path.string();
    run.schema = schema;
    run.workload = workloadFingerprint(*doc, schema);
    const JsonValue *manifest = doc->find("manifest");
    run.configHash = stringField(manifest, "config_hash");
    run.toolVersion = stringField(manifest, "tool_version");
    run.buildType = stringField(manifest, "build_type");
    if (manifest != nullptr) {
        const JsonValue *health = manifest->find("health");
        run.degraded = health != nullptr &&
                       stringField(health, "status") == "degraded";
    }
    if (schema == "espsim-suite-artifact")
        extractSuiteMetrics(*doc, run);
    else if (schema == "espsim-latency-artifact")
        extractLatencyMetrics(*doc, run);
    else
        extractBenchMetrics(*doc, run);
    report.runs.push_back(std::move(run));
}

} // namespace

bool
observatoryHigherIsBetter(const std::string &metric)
{
    // Throughput-flavoured metrics go up when things improve; cycle
    // and latency-flavoured metrics go down.
    return metric.rfind("ipc.", 0) == 0 ||
           metric.rfind("mcps.", 0) == 0;
}

ObservatoryReport
buildObservatoryReport(const std::vector<std::string> &dirs,
                       double tolerance)
{
    ObservatoryReport report;
    report.tolerance = tolerance;

    // Per run, its directory if that has no INDEX (else empty): two
    // runs of one group from such a directory have no recorded order.
    std::vector<std::string> unindexedDir;
    for (const std::string &dir : dirs) {
        std::vector<fs::path> files;
        bool indexed = false;
        if (!listRuns(dir, files, report.skipped, indexed)) {
            ++report.unreadableDirs;
            continue;
        }
        for (const fs::path &path : files)
            ingestRun(path, report);
        unindexedDir.resize(report.runs.size(), indexed ? "" : dir);
    }

    std::map<std::tuple<std::string, std::string, std::string>,
             ObservatoryGroup>
        groups;
    for (std::size_t idx = 0; idx < report.runs.size(); ++idx) {
        const ObservatoryRun &run = report.runs[idx];
        ObservatoryGroup &group =
            groups[{run.schema, run.configHash, run.workload}];
        group.schema = run.schema;
        group.configHash = run.configHash;
        group.workload = run.workload;
        group.runIndices.push_back(idx);
    }

    for (auto &[key, group] : groups) {
        // A directory's runs are contiguous in `runs`, so two of them
        // in one group are neighbours in runIndices.
        for (std::size_t i = 1; i < group.runIndices.size(); ++i) {
            const std::string &dir = unindexedDir[group.runIndices[i]];
            if (!dir.empty() &&
                dir == unindexedDir[group.runIndices[i - 1]])
                group.unorderedDir = dir;
        }
        if (group.runIndices.size() >= 2 &&
            group.unorderedDir.empty()) {
            const ObservatoryRun &first =
                report.runs[group.runIndices.front()];
            const ObservatoryRun &last =
                report.runs[group.runIndices.back()];
            for (std::size_t i = 0; i < first.metricNames.size();
                 ++i) {
                const std::string &metric = first.metricNames[i];
                const auto it = std::find(last.metricNames.begin(),
                                          last.metricNames.end(),
                                          metric);
                if (it == last.metricNames.end())
                    continue;
                ObservatoryTrend trend;
                trend.metric = metric;
                trend.first = first.metricValues[i];
                trend.last = last.metricValues[static_cast<
                    std::size_t>(it - last.metricNames.begin())];
                trend.relChange =
                    trend.first == 0
                        ? 0
                        : (trend.last - trend.first) / trend.first;
                trend.higherIsBetter =
                    observatoryHigherIsBetter(metric);
                const double bad = trend.higherIsBetter
                                       ? -trend.relChange
                                       : trend.relChange;
                trend.regressed = bad > tolerance;
                if (trend.regressed)
                    ++report.regressions;
                group.trends.push_back(std::move(trend));
            }
        }
        report.groups.push_back(std::move(group));
    }
    return report;
}

std::string
renderObservatoryMarkdown(const ObservatoryReport &report)
{
    std::ostringstream out;
    out << "# espsim observatory\n\n";
    out << "- runs ingested: " << report.runs.size() << "\n";
    out << "- comparable groups: " << report.groups.size() << "\n";
    out << "- tolerance: " << report.tolerance * 100 << "%\n";
    out << "- regressions flagged: " << report.regressions << "\n";
    if (!report.skipped.empty()) {
        out << "- skipped: " << report.skipped.size() << " file(s)\n";
    }
    for (const ObservatoryGroup &group : report.groups) {
        out << "\n## " << group.schema << " @ "
            << (group.configHash.empty() ? "<no-hash>"
                                         : group.configHash);
        if (!group.workload.empty())
            out << " (" << group.workload << ")";
        out << "\n\n";
        out << "| run | version | build | degraded |\n";
        out << "|---|---|---|---|\n";
        for (const std::size_t idx : group.runIndices) {
            const ObservatoryRun &run = report.runs[idx];
            out << "| " << fs::path(run.path).filename().string()
                << " | " << run.toolVersion << " | " << run.buildType
                << " | " << (run.degraded ? "**yes**" : "no")
                << " |\n";
        }
        if (!group.unorderedDir.empty()) {
            out << "\n(no order — no trend: list these runs oldest "
                   "first in an INDEX in "
                << group.unorderedDir << ")\n";
            continue;
        }
        if (group.trends.empty()) {
            out << "\n(single run — no trend)\n";
            continue;
        }
        out << "\n| metric | first | last | change | flag |\n";
        out << "|---|---|---|---|---|\n";
        for (const ObservatoryTrend &trend : group.trends) {
            char change[32];
            std::snprintf(change, sizeof(change), "%+.1f%%",
                          trend.relChange * 100);
            out << "| " << trend.metric << " | " << trend.first
                << " | " << trend.last << " | " << change << " | "
                << (trend.regressed ? "REGRESSED"
                                    : (trend.higherIsBetter ? "↑ good"
                                                            : "↓ good"))
                << " |\n";
        }
    }
    return out.str();
}

std::string
renderObservatoryJson(const ObservatoryReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-observatory-report");
    w.key("format_version").value(std::uint64_t{2});
    w.key("manifest").beginObject();
    w.key("source").value("espsim report");
    w.key("tool_version").value(versionString());
    w.key("build_type").value(buildTypeString());
    w.key("tolerance").value(report.tolerance);
    w.endObject();
    w.key("runs").beginArray();
    for (const ObservatoryRun &run : report.runs) {
        w.beginObject();
        w.key("path").value(run.path);
        w.key("schema").value(run.schema);
        w.key("config_hash").value(run.configHash);
        w.key("workload").value(run.workload);
        w.key("tool_version").value(run.toolVersion);
        w.key("build_type").value(run.buildType);
        w.key("degraded").value(run.degraded);
        w.key("metrics").beginObject();
        for (std::size_t i = 0; i < run.metricNames.size(); ++i)
            w.key(run.metricNames[i]).value(run.metricValues[i]);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("groups").beginArray();
    for (const ObservatoryGroup &group : report.groups) {
        w.beginObject();
        w.key("schema").value(group.schema);
        w.key("config_hash").value(group.configHash);
        w.key("workload").value(group.workload);
        w.key("ordered").value(group.unorderedDir.empty());
        w.key("runs").beginArray();
        for (const std::size_t idx : group.runIndices)
            w.value(std::uint64_t{idx});
        w.endArray();
        w.key("trends").beginArray();
        for (const ObservatoryTrend &trend : group.trends) {
            w.beginObject();
            w.key("metric").value(trend.metric);
            w.key("first").value(trend.first);
            w.key("last").value(trend.last);
            w.key("rel_change").value(trend.relChange);
            w.key("higher_is_better").value(trend.higherIsBetter);
            w.key("regressed").value(trend.regressed);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("skipped").beginArray();
    for (const std::string &path : report.skipped)
        w.value(path);
    w.endArray();
    w.key("regressions").value(std::uint64_t{report.regressions});
    w.endObject();
    return w.str();
}

} // namespace espsim
