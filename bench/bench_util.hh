/**
 * @file
 * Shared helpers for the figure-regeneration benchmark binaries: run a
 * config sweep over the suite and print one aligned table per figure,
 * with apps as rows and configs as columns — the same rows/series the
 * paper plots.
 *
 * Every figure binary accepts `--jobs N` (and honours the ESPSIM_JOBS
 * environment variable) to pick the sweep's degree of parallelism;
 * the default is hardware_concurrency and `--jobs 1` is the old
 * strictly serial behaviour. Tables are byte-identical either way.
 *
 * Every figure binary also accepts `--version` (print the build
 * manifest and exit), `--json [path]` (export the full per-(app,
 * config) stat dump as a versioned artifact; the default path is
 * BENCH_<fig>.json) and `--log-level <name>`.
 * Anything else exits 2 with a usage line. The ASCII tables on stdout
 * are untouched; run chatter (manifest, progress, wall time) goes to
 * stderr. See docs/OBSERVABILITY.md.
 */

#ifndef ESPSIM_BENCH_BENCH_UTIL_HH
#define ESPSIM_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "common/version.hh"
#include "report/artifact.hh"
#include "sim/stats_report.hh"

namespace espsim::benchutil
{

/** SuiteRunner over the paper suite at @p jobs (0 = auto). */
inline SuiteRunner
makeSuiteRunner(unsigned jobs)
{
    SuiteRunner runner;
    runner.setJobs(jobs);
    return runner;
}

/** Artifact-export options a figure binary parsed from its argv. */
struct ReportOptions
{
    std::string source;   //!< producing binary, e.g. "fig09_performance"
    std::string jsonPath; //!< empty = no JSON artifact
    unsigned jobs = 0;    //!< requested parallelism (0 = auto)
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
};

/** Print @p source's usage line to stderr and exit 2. */
[[noreturn]] inline void
usageExit(const std::string &source)
{
    logLine(LogLevel::Error,
            "usage: %s [--jobs N] [--json [path]] [--version] "
            "[--log-level error|warn|info|debug]",
            source.c_str());
    std::exit(2);
}

/**
 * Handle the flags every figure binary shares, and only those: `--jobs
 * N` (a positive integer; absent = auto, which SuiteRunner resolves to
 * ESPSIM_JOBS or hardware_concurrency), `--json [path]` (default
 * `BENCH_<tag>.json` when no path follows the flag), `--version`
 * (print the build manifest and exit 0) and `--log-level <name>`. Any other word, or a malformed value, prints
 * the usage line and exits 2. Then prints the run manifest — tool
 * version, build type, requested jobs — to stderr. Volatile facts
 * like jobs and wall time stay on stderr so the artifacts themselves
 * are byte-identical at any `--jobs` count.
 */
inline ReportOptions
reportSetup(int argc, char **argv, const std::string &source,
            const std::string &tag)
{
    ReportOptions opts;
    opts.source = source;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        const bool has_path = next && next[0] != '-';
        if (std::strcmp(arg, "--version") == 0) {
            std::printf("%s %s (%s build)\n", source.c_str(),
                        versionString(), buildTypeString());
            std::exit(0);
        } else if (std::strcmp(arg, "--json") == 0) {
            opts.jsonPath = has_path ? argv[++i]
                                     : "BENCH_" + tag + ".json";
        } else if (std::strcmp(arg, "--jobs") == 0) {
            char *end = nullptr;
            const long v = next ? std::strtol(next, &end, 10) : 0;
            if (!next || end == next || *end != '\0' || v < 1) {
                logLine(LogLevel::Error,
                        "invalid value '%s' for --jobs (expected a "
                        "positive integer)",
                        next ? next : "");
                usageExit(source);
            }
            opts.jobs = static_cast<unsigned>(v);
            ++i;
        } else if (std::strcmp(arg, "--log-level") == 0) {
            LogLevel level;
            if (!next || !parseLogLevel(next, level)) {
                logLine(LogLevel::Error,
                        "invalid value '%s' for --log-level",
                        next ? next : "");
                usageExit(source);
            }
            setLogLevel(level);
            ++i;
        } else {
            logLine(LogLevel::Error, "unknown argument '%s'", arg);
            usageExit(source);
        }
    }
    if (opts.jobs == 0)
        logLine(LogLevel::Info, "# %s %s (%s build), jobs=auto",
                source.c_str(), versionString(), buildTypeString());
    else
        logLine(LogLevel::Info, "# %s %s (%s build), jobs=%u",
                source.c_str(), versionString(), buildTypeString(),
                opts.jobs);
    return opts;
}

/**
 * Write the artifacts requested on the command line (if any) and
 * print the sweep's wall time to stderr. Exits non-zero on I/O
 * failure so scripted sweeps cannot silently lose their artifacts.
 */
inline void
reportFinish(const ReportOptions &opts,
             const std::vector<SimConfig> &configs,
             const std::vector<SuiteRow> &rows)
{
    ArtifactManifest manifest;
    manifest.source = opts.source;
    if (!opts.jsonPath.empty()) {
        if (!writeTextFile(opts.jsonPath, renderSuiteArtifactJson(
                                              manifest, configs, rows))) {
            logLine(LogLevel::Error, "# error: cannot write %s",
                    opts.jsonPath.c_str());
            std::exit(1);
        }
        logLine(LogLevel::Info, "# wrote %s", opts.jsonPath.c_str());
    }
    const auto wall = std::chrono::duration_cast<std::chrono::
        milliseconds>(std::chrono::steady_clock::now() - opts.start);
    logLine(LogLevel::Info, "# %s done in %.2f s", opts.source.c_str(),
            static_cast<double>(wall.count()) / 1000.0);
}

/**
 * Artifact writer for figure binaries that print a descriptive table
 * rather than running a suite sweep (Figures 6-8): exports the table
 * itself with the same manifest header.
 */
inline void
reportFinishTable(const ReportOptions &opts, const TextTable &table)
{
    ArtifactManifest manifest;
    manifest.source = opts.source;
    if (!opts.jsonPath.empty()) {
        if (!writeTextFile(opts.jsonPath,
                           renderTableArtifactJson(manifest, table))) {
            logLine(LogLevel::Error, "# error: cannot write %s",
                    opts.jsonPath.c_str());
            std::exit(1);
        }
        logLine(LogLevel::Info, "# wrote %s", opts.jsonPath.c_str());
    }
}

/**
 * Print a figure table: one row per app plus an aggregate row.
 * @p cfg_from skips reference configs that aren't displayed columns.
 * @p hmean aggregates harmonically when true, arithmetically otherwise.
 * @p metric is called as metric(row, cfg) -> double; it is a template
 * parameter (not std::function) so large sweeps render without a heap
 * allocation per cell.
 */
template <typename Metric>
void
printFigure(const std::string &title,
            const std::vector<SuiteRow> &rows,
            const std::vector<SimConfig> &configs, std::size_t cfg_from,
            const Metric &metric, int precision, bool hmean,
            const std::string &aggregate_label = "HMean")
{
    TextTable table(title);
    std::vector<std::string> header{"app"};
    header.reserve(1 + configs.size() - cfg_from);
    for (std::size_t c = cfg_from; c < configs.size(); ++c)
        header.push_back(configs[c].name);
    table.header(header);

    std::vector<std::string> cells;
    cells.reserve(1 + configs.size() - cfg_from);
    for (const SuiteRow &row : rows) {
        cells.clear();
        cells.push_back(row.app);
        for (std::size_t c = cfg_from; c < configs.size(); ++c) {
            cells.push_back(row.ok(c) ? TextTable::num(metric(row, c),
                                                       precision)
                                      : "ERR");
        }
        table.row(cells);
    }

    std::vector<std::string> agg{aggregate_label};
    agg.reserve(1 + configs.size() - cfg_from);
    std::vector<double> values;
    values.reserve(rows.size());
    for (std::size_t c = cfg_from; c < configs.size(); ++c) {
        values.clear();
        for (const SuiteRow &row : rows) {
            if (row.ok(c)) // error cells drop out of the aggregate
                values.push_back(metric(row, c));
        }
        const double m =
            hmean ? harmonicMean(values) : arithmeticMean(values);
        agg.push_back(TextTable::num(m, precision));
    }
    table.row(agg);

    std::fputs(table.render().c_str(), stdout);
    std::fputs("\n", stdout);
}

/** Percent improvement of config @p cfg over config index 0. */
inline double
improvementOverRef(const SuiteRow &row, std::size_t cfg,
                   std::size_t ref = 0)
{
    return row.results[cfg].improvementPctOver(row.results[ref]);
}

/**
 * Print a performance-improvement figure (percent over the reference
 * config @p ref, which is hidden). The aggregate row is the harmonic
 * mean of *speedups* converted to percent, matching the paper's HMean
 * bars (and well-defined even when some apps regress).
 */
inline void
printImprovementFigure(const std::string &title,
                       const std::vector<SuiteRow> &rows,
                       const std::vector<SimConfig> &configs,
                       std::size_t cfg_from, std::size_t ref = 0)
{
    TextTable table(title);
    std::vector<std::string> header{"app"};
    header.reserve(1 + configs.size() - cfg_from);
    for (std::size_t c = cfg_from; c < configs.size(); ++c)
        header.push_back(configs[c].name);
    table.header(header);

    std::vector<std::string> cells;
    cells.reserve(1 + configs.size() - cfg_from);
    for (const SuiteRow &row : rows) {
        cells.clear();
        cells.push_back(row.app);
        for (std::size_t c = cfg_from; c < configs.size(); ++c) {
            cells.push_back(
                row.ok(c) && row.ok(ref)
                    ? TextTable::num(improvementOverRef(row, c, ref), 1)
                    : "ERR");
        }
        table.row(cells);
    }
    std::vector<std::string> agg{"HMean"};
    agg.reserve(1 + configs.size() - cfg_from);
    for (std::size_t c = cfg_from; c < configs.size(); ++c)
        agg.push_back(TextTable::num(hmeanImprovementPct(rows, c, ref), 1));
    table.row(agg);

    std::fputs(table.render().c_str(), stdout);
    std::fputs("\n", stdout);
}

} // namespace espsim::benchutil

#endif // ESPSIM_BENCH_BENCH_UTIL_HH
