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
 * manifest and exit), `--json [path]` and `--csv [path]` (export the
 * full per-(app, config) stat dump as a versioned artifact; the
 * default path is BENCH_<fig>.json / .csv). The ASCII tables on
 * stdout are untouched; run chatter (manifest, progress, wall time)
 * goes to stderr. See docs/OBSERVABILITY.md.
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

/**
 * Degree of parallelism requested on a figure binary's command line:
 * the value of `--jobs N` if present, else 0 (auto — SuiteRunner
 * resolves it to ESPSIM_JOBS or hardware_concurrency).
 */
inline unsigned
jobsFromArgs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") != 0)
            continue;
        char *end = nullptr;
        const long v = std::strtol(argv[i + 1], &end, 10);
        if (end == argv[i + 1] || *end != '\0') {
            logLine(LogLevel::Error,
                    "invalid value '%s' for --jobs (expected a "
                    "positive integer)",
                    argv[i + 1]);
            std::exit(2);
        }
        return v >= 1 ? static_cast<unsigned>(v) : 1;
    }
    return 0;
}

/** SuiteRunner over the paper suite, parallelism from the CLI. */
inline SuiteRunner
makeSuiteRunner(int argc, char **argv)
{
    SuiteRunner runner;
    runner.setJobs(jobsFromArgs(argc, argv));
    return runner;
}

/** Artifact-export options a figure binary parsed from its argv. */
struct ReportOptions
{
    std::string source;   //!< producing binary, e.g. "fig09_performance"
    std::string jsonPath; //!< empty = no JSON artifact
    std::string csvPath;  //!< empty = no CSV artifact
    unsigned jobs = 0;    //!< requested parallelism (0 = auto)
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
};

/**
 * Handle the flags every figure binary shares. Exits after printing
 * the build manifest when `--version` is given; otherwise parses
 * `--json [path]` / `--csv [path]` (default `BENCH_<tag>.json|csv`
 * when no path follows the flag) and prints the run manifest — tool
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
    opts.jobs = jobsFromArgs(argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--version") == 0) {
            std::printf("%s %s (%s build)\n", source.c_str(),
                        versionString(), buildTypeString());
            std::exit(0);
        }
        const bool has_path =
            i + 1 < argc && argv[i + 1][0] != '-';
        if (std::strcmp(argv[i], "--json") == 0)
            opts.jsonPath = has_path ? argv[++i]
                                     : "BENCH_" + tag + ".json";
        else if (std::strcmp(argv[i], "--csv") == 0)
            opts.csvPath = has_path ? argv[++i]
                                    : "BENCH_" + tag + ".csv";
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
    if (!opts.csvPath.empty()) {
        if (!writeTextFile(opts.csvPath, renderSuiteArtifactCsv(
                                             manifest, configs, rows))) {
            logLine(LogLevel::Error, "# error: cannot write %s",
                    opts.csvPath.c_str());
            std::exit(1);
        }
        logLine(LogLevel::Info, "# wrote %s", opts.csvPath.c_str());
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
    if (!opts.csvPath.empty()) {
        if (!writeTextFile(opts.csvPath,
                           renderTableArtifactCsv(manifest, table))) {
            logLine(LogLevel::Error, "# error: cannot write %s",
                    opts.csvPath.c_str());
            std::exit(1);
        }
        logLine(LogLevel::Info, "# wrote %s", opts.csvPath.c_str());
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
