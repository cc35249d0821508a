/**
 * @file
 * Cross-run observatory: the perf trajectory *across* artifacts.
 *
 * Every espsim artifact is a self-contained snapshot of one run; this
 * module reads a directory of them (suite, latency, bench) plus the
 * committed bench baselines and joins them into a trajectory:
 *
 *  - runs are classified by schema and keyed by (schema,
 *    manifest.config_hash, workload fingerprint) — only artifacts
 *    measuring the *same* configuration matrix over the *same*
 *    workload shape (profile + event count for latency runs, app set
 *    for suites and bench sweeps) are comparable; trending a 100k-
 *    event run against a 1M-event run would compare raw cycle counts
 *    across scales;
 *  - runs are ordered oldest → newest by a committed fact, never by
 *    file mtime or git history: a directory with an `INDEX` file
 *    contributes exactly the names it lists, in that order (one per
 *    line; blank lines and `#` comments ignored), and directories keep
 *    the order they are given in (history first). A directory without
 *    an INDEX contributes its *.json files sorted by name, which
 *    records no age, so a group holding two of them gets no trend.
 *    Adding a bench baseline means committing the file and appending
 *    its name to bench/baselines/INDEX;
 *  - per run a small set of headline metrics is extracted (mean IPC
 *    and cycles per config from suites, p50/p99 total latency per
 *    config from latency artifacts, Mcycles/s per cell and suite wall
 *    from bench artifacts);
 *  - first→last relative drift per metric is flagged against a
 *    tolerance, direction-aware (ipc/throughput up is good, cycles
 *    and latency down is good).
 *
 * Output: a human-readable markdown report and/or a versioned
 * `espsim-observatory-report` JSON artifact (schema checked by
 * tools/validate_artifact.py).
 */

#ifndef ESPSIM_REPORT_OBSERVATORY_HH
#define ESPSIM_REPORT_OBSERVATORY_HH

#include <cstddef>
#include <string>
#include <vector>

namespace espsim
{

/** One ingested artifact. */
struct ObservatoryRun
{
    std::string path;       //!< as given (for the report)
    std::string schema;     //!< espsim-suite-artifact, ...
    std::string configHash; //!< manifest.config_hash
    std::string workload;   //!< workload fingerprint (join key)
    std::string toolVersion;
    std::string buildType;
    std::vector<std::string> metricNames;
    std::vector<double> metricValues;
};

/** First→last drift of one metric within a comparable group. */
struct ObservatoryTrend
{
    std::string metric;
    double first = 0;
    double last = 0;
    double relChange = 0; //!< (last-first)/first, 0 when first==0
    bool higherIsBetter = false;
    bool regressed = false;
};

/** All runs sharing (schema, config_hash, workload). */
struct ObservatoryGroup
{
    std::string schema;
    std::string configHash;
    std::string workload;
    std::vector<std::size_t> runIndices; //!< into report.runs, ordered
    //! Directory without an INDEX holding 2+ of the runs (their order
    //! is unknown, so no trends); empty when the runs are ordered.
    std::string unorderedDir;
    std::vector<ObservatoryTrend> trends;
};

struct ObservatoryReport
{
    std::vector<ObservatoryRun> runs;
    std::vector<ObservatoryGroup> groups;
    std::vector<std::string> skipped; //!< unreadable/foreign files
    std::size_t unreadableDirs = 0;   //!< dirs that could not be listed
    double tolerance = 0.10;
    std::size_t regressions = 0; //!< trends flagged across all groups
};

/**
 * Ingest the runs of @p dirs (non-recursive, in INDEX or file-name
 * order, see the file comment) and build the trajectory with
 * regression flags at @p tolerance. Unreadable, unlisted or
 * non-espsim files land in `skipped`, never fail the scan.
 */
ObservatoryReport buildObservatoryReport(
    const std::vector<std::string> &dirs, double tolerance);

/** Direction convention for a metric name (see file comment). */
bool observatoryHigherIsBetter(const std::string &metric);

/** Render the report as markdown (the CLI's stdout form). */
std::string renderObservatoryMarkdown(const ObservatoryReport &report);

/** Render the versioned espsim-observatory-report JSON artifact. */
std::string renderObservatoryJson(const ObservatoryReport &report);

} // namespace espsim

#endif // ESPSIM_REPORT_OBSERVATORY_HH
