/**
 * @file
 * Stat-level diff of two suite artifacts — the regression gate behind
 * `espsim diff baseline.json candidate.json`.
 *
 * Both inputs are `espsim-suite-artifact` JSON documents (written by
 * `espsim suite --json`). The diff matches (app, config) points,
 * compares every stat of every point exactly, and ranks the drifts by
 * relative magnitude. There is no tolerance: a speedup must be
 * stat-identical, and a model change shows every counter it moved.
 * Drifts on `core.cycles` are attributed through the cycle-accounting
 * buckets: the report names the buckets whose deltas explain the
 * cycle change, so "amazon/ESP+NL got 4% slower" comes annotated with
 * "dcache_miss +3211, esp_pre_exec -890".
 *
 * Exit-code contract (stable; CI depends on it):
 *   0 — both artifacts load, their config hashes match, and no stat
 *       drifted: every point and every stat is on both sides with the
 *       same value (NaN equals NaN)
 *   1 — any drift: a changed value, a stat or point on one side only,
 *       a candidate error cell, or a config-hash mismatch
 *   2 — an input failed to load or parse
 *
 * Artifacts produced by a degraded sweep carry an `errors` block (see
 * docs/ROBUSTNESS.md): a failed cell's stats are absent from
 * `results`. The diff reads the block, annotates the corresponding
 * missing-point drift with the cell's error message, and treats any
 * candidate-side error cell as a drift.
 *
 * Build-environment manifest fields (`tool_version`, `build_type`)
 * are deliberately ignored: artifacts from different commits must be
 * comparable. `config_hash` *is* compared — a mismatch means the two
 * runs simulated different machines, which makes any stat comparison
 * meaningless.
 */

#ifndef ESPSIM_REPORT_DIFF_HH
#define ESPSIM_REPORT_DIFF_HH

#include <cstddef>
#include <string>
#include <vector>

namespace espsim
{

class JsonValue;

/** One stat (or point) that moved. */
struct StatDrift
{
    std::string app;
    std::string config;
    std::string stat;
    double baseline = 0.0;
    double candidate = 0.0;
    /** (candidate - baseline) / |baseline|; +inf when baseline is 0. */
    double relDrift = 0.0;
    bool onlyInBaseline = false;
    bool onlyInCandidate = false;
    /** Cycle-bucket deltas explaining a core.cycles drift. */
    std::string attribution;
};

/** Outcome of one artifact comparison. */
struct DiffResult
{
    bool loaded = false;
    std::string error;
    bool configHashMatch = true;
    std::size_t pointsCompared = 0;
    std::size_t statsCompared = 0;
    /** Every drift, ranked by |relDrift| descending. */
    std::vector<StatDrift> drifts;
    /** Failed cells declared in each artifact's `errors` block. A
     *  candidate error cell is always a drift. */
    std::size_t baselineErrorCells = 0;
    std::size_t candidateErrorCells = 0;

    /** The process exit code this result maps to (0, 1, or 2). */
    int exitCode() const;
};

/** Diff two parsed suite artifacts. */
DiffResult diffSuiteArtifacts(const JsonValue &baseline,
                              const JsonValue &candidate);

/** Load two artifact files and diff them (exit 2 path on I/O). */
DiffResult diffSuiteArtifactFiles(const std::string &baselinePath,
                                  const std::string &candidatePath);

/** Human-readable report: summary header plus the ranked drift
 *  table's first 20 rows. */
std::string renderDiffReport(const DiffResult &result);

} // namespace espsim

#endif // ESPSIM_REPORT_DIFF_HH
