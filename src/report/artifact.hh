/**
 * @file
 * Versioned machine-readable artifacts for suite sweeps.
 *
 * Every figure binary and `espsim suite` can export the full
 * per-(app, config) stat dump as a JSON artifact. Artifacts carry a
 * manifest — format version, tool version (git describe), build type,
 * producing binary, and a hash of the swept configurations — so
 * results can be diffed across commits and machines with confidence.
 *
 * Artifacts are **deterministic and byte-identical at any `--jobs`
 * count**: results are index-ordered, stat maps are name-ordered, and
 * numbers use shortest-round-trip formatting. Host facts (jobs, wall
 * time, peak RSS) are never embedded in the artifact; the run manifest
 * on stderr names the jobs count, and host time is the benchmark's
 * to measure (espbench/; see docs/OBSERVABILITY.md).
 *
 * Failed sweep cells (see CellError) are reported in a top-level
 * `errors` array — one `{app, config, config_hash, message}` entry
 * per failed cell — and omitted from `results`. The block is absent
 * when every cell succeeded, so clean artifacts are unchanged. See
 * docs/ROBUSTNESS.md.
 */

#ifndef ESPSIM_REPORT_ARTIFACT_HH
#define ESPSIM_REPORT_ARTIFACT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hh"
#include "sim/stats_report.hh"

namespace espsim
{

/** Version of the suite-artifact schema this build writes. */
constexpr std::uint32_t artifactFormatVersion = 1;

/** Provenance block stamped into every artifact. */
struct ArtifactManifest
{
    /** Producing binary, e.g. "fig09_performance" or "espsim suite". */
    std::string source;
    /** Overrides for tests; default to this build's version strings. */
    std::string toolVersion;
    std::string buildType;
};

/**
 * FNV-1a hash over a canonical serialization of @p configs (names and
 * every architectural parameter), as a 16-digit hex string. Two sweeps
 * with the same hash simulated the same design points.
 */
std::string configsHash(const std::vector<SimConfig> &configs);

/** Render the canonical JSON artifact for one suite sweep. */
std::string renderSuiteArtifactJson(const ArtifactManifest &manifest,
                                    const std::vector<SimConfig> &configs,
                                    const std::vector<SuiteRow> &rows);

/**
 * Render a printed table (Figures 6-8 and other descriptive tables
 * with no per-(app, config) sweep behind them) as a machine-readable
 * artifact: the manifest plus the table's title, header and rows.
 */
std::string renderTableArtifactJson(const ArtifactManifest &manifest,
                                    const TextTable &table);

/** Write @p text to @p path (binary mode). @return false on I/O. */
bool writeTextFile(const std::string &path, const std::string &text);

} // namespace espsim

#endif // ESPSIM_REPORT_ARTIFACT_HH
