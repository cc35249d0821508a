#include "report/diff.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "common/table.hh"
#include "report/json_reader.hh"

namespace espsim
{

int
DiffResult::exitCode() const
{
    if (!loaded)
        return 2;
    if (!drifts.empty() || !configHashMatch)
        return 1;
    return 0;
}

namespace
{

/** (app, config) → stat name → value, in artifact order. */
using PointKey = std::pair<std::string, std::string>;
using StatMap = std::map<std::string, double>;
using PointMap = std::map<PointKey, StatMap>;
/** (app, config) → error message from the artifact's errors block. */
using ErrorMap = std::map<PointKey, std::string>;

/**
 * Extract the comparable content of one suite artifact. Returns false
 * (with @p error set) when the document is not a suite artifact.
 * JSON null stat values (NaN serialized) load as quiet NaN.
 */
bool
loadArtifact(const JsonValue &root, PointMap &points, ErrorMap &errors,
             std::string &configHash, std::string &error)
{
    const JsonValue *schema = root.find("schema");
    if (!schema || schema->string != "espsim-suite-artifact") {
        error = "not an espsim-suite-artifact document";
        return false;
    }
    if (const JsonValue *manifest = root.find("manifest")) {
        if (const JsonValue *hash = manifest->find("config_hash"))
            configHash = hash->string;
    }
    const JsonValue *results = root.find("results");
    if (!results || !results->isArray()) {
        error = "artifact has no results array";
        return false;
    }
    for (const JsonValue &entry : results->array) {
        const JsonValue *app = entry.find("app");
        const JsonValue *config = entry.find("config");
        const JsonValue *stats = entry.find("stats");
        if (!app || !config || !stats || !stats->isObject()) {
            error = "malformed result entry";
            return false;
        }
        StatMap &dst = points[{app->string, config->string}];
        for (const auto &[name, value] : stats->object) {
            dst[name] = value.isNull()
                ? std::numeric_limits<double>::quiet_NaN()
                : value.number;
        }
    }
    // Optional errors block: cells that failed instead of producing
    // stats (fault-tolerant sweeps, docs/ROBUSTNESS.md).
    if (const JsonValue *errs = root.find("errors");
        errs && errs->isArray()) {
        for (const JsonValue &entry : errs->array) {
            const JsonValue *app = entry.find("app");
            const JsonValue *config = entry.find("config");
            const JsonValue *message = entry.find("message");
            if (!app || !config) {
                error = "malformed errors entry";
                return false;
            }
            errors[{app->string, config->string}] =
                message ? message->string : "unknown error";
        }
    }
    return true;
}

/** Exactly equal? NaN == NaN counts as equal (both undefined). */
bool
sameValue(double b, double c)
{
    return b == c || (std::isnan(b) && std::isnan(c));
}

double
relativeDrift(double b, double c)
{
    if (b == c)
        return 0.0;
    if (b == 0.0 || std::isnan(b) || std::isnan(c))
        return std::numeric_limits<double>::infinity();
    return (c - b) / std::fabs(b);
}

/**
 * Explain a core.cycles drift through the accounting buckets: the
 * top bucket deltas (by magnitude) for this point, formatted as
 * "dcache_miss +3211, esp_pre_exec -890".
 */
std::string
bucketAttribution(const StatMap &base, const StatMap &cand)
{
    static const std::string prefix = "core.cycle_bucket.";
    std::vector<std::pair<std::string, double>> deltas;
    for (auto it = base.lower_bound(prefix);
         it != base.end() && it->first.compare(0, prefix.size(),
                                               prefix) == 0;
         ++it) {
        const auto cit = cand.find(it->first);
        const double cv = cit == cand.end() ? 0.0 : cit->second;
        const double delta = cv - it->second;
        if (delta != 0.0 && !std::isnan(delta))
            deltas.emplace_back(it->first.substr(prefix.size()), delta);
    }
    // Buckets only the candidate has (new bucket in a newer build).
    for (auto it = cand.lower_bound(prefix);
         it != cand.end() && it->first.compare(0, prefix.size(),
                                               prefix) == 0;
         ++it) {
        if (base.count(it->first) == 0 && it->second != 0.0)
            deltas.emplace_back(it->first.substr(prefix.size()),
                                it->second);
    }
    std::sort(deltas.begin(), deltas.end(),
              [](const auto &a, const auto &b) {
                  const double ma = std::fabs(a.second);
                  const double mb = std::fabs(b.second);
                  return ma != mb ? ma > mb : a.first < b.first;
              });
    std::string out;
    constexpr std::size_t maxBuckets = 3;
    for (std::size_t i = 0; i < deltas.size() && i < maxBuckets; ++i) {
        if (i)
            out += ", ";
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%+.0f", deltas[i].second);
        out += deltas[i].first + " " + buf;
    }
    return out;
}

} // namespace

DiffResult
diffSuiteArtifacts(const JsonValue &baseline, const JsonValue &candidate)
{
    DiffResult res;
    PointMap basePoints, candPoints;
    ErrorMap baseErrors, candErrors;
    std::string baseHash, candHash;
    if (!loadArtifact(baseline, basePoints, baseErrors, baseHash,
                      res.error)) {
        res.error = "baseline: " + res.error;
        return res;
    }
    if (!loadArtifact(candidate, candPoints, candErrors, candHash,
                      res.error)) {
        res.error = "candidate: " + res.error;
        return res;
    }
    res.loaded = true;
    res.configHashMatch = baseHash == candHash;
    res.baselineErrorCells = baseErrors.size();
    res.candidateErrorCells = candErrors.size();

    // Points present in only one artifact are drifts: the candidate
    // silently dropping an (app, config) point is itself a
    // regression, and a grown matrix deserves a fresh baseline.
    for (const auto &[key, stats] : basePoints) {
        (void)stats;
        if (candPoints.count(key) == 0) {
            StatDrift d;
            d.app = key.first;
            d.config = key.second;
            d.stat = "(entire point)";
            d.onlyInBaseline = true;
            d.relDrift = -std::numeric_limits<double>::infinity();
            // The candidate's errors block explains why the point is
            // missing; surface the cell's message in the report.
            if (const auto eit = candErrors.find(key);
                eit != candErrors.end())
                d.attribution = "error: " + eit->second;
            res.drifts.push_back(std::move(d));
        }
    }
    // Candidate error cells whose point the baseline results also
    // lack (e.g. both sides degraded) would otherwise pass silently:
    // an error cell in the candidate is always a drift.
    for (const auto &[key, message] : candErrors) {
        if (basePoints.count(key) != 0)
            continue; // already flagged as a missing point above
        StatDrift d;
        d.app = key.first;
        d.config = key.second;
        d.stat = "(error cell)";
        d.relDrift = std::numeric_limits<double>::infinity();
        d.onlyInCandidate = candPoints.count(key) == 0;
        d.attribution = "error: " + message;
        res.drifts.push_back(std::move(d));
    }
    for (const auto &[key, stats] : candPoints) {
        (void)stats;
        if (basePoints.count(key) == 0) {
            StatDrift d;
            d.app = key.first;
            d.config = key.second;
            d.stat = "(entire point)";
            d.onlyInCandidate = true;
            d.relDrift = std::numeric_limits<double>::infinity();
            res.drifts.push_back(std::move(d));
        }
    }

    for (const auto &[key, base] : basePoints) {
        const auto cit = candPoints.find(key);
        if (cit == candPoints.end())
            continue;
        const StatMap &cand = cit->second;
        ++res.pointsCompared;

        // Union of stat names, walked in merge order.
        auto bi = base.begin();
        auto ci = cand.begin();
        while (bi != base.end() || ci != cand.end()) {
            StatDrift d;
            d.app = key.first;
            d.config = key.second;
            if (ci == cand.end() ||
                (bi != base.end() && bi->first < ci->first)) {
                d.stat = bi->first;
                d.baseline = bi->second;
                d.onlyInBaseline = true;
                d.relDrift = -std::numeric_limits<double>::infinity();
                ++bi;
            } else if (bi == base.end() || ci->first < bi->first) {
                d.stat = ci->first;
                d.candidate = ci->second;
                d.onlyInCandidate = true;
                d.relDrift = std::numeric_limits<double>::infinity();
                ++ci;
            } else {
                d.stat = bi->first;
                d.baseline = bi->second;
                d.candidate = ci->second;
                ++res.statsCompared;
                ++bi;
                ++ci;
                if (sameValue(d.baseline, d.candidate))
                    continue;
                d.relDrift = relativeDrift(d.baseline, d.candidate);
                if (d.stat == "core.cycles")
                    d.attribution = bucketAttribution(base, cand);
            }
            res.drifts.push_back(std::move(d));
        }
    }

    std::sort(res.drifts.begin(), res.drifts.end(),
              [](const StatDrift &a, const StatDrift &b) {
                  const double ma = std::fabs(a.relDrift);
                  const double mb = std::fabs(b.relDrift);
                  if (ma != mb)
                      return ma > mb;
                  if (a.stat != b.stat)
                      return a.stat < b.stat;
                  if (a.app != b.app)
                      return a.app < b.app;
                  return a.config < b.config;
              });
    return res;
}

DiffResult
diffSuiteArtifactFiles(const std::string &baselinePath,
                       const std::string &candidatePath)
{
    auto readAll = [](const std::string &path,
                      std::string &out) -> bool {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return false;
        std::ostringstream ss;
        ss << in.rdbuf();
        out = ss.str();
        return true;
    };

    DiffResult res;
    std::string baseText, candText;
    if (!readAll(baselinePath, baseText)) {
        res.error = "cannot read baseline '" + baselinePath + "'";
        return res;
    }
    if (!readAll(candidatePath, candText)) {
        res.error = "cannot read candidate '" + candidatePath + "'";
        return res;
    }
    std::string parseErr;
    const auto base = parseJson(baseText, &parseErr);
    if (!base) {
        res.error = "baseline '" + baselinePath + "': " + parseErr;
        return res;
    }
    const auto cand = parseJson(candText, &parseErr);
    if (!cand) {
        res.error = "candidate '" + candidatePath + "': " + parseErr;
        return res;
    }
    return diffSuiteArtifacts(*base, *cand);
}

std::string
renderDiffReport(const DiffResult &result)
{
    std::string out;
    if (!result.loaded) {
        out += "diff failed: " + result.error + "\n";
        return out;
    }

    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "compared %zu points, %zu stats; %zu drifts\n",
                  result.pointsCompared, result.statsCompared,
                  result.drifts.size());
    out += buf;
    if (result.baselineErrorCells || result.candidateErrorCells) {
        std::snprintf(buf, sizeof(buf),
                      "error cells: %zu baseline, %zu candidate\n",
                      result.baselineErrorCells,
                      result.candidateErrorCells);
        out += buf;
    }
    if (!result.configHashMatch)
        out += "config hash MISMATCH: the artifacts describe "
               "different machines\n";

    if (result.drifts.empty()) {
        out += "no drift: candidate matches baseline\n";
        return out;
    }

    TextTable table("stat drifts (ranked by |relative drift|)");
    table.header({"app", "config", "stat", "baseline", "candidate",
                  "drift", "attribution"});
    constexpr std::size_t maxRows = 20;
    const std::size_t shown = std::min(result.drifts.size(), maxRows);
    for (std::size_t i = 0; i < shown; ++i) {
        const StatDrift &d = result.drifts[i];
        std::string drift;
        if (d.onlyInBaseline)
            drift = "removed";
        else if (d.onlyInCandidate)
            drift = "added";
        else if (std::isinf(d.relDrift))
            drift = d.relDrift > 0 ? "+inf" : "-inf";
        else {
            std::snprintf(buf, sizeof(buf), "%+.4g%%",
                          100.0 * d.relDrift);
            drift = buf;
        }
        table.row({d.app, d.config, d.stat,
                   d.onlyInCandidate ? "-" : TextTable::num(d.baseline, 6),
                   d.onlyInBaseline ? "-" : TextTable::num(d.candidate, 6),
                   drift, d.attribution});
    }
    out += table.render();
    if (result.drifts.size() > shown) {
        std::snprintf(buf, sizeof(buf), "(%zu more drifts not shown)\n",
                      result.drifts.size() - shown);
        out += buf;
    }
    return out;
}

} // namespace espsim
