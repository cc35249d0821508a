/**
 * @file
 * espbench: the ESP-Sim benchmark program.
 *
 *   espbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--scale F] [--out DIR]
 *
 * One run of one workload, serially, on one simulation thread:
 *  1. a fixed CPU calibration kernel (context for cross-host reads);
 *  2. set-up (trace generation, then every cell's machine built up to
 *     its first instruction), repeated; setup_s is the median;
 *  3. the measured phase: whole batches of the workload's cells
 *     through Simulator::run until --seconds have passed;
 *  4. the reference and traced passes: runServe (serve workloads) and
 *     the benchmark's own decorated assembly of the same components,
 *     both compared cell by cell with the measured phase;
 *  5. with --trace 1, the cache / predictor replays and the
 *     observers-off batch that the per-layer metrics need.
 *
 * The last stdout line is one JSON object: correct / attempted /
 * failed / metrics (end-to-end with --trace 0, per-layer with
 * --trace 1), plus the artifacts run.py validates and the context
 * figures. See espbench/README.md.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "report/artifact.hh"
#include "report/host_profile.hh"
#include "report/json_writer.hh"
#include "sim/stats_report.hh"
#include "suite.hh"

using namespace espsim;
using espbench::Boundary;
using espbench::CellResult;
using espbench::Kind;
using espbench::Layer;
using espbench::WorkloadSpec;

namespace
{

/** beforeOp calls timed: one in this many. */
constexpr unsigned beforeOpSample = 64;
/** Span log capacity of the traced pass (24 B per span); later spans
 *  are still timed, only not logged. */
constexpr std::size_t spanLogCapacity = std::size_t{1} << 20;
/** Self-time closure tolerance per traced cell. */
constexpr double closureRelTol = 0.02;
constexpr double closureAbsNs = 50e3;
/** Observers-off / observers-on batch pairs behind report.observer_pct. */
constexpr int observerPairs = 3;
/** Requests replayed per serve profile by the walk probes. */
constexpr std::size_t serveReplayEvents = 2000;
/** The paper's Fig. 9 headline values (fig09_performance prints
 *  them beside the simulated rows). */
constexpr double paperEspOverNls = 16.0;
constexpr double paperRunaheadOverNls = 6.4;
constexpr double paperStrideOverNl = 0.1;
constexpr double paperEspExtraInstrs = 21.2;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    double scale = 1.0;
    std::string outDir = ".bench_out";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "espbench: %s\nusage: espbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--scale F] "
                 "[--out DIR]\n",
                 msg);
    std::exit(2);
}

double
parseNumber(const char *flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) {
        std::fprintf(stderr, "espbench: bad value '%s' for %s\n", text,
                     flag);
        std::exit(2);
    }
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char *value = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) {
            o.workload = value;
            haveWorkload = true;
        } else if (std::strcmp(flag, "--seed") == 0) {
            char *end = nullptr;
            o.seed = std::strtoull(value, &end, 10);
            if (end == value || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (std::strcmp(flag, "--seconds") == 0) {
            o.seconds = parseNumber(flag, value);
        } else if (std::strcmp(flag, "--trace") == 0) {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            o.trace = value[0] == '1';
        } else if (std::strcmp(flag, "--scale") == 0) {
            o.scale = parseNumber(flag, value);
            if (o.scale <= 0 || o.scale > 1)
                usage("--scale takes a value in (0, 1]");
        } else if (std::strcmp(flag, "--out") == 0) {
            o.outDir = value;
        } else {
            usage("unknown flag");
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return o;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linearly interpolated quantile @p q of @p v (sorted in place). */
template <typename T>
double
quantile(std::vector<T> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return static_cast<double>(v[lo]) * (1.0 - frac) +
        static_cast<double>(v[hi]) * frac;
}

/**
 * Instruction-weighted quantile @p q of the per-request host cost in
 * ns per simulated instruction: the cost at or below which a share
 * @p q of the simulated instructions ran. Weighting by size keeps a
 * few tiny events (whose fixed per-event work dominates their cost)
 * from setting the tail.
 */
double
weightedNsPerInst(std::vector<espbench::RequestCost> &reqs, double q)
{
    auto nsPerInst = [](const espbench::RequestCost &r) {
        return static_cast<double>(r.hostUs) * 1e3 /
            static_cast<double>(r.ops);
    };
    std::erase_if(reqs, [](const auto &r) { return r.ops == 0; });
    if (reqs.empty())
        return 0.0;
    std::sort(reqs.begin(), reqs.end(), [&](const auto &a, const auto &b) {
        return nsPerInst(a) < nsPerInst(b);
    });
    double total = 0;
    for (const auto &r : reqs)
        total += r.ops;
    double seen = 0;
    for (const auto &r : reqs) {
        seen += r.ops;
        if (seen >= q * total)
            return nsPerInst(r);
    }
    return nsPerInst(reqs.back());
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

/**
 * A fixed integer kernel (dependent xorshift chain), timed as the
 * median of five repetitions. It does no simulator work; it places
 * the run's host on a common scale.
 */
double
calibrateNsPerIter()
{
    constexpr std::uint64_t iters = std::uint64_t{1} << 24;
    std::vector<double> reps;
    volatile std::uint64_t sink = 0;
    for (int r = 0; r < 5; ++r) {
        std::uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(r);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t i = 0; i < iters; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x += i;
        }
        sink = x;
        reps.push_back(secondsSince(t0) * 1e9 / static_cast<double>(iters));
    }
    (void)sink;
    return median(reps);
}

// --- checks ---------------------------------------------------------

/** Failed checks, counted per cell. */
struct Checks
{
    std::set<std::string> failedCells;
    std::vector<std::string> messages;

    void
    fail(const std::string &cell, const std::string &what)
    {
        failedCells.insert(cell);
        if (messages.size() < 32)
            messages.push_back(cell + ": " + what);
    }
};

bool
sameValue(double a, double b)
{
    return a == b || (std::isnan(a) && std::isnan(b));
}

/** Every stat in @p sub equals the same stat in @p full. */
bool
statsContained(const StatGroup &sub, const StatGroup &full,
               std::string &firstDiff)
{
    for (const auto &[name, value] : sub.values()) {
        const auto it = full.values().find(name);
        if (it == full.values().end() || !sameValue(value, it->second)) {
            firstDiff = name;
            return false;
        }
    }
    return true;
}

bool
sameSummary(const LatencySummary &a, const LatencySummary &b)
{
    return a.count == b.count && sameValue(a.mean, b.mean) &&
        sameValue(a.max, b.max) && sameValue(a.p50, b.p50) &&
        sameValue(a.p95, b.p95) && sameValue(a.p99, b.p99) &&
        sameValue(a.p999, b.p999);
}

bool
sameServeCell(const ServeCell &a, const ServeCell &b)
{
    if (a.config != b.config || a.cycles != b.cycles ||
        !sameValue(a.ipc, b.ipc) || a.idleCycles != b.idleCycles ||
        a.events != b.events || !sameSummary(a.queue, b.queue) ||
        !sameSummary(a.service, b.service) ||
        !sameSummary(a.total, b.total) || a.histogram != b.histogram ||
        a.handlers.size() != b.handlers.size())
        return false;
    for (std::size_t h = 0; h < a.handlers.size(); ++h) {
        const HandlerLatencyRow &x = a.handlers[h];
        const HandlerLatencyRow &y = b.handlers[h];
        if (x.handler != y.handler || x.events != y.events ||
            !sameSummary(x.queue, y.queue) ||
            !sameSummary(x.service, y.service))
            return false;
    }
    return true;
}

std::string
cellKey(const CellResult &c)
{
    return c.app + "/" + c.sim.configName;
}

/** Σ cycle buckets == core.cycles, in the counters and the stats. */
void
checkBuckets(const CellResult &c, Checks &checks)
{
    double statBuckets = 0;
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        statBuckets += c.sim.stats.get(
            std::string("core.cycle_bucket.") +
            cycleBucketName(static_cast<CycleBucket>(b)));
    }
    if (c.sim.core.bucketSum() != c.sim.core.cycles ||
        statBuckets != c.sim.stats.get("core.cycles") ||
        c.sim.cycles != c.sim.core.cycles)
        checks.fail(cellKey(c), "cycle buckets do not sum to core.cycles");
}

/** A later measurement of a cell repeats the first one exactly. */
void
checkRepeat(const CellResult &first, const CellResult &again,
            const char *what, Checks &checks)
{
    const auto &a = first.sim.stats.values();
    const auto &b = again.sim.stats.values();
    const bool sameStats = a.size() == b.size() &&
        std::equal(a.begin(), a.end(), b.begin(),
                   [](const auto &x, const auto &y) {
                       return x.first == y.first &&
                           sameValue(x.second, y.second);
                   });
    if (!sameStats)
        checks.fail(cellKey(first), std::string(what) + ": stats differ");
    if (!sameServeCell(first.serve, again.serve))
        checks.fail(cellKey(first),
                    std::string(what) + ": serve latencies differ");
}

// --- the workload's simulated results --------------------------------

/** Fig. 9 headline rows, as fig09_performance prints them. */
struct PaperRows
{
    double espOverNls = 0;
    double runaheadOverNls = 0;
    double strideOverNl = 0;
    double espExtraInstrs = 0;

    double
    gapPp() const
    {
        return (std::abs(espOverNls - paperEspOverNls) +
                std::abs(runaheadOverNls - paperRunaheadOverNls) +
                std::abs(strideOverNl - paperStrideOverNl) +
                std::abs(espExtraInstrs - paperEspExtraInstrs)) /
            4.0;
    }
};

std::vector<SuiteRow>
suiteRows(const WorkloadSpec &spec, const std::vector<CellResult> &cells)
{
    std::vector<SuiteRow> rows;
    const std::size_t nc = spec.configs.size();
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
        SuiteRow row;
        row.app = spec.apps[a].name;
        for (std::size_t c = 0; c < nc; ++c)
            row.results.push_back(cells[a * nc + c].sim);
        rows.push_back(std::move(row));
    }
    return rows;
}

PaperRows
paperRows(const std::vector<SuiteRow> &rows)
{
    PaperRows p;
    p.espOverNls = hmeanImprovementPct(rows, 6, 2);
    p.runaheadOverNls = hmeanImprovementPct(rows, 4, 2);
    p.strideOverNl = hmeanImprovementPct(rows, 2, 1);
    p.espExtraInstrs = 100.0 * meanMetric(rows, 6, [](const SimResult &r) {
        return r.extraInstrFraction;
    });
    return p;
}

/** ESP+NL's gain on simulated p99 request latency (arrival to
 *  retire) over the no-prefetch base, in percent (serve only). */
double
espP99GainPct(const std::vector<CellResult> &cells)
{
    return (ratio(cells[0].serve.total.p99, cells[1].serve.total.p99) -
            1.0) *
        100.0;
}

/**
 * ESP+NL's simulated speed-up over the no-prefetch base, in percent:
 * the harmonic mean over apps of the cycle ratio (web-fig09, the
 * paper's HMean), or the ratio of mean request service cycles
 * (serve workloads, where idle time is set by the arrivals).
 */
double
espGainPct(const WorkloadSpec &spec, const std::vector<CellResult> &cells)
{
    if (spec.kind == Kind::Serve)
        return (ratio(cells[0].serve.service.mean,
                      cells[1].serve.service.mean) -
                1.0) *
            100.0;
    return hmeanImprovementPct(suiteRows(spec, cells),
                               spec.configs.size() - 1, 0);
}

// --- output ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-30s %18.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
writeMetrics(JsonWriter &w, const std::vector<Metric> &metrics)
{
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
}

double
statSum(const std::vector<CellResult> &cells, const std::string &name)
{
    double sum = 0;
    for (const CellResult &c : cells)
        sum += c.sim.stats.get(name);
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    WorkloadSpec spec;
    if (!espbench::makeSpec(opt.workload, opt.seed, opt.scale, opt.outDir,
                            spec))
        usage("unknown workload (web-fig09, serve-memcached, "
              "serve-http-observed)");
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec) {
        std::fprintf(stderr, "espbench: cannot create %s\n",
                     opt.outDir.c_str());
        return 1;
    }
    const bool serve = spec.kind == Kind::Serve;
    const std::size_t numConfigs = spec.configs.size();

    std::printf("# espbench %s seed=%llu seconds=%g trace=%d scale=%g\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.scale);
    const double calibration = calibrateNsPerIter();
    std::printf("# calibration kernel: %.4f ns/iter (context only)\n",
                calibration);
    std::fflush(stdout);

    Checks checks;
    std::uint64_t attempted = 0;

    // --- set-up ------------------------------------------------------
    std::vector<double> setupSeconds;
    espbench::AppTraces apps;
    for (int rep = 0; rep < spec.setupReps; ++rep) {
        apps.clear();
        const auto t0 = std::chrono::steady_clock::now();
        if (!serve)
            apps = espbench::generateApps(spec);
        espbench::assembleCells(spec, apps);
        setupSeconds.push_back(secondsSince(t0));
    }


    // --- measured phase ----------------------------------------------
    // Whole batches of the workload's cells, each cell timed on its
    // own. The host metrics are medians over batches, so a burst of
    // load from outside the benchmark moves a minority of samples.
    auto runBatch = [&](bool observers, espbench::FacadeProbe probe,
                        std::vector<HostCellProfile> *profiles,
                        std::vector<double> *cellWall) {
        std::vector<CellResult> cells;
        auto timed = [&](auto &&run) {
            HostCellProfile prof;
            probe.profile = &prof;
            const auto t0 = std::chrono::steady_clock::now();
            cells.push_back(run(probe));
            if (cellWall)
                cellWall->push_back(secondsSince(t0));
            if (profiles)
                profiles->push_back(prof);
        };
        if (serve) {
            for (const SimConfig &config : spec.configs) {
                timed([&](const espbench::FacadeProbe &probe) {
                    return espbench::runServeCell(spec, config, observers,
                                                  probe);
                });
            }
        } else {
            for (const auto &workload : apps) {
                for (const SimConfig &config : spec.configs) {
                    timed([&](const espbench::FacadeProbe &probe) {
                        return espbench::runFig09Cell(config, *workload,
                                                      probe);
                    });
                }
            }
        }
        attempted += cells.size();
        return cells;
    };

    std::vector<HostCellProfile> profiles;
    std::vector<CellResult> first;
    std::vector<std::vector<double>> cellWalls; //!< [batch][cell]
    std::vector<double> batchP50, batchP95, batchP99, batchUsP50, batchUsP99;
    std::size_t hostSamples = 0;
    double peakRss = 0;
    const auto measureStart = std::chrono::steady_clock::now();
    while (cellWalls.size() < 3 || secondsSince(measureStart) < opt.seconds) {
        std::vector<espbench::RequestCost> requests;
        std::vector<double> walls;
        std::vector<CellResult> cells = runBatch(
            spec.observers, {&requests, nullptr}, &profiles, &walls);
        cellWalls.push_back(std::move(walls));
        hostSamples += requests.size();
        std::vector<float> hostUs;
        for (const espbench::RequestCost &r : requests)
            hostUs.push_back(r.hostUs);
        batchUsP50.push_back(quantile(hostUs, 0.50));
        batchUsP99.push_back(quantile(hostUs, 0.99));
        batchP50.push_back(weightedNsPerInst(requests, 0.50));
        batchP95.push_back(weightedNsPerInst(requests, 0.95));
        batchP99.push_back(weightedNsPerInst(requests, 0.99));
        if (first.empty()) {
            // Peak RSS after set-up and one batch: later batches repeat
            // the same work, and the allocator's high-water mark would
            // otherwise creep with how many batches the host fits in.
            peakRss = peakRssMb();
            first = std::move(cells);
        } else {
            for (std::size_t i = 0; i < cells.size(); ++i)
                checkRepeat(first[i], cells[i], "repeat", checks);
        }
    }
    const double measuredSeconds = secondsSince(measureStart);
    // A typical batch: each cell at its median wall over the batches.
    double typicalBatchWall = 0;
    double batchInstructions = 0;
    for (std::size_t c = 0; c < first.size(); ++c) {
        std::vector<double> walls;
        for (const std::vector<double> &b : cellWalls)
            walls.push_back(b[c]);
        typicalBatchWall += median(walls);
        batchInstructions +=
            static_cast<double>(first[c].sim.core.instructions);
    }

    for (const CellResult &c : first)
        checkBuckets(c, checks);

    // --- reference pass: the library's own sweep ----------------------
    std::vector<std::string> artifacts;
    ArtifactManifest manifest;
    manifest.source = "espbench";
    if (serve) {
        const ServeReport report =
            runServe(spec.server, spec.configs, spec.serve);
        attempted += report.cells.size();
        for (std::size_t i = 0; i < numConfigs; ++i) {
            if (i >= report.cells.size() ||
                !sameServeCell(report.cells[i], first[i].serve))
                checks.fail(cellKey(first[i]),
                            "runServe differs from Simulator::run");
        }
        const std::string path =
            opt.outDir + "/" + spec.name + ".latency.json";
        if (writeTextFile(path, renderLatencyArtifactJson(manifest, report)))
            artifacts.push_back(path);
        else
            checks.fail("artifact", "cannot write " + path);
    } else {
        const std::string path = opt.outDir + "/" + spec.name + ".suite.json";
        if (writeTextFile(path, renderSuiteArtifactJson(
                                    manifest, spec.configs,
                                    suiteRows(spec, first))))
            artifacts.push_back(path);
        else
            checks.fail("artifact", "cannot write " + path);
    }

    // --- traced pass -------------------------------------------------
    espbench::SpanRecorder rec(spanLogCapacity);
    espbench::TraceCounters counters;
    std::vector<CellResult> traced;
    espbench::AppTraces tracedApps;
    if (!serve) {
        tracedApps = espbench::generateAppsTraced(spec, rec, counters);
    }
    const auto tracedStart = std::chrono::steady_clock::now();
    if (serve) {
        for (const SimConfig &config : spec.configs)
            traced.push_back(espbench::runTracedCell(
                spec, config, nullptr, rec, counters, beforeOpSample));
    } else {
        for (const auto &workload : tracedApps) {
            for (const SimConfig &config : spec.configs)
                traced.push_back(espbench::runTracedCell(
                    spec, config, workload.get(), rec, counters,
                    beforeOpSample));
        }
    }
    const double tracedWall = secondsSince(tracedStart);
    attempted += traced.size();
    if (spec.observers)
        artifacts.push_back(spec.telemetryPath);
    for (std::size_t i = 0; i < traced.size(); ++i) {
        checkBuckets(traced[i], checks);
        std::string diff;
        if (!statsContained(traced[i].sim.stats, first[i].sim.stats, diff))
            checks.fail(cellKey(first[i]),
                        "traced assembly differs from Simulator::run at " +
                            diff);
        if (serve && !sameServeCell(traced[i].serve, first[i].serve))
            checks.fail(cellKey(first[i]),
                        "traced assembly latencies differ");
    }
    double closureErrPct = 0;
    for (const espbench::CellClosure &c : rec.closures()) {
        const double err =
            std::abs(static_cast<double>(c.selfSumNs - c.wallNs));
        closureErrPct =
            std::max(closureErrPct,
                     100.0 * ratio(err, static_cast<double>(c.wallNs)));
        if (err > closureRelTol * static_cast<double>(c.wallNs) +
                closureAbsNs)
            checks.fail(c.cell, "layer self times do not close");
    }

    // --- trace-only probes -------------------------------------------
    espbench::ReplayCost replay;
    double observerPct = 0;
    if (opt.trace) {
        if (serve) {
            const std::vector<EventTrace> sample =
                espbench::serveSample(spec, serveReplayEvents);
            std::vector<const EventTrace *> events;
            for (const EventTrace &e : sample)
                events.push_back(&e);
            const ServerTraceSource source(spec.server);
            replay = espbench::replayWalks(spec.configs[0], events,
                                           source.warmSet());
        } else {
            for (const auto &workload : apps) {
                std::vector<const EventTrace *> events;
                for (std::size_t i = 0; i < workload->numEvents(); ++i)
                    events.push_back(&workload->event(i));
                const espbench::ReplayCost r = espbench::replayWalks(
                    spec.configs[0], events, workload->warmSet());
                replay.accesses += r.accesses;
                replay.accessNs += r.accessNs;
                replay.branches += r.branches;
                replay.branchNs += r.branchNs;
            }
        }
        if (spec.observers) {
            // Observers on and off in alternating batches; the medians
            // damp load from outside the benchmark.
            std::vector<double> wallOn, wallOff;
            for (int pair = 0; pair < observerPairs; ++pair) {
                for (const bool observers : {false, true}) {
                    const auto t0 = std::chrono::steady_clock::now();
                    const std::vector<CellResult> cells =
                        runBatch(observers, {}, nullptr, nullptr);
                    (observers ? wallOn : wallOff)
                        .push_back(secondsSince(t0));
                    for (std::size_t i = 0; i < cells.size(); ++i)
                        checkRepeat(first[i], cells[i],
                                    observers ? "repeat" : "observers off",
                                    checks);
                }
            }
            observerPct =
                100.0 * (median(wallOn) - median(wallOff)) / median(wallOff);
        }
        const std::string spansPath =
            opt.outDir + "/" + spec.name + ".spans.csv";
        if (!rec.writeCsv(spansPath))
            checks.fail("artifact", "cannot write " + spansPath);
    }

    // --- end-to-end metrics -------------------------------------------
    const std::vector<Metric> endToEnd{
        {"sim_minst_per_s", batchInstructions / typicalBatchWall / 1e6,
         "Minst/s"},
        {"setup_s", median(setupSeconds), "s"},
        {"peak_rss_mb", peakRss, "MiB"},
        {"req_host_ns_per_inst_p50", median(batchP50), "ns/inst"},
        {"req_host_ns_per_inst_p95", median(batchP95), "ns/inst"},
    };
    printTable("end-to-end (untraced measured phase)", endToEnd);
    std::printf("  (%zu batches in %.3f s, %zu request samples, "
                "%llu cells attempted)\n",
                cellWalls.size(), measuredSeconds, hostSamples,
                static_cast<unsigned long long>(attempted));
    const double espGain = espGainPct(spec, first);
    const double espP99Gain = serve ? espP99GainPct(first) : 0.0;
    std::vector<Metric> context{
        {"req_host_us_p50", median(batchUsP50), "us"},
        {"req_host_us_p99", median(batchUsP99), "us"},
        {"req_host_ns_per_inst_p99", median(batchP99), "ns/inst"},
        {"esp_gain_pct", espGain, "% (simulated)"},
    };
    if (serve)
        context.push_back({"esp_p99_gain_pct", espP99Gain, "% (simulated)"});

    double paperGap = 0;
    if (!serve) {
        const PaperRows p = paperRows(suiteRows(spec, first));
        paperGap = p.gapPp();
        std::printf("\nFig. 9 headline rows (simulated vs paper; the model "
                    "is otherwise unvalidated)\n");
        std::printf("  ESP+NL over NL+S       %6.2f%%  (paper %.1f%%)\n",
                    p.espOverNls, paperEspOverNls);
        std::printf("  Runahead+NL over NL+S  %6.2f%%  (paper %.1f%%)\n",
                    p.runaheadOverNls, paperRunaheadOverNls);
        std::printf("  stride over NL         %6.2f%%  (paper %.1f%%)\n",
                    p.strideOverNl, paperStrideOverNl);
        std::printf("  ESP+NL extra instrs    %6.2f%%  (paper %.1f%%)\n",
                    p.espExtraInstrs, paperEspExtraInstrs);
        context.push_back({"paper_gap_pp", paperGap, "pp (simulated)"});
    }
    printTable("context (not gated: host-size-dependent or simulated)",
               context);

    // --- per-layer metrics ---------------------------------------------
    const espbench::BoundaryArray &tot = rec.totals();
    auto at = [&](Boundary b) -> const espbench::BoundaryTotals & {
        return tot[static_cast<std::size_t>(b)];
    };
    auto ms = [](double ns) { return ns / 1e6; };
    double tracedInstr = 0, stallWindows = 0, espEvents = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        tracedInstr += static_cast<double>(traced[i].sim.core.instructions);
        stallWindows += static_cast<double>(traced[i].sim.core.stallWindows);
        if (spec.configs[i % numConfigs].engine == SpeculationEngine::Esp)
            espEvents += static_cast<double>(traced[i].sim.core.events);
    }
    double pfIssued = 0, pfUseful = 0;
    for (unsigned s = 0; s < numPrefetchSources; ++s) {
        const std::string base = std::string("mem.prefetch.") +
            prefetchSourceName(static_cast<PrefetchSource>(s)) + ".";
        pfIssued += statSum(traced, base + "issued");
        pfUseful += statSum(traced, base + "timely") +
            statSum(traced, base + "late");
    }
    const double espListIssued =
        statSum(traced, "mem.prefetch.esp_ilist.issued") +
        statSum(traced, "mem.prefetch.esp_dlist.issued");
    const double espListTimely =
        statSum(traced, "mem.prefetch.esp_ilist.timely") +
        statSum(traced, "mem.prefetch.esp_dlist.timely");
    const double specInstrs = statSum(traced, "esp.pre_executed_instrs");
    const double espRecordNs =
        static_cast<double>(at(Boundary::EspStall).selfNs);
    const double espConsumeNs =
        static_cast<double>(at(Boundary::EspEventStart).selfNs +
                            at(Boundary::EspBeforeOp).selfNs +
                            at(Boundary::EspEventEnd).selfNs);
    double warmupMs = 0, reportMs = 0;
    for (const HostCellProfile &p : profiles) {
        warmupMs += p.warmupMs;
        reportMs += p.reportMs;
    }
    const double batches = static_cast<double>(cellWalls.size());
    const double traceOverheadPct =
        100.0 * (tracedWall - typicalBatchWall) / typicalBatchWall;

    const std::vector<Metric> perLayer{
        {"workload.gen_ms", ms(static_cast<double>(
                                at(Boundary::MakeEvent).selfNs)),
         "ms"},
        {"workload.gen_calls",
         static_cast<double>(at(Boundary::MakeEvent).calls), "count"},
        {"workload.gen_ns_per_op",
         ratio(static_cast<double>(at(Boundary::MakeEvent).selfNs),
               static_cast<double>(counters.opsGenerated)),
         "ns/op"},
        {"workload.stream_generations",
         static_cast<double>(counters.streamGenerations), "count"},
        {"workload.stream_recycled",
         static_cast<double>(counters.streamRecycled), "count"},
        {"cpu.run_ms", ms(static_cast<double>(at(Boundary::CoreRun).totalNs)),
         "ms"},
        {"cpu.self_ms", ms(static_cast<double>(at(Boundary::CoreRun).selfNs)),
         "ms"},
        {"cpu.self_ns_per_inst",
         ratio(static_cast<double>(at(Boundary::CoreRun).selfNs), tracedInstr),
         "ns/inst"},
        {"cpu.instructions", tracedInstr, "count"},
        {"cpu.stall_windows", stallWindows, "count"},
        {"cache.l1i_accesses", statSum(traced, "mem.l1i.accesses"), "count"},
        {"cache.l1d_accesses", statSum(traced, "mem.l1d.accesses"), "count"},
        {"cache.l2_misses", statSum(traced, "mem.l2.misses"), "count"},
        {"cache.replay_ns_per_access",
         ratio(replay.accessNs, static_cast<double>(replay.accesses)),
         "ns/access"},
        {"prefetch.issued", pfIssued, "count"},
        {"prefetch.useful_ratio", ratio(pfUseful, pfIssued), "ratio"},
        {"branch.branches", statSum(traced, "bp.branches"), "count"},
        {"branch.mispredicts", statSum(traced, "bp.mispredicts"), "count"},
        {"branch.replay_ns_per_branch",
         ratio(replay.branchNs, static_cast<double>(replay.branches)),
         "ns/branch"},
        {"esp.record_ms", ms(espRecordNs), "ms"},
        {"esp.record_calls",
         static_cast<double>(at(Boundary::EspStall).calls), "count"},
        {"esp.spec_instrs", specInstrs, "count"},
        {"esp.record_ns_per_spec_inst", ratio(espRecordNs, specInstrs),
         "ns/inst"},
        {"esp.consume_ms", ms(espConsumeNs), "ms"},
        {"esp.before_op_calls",
         static_cast<double>(at(Boundary::EspBeforeOp).calls), "count"},
        {"esp.consume_us_per_event", ratio(espConsumeNs / 1e3, espEvents),
         "us/event"},
        {"esp.list_useful_ratio", ratio(espListTimely, espListIssued),
         "ratio"},
        {"runahead.ms",
         ms(static_cast<double>(rec.layerSelfNs(Layer::Runahead))), "ms"},
        {"runahead.calls",
         static_cast<double>(at(Boundary::RunaheadStall).calls), "count"},
        {"runahead.instrs", statSum(traced, "runahead.instructions"),
         "count"},
        {"server.pacer_ms",
         ms(static_cast<double>(rec.layerSelfNs(Layer::Server))), "ms"},
        {"server.requests", static_cast<double>(counters.requests), "count"},
        {"report.span_ms",
         ms(static_cast<double>(at(Boundary::SinkOnSpan).selfNs)), "ms"},
        {"report.spans", static_cast<double>(counters.spansCollected),
         "count"},
        {"report.telemetry_snapshots",
         static_cast<double>(counters.telemetrySnapshots), "count"},
        {"report.observer_pct", observerPct, "%"},
        {"sim.warmup_ms", warmupMs / batches, "ms"},
        {"sim.report_ms", reportMs / batches, "ms"},
        {"trace.overhead_pct", traceOverheadPct, "%"},
        {"trace.closure_err_pct", closureErrPct, "%"},
    };

    if (opt.trace) {
        printTable("per-layer (traced pass)", perLayer);
        double wallMs = 0;
        for (const espbench::CellClosure &c : rec.closures())
            wallMs += ms(static_cast<double>(c.wallNs));
        std::printf("\nlayer self time over the traced cells "
                    "(beforeOp timed 1 in %u)\n",
                    beforeOpSample);
        double selfSum = 0;
        for (std::size_t l = 0; l < espbench::numLayers; ++l) {
            const double self = ms(static_cast<double>(
                rec.layerSelfNs(static_cast<Layer>(l))));
            selfSum += self;
            std::printf("  %-10s %12.3f ms %6.2f%%\n",
                        espbench::layerName(static_cast<Layer>(l)), self,
                        100.0 * ratio(self, wallMs));
        }
        std::printf("  %-10s %12.3f ms of %.3f ms traced wall "
                    "(trace.closure_err_pct %.4f per cell max)\n",
                    "sum", selfSum, wallMs, closureErrPct);
        std::printf("  spans logged %llu, not logged %llu; empty span "
                    "%lld ns\n",
                    static_cast<unsigned long long>(rec.spansLogged()),
                    static_cast<unsigned long long>(rec.spansDropped()),
                    static_cast<long long>(rec.emptySpanNs()));
    }

    for (const std::string &m : checks.messages)
        std::fprintf(stderr, "espbench: check failed: %s\n", m.c_str());

    JsonWriter w;
    w.beginObject();
    w.key("correct").value(checks.failedCells.empty());
    w.key("attempted").value(std::uint64_t{attempted});
    w.key("failed").value(std::uint64_t{checks.failedCells.size()});
    w.key("metrics");
    writeMetrics(w, opt.trace ? perLayer : endToEnd);
    w.key("artifacts").beginArray();
    for (const std::string &a : artifacts)
        w.value(a);
    w.endArray();
    w.key("context").beginObject();
    w.key("calibration_ns_per_iter").value(calibration);
    w.key("batches").value(std::uint64_t{cellWalls.size()});
    w.key("request_samples").value(std::uint64_t{hostSamples});
    for (const Metric &m : context)
        w.key(m.name).value(m.value);
    w.endObject();
    w.endObject();
    std::printf("\n%s\n", w.str().c_str());
    return 0;
}
