/**
 * @file
 * `espsim` — the command-line driver an OSS release ships:
 *
 *   espsim run   --app amazon --config ESP+NL [--stats]
 *   espsim run   --trace file.espw --config NL+S
 *   espsim run   --app bing --timeline out.trace.json
 *   espsim run   --app bing --telemetry-period N
 *                [--telemetry [path]] [--timeline out.trace.json]
 *   espsim suite --configs base,NL,ESP+NL [--jobs N] [--apps a,b]
 *                [--json [path]] [--streaming]
 *   espsim serve --profile memcached --events 1000000
 *                [--configs base,ESP+NL] [--arrival poisson]
 *                [--json [path]] [--trace-spans [path]]
 *                [--spike-event N]
 *                [--telemetry [path]] [--telemetry-period N]
 *   espsim gen   --app gmaps --out gmaps.espw [--events N]
 *   espsim diff  baseline.json candidate.json
 *   espsim fuzz  [--runs N] [--seed S] [--verbose]
 *   espsim list  (apps and configs)
 *   espsim --version
 *
 * Every subcommand accepts --log-level error|warn|info|debug (also
 * the ESPSIM_LOG environment variable); run chatter is gated at info.
 *
 * Tables and results print to stdout; run chatter (manifest, artifact
 * notes) goes to stderr. Exit code 0 on success, 1 on usage errors,
 * 2 on an option the subcommand does not accept, a stray word after
 * the subcommand, or a malformed option value (all numeric options
 * are parsed by one checked helper that rejects trailing garbage and
 * non-finite numbers). `espsim run --trace` exits 2 on a trace file
 * it cannot open or that is malformed, including one holding an op
 * the simulator's packed op storage cannot hold.
 * `espsim diff` exits 0 when every stat of every point is identical,
 * 1 on any drift or a config-hash mismatch, 2 on load failure.
 * `espsim suite` exits 1 when any sweep cell failed (its artifact
 * then carries an `errors` block; see docs/ROBUSTNESS.md).
 * `espsim fuzz` runs the src/check/ property harness and exits 1 on
 * the first oracle violation, printing a shrunken repro.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <chrono>

#include "check/fuzz.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/version.hh"
#include "report/artifact.hh"
#include "report/diff.hh"
#include "report/host_profile.hh"
#include "report/telemetry.hh"
#include "report/timeline.hh"
#include "server/serve.hh"
#include "sim/stats_report.hh"
#include "trace/trace_io.hh"
#include "workload/generator.hh"
#include "workload/streaming.hh"

using namespace espsim;

namespace
{

/** All named design points the CLI can run. */
const std::map<std::string, std::function<SimConfig()>> &
configRegistry()
{
    static const std::map<std::string, std::function<SimConfig()>> reg{
        {"base", [] { return SimConfig::baseline(); }},
        {"NL", [] { return SimConfig::nextLine(); }},
        {"NL+S", [] { return SimConfig::nextLineStride(); }},
        {"Runahead", [] { return SimConfig::runaheadExec(false); }},
        {"Runahead+NL", [] { return SimConfig::runaheadExec(true); }},
        {"ESP", [] { return SimConfig::espFull(false); }},
        {"ESP+NL", [] { return SimConfig::espFull(true); }},
        {"NaiveESP+NL", [] { return SimConfig::espNaive(true); }},
        {"perfect", [] { return SimConfig::perfect(true, true, true); }},
    };
    return reg;
}

int
usage()
{
    std::puts(
        "usage:\n"
        "  espsim run   --app <name>|--trace <file> --config <name> "
        "[--stats] [--timeline <file>]\n"
        "               [--telemetry [path]] [--telemetry-period N]\n"
        "  espsim suite [--configs a,b,c] [--apps a,b] [--jobs N] "
        "[--json [path]] [--streaming]\n"
        "  espsim serve [--profile memcached|http|testsrv] "
        "[--configs a,b] [--events N] [--window N]\n"
        "               [--reservoir N] "
        "[--arrival poisson|bursty|closed] [--gap CYCLES]\n"
        "               [--concurrency N] [--think CYCLES] [--seed S] "
        "[--json [path]]\n"
        "               [--trace-spans [path]] [--spike-event N]\n"
        "               [--telemetry [path]] [--telemetry-period N]\n"
        "  espsim gen   --app <name> --out <file> [--events N]\n"
        "  espsim diff  <baseline.json> <candidate.json>\n"
        "  espsim fuzz  [--runs N] [--seed S] [--verbose]\n"
        "  espsim list\n"
        "  espsim --version\n"
        "global: --log-level error|warn|info|debug (or ESPSIM_LOG)");
    return 1;
}

/**
 * Checked numeric option parsing: every numeric flag goes through one
 * of these instead of raw std::stoul / strtod, so `--events abc` (or
 * `--gap 0.1x`) prints the usage text and exits 2 instead of
 * aborting on an uncaught std::invalid_argument or silently reading
 * a half-parsed value. Trailing garbage is rejected, and so are
 * `nan` and `inf`, which no option means.
 */
unsigned long
parseUnsignedOption(const std::string &value, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() ||
        errno == ERANGE || value[0] == '-') {
        logLine(LogLevel::Error,
                "invalid value '%s' for --%s (expected a "
                "non-negative integer)",
                value.c_str(), flag);
        usage();
        std::exit(2);
    }
    return v;
}

double
parseDoubleOption(const std::string &value, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() ||
        errno == ERANGE || !std::isfinite(v)) {
        logLine(LogLevel::Error,
                "invalid value '%s' for --%s (expected a finite number)",
                value.c_str(), flag);
        usage();
        std::exit(2);
    }
    return v;
}

/** Build/run manifest on stderr; artifacts stay free of such facts. */
void
printRunManifest()
{
    logLine(LogLevel::Info, "# espsim %s (%s build)", versionString(),
            buildTypeString());
}

std::optional<SimConfig>
lookupConfig(const std::string &name)
{
    const auto &reg = configRegistry();
    auto it = reg.find(name);
    if (it == reg.end()) {
        logLine(LogLevel::Error,
                "unknown config '%s' (try: espsim list)", name.c_str());
        return std::nullopt;
    }
    return it->second();
}

/**
 * The `--configs a,b,c` list (@p names without the flag), each looked
 * up in the registry; nullopt after logging the first unknown name.
 */
std::optional<std::vector<SimConfig>>
parseConfigList(const std::map<std::string, std::string> &flags,
                std::vector<std::string> names)
{
    if (auto it = flags.find("configs"); it != flags.end()) {
        names.clear();
        std::stringstream ss(it->second);
        std::string token;
        while (std::getline(ss, token, ','))
            names.push_back(token);
    }
    std::vector<SimConfig> configs;
    for (const std::string &name : names) {
        const auto cfg = lookupConfig(name);
        if (!cfg)
            return std::nullopt;
        configs.push_back(*cfg);
    }
    return configs;
}

/**
 * Path of an artifact flag such as `--json [path]`: "" without the
 * flag, @p def when it was given without a path.
 */
std::string
artifactPath(const std::map<std::string, std::string> &flags,
             const char *key, const char *def)
{
    auto it = flags.find(key);
    if (it == flags.end())
        return "";
    return it->second.empty() ? def : it->second;
}

/**
 * The counter time series of `--telemetry [path]` and
 * `--telemetry-period N`. A stream without a pace would only hold the
 * final snapshot, so it defaults to a cycle grid coarse enough to be
 * invisible in the serve overhead gate.
 */
ServeTelemetryOptions
telemetryOptions(const std::map<std::string, std::string> &flags)
{
    ServeTelemetryOptions t;
    t.jsonlPath = artifactPath(flags, "telemetry", "espsim_telemetry.jsonl");
    if (auto it = flags.find("telemetry-period"); it != flags.end())
        t.period.periodCycles =
            parseUnsignedOption(it->second, "telemetry-period");
    if (!t.jsonlPath.empty() && !t.period.enabled())
        t.period.periodCycles = 1'000'000;
    return t;
}

int
cmdList()
{
    std::puts("applications:");
    for (const AppProfile &p : AppProfile::webSuite())
        std::printf("  %-9s %s\n", p.name.c_str(),
                    p.description.c_str());
    std::puts("configs:");
    for (const auto &[name, make] : configRegistry()) {
        (void)make;
        std::printf("  %s\n", name.c_str());
    }
    return 0;
}

int
cmdRun(const std::map<std::string, std::string> &flags)
{
    const auto cfg_it = flags.find("config");
    const std::string cfg_name =
        cfg_it == flags.end() ? "ESP+NL" : cfg_it->second;
    const auto config = lookupConfig(cfg_name);
    if (!config)
        return 1;

    std::unique_ptr<InMemoryWorkload> workload;
    if (auto it = flags.find("trace"); it != flags.end()) {
        workload = loadWorkload(it->second);
        if (!workload)
            return 2;
    } else {
        const auto app_it = flags.find("app");
        const std::string app =
            app_it == flags.end() ? "amazon" : app_it->second;
        workload = SyntheticGenerator(AppProfile::byName(app)).generate();
    }

    printRunManifest();
    EventTimeline timeline;
    const auto tl_it = flags.find("timeline");
    const bool want_timeline = tl_it != flags.end();
    // Timelines stream to disk record-by-record so a long run never
    // buffers its whole trace; the bytes match buffered rendering.
    if (want_timeline && !timeline.streamTo(tl_it->second)) {
        logLine(LogLevel::Error, "cannot write timeline '%s'",
                tl_it->second.c_str());
        return 1;
    }

    RunInstrumentation inst;
    inst.timeline = want_timeline ? &timeline : nullptr;
    // Counter time series: the JSONL stream and, with a timeline, its
    // interval.* counter tracks.
    const ServeTelemetryOptions telemetry = telemetryOptions(flags);
    inst.telemetry = telemetry.period;
    TelemetryStream telemetry_stream;
    if (!telemetry.jsonlPath.empty()) {
        if (!telemetry_stream.openFile(telemetry.jsonlPath)) {
            logLine(LogLevel::Error, "cannot open telemetry stream '%s'",
                    telemetry.jsonlPath.c_str());
            return 1;
        }
        inst.telemetryStream = &telemetry_stream;
    }

    const SimResult r = Simulator(*config).run(*workload, inst);
    if (inst.telemetryStream != nullptr) {
        if (!telemetry_stream.close()) {
            logLine(LogLevel::Error, "telemetry stream: write failed");
            return 1;
        }
        logLine(LogLevel::Info, "# wrote %llu telemetry lines",
                static_cast<unsigned long long>(
                    telemetry_stream.linesWritten()));
    }
    std::printf("%s on %s: %llu cycles, IPC %.3f, L1I-MPKI %.2f, "
                "L1D-miss %.2f%%, BP-miss %.2f%%\n",
                r.configName.c_str(), r.workloadName.c_str(),
                static_cast<unsigned long long>(r.cycles), r.ipc,
                r.l1iMpki, 100.0 * r.l1dMissRate,
                100.0 * r.mispredictRate);
    if (flags.count("stats"))
        std::fputs(r.stats.dump("  ").c_str(), stdout);
    if (want_timeline) {
        if (!timeline.closeStream()) {
            logLine(LogLevel::Error, "cannot write timeline '%s'",
                    tl_it->second.c_str());
            return 1;
        }
        logLine(LogLevel::Info,
                "# wrote %s (%zu events, %zu stalls, %zu ESP "
                "windows) — load it in ui.perfetto.dev or "
                "chrome://tracing",
                tl_it->second.c_str(), timeline.numEvents(),
                timeline.numStalls(), timeline.numEspWindows());
    }
    return 0;
}

int
cmdSuite(const std::map<std::string, std::string> &flags)
{
    const auto picked_configs = parseConfigList(
        flags, {"base", "NL+S", "Runahead+NL", "ESP+NL"});
    if (!picked_configs)
        return 1;
    const std::vector<SimConfig> &configs = *picked_configs;

    std::vector<AppProfile> apps = AppProfile::webSuite();
    if (auto it = flags.find("apps"); it != flags.end()) {
        std::vector<AppProfile> picked;
        std::stringstream ss(it->second);
        std::string token;
        while (std::getline(ss, token, ',')) {
            bool found = false;
            for (const AppProfile &p : apps) {
                if (p.name == token) {
                    picked.push_back(p);
                    found = true;
                    break;
                }
            }
            if (!found) {
                logLine(LogLevel::Error,
                        "unknown app '%s' (try: espsim list)",
                        token.c_str());
                return 1;
            }
        }
        apps = std::move(picked);
    }

    SuiteRunner runner(apps);
    if (auto it = flags.find("jobs"); it != flags.end()) {
        const unsigned long jobs =
            parseUnsignedOption(it->second, "jobs");
        if (jobs == 0) {
            logLine(LogLevel::Error,
                    "invalid value '0' for --jobs (expected a positive "
                    "integer)");
            usage();
            return 2;
        }
        runner.setJobs(static_cast<unsigned>(jobs));
    }
    printRunManifest();
    runner.setStreaming(flags.count("streaming") != 0);
    const auto rows = runner.run(configs, true);
    TextTable table("suite results (cycles; % improvement over first "
                    "config)");
    std::vector<std::string> header{"app"};
    for (const auto &cfg : configs)
        header.push_back(cfg.name);
    table.header(header);
    for (const SuiteRow &row : rows) {
        std::vector<std::string> cells{row.app};
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (!row.ok(c) || (c != 0 && !row.ok(0))) {
                cells.push_back("ERROR!");
            } else if (c == 0) {
                cells.push_back(TextTable::num(
                    static_cast<double>(row.results[0].cycles), 0));
            } else {
                cells.push_back(
                    TextTable::num(row.results[c].improvementPctOver(
                                       row.results[0]),
                                   1) +
                    "%");
            }
        }
        table.row(cells);
    }
    std::fputs(table.render().c_str(), stdout);
    for (const SuiteRow &row : rows) {
        for (std::size_t c = 0;
             c < configs.size() && c < row.errors.size(); ++c) {
            if (!row.ok(c)) {
                logLine(LogLevel::Error, "error cell (%s, %s): %s",
                        row.app.c_str(), configs[c].name.c_str(),
                        row.errors[c].message.c_str());
            }
        }
    }

    ArtifactManifest manifest;
    manifest.source = "espsim suite";
    if (const std::string path =
            artifactPath(flags, "json", "espsim_suite.json");
        !path.empty()) {
        if (!writeTextFile(path, renderSuiteArtifactJson(
                                     manifest, configs, rows))) {
            logLine(LogLevel::Error, "cannot write '%s'",
                    path.c_str());
            return 1;
        }
        logLine(LogLevel::Info, "# wrote %s", path.c_str());
    }
    // Degraded sweeps exit non-zero so CI notices, even though every
    // healthy cell completed and the artifacts were still written.
    return suiteHasErrors(rows) ? 1 : 0;
}

/**
 * `espsim serve` — server-scale tail-latency runs. Streams a
 * request-serving profile (memcached-style KV or HTTP router) through
 * every requested config under one arrival discipline, prints a
 * tail-latency table, and writes the versioned espsim-latency-artifact
 * (see docs/WORKLOADS.md). Peak RSS is logged to stderr so the
 * serve_1m ctest can assert flat memory between 100k and 1M runs.
 */
int
cmdServe(const std::map<std::string, std::string> &flags)
{
    const auto prof_it = flags.find("profile");
    const std::string prof_name =
        prof_it == flags.end() ? "memcached" : prof_it->second;
    const ServerProfile profile = ServerProfile::byName(prof_name);

    const auto configs = parseConfigList(flags, {"base", "ESP+NL"});
    if (!configs)
        return 1;

    ServeOptions opts;
    if (auto it = flags.find("events"); it != flags.end())
        opts.events = static_cast<std::size_t>(
            parseUnsignedOption(it->second, "events"));
    if (auto it = flags.find("window"); it != flags.end()) {
        opts.window = static_cast<std::size_t>(
            parseUnsignedOption(it->second, "window"));
        // The workload would raise it, and the artifact misreport it.
        if (opts.window < StreamingWorkload::minWindow) {
            logLine(LogLevel::Error,
                    "invalid value '%s' for --window (expected at "
                    "least %zu)",
                    it->second.c_str(), StreamingWorkload::minWindow);
            usage();
            return 2;
        }
    }
    if (auto it = flags.find("reservoir"); it != flags.end())
        opts.reservoirCapacity = static_cast<std::size_t>(
            parseUnsignedOption(it->second, "reservoir"));
    if (auto it = flags.find("arrival"); it != flags.end()) {
        if (!parseArrivalKind(it->second, opts.arrival.kind)) {
            logLine(LogLevel::Error,
                    "invalid value '%s' for --arrival (expected "
                    "poisson|bursty|closed)",
                    it->second.c_str());
            usage();
            return 2;
        }
    }
    if (auto it = flags.find("gap"); it != flags.end())
        opts.arrival.meanGapCycles =
            parseDoubleOption(it->second, "gap");
    if (auto it = flags.find("concurrency"); it != flags.end()) {
        const unsigned long n =
            parseUnsignedOption(it->second, "concurrency");
        opts.arrival.concurrency =
            n >= 1 ? static_cast<unsigned>(n) : 1;
    }
    if (auto it = flags.find("think"); it != flags.end())
        opts.arrival.thinkCycles =
            parseUnsignedOption(it->second, "think");
    if (auto it = flags.find("seed"); it != flags.end())
        opts.arrival.seed = parseUnsignedOption(it->second, "seed");

    // --- span tracing: the span artifact at the recorder's default
    // settings, plus a flight-recorder dump of each config's first
    // anomaly next to it (X.json -> X.flight.<config>.trace.json).
    const std::string spans_path =
        artifactPath(flags, "trace-spans", "espsim_spans.json");
    opts.spans.enabled = !spans_path.empty();
    if (opts.spans.enabled) {
        const std::size_t stem = spans_path.ends_with(".json")
                                     ? spans_path.size() - 5
                                     : spans_path.size();
        opts.spans.dumpPrefix = spans_path.substr(0, stem) + ".flight";
    }
    if (auto it = flags.find("spike-event"); it != flags.end()) {
        opts.spans.spikeEvent =
            parseUnsignedOption(it->second, "spike-event");
        // A spike past the last event would inject nothing.
        const std::size_t events =
            opts.events > 0 ? opts.events : profile.app.numEvents;
        if (opts.spans.spikeEvent >= events) {
            logLine(LogLevel::Error,
                    "invalid value '%s' for --spike-event (expected an "
                    "event index below %zu)",
                    it->second.c_str(), events);
            usage();
            return 2;
        }
    }

    // --- counter time series: serve has no timeline, so a pace
    // without a stream snapshots nothing.
    opts.telemetry = telemetryOptions(flags);
    if (opts.telemetry.jsonlPath.empty() &&
        opts.telemetry.period.enabled())
        logLine(LogLevel::Warn,
                "--telemetry-period does nothing without --telemetry");

    printRunManifest();
    const auto wall_start = std::chrono::steady_clock::now();
    const ServeReport report = runServe(profile, *configs, opts);
    if (report.cells.empty())
        return 1; // the telemetry stream could not be opened
    const auto wall_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    // The serve_1m RSS gate parses this line from two separate
    // process runs.
    logLine(LogLevel::Info, "# serve peak RSS %.1f MiB", peakRssMb());
    // Parsed by the serve_trace_overhead gate (recorder-on vs -off).
    logLine(LogLevel::Info, "# serve wall %lld ms",
            static_cast<long long>(wall_ms));
    if (!opts.telemetry.jsonlPath.empty()) {
        logLine(LogLevel::Info, "# telemetry: %llu snapshots",
                static_cast<unsigned long long>(
                    report.telemetrySnapshots));
    }

    TextTable table("serve tail latency (cycles, '" + report.profile +
                    "', " + arrivalKindName(report.arrival.kind) +
                    " arrivals)");
    table.header({"config", "cycles", "idle", "p50", "p95", "p99",
                  "p99.9", "max"});
    for (const ServeCell &cell : report.cells) {
        table.row({cell.config,
                   TextTable::num(static_cast<double>(cell.cycles), 0),
                   TextTable::num(static_cast<double>(cell.idleCycles),
                                  0),
                   TextTable::num(cell.total.p50, 0),
                   TextTable::num(cell.total.p95, 0),
                   TextTable::num(cell.total.p99, 0),
                   TextTable::num(cell.total.p999, 0),
                   TextTable::num(cell.total.max, 0)});
    }
    std::fputs(table.render().c_str(), stdout);

    ArtifactManifest manifest;
    manifest.source = "espsim serve";
    if (const std::string path =
            artifactPath(flags, "json", "espsim_latency.json");
        !path.empty()) {
        if (!writeTextFile(path, renderLatencyArtifactJson(manifest,
                                                           report))) {
            logLine(LogLevel::Error, "cannot write '%s'",
                    path.c_str());
            return 1;
        }
        logLine(LogLevel::Info, "# wrote %s", path.c_str());
    }
    if (opts.spans.enabled) {
        if (!writeTextFile(spans_path,
                           renderSpanArtifactJson(manifest, report))) {
            logLine(LogLevel::Error, "cannot write '%s'",
                    spans_path.c_str());
            return 1;
        }
        logLine(LogLevel::Info, "# wrote %s", spans_path.c_str());
    }
    // A stream that failed mid-run still leaves the artifacts, but
    // the run exits non-zero so scripts notice the broken series.
    return report.telemetryFailed ? 1 : 0;
}

int
cmdGen(const std::map<std::string, std::string> &flags)
{
    const auto app_it = flags.find("app");
    const auto out_it = flags.find("out");
    if (app_it == flags.end() || out_it == flags.end())
        return usage();
    AppProfile profile = AppProfile::byName(app_it->second);
    if (auto it = flags.find("events"); it != flags.end())
        profile.numEvents = parseUnsignedOption(it->second, "events");
    const auto workload = SyntheticGenerator(profile).generate();
    if (!saveWorkload(out_it->second, *workload)) {
        logLine(LogLevel::Error, "write failed");
        return 1;
    }
    std::printf("wrote %zu events (%llu instructions) to %s\n",
                workload->numEvents(),
                static_cast<unsigned long long>(
                    workload->totalInstructions()),
                out_it->second.c_str());
    return 0;
}

/**
 * `espsim diff` parses argv itself: its two artifact paths are
 * positional, which the shared parseFlags rejects. It takes no option
 * but the global --log-level.
 */
int
cmdDiff(int argc, char **argv)
{
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            paths.push_back(arg);
        } else if (arg == "--log-level") {
            ++i; // consumed by main()'s pre-scan
        } else {
            logLine(LogLevel::Error, "unknown option '%s' for diff",
                    arg.c_str());
            usage();
            return 2;
        }
    }
    if (paths.size() != 2)
        return usage();

    const DiffResult res = diffSuiteArtifactFiles(paths[0], paths[1]);
    const std::string report = renderDiffReport(res);
    std::fputs(report.c_str(),
               res.exitCode() == 2 ? stderr : stdout);
    return res.exitCode();
}

int
cmdFuzz(const std::map<std::string, std::string> &flags)
{
    FuzzOptions opts;
    if (auto it = flags.find("runs"); it != flags.end())
        opts.runs = static_cast<std::size_t>(
            parseUnsignedOption(it->second, "runs"));
    if (auto it = flags.find("seed"); it != flags.end())
        opts.seed = parseUnsignedOption(it->second, "seed");
    opts.verbose = flags.count("verbose") != 0;
    printRunManifest();
    return runFuzz(opts);
}

/** A flag-parsed subcommand and the options it accepts. */
struct Command
{
    int (*run)(const std::map<std::string, std::string> &flags);
    std::vector<std::string> options;  //!< `--key value`
    std::vector<std::string> switches; //!< bare `--key`, no value
};

/** Every flag-parsed subcommand (`diff` parses argv itself). */
const std::map<std::string, Command> &
commands()
{
    static const std::map<std::string, Command> table{
        {"list", {[](const std::map<std::string, std::string> &) {
                      return cmdList();
                  },
                  {},
                  {}}},
        {"run",
         {cmdRun,
          {"app", "config", "telemetry", "telemetry-period", "timeline",
           "trace"},
          {"stats"}}},
        {"suite",
         {cmdSuite,
          {"apps", "configs", "jobs", "json"},
          {"streaming"}}},
        {"serve",
         {cmdServe,
          {"arrival", "concurrency", "configs", "events", "gap", "json",
           "profile", "reservoir", "seed", "spike-event", "telemetry",
           "telemetry-period", "think", "trace-spans", "window"},
          {}}},
        {"gen", {cmdGen, {"app", "events", "out"}, {}}},
        {"fuzz", {cmdFuzz, {"runs", "seed"}, {"verbose"}}},
    };
    return table;
}

/**
 * The flags after subcommand @p cmd: `--key value` for its options
 * (and the global --log-level), bare `--key` for its switches. An
 * option with no following word, or one starting with '-', reads as
 * "": `--json` alone picks the default path, and a numeric option
 * without its number is rejected as malformed. An option the command
 * does not accept, or a word no option takes, prints the usage text
 * and gives nullopt (exit 2), so neither is silently ignored.
 */
std::optional<std::map<std::string, std::string>>
parseFlags(int argc, char **argv, const std::string &cmd,
           const Command &command)
{
    auto accepts = [](const std::vector<std::string> &keys,
                      const std::string &key) {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    };
    std::map<std::string, std::string> flags;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            logLine(LogLevel::Error, "unexpected argument '%s' for %s",
                    arg.c_str(), cmd.c_str());
            usage();
            return std::nullopt;
        }
        const std::string key = arg.substr(2);
        if (accepts(command.switches, key)) {
            flags[key] = "1";
        } else if (key == "log-level" || accepts(command.options, key)) {
            flags[key] =
                i + 1 < argc && argv[i + 1][0] != '-' ? argv[++i] : "";
        } else {
            logLine(LogLevel::Error, "unknown option '--%s' for %s",
                    key.c_str(), cmd.c_str());
            usage();
            return std::nullopt;
        }
    }
    return flags;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    // --log-level applies to every subcommand, so resolve it before
    // dispatch; the per-command flag parsers see it as a no-op pair.
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--log-level") == 0) {
            LogLevel level;
            if (!parseLogLevel(argv[i + 1], level)) {
                logLine(LogLevel::Error,
                        "invalid value '%s' for --log-level "
                        "(expected error|warn|info|debug)",
                        argv[i + 1]);
                usage();
                return 2;
            }
            setLogLevel(level);
        }
    }
    const std::string cmd = argv[1];
    if (cmd == "--version" || cmd == "version") {
        std::printf("espsim %s (%s build)\n", versionString(),
                    buildTypeString());
        return 0;
    }
    if (cmd == "diff")
        return cmdDiff(argc, argv);
    const auto cmd_it = commands().find(cmd);
    if (cmd_it == commands().end())
        return usage();
    const auto flags = parseFlags(argc, argv, cmd, cmd_it->second);
    if (!flags)
        return 2;
    return cmd_it->second.run(*flags);
}
