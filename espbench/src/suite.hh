/**
 * @file
 * The benchmark's workloads and the two ways it simulates one cell:
 * through the library's facade (Simulator::run, runServe) for the
 * measured phase, and through its own assembly of the same components
 * with timing decorators for the traced pass.
 */

#ifndef ESPBENCH_SUITE_HH
#define ESPBENCH_SUITE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hh"
#include "server/serve.hh"
#include "sim/simulator.hh"
#include "trace/workload.hh"
#include "workload/app_profile.hh"

namespace espbench
{

/** Saturated looper over in-memory traces, or paced request serving. */
enum class Kind
{
    Fig09,
    Serve,
};

/** One named benchmark workload, fully derived from (name, seed). */
struct WorkloadSpec
{
    std::string name;
    Kind kind = Kind::Fig09;
    std::vector<espsim::SimConfig> configs;

    // Fig09: the web apps, each replayed under every config.
    std::vector<espsim::AppProfile> apps;

    // Serve: one request profile, arrival process and observers.
    espsim::ServerProfile server;
    espsim::ServeOptions serve;
    /** Span recorder + telemetry JSONL armed on every cell. */
    bool observers = false;
    espsim::Cycle telemetryPeriodCycles = 0;
    /** Telemetry JSONL path (observers only). */
    std::string telemetryPath;

    /** Set-up repetitions per run (setup_s is their median). */
    int setupReps = 3;
};

/**
 * Build workload @p name. @p seed offsets every seed the workload
 * uses (app profiles, server profile, arrivals); seed 0 is the
 * library's canonical inputs. @p scale shrinks run lengths (smoke
 * tests). Returns false for an unknown name.
 */
bool makeSpec(const std::string &name, std::uint64_t seed, double scale,
              const std::string &outDir, WorkloadSpec &spec);

/** Deterministic outputs of one simulated cell. */
struct CellResult
{
    std::string app;
    /** Stat snapshot and core counters (the traced assembly fills the
     *  fields its own registry covers). */
    espsim::SimResult sim;
    /** Serve cells: the fields runServe reports. */
    espsim::ServeCell serve;
};

/** In-memory traces of the Fig09 apps (shared by every config). */
using AppTraces = std::vector<std::shared_ptr<const espsim::Workload>>;

/** Generate every app's traces (the Fig09 set-up). */
AppTraces generateApps(const WorkloadSpec &spec);

/**
 * Build every cell's machine as a run does before its first simulated
 * instruction — request source and pacer (serve), caches with the
 * pre-warmed L2, predictor, engine, core, observers — and discard it.
 * Part of the measured set-up; returns the number of cells built.
 */
std::size_t assembleCells(const WorkloadSpec &spec, const AppTraces &apps);

/** One simulated request's host cost. */
struct RequestCost
{
    float hostUs = 0;      //!< host µs from dispatch to retire
    std::uint32_t ops = 0; //!< simulated instructions of the event
};

/** Host-side observations of one facade cell. */
struct FacadeProbe
{
    std::vector<RequestCost> *requests = nullptr; //!< appended per event
    espsim::HostCellProfile *profile = nullptr;
};

/** Simulator::run on one Fig09 cell, paced by a BenchPacer. */
CellResult runFig09Cell(const espsim::SimConfig &config,
                        const espsim::Workload &workload,
                        const FacadeProbe &probe);

/**
 * One serve cell through the public pieces runServe is made of:
 * StreamingWorkload over a ServerTraceSource, a ServePacer wrapped in
 * a BenchPacer, and Simulator::run (plus the span recorder and a
 * telemetry stream when @p observers).
 */
CellResult runServeCell(const WorkloadSpec &spec,
                        const espsim::SimConfig &config, bool observers,
                        const FacadeProbe &probe);

/** Counters gathered while tracing (beyond the span recorder). */
struct TraceCounters
{
    std::uint64_t opsGenerated = 0;
    std::uint64_t streamGenerations = 0;
    std::uint64_t streamRecycled = 0;
    std::uint64_t requests = 0;
    std::uint64_t spansCollected = 0;
    std::uint64_t telemetrySnapshots = 0;
};

/** Regenerate the Fig09 traces with every makeEvent call timed. */
AppTraces generateAppsTraced(const WorkloadSpec &spec, SpanRecorder &rec,
                             TraceCounters &counters);

/**
 * The traced assembly: MemoryHierarchy + PentiumMPredictor +
 * EspController / RunaheadEngine + OoOCore wired the way
 * Simulator::run wires them, with every virtual boundary decorated.
 * Fig09 cells run unpaced (the saturated looper); serve cells rebuild
 * the runServe pieces around the same core.
 */
CellResult runTracedCell(const WorkloadSpec &spec,
                         const espsim::SimConfig &config,
                         const espsim::Workload *fig09Workload,
                         SpanRecorder &rec, TraceCounters &counters,
                         unsigned beforeOpSample);

/** Host cost of the cache and predictor walks, replayed in isolation. */
struct ReplayCost
{
    std::uint64_t accesses = 0;
    double accessNs = 0;
    std::uint64_t branches = 0;
    double branchNs = 0;
};

/**
 * Replay each trace's instruction-block and data address streams
 * through a fresh MemoryHierarchy, and its branches through a fresh
 * PentiumMPredictor, under @p config.
 */
ReplayCost replayWalks(const espsim::SimConfig &config,
                       const std::vector<const espsim::EventTrace *> &events,
                       const std::vector<espsim::AddrRange> &warmSet);

/** First @p limit request traces of the serve profile. */
std::vector<espsim::EventTrace> serveSample(const WorkloadSpec &spec,
                                            std::size_t limit);

} // namespace espbench

#endif // ESPBENCH_SUITE_HH
