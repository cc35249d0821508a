#include "suite.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cpu/runahead.hh"
#include "esp/controller.hh"
#include "report/artifact.hh"
#include "report/stat_registry.hh"
#include "report/telemetry.hh"
#include "server/arrival.hh"
#include "server/latency.hh"
#include "workload/generator.hh"
#include "workload/streaming.hh"

namespace espbench
{

using namespace espsim;

namespace
{

/** The seven Fig. 9 bars, base first (the paper's column order). */
std::vector<SimConfig>
fig09Configs()
{
    return {
        SimConfig::baseline(),
        SimConfig::nextLine(),
        SimConfig::nextLineStride(),
        SimConfig::runaheadExec(false),
        SimConfig::runaheadExec(true),
        SimConfig::espFull(false),
        SimConfig::espFull(true),
    };
}

std::size_t
scaled(std::size_t n, double scale, std::size_t floor)
{
    const auto v = static_cast<std::size_t>(
        std::llround(static_cast<double>(n) * scale));
    return std::max(v, floor);
}

/** runServe's span-recorder settings (ServeSpanOptions defaults). */
SpanCollectorConfig
spanConfig()
{
    const ServeSpanOptions defaults;
    SpanCollectorConfig cfg;
    cfg.ringCapacity = defaults.flightRecorder;
    cfg.worstK = defaults.worstK;
    cfg.anomalyThreshold = defaults.anomalyThreshold;
    cfg.anomalyMinSamples = defaults.anomalyMinSamples;
    return cfg;
}

/** The ServeCell fields runServe fills from one config's run. */
ServeCell
serveCellFrom(const std::string &config, Cycle cycles, double ipc,
              const CoreStats &core, const ServePacer &pacer)
{
    ServeCell cell;
    cell.config = config;
    cell.cycles = cycles;
    cell.ipc = ipc;
    cell.idleCycles =
        core.bucketCycles[static_cast<std::size_t>(CycleBucket::Idle)];
    cell.events = pacer.events();
    cell.queue = summarizeLatency(pacer.queueLatency());
    cell.service = summarizeLatency(pacer.serviceLatency());
    cell.total = summarizeLatency(pacer.totalLatency());
    cell.histogram.assign(pacer.histogram().begin(),
                          pacer.histogram().end());
    for (std::size_t h = 0; h < pacer.handlers().size(); ++h) {
        const HandlerLatency &hl = pacer.handlers()[h];
        if (hl.events == 0)
            continue;
        HandlerLatencyRow row;
        row.handler = static_cast<std::uint32_t>(h);
        row.events = hl.events;
        row.queue = summarizeLatency(hl.queue);
        row.service = summarizeLatency(hl.service);
        cell.handlers.push_back(row);
    }
    return cell;
}

void
warmL2(MemoryHierarchy &mem, const std::vector<AddrRange> &ranges)
{
    for (const AddrRange &range : ranges) {
        for (Addr a = blockAlign(range.first); a < range.second;
             a += blockBytes)
            mem.l2().insert(a);
    }
}

/** Append one cell's per-event host times and sizes. */
void
recordHostTimes(const FacadeProbe &probe, const std::vector<float> &us,
                const std::vector<std::uint32_t> &ops)
{
    if (probe.requests == nullptr)
        return;
    for (std::size_t i = 0; i < us.size(); ++i)
        probe.requests->push_back(RequestCost{us[i], ops[i]});
}

CellResult
fromSim(std::string app, SimResult sim)
{
    CellResult out;
    out.app = std::move(app);
    out.sim = std::move(sim);
    return out;
}

std::unique_ptr<ServePacer>
makeServePacer(const WorkloadSpec &spec)
{
    return std::make_unique<ServePacer>(
        makeArrivalProcess(spec.serve.arrival),
        spec.serve.reservoirCapacity, spec.serve.arrival.seed,
        spec.server.app.numHandlerTypes);
}

} // namespace

bool
makeSpec(const std::string &name, std::uint64_t seed, double scale,
         const std::string &outDir, WorkloadSpec &spec)
{
    spec = WorkloadSpec{};
    spec.name = name;
    if (name == "web-fig09") {
        spec.kind = Kind::Fig09;
        spec.configs = fig09Configs();
        spec.apps = AppProfile::webSuite();
        for (AppProfile &app : spec.apps) {
            app.seed += seed;
            app.numEvents = scaled(app.numEvents, scale, 4);
        }
        spec.setupReps = 3;
        return true;
    }

    double meanGap = 0;
    std::size_t events = 0;
    if (name == "serve-memcached") {
        spec.server = ServerProfile::memcached();
        meanGap = 3000.0;
        events = 20000;
    } else if (name == "serve-http-observed") {
        spec.server = ServerProfile::httpRouter();
        // At the default 3000-cycle gap the base config saturates and
        // its p99 grows with run length; at 4500 it runs at ~0.73
        // utilisation with a run-length-independent tail.
        meanGap = 4500.0;
        events = 4000;
        spec.observers = true;
        // A snapshot every ~4 requests.
        spec.telemetryPeriodCycles = static_cast<Cycle>(4 * meanGap);
        spec.telemetryPath = outDir + "/" + name + ".telemetry.jsonl";
    } else {
        return false;
    }
    spec.kind = Kind::Serve;
    spec.configs = {SimConfig::baseline(), SimConfig::espFull(true)};
    spec.server.app.seed += seed;
    spec.server.app.numEvents = scaled(events, scale, 64);
    spec.serve.events = spec.server.app.numEvents;
    spec.serve.window = 16;
    // Keep every latency sample: exact quantiles, so the simulated
    // p99 carries no reservoir sampling error.
    spec.serve.reservoirCapacity = 0;
    spec.serve.arrival.kind = ArrivalKind::Poisson;
    spec.serve.arrival.meanGapCycles = meanGap;
    spec.serve.arrival.seed += seed;
    spec.setupReps = 9;
    return true;
}

AppTraces
generateApps(const WorkloadSpec &spec)
{
    AppTraces traces;
    for (const AppProfile &app : spec.apps)
        traces.push_back(SyntheticGenerator(app).generate());
    return traces;
}

CellResult
runFig09Cell(const SimConfig &config, const Workload &workload,
             const FacadeProbe &probe)
{
    std::vector<float> us;
    us.reserve(workload.numEvents());
    BenchPacer pacer(nullptr, &us, nullptr);
    RunInstrumentation inst;
    inst.pacer = &pacer;
    inst.hostProfile = probe.profile;
    CellResult out =
        fromSim(workload.name(), Simulator(config).run(workload, inst));
    std::vector<std::uint32_t> ops;
    for (std::size_t i = 0; i < workload.numEvents(); ++i)
        ops.push_back(
            static_cast<std::uint32_t>(workload.event(i).ops.size()));
    recordHostTimes(probe, us, ops);
    return out;
}

CellResult
runServeCell(const WorkloadSpec &spec, const SimConfig &config,
             bool observers, const FacadeProbe &probe)
{
    std::vector<std::uint32_t> ops;
    std::uint64_t opsGenerated = 0;
    StreamingWorkload workload(
        std::make_unique<TimedSource>(
            std::make_unique<ServerTraceSource>(spec.server), nullptr,
            opsGenerated, &ops),
        spec.serve.window);
    const std::unique_ptr<ServePacer> servePacer = makeServePacer(spec);
    std::vector<float> us;
    us.reserve(workload.numEvents());
    BenchPacer pacer(servePacer.get(), &us, nullptr);

    RunInstrumentation inst;
    inst.pacer = &pacer;
    inst.hostProfile = probe.profile;
    std::unique_ptr<SpanCollector> spans;
    TelemetryStream stream;
    if (observers) {
        spans = std::make_unique<SpanCollector>(spanConfig());
        inst.spans = spans.get();
        if (stream.openFile(spec.telemetryPath))
            inst.telemetryStream = &stream;
        inst.telemetry.periodCycles = spec.telemetryPeriodCycles;
        inst.telemetryConfigHash = configsHash(spec.configs);
    }
    CellResult out = fromSim(workload.name(),
                             Simulator(config).run(workload, inst));
    out.serve = serveCellFrom(config.name, out.sim.cycles, out.sim.ipc,
                              out.sim.core, *servePacer);
    recordHostTimes(probe, us, ops);
    return out;
}

AppTraces
generateAppsTraced(const WorkloadSpec &spec, SpanRecorder &rec,
                   TraceCounters &counters)
{
    AppTraces traces;
    for (const AppProfile &app : spec.apps) {
        rec.beginCell("gen/" + app.name);
        const TimedSource source(std::make_unique<GeneratorSource>(app),
                                 &rec, counters.opsGenerated, nullptr);
        std::vector<EventTrace> events;
        events.reserve(source.numEvents());
        for (std::uint64_t id = 0; id < source.numEvents(); ++id)
            events.push_back(source.makeEvent(id));
        auto workload = std::make_shared<InMemoryWorkload>(
            app.name, std::move(events));
        workload->setWarmSet(source.warmSet());
        traces.push_back(std::move(workload));
        rec.endCell();
    }
    return traces;
}

namespace
{

/** Everything one assembled cell owns, in construction order. */
struct Assembly
{
    std::unique_ptr<StreamingWorkload> stream;
    std::unique_ptr<ServePacer> servePacer;
    std::unique_ptr<BenchPacer> pacer;
    std::unique_ptr<TimedWorkload> timedWorkload;
    const Workload *workload = nullptr;
    std::unique_ptr<MemoryHierarchy> mem;
    std::unique_ptr<PentiumMPredictor> bp;
    std::unique_ptr<EspController> esp;
    std::unique_ptr<RunaheadEngine> runahead;
    CoreHooks noHooks;
    std::unique_ptr<TimedHooks> timedHooks;
    std::unique_ptr<OoOCore> core;
    StatRegistry reg;
    std::unique_ptr<SpanCollector> spans;
    std::unique_ptr<TimedSpanSink> sink;
    TelemetryStream telemetryStream;
    std::unique_ptr<TelemetrySnapshotter> telemetry;
};

/**
 * Wire one cell the way Simulator::run (and, for serve cells,
 * runServe) does, up to the first simulated instruction. With a
 * recorder, every virtual boundary the core calls is decorated.
 */
std::unique_ptr<Assembly>
assemble(const WorkloadSpec &spec, const SimConfig &config,
         const Workload *fig09Workload, SpanRecorder *rec,
         TraceCounters *counters, unsigned beforeOpSample)
{
    auto a = std::make_unique<Assembly>();
    a->workload = fig09Workload;
    if (spec.kind == Kind::Serve) {
        std::unique_ptr<const EventSource> source =
            std::make_unique<ServerTraceSource>(spec.server);
        if (rec) {
            source = std::make_unique<TimedSource>(
                std::move(source), rec, counters->opsGenerated, nullptr);
        }
        a->stream = std::make_unique<StreamingWorkload>(
            std::move(source), spec.serve.window);
        a->workload = a->stream.get();
        a->servePacer = makeServePacer(spec);
        a->pacer = std::make_unique<BenchPacer>(a->servePacer.get(),
                                                nullptr, rec);
    }
    if (rec) {
        a->timedWorkload = std::make_unique<TimedWorkload>(*a->workload,
                                                           *rec);
        a->workload = a->timedWorkload.get();
    }
    a->mem = std::make_unique<MemoryHierarchy>(config.memory);
    a->bp = std::make_unique<PentiumMPredictor>(config.branch);
    warmL2(*a->mem, a->workload->warmSet());

    CoreHooks *hooks = &a->noHooks;
    switch (config.engine) {
      case SpeculationEngine::Esp:
        a->esp = std::make_unique<EspController>(
            config.esp, *a->mem, *a->bp, *a->workload, config.core.width);
        hooks = a->esp.get();
        break;
      case SpeculationEngine::Runahead:
        a->runahead = std::make_unique<RunaheadEngine>(
            config.runahead, *a->mem, *a->bp, *a->workload,
            config.core.width);
        hooks = a->runahead.get();
        break;
      case SpeculationEngine::None:
        break;
    }
    if (rec && hooks != &a->noHooks) {
        a->timedHooks =
            std::make_unique<TimedHooks>(*hooks, *rec, beforeOpSample);
        hooks = a->timedHooks.get();
    }
    a->core = std::make_unique<OoOCore>(config.core, *a->mem, *a->bp,
                                        config.prefetch, *hooks);
    a->core->registerStats(a->reg, "core.");
    a->mem->registerStats(a->reg, "mem.");
    a->bp->registerStats(a->reg, "bp.");
    if (a->esp)
        a->esp->registerStats(a->reg, "esp.");
    if (a->runahead)
        a->runahead->registerStats(a->reg, "runahead.");
    if (a->pacer)
        a->core->setPacer(a->pacer.get());
    if (spec.observers) {
        a->spans = std::make_unique<SpanCollector>(spanConfig());
        SpanSink *sink = a->spans.get();
        if (rec) {
            a->sink = std::make_unique<TimedSpanSink>(*a->spans, *rec);
            sink = a->sink.get();
        }
        a->core->setSpanSink(sink);
        TelemetryConfig tcfg;
        tcfg.periodCycles = spec.telemetryPeriodCycles;
        TelemetryRunInfo info;
        info.config = config.name;
        info.workload = a->workload->name();
        info.configHash = configsHash(spec.configs);
        const bool open = a->telemetryStream.openFile(spec.telemetryPath);
        a->telemetry = std::make_unique<TelemetrySnapshotter>(
            a->reg, tcfg, std::move(info),
            open ? &a->telemetryStream : nullptr, nullptr);
        a->core->setTelemetry(a->telemetry.get());
    }
    return a;
}

} // namespace

std::size_t
assembleCells(const WorkloadSpec &spec, const AppTraces &apps)
{
    std::size_t cells = 0;
    auto build = [&](const Workload *workload) {
        for (const SimConfig &config : spec.configs) {
            assemble(spec, config, workload, nullptr, nullptr, 1);
            ++cells;
        }
    };
    if (spec.kind == Kind::Serve)
        build(nullptr);
    for (const auto &workload : apps)
        build(workload.get());
    return cells;
}

CellResult
runTracedCell(const WorkloadSpec &spec, const SimConfig &config,
              const Workload *fig09Workload, SpanRecorder &rec,
              TraceCounters &counters, unsigned beforeOpSample)
{
    const bool serve = spec.kind == Kind::Serve;
    const std::string app =
        serve ? spec.server.name : fig09Workload->name();
    rec.beginCell(app + "/" + config.name);
    std::unique_ptr<Assembly> a;
    CellResult out;
    out.app = app;

    {
        SpanScope span(&rec, Boundary::CellSetup);
        a = assemble(spec, config, fig09Workload, &rec, &counters,
                     beforeOpSample);
    }

    {
        SpanScope span(&rec, Boundary::CoreRun);
        a->core->run(*a->workload);
    }

    {
        SpanScope span(&rec, Boundary::CellFinalize);
        a->mem->finalizePrefetchLifecycles();
        const CoreStats &cs = a->core->stats();
        if (a->telemetry) {
            a->telemetry->finalize(cs.cycles, cs.events);
            counters.telemetrySnapshots += a->telemetry->snapshots();
        }
        out.sim.configName = config.name;
        out.sim.workloadName = a->workload->name();
        out.sim.core = cs;
        out.sim.cycles = cs.cycles;
        out.sim.ipc = cs.ipc();
        out.sim.stats = a->reg.snapshot();
        if (serve) {
            out.serve = serveCellFrom(config.name, cs.cycles, cs.ipc(), cs,
                                      *a->servePacer);
            counters.streamGenerations += a->stream->generations();
            counters.streamRecycled += a->stream->recycled();
            counters.requests += a->pacer->events();
        }
        if (a->spans)
            counters.spansCollected += a->spans->spansRecorded();
        a.reset();
    }
    rec.endCell();
    return out;
}

ReplayCost
replayWalks(const SimConfig &config,
            const std::vector<const EventTrace *> &events,
            const std::vector<AddrRange> &warmSet)
{
    ReplayCost cost;
    {
        MemoryHierarchy mem(config.memory);
        warmL2(mem, warmSet);
        Cycle now = 0;
        Addr lastBlock = ~Addr{0};
        const auto t0 = std::chrono::steady_clock::now();
        for (const EventTrace *ev : events) {
            const OpSequence &ops = ev->ops;
            for (std::size_t i = 0; i < ops.size(); ++i) {
                const MicroOp op = ops[i];
                const Addr block = blockAlign(op.pc);
                if (block != lastBlock) {
                    mem.accessInstr(op.pc, now);
                    lastBlock = block;
                    ++cost.accesses;
                }
                if (op.isMemoryOp()) {
                    mem.accessData(op.memAddr, op.isStore(), now);
                    ++cost.accesses;
                }
                ++now;
            }
        }
        cost.accessNs = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    }
    {
        PentiumMPredictor bp(config.branch);
        const auto t0 = std::chrono::steady_clock::now();
        for (const EventTrace *ev : events) {
            const OpSequence &ops = ev->ops;
            for (std::size_t i = 0; i < ops.size(); ++i) {
                const MicroOp op = ops[i];
                if (op.isBranchOp()) {
                    bp.executeBranch(op);
                    ++cost.branches;
                }
            }
        }
        cost.branchNs = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    }
    return cost;
}

std::vector<EventTrace>
serveSample(const WorkloadSpec &spec, std::size_t limit)
{
    const ServerTraceSource source(spec.server);
    std::vector<EventTrace> events;
    const std::size_t n = std::min(limit, source.numEvents());
    events.reserve(n);
    for (std::uint64_t id = 0; id < n; ++id)
        events.push_back(source.makeEvent(id));
    return events;
}

} // namespace espbench
