#include "sim/simulator.hh"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cpu/pacer.hh"
#include "cpu/runahead.hh"
#include "esp/controller.hh"
#include "report/artifact.hh"
#include "report/stat_registry.hh"

namespace espsim
{

Simulator::Simulator(SimConfig config) : config_(std::move(config))
{
}

SimResult
Simulator::run(const Workload &workload) const
{
    return run(workload, RunInstrumentation{});
}

SimResult
Simulator::run(const Workload &workload,
               const RunInstrumentation &inst) const
{
    EventTimeline *timeline = inst.timeline;
    HostCellProfile *profile = inst.hostProfile;

    MemoryHierarchy mem(config_.memory);
    PentiumMPredictor bp(config_.branch);

    {
        // Pre-warm the LLC with the application's standing image (the
        // paper measures a browser session already in flight).
        WallClockSpan warmup_span(profile ? &profile->warmupMs
                                          : nullptr);
        for (const AddrRange &range : workload.warmSet()) {
            for (Addr a = blockAlign(range.first); a < range.second;
                 a += blockBytes) {
                mem.l2().insert(a);
            }
        }
    }

    std::unique_ptr<EspController> esp;
    std::unique_ptr<RunaheadEngine> runahead;
    CoreHooks no_hooks;
    CoreHooks *hooks = &no_hooks;

    switch (config_.engine) {
      case SpeculationEngine::Esp:
        esp = std::make_unique<EspController>(config_.esp, mem, bp,
                                              workload,
                                              config_.core.width);
        hooks = esp.get();
        break;
      case SpeculationEngine::Runahead:
        runahead = std::make_unique<RunaheadEngine>(
            config_.runahead, mem, bp, workload, config_.core.width);
        hooks = runahead.get();
        break;
      case SpeculationEngine::None:
        break;
    }

    OoOCore core(config_.core, mem, bp, config_.prefetch, *hooks);

    // The canonical stats surface: every component registers its
    // counters once; one snapshot at the end of the run feeds the
    // text dump, the JSON artifacts, and the SimResult views.
    StatRegistry reg;
    core.registerStats(reg, "core.");
    mem.registerStats(reg, "mem.");
    bp.registerStats(reg, "bp.");
    if (esp)
        esp->registerStats(reg, "esp.");
    if (runahead)
        runahead->registerStats(reg, "runahead.");

    if (timeline) {
        timeline->setRunInfo(config_.name, workload.name());
        core.setTimeline(timeline);
        if (esp)
            esp->setTimeline(timeline);
    }

    if (inst.pacer)
        core.setPacer(inst.pacer);
    core.addObserver(inst.spans);

    // The counter snapshotter is constructed after every pre-run
    // counter is registered: the name set and the baseline freeze
    // now, so the post-run handler/derived registrations never enter
    // the stream or the timeline's counter tracks.
    std::unique_ptr<TelemetrySnapshotter> telemetry;
    if (inst.telemetry.enabled() || inst.telemetryStream != nullptr) {
        TelemetryRunInfo tinfo;
        tinfo.config = config_.name;
        tinfo.workload = workload.name();
        tinfo.configHash = inst.telemetryConfigHash.empty()
                               ? configsHash({config_})
                               : inst.telemetryConfigHash;
        telemetry = std::make_unique<TelemetrySnapshotter>(
            reg, inst.telemetry, std::move(tinfo),
            inst.telemetryStream, timeline);
        core.addObserver(telemetry.get());
    }

    {
        WallClockSpan sim_span(profile ? &profile->simMs : nullptr);
        core.run(workload);
        // Score still-unused prefetched blocks (useless) before
        // snapshot.
        mem.finalizePrefetchLifecycles();
    }

    if (telemetry) {
        // Final snapshot after the lifecycle finalize so it equals
        // the end-of-run registry counter values exactly.
        telemetry->finalize(core.stats().cycles, core.stats().events);
    }

    WallClockSpan report_span(profile ? &profile->reportMs : nullptr);

    // Per-event-type cycle attribution: register the top handlers by
    // cycles spent (bounded so artifacts stay small), aggregating the
    // tail under "other". Values are copied — the map outlives only
    // this function via these captures.
    {
        const auto &acct = core.stats().handlerAccounting;
        std::vector<std::pair<std::uint32_t, Cycle>> ranked;
        ranked.reserve(acct.size());
        for (const auto &[handler, ha] : acct)
            ranked.emplace_back(handler, ha.cycles());
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      return a.second != b.second
                          ? a.second > b.second
                          : a.first < b.first;
                  });
        constexpr std::size_t maxHandlersReported = 8;
        CycleBucketArray other{};
        std::uint64_t other_events = 0;
        Cycle other_cycles = 0;
        for (std::size_t r = 0; r < ranked.size(); ++r) {
            const HandlerAccounting &ha = acct.at(ranked[r].first);
            if (r < maxHandlersReported) {
                const std::string base = "core.handler." +
                    std::to_string(ranked[r].first) + ".";
                reg.registerDerived(base + "events",
                                    [v = ha.events] {
                                        return static_cast<double>(v);
                                    });
                reg.registerDerived(base + "cycles",
                                    [v = ha.cycles()] {
                                        return static_cast<double>(v);
                                    });
                for (unsigned b = 0; b < numCycleBuckets; ++b) {
                    reg.registerDerived(
                        base + "cycle_bucket." +
                            cycleBucketName(
                                static_cast<CycleBucket>(b)),
                        [v = ha.buckets[b]] {
                            return static_cast<double>(v);
                        });
                }
            } else {
                other_events += ha.events;
                other_cycles += ha.cycles();
                for (unsigned b = 0; b < numCycleBuckets; ++b)
                    other[b] += ha.buckets[b];
            }
        }
        if (ranked.size() > maxHandlersReported) {
            reg.registerDerived("core.handler.other.events",
                                [v = other_events] {
                                    return static_cast<double>(v);
                                });
            reg.registerDerived("core.handler.other.cycles",
                                [v = other_cycles] {
                                    return static_cast<double>(v);
                                });
            for (unsigned b = 0; b < numCycleBuckets; ++b) {
                reg.registerDerived(
                    "core.handler.other.cycle_bucket." +
                        std::string(cycleBucketName(
                            static_cast<CycleBucket>(b))),
                    [v = other[b]] { return static_cast<double>(v); });
            }
        }
    }

    // Pacer-owned stats (per-handler latency quantiles on serve runs)
    // join the registry after the run, like the handler accounting
    // above, so they land in the same snapshot.
    if (inst.pacer)
        inst.pacer->registerStats(reg, "server.");

    SimResult result;
    result.configName = config_.name;
    result.workloadName = workload.name();
    result.core = core.stats();
    if (esp) {
        result.instrWorkingSets = esp->instrWorkingSets();
        result.dataWorkingSets = esp->dataWorkingSets();
    }

    // --- energy ------------------------------------------------------
    const CoreStats &cs = core.stats();
    EnergyInputs ein;
    ein.cycles = cs.cycles;
    ein.instructions = cs.instructions;
    ein.branches = cs.branches;
    ein.mispredicts = cs.mispredicts;
    ein.l1Accesses = mem.l1iAccesses() + mem.l1dAccesses();
    ein.l2Accesses = mem.l1iMisses() + mem.l1dMisses() +
        mem.prefetchesIssued();
    ein.memAccesses = mem.l2Misses();
    if (esp) {
        const EspStats &es = esp->stats();
        ein.speculativeInstrs = es.preExecutedInstrs;
        ein.cacheletAccesses = es.preExecutedInstrs / 2;
        ein.listEntries = es.listPrefetchesInstr +
            es.listPrefetchesData + es.branchesPreTrained;
    }
    if (runahead)
        ein.speculativeInstrs = runahead->stats().instructions;

    EnergyModel energy(config_.energy);
    result.energy = energy.compute(ein);

    // --- derived metrics (registered, then snapshot) -----------------
    const double l1i_mpki = cs.instructions == 0
        ? 0.0
        : static_cast<double>(mem.l1iMisses()) /
            (static_cast<double>(cs.instructions) / 1000.0);
    const double l1d_miss_rate = mem.l1dAccesses() == 0
        ? 0.0
        : static_cast<double>(mem.l1dMisses()) /
            static_cast<double>(mem.l1dAccesses());
    const double mispredict_rate = cs.branches == 0
        ? 0.0
        : static_cast<double>(cs.mispredicts) /
            static_cast<double>(cs.branches);
    const double extra_instr_fraction = cs.instructions == 0
        ? 0.0
        : static_cast<double>(ein.speculativeInstrs) /
            static_cast<double>(cs.instructions);

    reg.registerDerived("energy.static",
                        [v = result.energy.staticEnergy] { return v; });
    reg.registerDerived("energy.mispredict", [v = result.energy
                                                      .mispredictEnergy] {
        return v;
    });
    reg.registerDerived("energy.dynamic",
                        [v = result.energy.restDynamic] { return v; });
    reg.registerDerived("energy.total",
                        [v = result.energy.total()] { return v; });
    reg.registerDerived("derived.l1i_mpki",
                        [l1i_mpki] { return l1i_mpki; });
    reg.registerDerived("derived.l1d_miss_rate",
                        [l1d_miss_rate] { return l1d_miss_rate; });
    reg.registerDerived("derived.mispredict_rate",
                        [mispredict_rate] { return mispredict_rate; });
    reg.registerDerived("derived.ipc",
                        [&cs] { return cs.ipc(); });
    reg.registerDerived("derived.extra_instr_fraction",
                        [extra_instr_fraction] {
                            return extra_instr_fraction;
                        });

    result.stats = reg.snapshot();

    // Headline fields are views over the canonical snapshot.
    result.cycles = static_cast<Cycle>(result.stats.get("core.cycles"));
    result.ipc = result.stats.get("derived.ipc");
    result.l1iMpki = result.stats.get("derived.l1i_mpki");
    result.l1dMissRate = result.stats.get("derived.l1d_miss_rate");
    result.mispredictRate = result.stats.get("derived.mispredict_rate");
    result.extraInstrFraction =
        result.stats.get("derived.extra_instr_fraction");

    return result;
}

} // namespace espsim
