/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * cache lookups, branch prediction, workload generation (browser
 * events and memcached requests, with an ns_per_op counter), list
 * appends, and end-to-end simulation throughput. These guard the
 * simulator's own performance (the figures above re-run millions of
 * simulated instructions).
 *
 * Like every other bench binary, `--json [path]` / `--csv [path]`
 * export the measured table as a versioned artifact (default
 * BENCH_micro_components.json/.csv); those flags are stripped from
 * argv before google-benchmark sees them (its flag parser rejects
 * anything it does not know).
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "branch/pentium_m.hh"
#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "esp/lists.hh"
#include "server/profile.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

void
BM_CacheLookup(benchmark::State &state)
{
    SetAssocCache cache({"bench", 32 * 1024, 2, 2});
    Rng rng(7);
    for (auto _ : state) {
        const Addr addr = rng.below(1 << 20) * blockBytes;
        if (!cache.lookup(addr))
            cache.insert(addr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

void
BM_HierarchyAccess(benchmark::State &state)
{
    MemoryHierarchy mem{HierarchyConfig{}};
    Rng rng(7);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.accessData(rng.below(1 << 22) * 8, false, now++));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyAccess);

void
BM_BranchPredict(benchmark::State &state)
{
    PentiumMPredictor bp;
    Rng rng(7);
    MicroOp op;
    op.setType(OpType::BranchCond);
    for (auto _ : state) {
        op.pc = 0x1000 + 4 * rng.below(4096);
        op.setTaken(rng.chance(0.7));
        op.setBranchTarget(op.taken() ? op.pc + 16 : 0);
        benchmark::DoNotOptimize(bp.executeBranch(op));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredict);

void
BM_ListAppend(benchmark::State &state)
{
    Rng rng(7);
    AddressList list(0); // unbounded
    for (auto _ : state) {
        list.append(rng.below(1 << 22) * blockBytes,
                    state.iterations());
        if (list.records().size() > 1 << 16) {
            state.PauseTiming();
            list.clear();
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ListAppend);

/** Time per generated op (printed with an SI prefix, e.g. "48ns"). */
benchmark::Counter
perOpTime(std::size_t ops)
{
    return benchmark::Counter(static_cast<double>(ops),
                              benchmark::Counter::kIsRate |
                                  benchmark::Counter::kInvert);
}

void
BM_GenerateEvent(benchmark::State &state)
{
    // Ids never repeat, so events keep reaching code the generator's
    // decode memo has not seen yet, as in a real run; repeating a few
    // ids would time a fully warm memo.
    SyntheticGenerator gen(AppProfile::testProfile());
    std::uint64_t id = 0;
    std::size_t ops = 0;
    for (auto _ : state) {
        const EventTrace trace = gen.generateEvent(id++);
        ops += trace.size();
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
    state.counters["ns_per_op"] = perOpTime(ops);
}
BENCHMARK(BM_GenerateEvent);

void
BM_GenerateMemcachedRequest(benchmark::State &state)
{
    // Shaped generation (Zipf key, op-kind length class, value-object
    // overlay) through the memcached request source.
    const ServerTraceSource source(ServerProfile::memcached());
    std::uint64_t id = 0;
    std::size_t ops = 0;
    for (auto _ : state) {
        const EventTrace trace = source.makeEvent(id++);
        ops += trace.size();
        benchmark::DoNotOptimize(trace.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(ops));
    state.counters["ns_per_op"] = perOpTime(ops);
}
BENCHMARK(BM_GenerateMemcachedRequest);

void
BM_SimulateBaseline(benchmark::State &state)
{
    SyntheticGenerator gen(AppProfile::testProfile());
    const auto workload = gen.generate();
    const Simulator sim(SimConfig::nextLineStride());
    std::uint64_t insts = 0;
    for (auto _ : state) {
        const SimResult res = sim.run(*workload);
        insts += res.core.instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_SimulateBaseline);

void
BM_SimulateEsp(benchmark::State &state)
{
    SyntheticGenerator gen(AppProfile::testProfile());
    const auto workload = gen.generate();
    const Simulator sim(SimConfig::espFull(true));
    std::uint64_t insts = 0;
    for (auto _ : state) {
        const SimResult res = sim.run(*workload);
        insts += res.core.instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_SimulateEsp);

/**
 * Console reporter that also records every per-iteration run into an
 * exportable table: name, wall time per iteration, and the
 * items-per-second throughput counter every benchmark here sets.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    explicit CapturingReporter(TextTable &table) : table_(table) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration)
                continue;
            const auto it = run.counters.find("items_per_second");
            const double ips = it == run.counters.end()
                ? 0.0
                : static_cast<double>(it->second);
            table_.row({run.benchmark_name(),
                        TextTable::num(run.GetAdjustedRealTime(), 1),
                        TextTable::num(ips, 0)});
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    TextTable &table_;
};

} // namespace

int
main(int argc, char **argv)
{
    const benchutil::ReportOptions opts = benchutil::reportSetup(
        argc, argv, "micro_components", "micro_components");

    // google-benchmark's Initialize aborts on flags it does not know;
    // drop the artifact/jobs flags (and their path/value operands)
    // before handing argv over.
    std::vector<char *> bench_argv{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const bool takes_value =
            std::strcmp(argv[i], "--json") == 0 ||
            std::strcmp(argv[i], "--csv") == 0 ||
            std::strcmp(argv[i], "--jobs") == 0;
        if (takes_value) {
            if (i + 1 < argc && argv[i + 1][0] != '-')
                ++i;
            continue;
        }
        bench_argv.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(bench_argv.size());
    benchmark::Initialize(&bench_argc, bench_argv.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_argv.data()))
        return 1;

    TextTable table("microbenchmark results");
    table.header({"benchmark", "time_ns", "items_per_s"});
    CapturingReporter reporter(table);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    benchutil::reportFinishTable(opts, table);
    return 0;
}
