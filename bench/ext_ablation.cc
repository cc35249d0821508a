/**
 * @file
 * Ablation study of the design decisions DESIGN.md §5 calls out,
 * across the full seven-app suite: jump-ahead depth (the paper's §6.6
 * argument for stopping at 2), re-entrant pre-execution (§3.4),
 * prefetch lead (§3.6's 190 instructions), list capacity (Figure 8's
 * provisioning), and the pre-execution depth bound.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace espsim;

namespace
{

SimConfig
variant(const char *name, void (*tweak)(EspConfig &))
{
    SimConfig cfg = SimConfig::espFull(true);
    cfg.name = name;
    tweak(cfg.esp);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto report = benchutil::reportSetup(argc, argv,
                                               "ext_ablation",
                                               "ext_ablation");
    const std::vector<SimConfig> configs{
        SimConfig::nextLineStride(), // reference (hidden)
        variant("ESP (paper)", [](EspConfig &) {}),
        variant("depth=1", [](EspConfig &c) { c.maxDepth = 1; }),
        variant("depth=4", [](EspConfig &c) { c.maxDepth = 4; }),
        variant("no reentry", [](EspConfig &c) { c.reentrant = false; }),
        variant("lead=60",
                [](EspConfig &c) { c.prefetchLeadInstructions = 60; }),
        variant("lead=1000",
                [](EspConfig &c) { c.prefetchLeadInstructions = 1000; }),
        variant("lists/2",
                [](EspConfig &c) {
                    for (auto *caps :
                         {&c.iListBytes, &c.dListBytes, &c.bListDirBytes,
                          &c.bListTgtBytes}) {
                        (*caps)[0] /= 2;
                        (*caps)[1] /= 2;
                    }
                }),
        variant("lists*2",
                [](EspConfig &c) {
                    for (auto *caps :
                         {&c.iListBytes, &c.dListBytes, &c.bListDirBytes,
                          &c.bListTgtBytes}) {
                        (*caps)[0] *= 2;
                        (*caps)[1] *= 2;
                    }
                }),
        variant("preexec cap/3",
                [](EspConfig &c) { c.maxPreExecPerEvent /= 3; }),
    };

    const SuiteRunner runner = benchutil::makeSuiteRunner(report.jobs);
    const auto rows = runner.run(configs);

    benchutil::printImprovementFigure(
        "Ablations: ESP design decisions (% improvement over NL+S, "
        "suite HMean in last row)",
        rows, configs, 1);

    std::puts("expected shape: the paper design sits at the knee — "
              "depth 1~2 close, depth 4 worse (budget thinning + table "
              "pollution), no-reentry much worse, lead robust across "
              "60-1000, halved lists cost performance, doubled lists "
              "gain a little (the paper sized for the knee).");
    benchutil::reportFinish(report, configs, rows);
    return 0;
}
