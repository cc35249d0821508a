/**
 * @file
 * Regenerates the paper's Figure 9: performance of next-line (NL),
 * NL + stride (NL+S), runahead, and ESP — alone and combined with NL —
 * normalised to a no-prefetch baseline.
 *
 * Paper shape: NL ~13.8%, NL+S ~13.9% (stride adds ~0.1%), runahead
 * ~12%, runahead+NL ~21%, ESP+NL ~32% (16% over NL+S).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace espsim;

int
main(int argc, char **argv)
{
    const auto report = benchutil::reportSetup(argc, argv,
                                               "fig09_performance",
                                               "fig09");
    const std::vector<SimConfig> configs{
        SimConfig::baseline(), // reference (hidden)
        SimConfig::nextLine(),
        SimConfig::nextLineStride(),
        SimConfig::runaheadExec(false),
        SimConfig::runaheadExec(true),
        SimConfig::espFull(false),
        SimConfig::espFull(true),
    };

    const SuiteRunner runner = benchutil::makeSuiteRunner(report.jobs);
    const auto rows = runner.run(configs);

    benchutil::printImprovementFigure(
        "Figure 9: Performance of ESP, Next-Line and Runahead "
        "(% improvement over no-prefetch baseline)",
        rows, configs, 1);

    // The paper's headline numbers.
    std::printf("headline: ESP+NL over NL+S       = %5.1f%%  "
                "(paper: 16%%)\n",
                hmeanImprovementPct(rows, 6, 2));
    std::printf("headline: Runahead+NL over NL+S  = %5.1f%%  "
                "(paper: 6.4%%)\n",
                hmeanImprovementPct(rows, 4, 2));
    std::printf("headline: stride over NL         = %5.1f%%  "
                "(paper: 0.1%%)\n",
                hmeanImprovementPct(rows, 2, 1));
    std::printf("headline: ESP+NL extra instrs    = %5.1f%%  "
                "(paper: 21.2%%)\n",
                100.0 * meanMetric(rows, 6, [](const SimResult &r) {
                    return r.extraInstrFraction;
                }));
    benchutil::reportFinish(report, configs, rows);
    return 0;
}
