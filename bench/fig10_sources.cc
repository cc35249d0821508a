/**
 * @file
 * Regenerates the paper's Figure 10: where ESP's performance comes
 * from. A naive ESP (no cachelets, no lists — prefetch into L1/L2 and
 * update the predictor during pre-execution) barely helps and hurts
 * some apps; the lists then add benefits in the order instruction
 * prefetch (+9.1%) > branch pre-training (+6%) > data prefetch (+3.3%).
 */

#include "bench_util.hh"

using namespace espsim;

int
main(int argc, char **argv)
{
    const auto report =
        benchutil::reportSetup(argc, argv, "fig10_sources", "fig10");
    const std::vector<SimConfig> configs{
        SimConfig::baseline(), // reference (hidden)
        SimConfig::espNaive(false),
        SimConfig::espNaive(true),
        SimConfig::espAblation(true, false, false),  // ESP-I + NL
        SimConfig::espAblation(true, true, false),   // ESP-I,B + NL
        SimConfig::espAblation(true, true, true),    // ESP-I,B,D + NL
    };

    const SuiteRunner runner = benchutil::makeSuiteRunner(report.jobs);
    const auto rows = runner.run(configs);

    benchutil::printImprovementFigure(
        "Figure 10: Sources of performance in ESP "
        "(% improvement over no-prefetch baseline)",
        rows, configs, 1);
    benchutil::reportFinish(report, configs, rows);
    return 0;
}
