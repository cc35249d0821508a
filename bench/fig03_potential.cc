/**
 * @file
 * Regenerates the paper's Figure 3: performance potential of the
 * baseline machine (NL + stride prefetchers) with a perfect L1
 * D-cache, a perfect branch predictor, a perfect L1 I-cache, and all
 * three at once.
 *
 * Paper shape: perfect-all nearly doubles performance, and the
 * perfect-L1I bar dominates the other two single-component bars.
 */

#include "bench_util.hh"

using namespace espsim;

int
main(int argc, char **argv)
{
    const auto report =
        benchutil::reportSetup(argc, argv, "fig03_potential", "fig03");
    const std::vector<SimConfig> configs{
        SimConfig::nextLineStride(), // reference (index 0)
        SimConfig::perfect(true, false, false),
        SimConfig::perfect(false, true, false),
        SimConfig::perfect(false, false, true),
        SimConfig::perfect(true, true, true),
    };

    const SuiteRunner runner = benchutil::makeSuiteRunner(report.jobs);
    const auto rows = runner.run(configs);

    benchutil::printImprovementFigure(
        "Figure 3: Performance potential in web applications "
        "(% improvement over baseline NL+S)",
        rows, configs, 1);
    benchutil::reportFinish(report, configs, rows);
    return 0;
}
