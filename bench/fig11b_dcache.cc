/**
 * @file
 * Regenerates the paper's Figure 11b: L1 D-cache miss rate for the
 * baseline, data next-line prefetching (NL-D), data-only runahead,
 * data-side ESP, combinations, and an ideal ESP-D.
 *
 * Paper shape: base ~4.4%; ESP-D + NL-D ~1.8%; Runahead-D + NL-D does
 * *better* (~0.8%) — runahead warms the D-cache in short, timely
 * bursts — yet loses overall (Figure 9) because it cannot touch the
 * I-cache problem. Ideal ESP-D is comparable to runahead.
 */

#include "bench_util.hh"

using namespace espsim;

int
main(int argc, char **argv)
{
    const auto report =
        benchutil::reportSetup(argc, argv, "fig11b_dcache", "fig11b");
    const std::vector<SimConfig> configs{
        SimConfig::baseline(),
        SimConfig::nextLineDataOnly(),
        SimConfig::runaheadDataOnly(false),
        SimConfig::runaheadDataOnly(true),
        SimConfig::espDataOnly(false, false),
        SimConfig::espDataOnly(true, false),
        SimConfig::espDataOnly(true, true), // ideal
    };

    const SuiteRunner runner = benchutil::makeSuiteRunner(report.jobs);
    const auto rows = runner.run(configs);

    benchutil::printFigure(
        "Figure 11b: L1 D-cache miss rate (%)", rows, configs, 0,
        [](const SuiteRow &row, std::size_t c) {
            return 100.0 * row.results[c].l1dMissRate;
        },
        2, false, "Mean");
    benchutil::reportFinish(report, configs, rows);
    return 0;
}
