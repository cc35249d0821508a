/**
 * @file
 * Regenerates the paper's Figure 11a: L1 I-cache misses per
 * kilo-instruction for the baseline, next-line instruction prefetching
 * (NL-I), instruction-side ESP (ESP-I), their combination, and an
 * ideal ESP-I (unbounded cachelet/list, perfectly timely prefetches).
 *
 * Paper shape: base ~23.5 MPKI; ESP-I + NL-I ~11.6; the real design
 * comes close to ideal.
 */

#include "bench_util.hh"

using namespace espsim;

int
main(int argc, char **argv)
{
    const auto report =
        benchutil::reportSetup(argc, argv, "fig11a_icache", "fig11a");
    const std::vector<SimConfig> configs{
        SimConfig::baseline(),
        SimConfig::nextLineInstrOnly(),
        SimConfig::espInstrOnly(false, false),
        SimConfig::espInstrOnly(true, false),
        SimConfig::espInstrOnly(true, true), // ideal
    };

    const SuiteRunner runner = benchutil::makeSuiteRunner(report.jobs);
    const auto rows = runner.run(configs);

    benchutil::printFigure(
        "Figure 11a: L1 I-cache MPKI", rows, configs, 0,
        [](const SuiteRow &row, std::size_t c) {
            return row.results[c].l1iMpki;
        },
        2, false, "Mean");
    benchutil::reportFinish(report, configs, rows);
    return 0;
}
