/**
 * @file
 * Regenerates the paper's Figure 14: energy of ESP+NL relative to NL,
 * decomposed into static energy, branch-misprediction (wrong-path)
 * energy, and the remaining dynamic energy; plus the percentage of
 * additional instructions ESP executes (the numbers above the paper's
 * bars: 11.7% to 31.5%, average 21.2%).
 *
 * Paper shape: ESP costs ~8% more energy overall — the pre-execution
 * work is partly paid back by shorter runtime (less static energy) and
 * fewer mispredicted (wasted) instructions.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace espsim;

int
main(int argc, char **argv)
{
    const auto report =
        benchutil::reportSetup(argc, argv, "fig14_energy", "fig14");
    const std::vector<SimConfig> configs{
        SimConfig::nextLine(),    // reference: NL
        SimConfig::espFull(true), // ESP + NL
    };

    const SuiteRunner runner = benchutil::makeSuiteRunner(report.jobs);
    const auto rows = runner.run(configs);

    TextTable table("Figure 14: Energy relative to NL");
    table.header({"app", "NL", "ESP", "ESP static", "ESP mispred",
                  "ESP dynamic", "extra instr %"});

    double sum_rel = 0.0;
    double sum_extra = 0.0;
    for (const SuiteRow &row : rows) {
        const EnergyBreakdown &nl = row.results[0].energy;
        const EnergyBreakdown &esp = row.results[1].energy;
        const double base = nl.total();
        table.row({
            row.app,
            TextTable::num(1.0, 3),
            TextTable::num(esp.total() / base, 3),
            TextTable::num(esp.staticEnergy / base, 3),
            TextTable::num(esp.mispredictEnergy / base, 3),
            TextTable::num(esp.restDynamic / base, 3),
            TextTable::num(100.0 * row.results[1].extraInstrFraction, 1),
        });
        sum_rel += esp.total() / base;
        sum_extra += row.results[1].extraInstrFraction;
    }
    const auto n = static_cast<double>(rows.size());
    table.row({"Mean", TextTable::num(1.0, 3),
               TextTable::num(sum_rel / n, 3), "", "",
               "", TextTable::num(100.0 * sum_extra / n, 1)});
    std::fputs(table.render().c_str(), stdout);

    std::printf("\nheadline: ESP energy overhead = %.1f%%  (paper: 8%%)\n",
                100.0 * (sum_rel / n - 1.0));
    std::printf("headline: extra instructions  = %.1f%%  (paper: "
                "21.2%%)\n",
                100.0 * sum_extra / n);
    benchutil::reportFinish(report, configs, rows);
    return 0;
}
