/**
 * @file
 * Regenerates the paper's Figure 12: branch misprediction rate under
 * the ESP branch-predictor design alternatives —
 *   - base (no ESP),
 *   - no extra hardware (ESP-mode branches share PIR and tables),
 *   - separate context (a PIR/RAS per ESP mode, shared tables),
 *   - separate context and tables (full predictor replica per mode),
 *   - separate context + B-list (the ESP design).
 *
 * Paper shape: 9.9% base; naive sharing doesn't help; full replication
 * reaches 7.4%; the cheap separate-PIR + B-list design wins at 6.1%.
 */

#include "bench_util.hh"

using namespace espsim;

int
main(int argc, char **argv)
{
    const auto report =
        benchutil::reportSetup(argc, argv, "fig12_branch", "fig12");
    const std::vector<SimConfig> configs{
        SimConfig::nextLine(), // base machine without ESP
        SimConfig::espBranchPolicy(BranchPolicy::NoExtraHardware),
        SimConfig::espBranchPolicy(BranchPolicy::SeparatePir),
        SimConfig::espBranchPolicy(BranchPolicy::SeparatePirAndTables),
        SimConfig::espBranchPolicy(BranchPolicy::SeparatePirPlusBList),
    };

    const SuiteRunner runner = benchutil::makeSuiteRunner(report.jobs);
    const auto rows = runner.run(configs);

    benchutil::printFigure(
        "Figure 12: Branch misprediction rate (%)", rows, configs, 0,
        [](const SuiteRow &row, std::size_t c) {
            return 100.0 * row.results[c].mispredictRate;
        },
        2, false, "Mean");
    benchutil::reportFinish(report, configs, rows);
    return 0;
}
