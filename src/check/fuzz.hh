/**
 * @file
 * Property-based fuzz harness (`espsim fuzz`).
 *
 * Draws random valid (AppProfile, SimConfig) points from a seed and
 * checks machine-independent invariants ("oracles") that must hold
 * for every design point:
 *
 *   - cycle-bucket-sum:      Σ core.cycle_bucket.* == core.cycles
 *   - arch-equality:         ESP-off and ESP-on agree on every
 *                            architectural count (instructions,
 *                            events, branches, loads, stores)
 *   - cachelet-containment:  speculative stores never dirty the
 *                            architectural L1/L2 (paper §3.4)
 *   - jobs-determinism:      a --jobs 1 sweep and a --jobs 4 sweep
 *                            produce bit-identical stat snapshots
 *   - artifact-roundtrip:    the suite JSON artifact re-parses and
 *                            reproduces every stat value exactly
 *   - interval-delta-closure: at any sample period, the interval
 *                            series' deltas telescope — baseline +
 *                            Σ deltas == final counter snapshot
 *
 * On a violation the harness shrinks the profile to a minimal
 * still-failing point and prints a one-line repro command; see
 * docs/ROBUSTNESS.md for the full oracle list and contract.
 */

#ifndef ESPSIM_CHECK_FUZZ_HH
#define ESPSIM_CHECK_FUZZ_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/sim_config.hh"
#include "workload/app_profile.hh"

namespace espsim
{

/** Options of one `espsim fuzz` invocation. */
struct FuzzOptions
{
    std::size_t runs = 25;  //!< number of random cases to check
    std::uint64_t seed = 1; //!< seed of the first case
    bool verbose = false;   //!< narrate every case to stderr
};

/** One random design point under test. */
struct FuzzCase
{
    std::uint64_t caseSeed = 0; //!< reproduces this exact case
    AppProfile profile;         //!< randomised workload profile
    SimConfig config;           //!< randomised speculative config
};

/**
 * Deterministically generate the case for @p case_seed: a perturbed
 * small AppProfile plus a speculation config drawn from the paper's
 * design points with randomised ESP knobs. Same seed, same case.
 */
FuzzCase makeFuzzCase(std::uint64_t case_seed);

/** Verdict of checkFuzzCase: which oracle failed (empty = passed). */
struct FuzzFailure
{
    std::string oracle;  //!< oracle name, empty when the case passed
    std::string message; //!< human-readable mismatch description

    bool failed() const { return !oracle.empty(); }
};

/** Run every oracle against @p c; the first violation wins. */
FuzzFailure checkFuzzCase(const FuzzCase &c);

/**
 * Greedily shrink @p c (halving event count/length, dropping
 * dependences, ...) while the named oracle keeps failing; returns the
 * smallest still-failing case found.
 */
FuzzCase shrinkFuzzCase(const FuzzCase &c, const std::string &oracle);

/**
 * The `espsim fuzz` entry point: check opts.runs cases starting at
 * opts.seed. @return 0 when every case passes; 1 on the first oracle
 * violation, after printing the shrunken point and a repro command.
 */
int runFuzz(const FuzzOptions &opts);

} // namespace espsim

#endif // ESPSIM_CHECK_FUZZ_HH
