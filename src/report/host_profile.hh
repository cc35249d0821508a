/**
 * @file
 * Host-side self-profiler: where a simulation's wall time goes.
 *
 * Per-cell wall-clock profiles (HostCellProfile + the RAII
 * WallClockSpan) time trace generation, warmup, simulation and
 * reporting per (app, config) sweep cell, plus process peak RSS.
 * `espsim suite --profile` merges them into the cell stats as a
 * `host.*` namespace and prints a one-line per-cell summary, and the
 * benchmark (espbench/) reads the same spans. Host times are
 * wall-clock facts about *this* run on *this* machine, so they are
 * strictly opt-in: without `--profile` no `host.*` stat exists and
 * suite artifacts stay byte-identical to the deterministic baseline.
 */

#ifndef ESPSIM_REPORT_HOST_PROFILE_HH
#define ESPSIM_REPORT_HOST_PROFILE_HH

#include <chrono>
#include <string>

#include "common/stats.hh"

namespace espsim
{

/** Where one (app, config) cell's host wall time went, in ms. */
struct HostCellProfile
{
    std::string app;
    std::string config;
    double genMs = 0;    //!< trace generation (charged to the cell
                         //!< that ran the app's call_once)
    double warmupMs = 0; //!< LLC pre-warm
    double simMs = 0;    //!< core.run + prefetch finalize
    double reportMs = 0; //!< stat registration, energy, snapshot

    double
    totalMs() const
    {
        return genMs + warmupMs + simMs + reportMs;
    }
};

/**
 * RAII wall-clock span: adds the elapsed milliseconds to @p target_ms
 * on destruction. A null target makes the span free (profiling off).
 */
class WallClockSpan
{
  public:
    explicit WallClockSpan(double *target_ms)
        : target_(target_ms),
          start_(target_ms ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{})
    {
    }

    ~WallClockSpan()
    {
        if (target_) {
            *target_ += std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
        }
    }

    WallClockSpan(const WallClockSpan &) = delete;
    WallClockSpan &operator=(const WallClockSpan &) = delete;

  private:
    double *target_;
    std::chrono::steady_clock::time_point start_;
};

/** Process peak resident set size in MiB (0 when unavailable). */
double peakRssMb();

/**
 * Merge @p profile into @p stats as the `host.*` namespace
 * (host.gen_ms, host.warmup_ms, host.sim_ms, host.report_ms,
 * host.total_ms, host.peak_rss_mb). Only ever called with --profile.
 */
void mergeHostStats(StatGroup &stats, const HostCellProfile &profile);

} // namespace espsim

#endif // ESPSIM_REPORT_HOST_PROFILE_HH
