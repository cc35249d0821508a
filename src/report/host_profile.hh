/**
 * @file
 * Host wall-clock spans: where one simulation's host time goes.
 *
 * Simulator::run fills a HostCellProfile (warmup, simulation,
 * reporting) through the RAII WallClockSpan when
 * RunInstrumentation::hostProfile points at one; peakRssMb() reads the
 * process's peak resident set size. The benchmark (espbench/) reads
 * both for its per-layer metrics. Host times are wall-clock facts
 * about one run on one machine, so no simulation artifact carries
 * them.
 */

#ifndef ESPSIM_REPORT_HOST_PROFILE_HH
#define ESPSIM_REPORT_HOST_PROFILE_HH

#include <chrono>

namespace espsim
{

/** Where one simulation's host wall time went, in ms. */
struct HostCellProfile
{
    double warmupMs = 0; //!< LLC pre-warm
    double simMs = 0;    //!< core.run + prefetch finalize
    double reportMs = 0; //!< stat registration, energy, snapshot
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

} // namespace espsim

#endif // ESPSIM_REPORT_HOST_PROFILE_HH
