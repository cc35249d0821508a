/**
 * @file
 * Interval series: time-resolved counter deltas for one run.
 *
 * Every figure in the paper is an end-of-run aggregate; the interval
 * series exposes *phase behaviour* instead. It is the first
 * difference of counter snapshots: a TelemetrySnapshotter
 * (report/telemetry.hh) in its interval form freezes the registry's
 * counter name set and reads a baseline at construction, snapshots
 * the counters at each event-retire boundary (the only points where
 * the stat surface is consistent) once the run has crossed the next
 * cycle and/or event grid point, and appends each snapshot's
 * difference from the previous one as one interval.
 *
 * Only Counter-kind stats (uint64-backed monotone counters, see
 * StatKind) are sampled. Their doubles are exact below 2^53, so the
 * per-interval deltas **telescope**: for every counter,
 *
 *     baseline + Σ interval deltas == final snapshot     (exactly)
 *
 * — a property the artifact validator, the unit tests and the fuzz
 * harness's interval-delta-closure oracle all check. The trailing
 * partial interval is kept only when some counter moved after the
 * last grid sample. Rates and ratios (IPC, miss rates, ESP occupancy)
 * are *not* sampled; downstream consumers (tools/plot_intervals.py,
 * the timeline counter tracks) derive them per interval from the
 * counter deltas.
 *
 * The series is deterministic by construction — names are the
 * registry's sorted order, intervals fire at cycle/event grid points
 * derived only from simulated time — so the rendered artifact is
 * byte-identical at any `--jobs` count.
 */

#ifndef ESPSIM_REPORT_INTERVAL_HH
#define ESPSIM_REPORT_INTERVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace espsim
{

struct ArtifactManifest;
class EventTimeline;

/** Version of the interval-series schema this build writes. */
constexpr std::uint32_t intervalSeriesFormatVersion = 1;

/** When the sampler fires. Either period may be 0 (= disabled). */
struct IntervalConfig
{
    /** Sample when ≥ this many cycles passed since the last sample. */
    Cycle sampleCycles = 0;
    /** Sample when ≥ this many events retired since the last sample. */
    std::uint64_t sampleEvents = 0;

    bool
    enabled() const
    {
        return sampleCycles > 0 || sampleEvents > 0;
    }
};

/** One sampling interval: counter deltas since the previous sample. */
struct IntervalPoint
{
    Cycle endCycle = 0;
    std::uint64_t endEvents = 0;
    /** Aligned with IntervalSeries::names. */
    std::vector<double> deltas;
};

/** A whole run's time-resolved counter series. */
struct IntervalSeries
{
    std::string configName;
    std::string workloadName;
    std::string configHash; //!< 16-hex-digit hash of the run's config
    IntervalConfig period;

    /** Sorted counter names; every values/deltas vector aligns. */
    std::vector<std::string> names;

    /** Counter values when sampling began (post-warmup machine). */
    Cycle baselineCycle = 0;
    std::uint64_t baselineEvents = 0;
    std::vector<double> baseline;

    std::vector<IntervalPoint> intervals;

    /** Counter values at finalize; closure target for the deltas. */
    Cycle finalCycle = 0;
    std::uint64_t finalEvents = 0;
    std::vector<double> finalValues;
};

/**
 * Append each interval of @p series to @p timeline as counter-track
 * points (IPC, L1-I MPKI, L1-D miss rate and ESP occupancy derived
 * from the interval's deltas).
 */
void recordIntervalTracks(const IntervalSeries &series,
                          EventTimeline &timeline);

/**
 * Render the canonical `espsim-interval-series` JSON artifact.
 * Deterministic: name-ordered counters, shortest-round-trip numbers.
 */
std::string renderIntervalSeriesJson(const ArtifactManifest &manifest,
                                     const IntervalSeries &series);

} // namespace espsim

#endif // ESPSIM_REPORT_INTERVAL_HH
