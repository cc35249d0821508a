/**
 * @file
 * Flight-recorder export: replay a SpanCollector's ring — the most
 * recent window of request spans, ending at the anomaly trigger —
 * through EventTimeline's record consumer and write it as a Chrome
 * trace_event JSON file that loads directly in Perfetto.
 *
 * Each span becomes an event slice (queue-head to retire, with a
 * nested execute slice) carrying its cycle-bucket blame and per-source
 * prefetch-issue tallies as slice args plus a stacked cycle-bucket
 * counter track — the same conversion a live `--timeline` recording
 * applies to the same records (the ring holds no stalls, so a dump's
 * stall tallies are zero). The trace header is stamped "flight-recorder" so a dump
 * is distinguishable from a full-run timeline.
 */

#ifndef ESPSIM_REPORT_FLIGHT_RECORDER_HH
#define ESPSIM_REPORT_FLIGHT_RECORDER_HH

#include <string>

#include "report/spans.hh"

namespace espsim
{

/** Render the ring as Chrome trace_event JSON (Perfetto-loadable). */
std::string renderFlightRecorderTrace(const SpanCollector &collector,
                                      const std::string &configName,
                                      const std::string &workloadName);

/** Write renderFlightRecorderTrace() to @p path. @return false on
 *  I/O failure. */
bool writeFlightRecorderTrace(const SpanCollector &collector,
                              const std::string &configName,
                              const std::string &workloadName,
                              const std::string &path);

} // namespace espsim

#endif // ESPSIM_REPORT_FLIGHT_RECORDER_HH
