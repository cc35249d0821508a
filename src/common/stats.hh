/**
 * @file
 * Lightweight named-statistics registry.
 *
 * A StatGroup is a point-in-time snapshot of named scalar counters,
 * filled by StatRegistry::snapshot() (report/stat_registry.hh); it can
 * be dumped as text or queried by name from tests and benchmark
 * harnesses. This mirrors (a small slice of) the gem5 stats package.
 */

#ifndef ESPSIM_COMMON_STATS_HH
#define ESPSIM_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace espsim
{

/** A flat, ordered collection of named scalar statistics. */
class StatGroup
{
  public:
    /** Overwrite the value of @p name. */
    void
    set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    /** Value of @p name, or 0 if never touched. */
    double get(const std::string &name) const;

    /** True if the counter exists. */
    bool has(const std::string &name) const;

    /** Render as "name = value" lines, one per counter. */
    std::string dump(const std::string &prefix = "") const;

    /** Access for iteration. */
    const std::map<std::string, double> &values() const { return values_; }

  private:
    std::map<std::string, double> values_;
};

} // namespace espsim

#endif // ESPSIM_COMMON_STATS_HH
