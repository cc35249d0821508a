#include "report/stat_registry.hh"

#include "common/logging.hh"

namespace espsim
{

void
StatRegistry::insert(const std::string &name, Getter getter, StatKind kind)
{
    if (name.empty())
        panic("StatRegistry: empty stat name");
    if (!entries_.emplace(name, Entry{std::move(getter), kind}).second)
        panic("StatRegistry: duplicate stat '%s'", name.c_str());
}

void
StatRegistry::registerScalar(const std::string &name,
                             const std::uint64_t *counter)
{
    insert(name,
           [counter] { return static_cast<double>(*counter); },
           StatKind::Counter);
}

void
StatRegistry::registerScalar(const std::string &name, const double *value)
{
    insert(name, [value] { return *value; }, StatKind::Gauge);
}

void
StatRegistry::registerDerived(const std::string &name, Getter getter)
{
    insert(name, std::move(getter), StatKind::Derived);
}

void
StatRegistry::registerSamples(const std::string &name, const SampleStat *s)
{
    insert(name + ".count", [s] {
        return static_cast<double>(s->count());
    }, StatKind::Sample);
    insert(name + ".mean", [s] { return s->mean(); }, StatKind::Sample);
    insert(name + ".max", [s] { return s->max(); }, StatKind::Sample);
    insert(name + ".p95", [s] {
        return s->percentile(95.0);
    }, StatKind::Sample);
}

bool
StatRegistry::contains(const std::string &name) const
{
    return entries_.find(name) != entries_.end();
}

StatGroup
StatRegistry::snapshot() const
{
    StatGroup out;
    for (const auto &[name, entry] : entries_)
        out.set(name, entry.getter());
    return out;
}

std::vector<StatRegistry::CounterHandle>
StatRegistry::counterHandles() const
{
    std::vector<CounterHandle> handles;
    for (const auto &[name, entry] : entries_) {
        if (entry.kind == StatKind::Counter)
            handles.push_back({name, entry.getter});
    }
    return handles;
}

} // namespace espsim
