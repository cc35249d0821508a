#include "common/stats.hh"

#include <sstream>

namespace espsim
{

double
StatGroup::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatGroup::has(const std::string &name) const
{
    return values_.find(name) != values_.end();
}

std::string
StatGroup::dump(const std::string &prefix) const
{
    std::ostringstream out;
    for (const auto &[name, value] : values_)
        out << prefix << name << " = " << value << "\n";
    return out.str();
}

} // namespace espsim
