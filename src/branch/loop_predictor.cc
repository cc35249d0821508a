#include "branch/loop_predictor.hh"

namespace espsim
{

LoopPredictor::LoopPredictor(std::size_t entries)
    : entries_(entries), index_(entries)
{
}

void
LoopPredictor::reset()
{
    for (Entry &e : entries_)
        e = Entry{};
}

} // namespace espsim
