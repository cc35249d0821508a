#include "prefetch/stride.hh"

namespace espsim
{

StridePrefetcher::StridePrefetcher(std::size_t entries, unsigned degree)
    : table_(entries), index_(entries), degree_(degree)
{
}

std::size_t
StridePrefetcher::indexOf(Addr pc) const
{
    return static_cast<std::size_t>(index_.slot(pc >> 2));
}

std::uint32_t
StridePrefetcher::tagOf(Addr pc) const
{
    return static_cast<std::uint32_t>(index_.quotient(pc >> 2)) &
        0xffff;
}

void
StridePrefetcher::notifyAccess(MemoryHierarchy &mem, Addr pc, Addr addr,
                               Cycle now)
{
    Entry &e = table_[indexOf(pc)];
    const std::uint32_t tag = tagOf(pc);
    if (!e.valid || e.tag != tag) {
        e = Entry{};
        e.valid = true;
        e.tag = tag;
        e.lastAddr = addr;
        return;
    }
    const auto stride = static_cast<std::int64_t>(addr) -
        static_cast<std::int64_t>(e.lastAddr);
    if (stride == e.stride && stride != 0) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        e.stride = stride;
        e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
    }
    e.lastAddr = addr;
    if (e.confidence >= 2) {
        for (unsigned d = 1; d <= degree_; ++d) {
            // Unsigned block arithmetic: the target wraps mod 2^64, so
            // an address-space overrun in either direction shows up as
            // the target landing on the wrong side of addr. Such
            // prefetches used to be dropped silently (as was block 0
            // on a down-counting stream), quietly deflating the
            // lifecycle tracker's coverage denominator; now they are
            // counted so accuracy/coverage stay honest.
            const Addr target = addr +
                static_cast<Addr>(d) *
                    static_cast<Addr>(e.stride);
            const bool wrapped = e.stride < 0 ? target > addr
                                              : target < addr;
            if (wrapped) {
                ++droppedWraps_;
                continue;
            }
            mem.prefetchData(target, now, PrefetchSource::StrideData);
        }
    }
}

std::size_t
StridePrefetcher::confidentEntries() const
{
    std::size_t n = 0;
    for (const Entry &e : table_) {
        if (e.valid && e.confidence >= 2)
            ++n;
    }
    return n;
}

} // namespace espsim
