#include "cache/cache.hh"

#include "common/logging.hh"

namespace espsim
{

SetAssocCache::SetAssocCache(CacheGeometry geometry)
    : geometry_(std::move(geometry))
{
    if (geometry_.assoc == 0)
        fatal("cache '%s': zero associativity", geometry_.name.c_str());
    if (geometry_.sizeBytes % (geometry_.assoc * blockBytes) != 0) {
        fatal("cache '%s': size %zu not divisible into %u ways of 64 B "
              "blocks", geometry_.name.c_str(), geometry_.sizeBytes,
              geometry_.assoc);
    }
    numSets_ = geometry_.numSets();
    if (numSets_ == 0)
        fatal("cache '%s': zero sets", geometry_.name.c_str());
    sets_ = TableIndex(numSets_);
    numLines_ = numSets_ * geometry_.assoc;
    store_.assign(2 * numLines_ + (numLines_ + 7) / 8, 0);
    for (std::size_t line = 0; line < numLines_; ++line)
        tag(line) = invalidTag;
}

void
SetAssocCache::clearDemandSeen()
{
    for (std::size_t line = 0; line < numLines_; ++line)
        flags(line) &= static_cast<std::uint8_t>(~demandSeenFlag);
}

void
SetAssocCache::invalidateAll()
{
    for (std::size_t line = 0; line < numLines_; ++line)
        invalidateLine(line);
}

std::size_t
SetAssocCache::population() const
{
    std::size_t n = 0;
    for (std::size_t line = 0; line < numLines_; ++line) {
        if (tag(line) != invalidTag)
            ++n;
    }
    return n;
}

std::size_t
SetAssocCache::dirtyPopulation() const
{
    std::size_t n = 0;
    for (std::size_t line = 0; line < numLines_; ++line) {
        if (tag(line) != invalidTag && (flags(line) & dirtyFlag))
            ++n;
    }
    return n;
}

} // namespace espsim
