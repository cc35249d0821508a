/**
 * @file
 * Set-associative, LRU-replacement cache tag array.
 *
 * Tracks presence only (the simulator is trace driven, so no data
 * values are stored). Used for L1-I, L1-D, L2, and as the substrate of
 * the ESP cachelets.
 *
 * Lines are stored structure-of-arrays: a tag lane (an all-ones
 * sentinel marks an invalid way, so a lookup is a pure tag compare),
 * an LRU-stamp lane read only when choosing a victim, and a flags
 * byte holding the dirty bit and the demand-seen bit of the
 * hierarchy's lifecycle filter. A 16-way L2 set scan reads 128 B of
 * tags instead of 16 whole line records.
 *
 * The lookup/fill methods live in the header: they are the innermost
 * loop of every simulated memory access, and inlining them into the
 * core's issue loop removes a call per access and lets the set index
 * fold into a mask (set counts are powers of two for every real
 * geometry; TableIndex falls back to a modulo for odd test
 * geometries).
 */

#ifndef ESPSIM_CACHE_CACHE_HH
#define ESPSIM_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/table_index.hh"
#include "common/types.hh"

namespace espsim
{

/** Geometry and latency of one cache level. */
struct CacheGeometry
{
    std::string name = "cache";
    std::size_t sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    Cycle hitLatency = 2;

    std::size_t numBlocks() const { return sizeBytes / blockBytes; }
    std::size_t numSets() const { return numBlocks() / assoc; }
};

/** LRU set-associative tag array. */
class SetAssocCache
{
  public:
    /** Line handle returned by lookupLine() on a miss. */
    static constexpr std::size_t noLine = ~std::size_t{0};

    explicit SetAssocCache(CacheGeometry geometry);

    const CacheGeometry &geometry() const { return geometry_; }

    /**
     * Demand lookup of the block containing @p addr; updates LRU on
     * hit.
     * @return true on hit.
     */
    bool lookup(Addr addr) { return lookupLine(addr) != noLine; }

    /**
     * lookup() that returns the hit line's handle (noLine on a miss)
     * for markDirty() / testAndSetDemandSeen(). A handle is valid
     * until the next fill or invalidation.
     */
    std::size_t
    lookupLine(Addr addr)
    {
        ++accesses_;
        const std::size_t line = findLine(addr);
        if (line != noLine) {
            lastUse(line) = ++useClock_;
            ++hits_;
        }
        return line;
    }

    /** Presence check without touching replacement state. */
    bool
    contains(Addr addr) const
    {
        return findLine(addr) != noLine;
    }

    /**
     * Fill the block containing @p addr (refreshes LRU if already
     * present). Evicts the set's LRU way if the set is full.
     */
    void
    insert(Addr addr, bool dirty = false)
    {
        insertInWays(addr, 0, geometry_.assoc - 1, dirty);
    }

    /**
     * insert() that reports the displaced block: the block-aligned
     * address of the valid line evicted to make room, or nullopt when
     * a free way existed / the block was already present. The prefetch
     * lifecycle tracker keys pollution ("harmful") on this.
     */
    std::optional<Addr>
    insertEvicting(Addr addr, bool dirty = false)
    {
        return insertInWays(addr, 0, geometry_.assoc - 1, dirty);
    }

    /** Mark the line behind a lookupLine() handle dirty. */
    void markDirty(std::size_t line) { flags(line) |= dirtyFlag; }

    /**
     * Set the line's demand-seen bit; @return true when it was clear.
     * The bit belongs to the MemoryHierarchy's lifecycle filter (see
     * hierarchy.hh): every fill and invalidation clears it, so a set
     * bit means "a counted demand access already scored this line
     * since it was filled".
     */
    bool
    testAndSetDemandSeen(std::size_t line)
    {
        const bool fresh = (flags(line) & demandSeenFlag) == 0;
        flags(line) |= demandSeenFlag;
        return fresh;
    }

    /** Clear every line's demand-seen bit (contents untouched). */
    void clearDemandSeen();

    /** Drop every block. */
    void invalidateAll();

    /** Number of valid blocks currently cached. */
    std::size_t population() const;

    /**
     * Number of valid *dirty* blocks. Speculative (cachelet) stores
     * must never dirty the architectural L1/L2 (paper §3.4); the fuzz
     * harness asserts this via before/after snapshots.
     */
    std::size_t dirtyPopulation() const;

    // Demand-access statistics (prefetch fills are not counted here).
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return accesses_ - hits_; }
    void clearStats() { accesses_ = hits_ = 0; }

  protected:
    /** Tag of an invalid way; block numbers never reach it. */
    static constexpr Addr invalidTag = ~Addr{0};
    static constexpr std::uint8_t dirtyFlag = 1;
    static constexpr std::uint8_t demandSeenFlag = 2;

    CacheGeometry geometry_;
    std::size_t numSets_;
    TableIndex sets_{1};
    std::size_t numLines_ = 0; //!< numSets_ * assoc
    /**
     * The three line lanes in one allocation, numLines_ entries each
     * and set-major: tags (invalidTag when empty), then LRU stamps,
     * then the flag bytes. A set scan reads only its tags (8 B per
     * way). One block rather than three: with three, glibc's malloc
     * returned the lanes to the OS whenever a machine was destroyed,
     * so every new machine paid the page faults again (building the
     * default L2 took ~4x longer).
     */
    std::vector<std::uint64_t> store_;

    Addr &tag(std::size_t line) { return store_[line]; }
    Addr tag(std::size_t line) const { return store_[line]; }

    std::uint64_t &
    lastUse(std::size_t line)
    {
        return store_[numLines_ + line];
    }

    std::uint8_t &
    flags(std::size_t line)
    {
        return reinterpret_cast<std::uint8_t *>(store_.data() +
                                                2 * numLines_)[line];
    }

    std::uint8_t
    flags(std::size_t line) const
    {
        return const_cast<SetAssocCache *>(this)->flags(line);
    }

    std::uint64_t useClock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(sets_.slot(blockNumber(addr)));
    }

    Addr tagOf(Addr addr) const { return blockNumber(addr); }

    /** Line index holding @p addr's block (any way), or noLine. */
    std::size_t
    findLine(Addr addr) const
    {
        return findInWays(addr, 0, geometry_.assoc - 1);
    }

    std::size_t
    findInWays(Addr addr, unsigned way_lo, unsigned way_hi) const
    {
        const Addr wanted = tagOf(addr);
        const std::size_t base = setIndex(addr) * geometry_.assoc;
        const Addr *set = store_.data() + base;
        for (unsigned w = way_lo; w <= way_hi; ++w) {
            if (set[w] == wanted)
                return base + w;
        }
        return noLine;
    }

    /** Empty the line (tag, LRU stamp and flags). */
    void
    invalidateLine(std::size_t line)
    {
        tag(line) = invalidTag;
        lastUse(line) = 0;
        flags(line) = 0;
    }

    /**
     * Fill restricted to ways [way_lo, way_hi]; used by Cachelet's way
     * reservation. The victim is the first invalid way in the range,
     * else its least recently used way. A block already present in
     * *any* way is refreshed in place. @return the displaced block
     * (see insertEvicting).
     */
    std::optional<Addr>
    insertInWays(Addr addr, unsigned way_lo, unsigned way_hi, bool dirty)
    {
        const std::uint8_t fill_flags = dirty ? dirtyFlag : 0;
        if (const std::size_t line = findLine(addr); line != noLine) {
            lastUse(line) = ++useClock_;
            flags(line) = static_cast<std::uint8_t>(
                (flags(line) & dirtyFlag) | fill_flags);
            return std::nullopt;
        }
        const std::size_t base = setIndex(addr) * geometry_.assoc;
        std::size_t victim = base + way_lo;
        for (std::size_t i = base + way_lo; i <= base + way_hi; ++i) {
            if (tag(i) == invalidTag) {
                victim = i;
                break;
            }
            if (lastUse(i) < lastUse(victim))
                victim = i;
        }
        std::optional<Addr> evicted;
        if (tag(victim) != invalidTag)
            evicted = tag(victim) * blockBytes;
        tag(victim) = tagOf(addr);
        lastUse(victim) = ++useClock_;
        flags(victim) = fill_flags;
        return evicted;
    }

    bool
    lookupInWays(Addr addr, unsigned way_lo, unsigned way_hi)
    {
        ++accesses_;
        const std::size_t line = findInWays(addr, way_lo, way_hi);
        if (line == noLine)
            return false;
        lastUse(line) = ++useClock_;
        ++hits_;
        return true;
    }
};

} // namespace espsim

#endif // ESPSIM_CACHE_CACHE_HH
