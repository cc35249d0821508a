/**
 * @file
 * Bounded tracker of outstanding prefetches (an MSHR-like structure).
 *
 * A prefetch issued at cycle C for a block that lives at level L
 * becomes usable at C + latency(L). The block is inserted into the
 * target cache immediately (so pollution is modeled), and the ready
 * time is recorded here; a demand access that arrives before the ready
 * time pays the residual latency ("late prefetch").
 *
 * Both trackers sit on the per-demand-access path, so they use
 * open-addressed block-keyed tables (common/addr_map.hh) and an
 * intrusive ring for the FIFO instead of node-based containers: no
 * hashing-library heap nodes, no steady-state allocation. A lookup in
 * an empty table returns before hashing, which is the common case of
 * the in-flight buffer and of the lifecycle records when no
 * prefetcher runs.
 *
 * The lifecycle tracker's tables are the only record of each block's
 * state. The MemoryHierarchy keeps one exact filter in front of them:
 * a per-line demand-seen bit in the L1 tag array that lets repeat
 * counted L1 hits skip onDemandAccess() (see
 * MemoryHierarchy::accessSide for the invariant). Evictions the
 * tracker is never told about — fills made while statistics are gated
 * off (runahead, naive ESP) or through the direct cache accessors —
 * leave stale entries here, scored as they always were.
 */

#ifndef ESPSIM_PREFETCH_INFLIGHT_HH
#define ESPSIM_PREFETCH_INFLIGHT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/addr_map.hh"
#include "common/types.hh"

namespace espsim
{

/** Who issued a prefetch (lifecycle attribution). */
enum class PrefetchSource : std::uint8_t
{
    EspIList = 0,  //!< ESP instruction-address list replay
    EspDList,      //!< ESP data-address list replay
    NextLineInstr, //!< next-line instruction prefetcher
    NextLineData,  //!< DCU next-line data prefetcher
    StrideData,    //!< IP-stride data prefetcher
    Other,         //!< untagged (tests, direct calls)
};

constexpr unsigned numPrefetchSources = 6;

/** Stable snake_case stat-name token for @p source. */
const char *prefetchSourceName(PrefetchSource source);

/**
 * Lifecycle outcome counters for one prefetch source.
 *
 * Taxonomy (MERE-style): a prefetch is *timely* when the demand access
 * arrives at or after its fill lands, *late* when demand arrives while
 * it is still in flight (the residue is paid), *useless* when it is
 * evicted — or the run ends — without ever being demanded, and
 * *harmful* when its fill displaced a live demand block (pollution).
 */
struct PrefetchSourceStats
{
    std::uint64_t issued = 0;
    std::uint64_t timely = 0;
    std::uint64_t late = 0;
    std::uint64_t useless = 0;
    std::uint64_t harmful = 0;
    Cycle leadCycleSum = 0; //!< Σ (demand − ready) over timely uses

    std::uint64_t used() const { return timely + late; }

    /** Fraction of issued prefetches that were demanded at all. */
    double
    accuracy() const
    {
        return issued == 0 ? 0.0
                           : static_cast<double>(used()) /
                static_cast<double>(issued);
    }

    /** Mean cycles a timely prefetch landed ahead of its demand. */
    double
    avgLeadCycles() const
    {
        return timely == 0 ? 0.0
                           : static_cast<double>(leadCycleSum) /
                static_cast<double>(timely);
    }
};

/**
 * Classifies every prefetch of one cache side (instruction or data)
 * as timely / late / useless / harmful, per source.
 *
 * The MemoryHierarchy drives it from three places: prefetch issue
 * (with the L1 victim the fill displaced), demand access, and demand
 * fill (with its victim). Unused prefetched blocks are scored useless
 * at eviction or at finalize(); a prefetch fill that displaces a
 * demand-live block scores harmful for the *issuing* source.
 */
class PrefetchLifecycleTracker
{
  public:
    /** A prefetch of @p block was issued; its fill lands at @p ready.
     *  @p evicted is the L1 victim the immediate fill displaced. */
    void
    onPrefetchIssue(Addr block, PrefetchSource source, Cycle ready,
                    std::optional<Addr> evicted)
    {
        if (evicted)
            onEviction(*evicted, source);
        ++stats_[static_cast<std::size_t>(source)].issued;
        live_.insertOrAssign(block, LiveEntry{source, ready, false});
    }

    /** A demand access touched @p block at @p now (hit or miss). */
    void
    onDemandAccess(Addr block, Cycle now)
    {
        if (LiveEntry *entry = live_.find(block);
            entry && !entry->used) {
            entry->used = true;
            PrefetchSourceStats &s =
                stats_[static_cast<std::size_t>(entry->source)];
            if (now >= entry->ready) {
                ++s.timely;
                s.leadCycleSum += now - entry->ready;
            } else {
                ++s.late;
            }
        }
        // A demanded block (prefetched or not) is live demand data:
        // if a later prefetch fill displaces it, that fill was
        // harmful.
        demandLive_.insert(block);
    }

    /** A demand fill of @p block displaced @p evicted from the L1. */
    void
    onDemandFill(Addr block, std::optional<Addr> evicted)
    {
        if (evicted)
            onEviction(*evicted, std::nullopt);
        demandLive_.insert(block);
        // The block arrived on demand, not via prefetch: drop any
        // stale lifecycle record (its eviction was already scored).
        live_.erase(block);
    }

    /** End of run: score still-unused live prefetches as useless. */
    void finalize();

    const PrefetchSourceStats &
    stats(PrefetchSource source) const
    {
        return stats_[static_cast<std::size_t>(source)];
    }

  private:
    struct LiveEntry
    {
        PrefetchSource source = PrefetchSource::Other;
        Cycle ready = 0;
        bool used = false;
    };

    /** @p block left the L1; @p byPrefetch names the displacing
     *  source when the evictor was a prefetch fill. */
    void
    onEviction(Addr block, std::optional<PrefetchSource> byPrefetch)
    {
        if (LiveEntry *entry = live_.find(block)) {
            if (!entry->used) {
                ++stats_[static_cast<std::size_t>(entry->source)]
                      .useless;
            } else if (byPrefetch) {
                // The victim was prefetched data the demand stream
                // had adopted — displacing it is pollution all the
                // same.
                ++stats_[static_cast<std::size_t>(*byPrefetch)].harmful;
            }
            live_.erase(block);
            demandLive_.erase(block);
            return;
        }
        if (demandLive_.erase(block) && byPrefetch)
            ++stats_[static_cast<std::size_t>(*byPrefetch)].harmful;
    }

    std::array<PrefetchSourceStats, numPrefetchSources> stats_{};
    AddrMap<LiveEntry> live_;
    AddrSet demandLive_{1024};
};

/**
 * FIFO-bounded map of in-flight prefetch block addresses.
 *
 * The FIFO is an intrusive power-of-two ring of block addresses. A
 * consumed block leaves the table immediately but its ring slot stays
 * behind as a stale entry (exactly the retired-deque semantics the
 * eviction loop always had); the ring therefore grows past the
 * nominal capacity and is compacted only by eviction.
 */
class InflightPrefetchBuffer
{
  public:
    explicit InflightPrefetchBuffer(std::size_t capacity = 64)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
        fifo_.resize(64);
    }

    /**
     * Record a prefetch of @p block_addr completing at @p ready.
     * When full, the oldest entry is replaced (finite MSHRs).
     * @return false if the block was already in flight.
     */
    bool
    issue(Addr block_addr, Cycle ready)
    {
        if (map_.contains(block_addr))
            return false;
        while (map_.size() >= capacity_ && fifoHead_ != fifoTail_) {
            map_.erase(fifo_[fifoHead_ & (fifo_.size() - 1)]);
            ++fifoHead_;
        }
        map_.insertOrAssign(block_addr, ready);
        fifoPush(block_addr);
        return true;
    }

    /**
     * A demand access touched the block: remove and return its ready
     * cycle (nullopt if not in flight).
     */
    std::optional<Cycle>
    consume(Addr block_addr)
    {
        Cycle *ready = map_.find(block_addr);
        if (!ready)
            return std::nullopt;
        const Cycle when = *ready;
        map_.erase(block_addr);
        // The ring may retain a stale address; issue() skips entries
        // no longer present in the map when it evicts.
        return when;
    }

    bool
    contains(Addr block_addr) const
    {
        return map_.contains(block_addr);
    }

    std::size_t size() const { return map_.size(); }

    void
    clear()
    {
        map_.clear();
        fifoHead_ = fifoTail_ = 0;
    }

  private:
    void
    fifoPush(Addr block_addr)
    {
        if (fifoTail_ - fifoHead_ == fifo_.size())
            growFifo();
        fifo_[fifoTail_ & (fifo_.size() - 1)] = block_addr;
        ++fifoTail_;
    }

    void growFifo();

    std::size_t capacity_;
    AddrMap<Cycle> map_;
    std::vector<Addr> fifo_; //!< power-of-two ring store
    std::uint64_t fifoHead_ = 0;
    std::uint64_t fifoTail_ = 0;
};

} // namespace espsim

#endif // ESPSIM_PREFETCH_INFLIGHT_HH
