/**
 * @file
 * The memory hierarchy of the baseline core (paper Figure 7):
 * split 32 KB 2-way L1-I / L1-D, unified 2 MB 16-way L2 (the LLC),
 * and DRAM at a flat 101-cycle access latency.
 *
 * Demand accesses walk L1 → L2 → memory and fill inclusively.
 * Prefetches insert immediately and record their completion time in an
 * in-flight buffer so late prefetches pay residual latency. Probe
 * methods report where a block lives without disturbing state — the
 * ESP cachelet fill path uses them, because ESP-mode accesses bypass
 * the L1/L2 entirely (§3.4).
 */

#ifndef ESPSIM_CACHE_HIERARCHY_HH
#define ESPSIM_CACHE_HIERARCHY_HH

#include <cstdint>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "prefetch/inflight.hh"
#include "report/stat_registry.hh"

namespace espsim
{

/** Level that serviced an access. */
enum class HitLevel : std::uint8_t
{
    L1,     //!< first-level hit
    L2,     //!< L1 miss, L2 hit
    Memory, //!< LLC miss (this is what triggers ESP / runahead)
};

/** Outcome of a demand access or probe. */
struct AccessResult
{
    Cycle latency = 0;
    HitLevel level = HitLevel::L1;

    bool llcMiss() const { return level == HitLevel::Memory; }
};

/** Configuration of the hierarchy. */
struct HierarchyConfig
{
    CacheGeometry l1i{"L1-I", 32 * 1024, 2, 2};
    CacheGeometry l1d{"L1-D", 32 * 1024, 2, 2};
    CacheGeometry l2{"L2", 2 * 1024 * 1024, 16, 21};
    Cycle memLatency = 101;

    /** Idealisation switches for the Figure 3 potential study. */
    bool perfectL1I = false;
    bool perfectL1D = false;
};

/** Two-level cache hierarchy plus DRAM with prefetch support. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &config);

    const HierarchyConfig &config() const { return config_; }

    /** Demand instruction fetch of the block containing @p addr. */
    AccessResult
    accessInstr(Addr addr, Cycle now)
    {
        if (config_.perfectL1I) {
            if (countStats_)
                ++stat_l1i_acc_;
            return {config_.l1i.hitLatency, HitLevel::L1};
        }
        return accessSide(l1i_, inflightInstr_, lifecycleInstr_, addr,
                          false, now, stat_l1i_acc_, stat_l1i_miss_);
    }

    /** Demand data access (@p write marks the block dirty). */
    AccessResult
    accessData(Addr addr, bool write, Cycle now)
    {
        if (config_.perfectL1D) {
            if (countStats_)
                ++stat_l1d_acc_;
            return {config_.l1d.hitLatency, HitLevel::L1};
        }
        return accessSide(l1d_, inflightData_, lifecycleData_, addr,
                          write, now, stat_l1d_acc_, stat_l1d_miss_);
    }

    /**
     * Where would the block come from right now? No state change; used
     * by ESP cachelet fills and by prefetch-issue latency estimation.
     */
    AccessResult
    probeInstr(Addr addr) const
    {
        if (config_.perfectL1I)
            return {config_.l1i.hitLatency, HitLevel::L1};
        return probeSide(l1i_, addr);
    }

    AccessResult
    probeData(Addr addr) const
    {
        if (config_.perfectL1D)
            return {config_.l1d.hitLatency, HitLevel::L1};
        return probeSide(l1d_, addr);
    }

    /**
     * Issue a prefetch of the block containing @p addr into the
     * instruction (or data) side. Fills L1 and L2 immediately and
     * tracks readiness; a no-op when already resident or in flight.
     * @p source tags the prefetch for lifecycle classification
     * (timely / late / useless / harmful, per issuing engine).
     * @return true if a prefetch was actually issued.
     */
    bool
    prefetchInstr(Addr addr, Cycle now,
                  PrefetchSource source = PrefetchSource::Other)
    {
        if (config_.perfectL1I)
            return false;
        return prefetchSide(l1i_, inflightInstr_, lifecycleInstr_,
                            addr, now, source);
    }

    bool
    prefetchData(Addr addr, Cycle now,
                 PrefetchSource source = PrefetchSource::Other)
    {
        if (config_.perfectL1D)
            return false;
        return prefetchSide(l1d_, inflightData_, lifecycleData_, addr,
                            now, source);
    }

    /** Direct cache access (ESP naive mode uses these). */
    SetAssocCache &l1i() { return l1i_; }
    SetAssocCache &l1d() { return l1d_; }
    SetAssocCache &l2() { return l2_; }

    /**
     * Gate demand statistics; speculative pre-executions that go
     * through the regular hierarchy (naive ESP, runahead) disable
     * counting so reported miss rates reflect normal execution only.
     */
    void setStatCounting(bool enable) { countStats_ = enable; }

    // --- statistics -----------------------------------------------
    std::uint64_t l1iAccesses() const { return stat_l1i_acc_; }
    std::uint64_t l1iMisses() const { return stat_l1i_miss_; }
    std::uint64_t l1dAccesses() const { return stat_l1d_acc_; }
    std::uint64_t l1dMisses() const { return stat_l1d_miss_; }
    std::uint64_t l2Misses() const { return stat_l2_miss_; }
    std::uint64_t prefetchesIssued() const { return stat_pf_issued_; }
    std::uint64_t latePrefetchHits() const { return stat_pf_late_; }

    /** Per-source lifecycle stats, instruction + data side summed. */
    PrefetchSourceStats prefetchLifecycle(PrefetchSource source) const;

    /** End of run: score still-unused prefetched blocks as useless.
     *  Call once, before snapshotting the registry. */
    void finalizePrefetchLifecycles();

    /** Register every hierarchy counter by name (canonical surface). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Snapshot all counters into @p stats (view over the registry). */
    void report(StatGroup &stats, const std::string &prefix) const;

  private:
    HierarchyConfig config_;
    bool countStats_ = true;
    SetAssocCache l1i_;
    SetAssocCache l1d_;
    SetAssocCache l2_;
    InflightPrefetchBuffer inflightInstr_;
    InflightPrefetchBuffer inflightData_;
    PrefetchLifecycleTracker lifecycleInstr_;
    PrefetchLifecycleTracker lifecycleData_;

    std::uint64_t stat_l1i_acc_ = 0;
    std::uint64_t stat_l1i_miss_ = 0;
    std::uint64_t stat_l1d_acc_ = 0;
    std::uint64_t stat_l1d_miss_ = 0;
    std::uint64_t stat_l2_miss_ = 0;
    std::uint64_t stat_pf_issued_ = 0;
    std::uint64_t stat_pf_late_ = 0;

    /**
     * The demand path proper; inline so the whole L1→L2→memory walk
     * (including inflight-buffer consume and lifecycle scoring)
     * compiles into the caller's loop.
     *
     * Lifecycle filter: a counted L1 hit on a line whose demand-seen
     * bit is already set skips the tracker. The bit is set only here,
     * on counted hits, and cleared by every fill and invalidation and
     * by finalizePrefetchLifecycles(), so a set bit means the tracker
     * has seen a counted demand access to this very line since its
     * fill: the block is in its demand-live set, and any prefetch
     * record for it is already scored as used (a new record needs a
     * prefetch fill, which would have cleared the bit). The skipped
     * onDemandAccess() would change nothing.
     */
    AccessResult
    accessSide(SetAssocCache &l1, InflightPrefetchBuffer &inflight,
               PrefetchLifecycleTracker &lifecycle, Addr addr,
               bool write, Cycle now, std::uint64_t &acc_stat,
               std::uint64_t &miss_stat)
    {
        if (countStats_)
            ++acc_stat;
        const Addr block = blockAlign(addr);
        const Cycle l1_lat = l1.geometry().hitLatency;
        const auto ready = inflight.consume(block);

        if (const std::size_t line = l1.lookupLine(addr);
            line != SetAssocCache::noLine) {
            if (countStats_ && l1.testAndSetDemandSeen(line))
                lifecycle.onDemandAccess(block, now);
            if (write)
                l1.markDirty(line);
            if (ready && *ready > now) {
                // Prefetched block still being filled: pay the
                // residue.
                if (countStats_) {
                    ++miss_stat;
                    ++stat_pf_late_;
                }
                return {*ready - now + l1_lat, HitLevel::L2};
            }
            return {l1_lat, HitLevel::L1};
        }

        if (countStats_)
            ++miss_stat;
        const Cycle l2_lat = l2_.geometry().hitLatency;
        if (l2_.lookup(addr)) {
            const auto evicted = l1.insertEvicting(addr, write);
            if (countStats_)
                lifecycle.onDemandFill(block, evicted);
            return {l1_lat + l2_lat, HitLevel::L2};
        }

        if (countStats_)
            ++stat_l2_miss_;
        l2_.insert(addr);
        const auto evicted = l1.insertEvicting(addr, write);
        if (countStats_)
            lifecycle.onDemandFill(block, evicted);
        return {l1_lat + l2_lat + config_.memLatency, HitLevel::Memory};
    }

    AccessResult
    probeSide(const SetAssocCache &l1, Addr addr) const
    {
        const Cycle l1_lat = l1.geometry().hitLatency;
        const Cycle l2_lat = l2_.geometry().hitLatency;
        if (l1.contains(addr))
            return {l1_lat, HitLevel::L1};
        if (l2_.contains(addr))
            return {l1_lat + l2_lat, HitLevel::L2};
        return {l1_lat + l2_lat + config_.memLatency, HitLevel::Memory};
    }

    bool
    prefetchSide(SetAssocCache &l1, InflightPrefetchBuffer &inflight,
                 PrefetchLifecycleTracker &lifecycle, Addr addr,
                 Cycle now, PrefetchSource source)
    {
        if (l1.contains(addr) || inflight.contains(addr))
            return false;
        const AccessResult src = probeSide(l1, addr);
        // Fill now (so capacity pressure and pollution are modeled)
        // and remember when the fill actually lands.
        l2_.insert(addr);
        const auto evicted = l1.insertEvicting(addr);
        const Cycle ready = now + src.latency;
        inflight.issue(blockAlign(addr), ready);
        lifecycle.onPrefetchIssue(blockAlign(addr), source, ready,
                                  evicted);
        ++stat_pf_issued_;
        return true;
    }
};

} // namespace espsim

#endif // ESPSIM_CACHE_HIERARCHY_HH
