/**
 * @file
 * Runahead execution (Dundas & Mudge; Mutlu et al.) — the paper's main
 * comparison point.
 *
 * On a data LLC miss that blocks the head of the ROB, runahead keeps
 * executing *the same event's* subsequent instructions in a scratch
 * mode: loads with valid (miss-independent) addresses warm the data
 * cache, the branch predictor keeps training, and everything is thrown
 * away when the miss returns. Two structural limits — it cannot run
 * ahead past an instruction-cache LLC miss, and it can only follow the
 * predicted path once a miss-dependent branch is reached — are exactly
 * the gaps ESP exploits (paper §1, §6.1).
 */

#ifndef ESPSIM_CPU_RUNAHEAD_HH
#define ESPSIM_CPU_RUNAHEAD_HH

#include <cstdint>

#include "branch/pentium_m.hh"
#include "cache/hierarchy.hh"
#include "cpu/hooks.hh"
#include "report/stat_registry.hh"
#include "trace/workload.hh"

namespace espsim
{

/** Runahead engine configuration. */
struct RunaheadConfig
{
    /** Warm the data cache with valid-address loads. */
    bool warmData = true;
    /** Keep training the branch predictor in runahead mode. */
    bool trainBranchPredictor = true;
    /** Warm the instruction cache along the runahead path. */
    bool warmInstr = true;
    Cycle mispredictPenalty = 15;
};

/** Counters the runahead engine accumulates. */
struct RunaheadStats
{
    std::uint64_t entries = 0;          //!< runahead episodes
    InstCount instructions = 0;         //!< pseudo-retired in runahead
    std::uint64_t stoppedOnInstrMiss = 0;
    std::uint64_t stoppedOnWrongPath = 0;
    std::uint64_t invalidOps = 0;       //!< miss-dependent, skipped
};

/** Runahead execution engine; plugs into OoOCore's stall hook. */
class RunaheadEngine : public CoreHooks
{
  public:
    RunaheadEngine(const RunaheadConfig &config, MemoryHierarchy &mem,
                   PentiumMPredictor &bp, const Workload &workload,
                   unsigned core_width = 4);

    void onEventStart(std::size_t event_idx, Cycle now) override;
    Cycle onStall(const StallContext &ctx) override;
    SpecEngine engine() const override { return SpecEngine::Runahead; }

    const RunaheadStats &stats() const { return stats_; }

    /** Register every runahead counter by name (canonical surface). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    const RunaheadConfig config_;
    MemoryHierarchy &mem_;
    PentiumMPredictor &bp_;
    const Workload &workload_;
    const unsigned width_;

    std::size_t curEventIdx_ = 0;
    /** High-water mark of ops already covered by an earlier episode in
     *  this event; re-walking them would double-train the predictor's
     *  non-idempotent structures and re-touch warm blocks. */
    std::size_t coveredOpIdx_ = 0;
    RunaheadStats stats_;
};

} // namespace espsim

#endif // ESPSIM_CPU_RUNAHEAD_HH
