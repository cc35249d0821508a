/**
 * @file
 * The Event Sneak Peek controller (paper §3-§4).
 *
 * Attached to the core's stall hook, it spends LLC-miss idle windows
 * speculatively pre-executing the next events in the hardware event
 * queue (ESP-1, then ESP-2 on a further LLC miss or event end). Each
 * pre-execution runs against its own cachelet partition and PIR/RAS
 * context, is re-entrant across stall windows, and records I/D-block
 * addresses and branch outcomes into the compressed lists. When a
 * pre-executed event is later dispatched for real, the controller
 * replays the lists: timely prefetches 190 instructions ahead of
 * recorded use (primed before the event starts, during the looper
 * gap), and just-in-time branch-predictor training a fixed number of
 * branches ahead.
 */

#ifndef ESPSIM_ESP_CONTROLLER_HH
#define ESPSIM_ESP_CONTROLLER_HH

#include <memory>
#include <vector>

#include "branch/pentium_m.hh"
#include "cache/cachelet.hh"
#include "cache/hierarchy.hh"
#include "common/arena.hh"
#include "common/block_run_set.hh"
#include "common/histogram.hh"
#include "cpu/hooks.hh"
#include "esp/config.hh"
#include "esp/event_queue.hh"
#include "esp/lists.hh"
#include "report/stat_registry.hh"
#include "report/timeline.hh"
#include "trace/workload.hh"

namespace espsim
{

/** Counters the controller accumulates over a run. */
struct EspStats
{
    std::uint64_t jumps = 0;            //!< mode entries from stalls
    std::uint64_t deepJumps = 0;        //!< ESP-2 (or deeper) entries
    InstCount preExecutedInstrs = 0;    //!< all ESP modes
    InstCount preExecutedInstrsDeep = 0;//!< depth >= 2
    std::uint64_t eventsPreExecuted = 0;//!< events with any pre-exec
    std::uint64_t eventsPreExecutedToEnd = 0;
    std::uint64_t listPrefetchesInstr = 0;
    std::uint64_t listPrefetchesData = 0;
    std::uint64_t branchesPreTrained = 0;
    std::uint64_t iListOverflows = 0;
    std::uint64_t dListOverflows = 0;
    std::uint64_t bListOverflows = 0;
    // List coverage / compression raw counters (AppendOutcome tallies
    // over every speculative block recorded into an I-/D-list).
    std::uint64_t iListBlocksRecorded = 0; //!< new records + run ext.
    std::uint64_t iListRunExtensions = 0;
    std::uint64_t iListRetouches = 0;
    std::uint64_t iListEscapes = 0;
    std::uint64_t dListBlocksRecorded = 0;
    std::uint64_t dListRunExtensions = 0;
    std::uint64_t dListRetouches = 0;
    std::uint64_t dListEscapes = 0;
    std::uint64_t divergedEventsPreExecuted = 0;
    /** Promotions vetoed by the incorrect-prediction bit (§4.5):
     *  the runtime dispatched a different event than predicted. */
    std::uint64_t mispredictedDispatches = 0;
    /** Sum over pre-executed events of the fraction of speculative ops
     *  matching the normal view (accuracy numerator; divide by
     *  eventsPreExecuted). */
    double specMatchSum = 0.0;
};

/** ESP architecture model; plugs into OoOCore as its stall engine. */
class EspController : public CoreHooks
{
  public:
    EspController(const EspConfig &config, MemoryHierarchy &mem,
                  PentiumMPredictor &bp, const Workload &workload,
                  unsigned core_width = 4);

    // CoreHooks interface -------------------------------------------
    void onEventStart(std::size_t event_idx, Cycle now) override;
    void onEventEnd(std::size_t event_idx, Cycle now) override;
    void beforeOp(std::size_t op_idx, const MicroOp &op,
                  Cycle now) override;
    Cycle onStall(const StallContext &ctx) override;
    SpecEngine engine() const override { return SpecEngine::Esp; }

    /** The per-op hook only does work while list consumption for the
     *  current event is live; tell the core so it can skip the
     *  indirect call in its issue loop otherwise. */
    bool perOpActive() const override { return consume_.valid; }

    const EspStats &stats() const { return stats_; }
    const EspConfig &config() const { return config_; }
    const HardwareEventQueue &eventQueue() const { return queue_; }

    /** Pre-execution working-set sizes per depth (Figure 13; only
     *  populated when config.trackWorkingSets). Index 0 = ESP-1. */
    const std::vector<SampleStat> &instrWorkingSets() const
    {
        return instrWorkingSets_;
    }
    const std::vector<SampleStat> &dataWorkingSets() const
    {
        return dataWorkingSets_;
    }

    /** Register every ESP counter by name (canonical surface). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /** Attach a timeline sink; pre-execution windows are recorded
     *  into it as ESP-depth slices (nullptr detaches). */
    void setTimeline(EventTimeline *timeline) { timeline_ = timeline; }

  private:
    /** State of one speculative execution context (ESP-i). */
    struct SpecContext
    {
        std::size_t eventIdx = SIZE_MAX;
        std::size_t opIdx = 0; //!< resume point in the speculative view
        bool active = false;
        bool exhausted = false;
        Addr curFetchBlock = ~Addr{0};
        BpContext bpCtx;
        AddressList ilist;
        AddressList dlist;
        BranchList blist;
        std::unique_ptr<PentiumMPredictor> replica; //!< tables policy
        BlockRunSet instrBlocks; //!< Fig. 13 tracking
        BlockRunSet dataBlocks;

        SpecContext() : ilist(0), dlist(0), blist(0, 0) {}
    };

    /** Read-only view of records staged in the event arena. */
    template <typename T>
    struct RecordSpan
    {
        const T *data = nullptr;
        std::size_t count = 0;

        std::size_t size() const { return count; }
        const T &operator[](std::size_t i) const { return data[i]; }
    };

    /** Normal-mode consumption state for the current event's lists.
     *  The record arrays are copies staged in arena_ at promotion —
     *  the owning SpecContext's lists are recycled immediately after,
     *  and arena copies avoid per-event vector churn. */
    struct ConsumeState
    {
        bool valid = false;
        RecordSpan<AddressRecord> irecs;
        RecordSpan<AddressRecord> drecs;
        RecordSpan<BranchRecord> brecs;
        std::size_t icur = 0;
        std::size_t dcur = 0;
        std::size_t bcur = 0;
        std::size_t branchesExecuted = 0;
        /** First op index at which another list record becomes
         *  drainable; beforeOp skips drainPrefetches until then. */
        std::size_t nextDrainOp = 0;
        BpContext trainCtx;
    };

    const EspConfig config_;
    MemoryHierarchy &mem_;
    PentiumMPredictor &bp_;
    const Workload &workload_;
    const unsigned width_;

    HardwareEventQueue queue_;
    Cachelet icachelet_;
    Cachelet dcachelet_;
    std::vector<SpecContext> slots_; //!< slot d pre-executes cur+d+1
    ConsumeState consume_;
    EventArena arena_; //!< backs consume_'s record spans; reset per event
    AddressList scratchList_{0}; //!< reused by promoteContexts rebuilds
    std::size_t curEventIdx_ = 0;

    EspStats stats_;
    EventTimeline *timeline_ = nullptr;
    std::vector<SampleStat> instrWorkingSets_;
    std::vector<SampleStat> dataWorkingSets_;

    // --- pre-execution ----------------------------------------------
    void activate(SpecContext &sc, std::size_t event_idx);
    void finishSpec(SpecContext &sc, bool reached_end);
    /**
     * Pre-execute at depth @p d (0-based) within @p budget_q quarter
     * cycles; returns quarter cycles spent and sets @p want_deeper on
     * an LLC miss that should jump to the next context.
     */
    std::uint64_t runSpec(unsigned d, std::uint64_t budget_q,
                          bool &want_deeper);
    /** Cachelet (or tracking-set) instruction access at depth d. */
    AccessResult speculativeFetch(unsigned d, SpecContext &sc, Addr pc);
    AccessResult speculativeData(unsigned d, SpecContext &sc,
                                 const MicroOp &op);

    // --- normal-mode consumption -------------------------------------
    void drainPrefetches(std::size_t op_idx, Cycle now);
    void trainAhead(Cycle now);
    void promoteContexts(std::size_t finished_idx);
    static void rebuildWithCapacity(AddressList &dst,
                                    const AddressList &src,
                                    std::size_t cap_bytes);
};

} // namespace espsim

#endif // ESPSIM_ESP_CONTROLLER_HH
