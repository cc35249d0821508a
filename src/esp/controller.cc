#include "esp/controller.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace espsim
{

namespace
{

/** Penalties charged during pre-execution (match CoreConfig defaults). */
constexpr Cycle specMispredictPenalty = 15;
constexpr Cycle specBtbMissPenalty = 6;

EspDepth
depthEnum(unsigned d)
{
    return d == 0 ? EspDepth::Esp1 : EspDepth::Esp2;
}

/** Tally one AddressList append outcome into the list counters. */
void
countOutcome(AppendOutcome out, std::uint64_t &blocks,
             std::uint64_t &runs, std::uint64_t &retouches,
             std::uint64_t &escapes)
{
    switch (out) {
      case AppendOutcome::NewRecord:
        ++blocks;
        break;
      case AppendOutcome::NewRecordEscaped:
        ++blocks;
        ++escapes;
        break;
      case AppendOutcome::RunExtended:
        ++blocks;
        ++runs;
        break;
      case AppendOutcome::Retouch:
        ++retouches;
        break;
      case AppendOutcome::Rejected:
        break;
    }
}

} // namespace

EspController::EspController(const EspConfig &config,
                             MemoryHierarchy &mem, PentiumMPredictor &bp,
                             const Workload &workload,
                             unsigned core_width)
    : config_(config), mem_(mem), bp_(bp), workload_(workload),
      width_(core_width), icachelet_(config.icachelet),
      dcachelet_(config.dcachelet), slots_(config.maxDepth),
      instrWorkingSets_(config.maxDepth),
      dataWorkingSets_(config.maxDepth)
{
    if (config_.maxDepth == 0)
        fatal("EspConfig.maxDepth must be at least 1");
    for (unsigned d = 0; d < config_.maxDepth; ++d) {
        slots_[d].ilist = AddressList(
            config_.listBytes(config_.iListBytes, d));
        slots_[d].dlist = AddressList(
            config_.listBytes(config_.dListBytes, d));
        slots_[d].blist = BranchList(
            config_.listBytes(config_.bListDirBytes, d),
            config_.listBytes(config_.bListTgtBytes, d));
    }
    queue_.refill(workload_, 0);
}

void
EspController::activate(SpecContext &sc, std::size_t event_idx)
{
    const unsigned d = static_cast<unsigned>(&sc - slots_.data());
    sc.eventIdx = event_idx;
    sc.opIdx = 0;
    sc.active = true;
    sc.exhausted = false;
    sc.curFetchBlock = ~Addr{0};
    sc.bpCtx.clear();
    // Reset-in-place: the lists and tracking sets retain their storage
    // across activations, so re-arming a context never allocates.
    sc.ilist.resetCapacity(config_.listBytes(config_.iListBytes, d));
    sc.dlist.resetCapacity(config_.listBytes(config_.dListBytes, d));
    sc.blist.resetCapacity(config_.listBytes(config_.bListDirBytes, d),
                           config_.listBytes(config_.bListTgtBytes, d));
    sc.instrBlocks.clear();
    sc.dataBlocks.clear();
    sc.replica.reset();
    if (config_.branchPolicy == BranchPolicy::SeparatePirAndTables &&
        !config_.naiveMode) {
        sc.replica = std::make_unique<PentiumMPredictor>(bp_.clone());
        sc.replica->swapContext(BpContext{});
    }
    if (d < HardwareEventQueue::depth) {
        EventQueueEntry &entry = queue_.entry(d);
        if (entry.valid && entry.eventIdx == event_idx)
            entry.executionUnderway = true;
    }

    ++stats_.eventsPreExecuted;
    const EventTrace &ev = workload_.event(event_idx);
    if (!ev.independent())
        ++stats_.divergedEventsPreExecuted;
    stats_.specMatchSum += ev.speculativeMatchFraction();
}

void
EspController::finishSpec(SpecContext &sc, bool reached_end)
{
    sc.exhausted = true;
    if (reached_end)
        ++stats_.eventsPreExecutedToEnd;
}

AccessResult
EspController::speculativeFetch(unsigned d, SpecContext &sc, Addr pc)
{
    const Addr blk = blockAlign(pc);
    if (config_.trackWorkingSets && !(config_.ideal || d >= 2))
        sc.instrBlocks.insert(blk);

    const Cycle l1_lat = config_.icachelet.hitLatency;
    bool hit;
    if (config_.ideal || d >= 2) {
        // Unbounded cachelet model: the tracking set is the tag store.
        hit = !sc.instrBlocks.insert(blk);
    } else {
        hit = icachelet_.lookupFor(depthEnum(d), pc);
    }
    if (hit)
        return {l1_lat, HitLevel::L1};

    const AccessResult res = mem_.probeInstr(pc);
    if (!config_.ideal && d < 2)
        icachelet_.insertFor(depthEnum(d), pc);
    if (config_.useIList) {
        AppendOutcome out;
        if (!sc.ilist.append(pc, sc.opIdx, &out))
            ++stats_.iListOverflows;
        countOutcome(out, stats_.iListBlocksRecorded,
                     stats_.iListRunExtensions, stats_.iListRetouches,
                     stats_.iListEscapes);
    }
    return res;
}

AccessResult
EspController::speculativeData(unsigned d, SpecContext &sc,
                               const MicroOp &op)
{
    const Addr blk = blockAlign(op.memAddr);
    if (config_.trackWorkingSets && !(config_.ideal || d >= 2))
        sc.dataBlocks.insert(blk);

    const Cycle l1_lat = config_.dcachelet.hitLatency;
    bool hit;
    if (config_.ideal || d >= 2) {
        hit = !sc.dataBlocks.insert(blk);
    } else {
        hit = dcachelet_.lookupFor(depthEnum(d), op.memAddr);
    }
    (void)blk;
    if (hit) {
        if (op.isStore() && !config_.ideal && d < 2) {
            // Speculative stores stay in the cachelet, never written
            // back (§3.4/§4.4).
            dcachelet_.insertFor(depthEnum(d), op.memAddr, true);
        }
        return {l1_lat, HitLevel::L1};
    }

    const AccessResult res = mem_.probeData(op.memAddr);
    if (!config_.ideal && d < 2)
        dcachelet_.insertFor(depthEnum(d), op.memAddr, op.isStore());
    if (config_.useDList) {
        AppendOutcome out;
        if (!sc.dlist.append(op.memAddr, sc.opIdx, &out))
            ++stats_.dListOverflows;
        countOutcome(out, stats_.dListBlocksRecorded,
                     stats_.dListRunExtensions, stats_.dListRetouches,
                     stats_.dListEscapes);
    }
    return res;
}

std::uint64_t
EspController::runSpec(unsigned d, std::uint64_t budget_q,
                       bool &want_deeper)
{
    want_deeper = false;
    SpecContext &sc = slots_[d];
    // The runtime predicts which event runs d+1 dispatches from now
    // (§4.5); for single-queue loopers this is simply current + d + 1.
    const std::size_t target =
        workload_.predictedNext(curEventIdx_, d + 1);
    if (target >= workload_.numEvents() || target == curEventIdx_)
        return 0;

    if (!sc.active || sc.eventIdx != target)
        activate(sc, target);
    if (!config_.reentrant && sc.active && sc.opIdx > 0 &&
        !sc.exhausted) {
        // Non-re-entrant ablation: restart from the event beginning on
        // every visit (the design §3.4 argues against).
        sc.opIdx = 0;
        sc.curFetchBlock = ~Addr{0};
    }
    if (sc.exhausted) {
        want_deeper = true;
        return 0;
    }

    const EventTrace &ev = workload_.event(target);
    const std::size_t spec_size = ev.speculativeSize();

    // Select the predictor/context for this mode per the policy.
    PentiumMPredictor *pred = &bp_;
    bool swapped = false;
    BpContext saved;
    if (config_.naiveMode ||
        config_.branchPolicy == BranchPolicy::NoExtraHardware) {
        // Shared context: pre-execution pollutes the normal PIR/RAS.
    } else if (config_.branchPolicy ==
                   BranchPolicy::SeparatePirAndTables &&
               sc.replica) {
        pred = sc.replica.get();
    } else {
        saved = bp_.swapContext(std::move(sc.bpCtx));
        swapped = true;
    }

    std::uint64_t spent = 0;
    const bool record_blist = !config_.naiveMode && config_.useBList;

    while (spent < budget_q) {
        if (sc.opIdx >= spec_size) {
            finishSpec(sc, true);
            want_deeper = true;
            break;
        }
        // Bound how deep one event is pre-executed: past roughly the
        // lists' reach, further pre-execution only perturbs shared
        // predictor state for hints that cannot be stored.
        if (!config_.naiveMode && !config_.ideal &&
            sc.opIdx >= config_.maxPreExecPerEvent) {
            finishSpec(sc, false);
            want_deeper = true;
            break;
        }
        const MicroOp &op = ev.speculativeOp(sc.opIdx);
        spent += 1; // one issue slot (1/width cycle)

        // --- speculative instruction fetch --------------------------
        const Addr iblk = blockAlign(op.pc);
        if (iblk != sc.curFetchBlock) {
            sc.curFetchBlock = iblk;
            AccessResult res;
            if (config_.naiveMode) {
                res = mem_.accessInstr(op.pc, 0);
            } else {
                res = speculativeFetch(d, sc, op.pc);
            }
            const Cycle l1_lat = config_.icachelet.hitLatency;
            if (res.latency > l1_lat) {
                // The ESP-mode core is itself out of order; most of a
                // fill's latency overlaps with useful pre-execution.
                spent += (res.latency - l1_lat) * width_ / 8;
            }
            if (res.llcMiss() && d + 1 < config_.maxDepth &&
                workload_.predictedNext(curEventIdx_, d + 2) <
                    workload_.numEvents()) {
                // Jump ahead one more event; the fill completes in the
                // background (already inserted into the cachelet).
                spent += config_.contextSwitchCycles * width_;
                want_deeper = true;
                break;
            }
        }

        // --- branches ------------------------------------------------
        if (op.isBranchOp()) {
            const BranchResult res = pred->executeBranch(op, false);
            if (res == BranchResult::Mispredict)
                spent += specMispredictPenalty * width_;
            else if (res == BranchResult::BtbMiss)
                spent += specBtbMissPenalty * width_;
            if (record_blist) {
                BranchRecord rec;
                rec.pc = op.pc;
                rec.instCount = sc.opIdx;
                rec.target = op.branchTarget();
                rec.type = op.type();
                rec.taken = op.taken();
                rec.indirect = op.type() == OpType::BranchIndirect;
                if (!sc.blist.append(rec))
                    ++stats_.bListOverflows;
            }
        }

        // --- memory ---------------------------------------------------
        bool jumped_on_data = false;
        if (op.isMemoryOp()) {
            AccessResult res;
            if (config_.naiveMode) {
                res = mem_.accessData(op.memAddr, op.isStore(), 0);
            } else {
                res = speculativeData(d, sc, op);
            }
            const Cycle l1_lat = config_.dcachelet.hitLatency;
            if (op.isLoad() && res.latency > l1_lat) {
                // Loads overlap in the OoO window; charge a fraction
                // of the exposed latency.
                spent += (res.latency - l1_lat) * width_ / 8;
            }
            if (res.llcMiss() && op.isLoad() &&
                d + 1 < config_.maxDepth &&
                workload_.predictedNext(curEventIdx_, d + 2) <
                    workload_.numEvents()) {
                spent += config_.contextSwitchCycles * width_;
                jumped_on_data = true;
            }
        }

        ++sc.opIdx;
        ++stats_.preExecutedInstrs;
        if (d >= 1)
            ++stats_.preExecutedInstrsDeep;
        if (jumped_on_data) {
            want_deeper = true;
            break;
        }
    }

    if (swapped)
        sc.bpCtx = bp_.swapContext(std::move(saved));
    return spent;
}

Cycle
EspController::onStall(const StallContext &ctx)
{
    if (curEventIdx_ + 1 >= workload_.numEvents())
        return 0;
    ++stats_.jumps;

    std::uint64_t budget_q =
        static_cast<std::uint64_t>(ctx.idleCycles) * width_;
    if (config_.naiveMode)
        mem_.setStatCounting(false);

    unsigned d = 0;
    std::uint64_t consumed_q = 0;
    while (budget_q > 0 && d < config_.maxDepth) {
        bool deeper = false;
        const std::uint64_t spent = runSpec(d, budget_q, deeper);
        if (timeline_ && spent > 0) {
            // One pre-execution window: depth d+1 (ESP-1, ESP-2),
            // positioned inside the stall shadow after any budget the
            // shallower contexts already consumed.
            timeline_->recordEspWindow(
                d + 1, slots_[d].eventIdx, ctx.now + consumed_q / width_,
                std::max<Cycle>(1, spent / width_));
        }
        consumed_q += spent;
        budget_q -= std::min(spent, budget_q);
        if (!deeper)
            break;
        ++d;
        if (d < config_.maxDepth && budget_q > 0)
            ++stats_.deepJumps;
    }

    if (config_.naiveMode)
        mem_.setStatCounting(true);
    // Report how much of the idle shadow pre-execution actually used;
    // the core's cycle attributor moves that portion of the stall into
    // the esp_pre_exec bucket.
    return std::min<Cycle>(consumed_q / width_, ctx.idleCycles);
}

void
EspController::rebuildWithCapacity(AddressList &dst,
                                   const AddressList &src,
                                   std::size_t cap_bytes)
{
    dst.resetCapacity(cap_bytes);
    for (const AddressRecord &rec : src.records()) {
        for (unsigned k = 0; k <= rec.runLength; ++k) {
            if (!dst.append(rec.blockAddr + k * blockBytes,
                            rec.instCount)) {
                return;
            }
        }
    }
}

void
EspController::promoteContexts(std::size_t finished_idx)
{
    curEventIdx_ = finished_idx + 1;

    // Hand slot 0's recordings to the next normal execution — unless
    // the runtime's dispatch prediction was wrong, in which case the
    // queue entry's incorrect-prediction bit vetoes the stale hints
    // (§4.5).
    arena_.reset();
    consume_.valid = false;
    consume_.irecs = {};
    consume_.drecs = {};
    consume_.brecs = {};
    consume_.icur = consume_.dcur = consume_.bcur = 0;
    consume_.branchesExecuted = 0;
    consume_.nextDrainOp = 0;
    consume_.trainCtx.clear();
    SpecContext &s0 = slots_[0];
    if (s0.active && s0.eventIdx != finished_idx + 1)
        ++stats_.mispredictedDispatches;
    if (s0.active && s0.eventIdx == finished_idx + 1 &&
        !config_.naiveMode) {
        consume_.valid = true;
        const auto &ir = s0.ilist.records();
        const auto &dr = s0.dlist.records();
        const auto &br = s0.blist.records();
        consume_.irecs = {arena_.copy(ir.data(), ir.size()), ir.size()};
        consume_.drecs = {arena_.copy(dr.data(), dr.size()), dr.size()};
        consume_.brecs = {arena_.copy(br.data(), br.size()), br.size()};
        if (config_.branchPolicy == BranchPolicy::SeparatePirAndTables &&
            s0.replica) {
            // Adopt the replica trained during pre-execution.
            bp_.copyTablesFrom(*s0.replica);
        }
    }

    // Figure 13 sampling: what each still-active context accumulated
    // at its current depth.
    if (config_.trackWorkingSets) {
        for (unsigned d = 0; d < config_.maxDepth; ++d) {
            SpecContext &sc = slots_[d];
            if (sc.active && !sc.instrBlocks.empty())
                instrWorkingSets_[d].record(
                    static_cast<double>(sc.instrBlocks.size()));
            if (sc.active && !sc.dataBlocks.empty())
                dataWorkingSets_[d].record(
                    static_cast<double>(sc.dataBlocks.size()));
        }
    }

    // Shift contexts down one depth (ESP-2 becomes ESP-1, ...), fixing
    // up list capacities: the promoted event's ESP-2 entries are
    // copied ahead of the ESP-1 head (§4.2).
    // Swapping (not moving) rotates the retired slot's storage down to
    // the deepest slot, where the in-place reset below recycles it.
    for (unsigned d = 0; d + 1 < config_.maxDepth; ++d) {
        std::swap(slots_[d], slots_[d + 1]);
        if (slots_[d].active && !config_.ideal) {
            rebuildWithCapacity(
                scratchList_, slots_[d].ilist,
                config_.listBytes(config_.iListBytes, d));
            std::swap(slots_[d].ilist, scratchList_);
            rebuildWithCapacity(
                scratchList_, slots_[d].dlist,
                config_.listBytes(config_.dListBytes, d));
            std::swap(slots_[d].dlist, scratchList_);
        }
    }
    SpecContext &last = slots_[config_.maxDepth - 1];
    const unsigned last_d = config_.maxDepth - 1;
    last.eventIdx = SIZE_MAX;
    last.opIdx = 0;
    last.active = false;
    last.exhausted = false;
    last.curFetchBlock = ~Addr{0};
    last.bpCtx.clear();
    last.ilist.resetCapacity(
        config_.listBytes(config_.iListBytes, last_d));
    last.dlist.resetCapacity(
        config_.listBytes(config_.dListBytes, last_d));
    last.blist.resetCapacity(
        config_.listBytes(config_.bListDirBytes, last_d),
        config_.listBytes(config_.bListTgtBytes, last_d));
    last.instrBlocks.clear();
    last.dataBlocks.clear();
    last.replica.reset();

    icachelet_.rotateReservedWay();
    dcachelet_.rotateReservedWay();
    queue_.refill(workload_, curEventIdx_);
}

void
EspController::drainPrefetches(std::size_t op_idx, Cycle now)
{
    const InstCount lead = config_.ideal
        ? std::numeric_limits<InstCount>::max() / 2
        : config_.prefetchLeadInstructions;
    const InstCount horizon = op_idx + lead;

    if (config_.useIList) {
        while (consume_.icur < consume_.irecs.size() &&
               consume_.irecs[consume_.icur].instCount <= horizon) {
            const AddressRecord &rec = consume_.irecs[consume_.icur++];
            for (unsigned k = 0; k <= rec.runLength; ++k) {
                const Addr addr = rec.blockAddr + k * blockBytes;
                if (config_.ideal) {
                    mem_.l2().insert(addr);
                    mem_.l1i().insert(addr);
                } else {
                    mem_.prefetchInstr(addr, now,
                                       PrefetchSource::EspIList);
                }
                ++stats_.listPrefetchesInstr;
            }
        }
    }
    if (config_.useDList) {
        while (consume_.dcur < consume_.drecs.size() &&
               consume_.drecs[consume_.dcur].instCount <= horizon) {
            const AddressRecord &rec = consume_.drecs[consume_.dcur++];
            for (unsigned k = 0; k <= rec.runLength; ++k) {
                const Addr addr = rec.blockAddr + k * blockBytes;
                if (config_.ideal) {
                    mem_.l2().insert(addr);
                    mem_.l1d().insert(addr);
                } else {
                    mem_.prefetchData(addr, now,
                                      PrefetchSource::EspDList);
                }
                ++stats_.listPrefetchesData;
            }
        }
    }

    // Everything with instCount <= op_idx + lead has drained, so the
    // earliest op index that can release another record is bounded
    // below by (next instCount - lead); beforeOp skips the call until
    // then.
    std::size_t next = std::numeric_limits<std::size_t>::max();
    if (config_.useIList && consume_.icur < consume_.irecs.size()) {
        const InstCount c = consume_.irecs[consume_.icur].instCount;
        next = std::min(next,
                        static_cast<std::size_t>(c <= lead ? 0
                                                           : c - lead));
    }
    if (config_.useDList && consume_.dcur < consume_.drecs.size()) {
        const InstCount c = consume_.drecs[consume_.dcur].instCount;
        next = std::min(next,
                        static_cast<std::size_t>(c <= lead ? 0
                                                           : c - lead));
    }
    consume_.nextDrainOp = next;
}

void
EspController::trainAhead(Cycle now)
{
    (void)now;
    if (!config_.useBList ||
        config_.branchPolicy != BranchPolicy::SeparatePirPlusBList) {
        return;
    }
    const std::size_t horizon =
        consume_.branchesExecuted + config_.branchTrainLookahead;
    while (consume_.bcur < consume_.brecs.size() &&
           consume_.bcur < horizon) {
        const BranchRecord &rec = consume_.brecs[consume_.bcur++];
        bp_.train(consume_.trainCtx, rec.pc, rec.type, rec.taken,
                  rec.target);
        ++stats_.branchesPreTrained;
    }
}

void
EspController::onEventStart(std::size_t event_idx, Cycle now)
{
    if (event_idx != curEventIdx_) {
        // First event of the run (or a harness driving events out of
        // band): resynchronise.
        curEventIdx_ = event_idx;
        queue_.refill(workload_, event_idx);
    }
    if (!consume_.valid)
        return;
    // Pre-event window: the looper's queue-management instructions run
    // between onEventStart and the first event op, so list prefetches
    // for the event head go out before the event begins (§3.6).
    drainPrefetches(0, now);
    consume_.trainCtx.clear();
    trainAhead(now);
}

void
EspController::onEventEnd(std::size_t event_idx, Cycle now)
{
    (void)now;
    promoteContexts(event_idx);
}

void
EspController::beforeOp(std::size_t op_idx, const MicroOp &op, Cycle now)
{
    if (!consume_.valid)
        return;
    if (op_idx >= consume_.nextDrainOp)
        drainPrefetches(op_idx, now);
    if (op.isBranchOp()) {
        trainAhead(now);
        ++consume_.branchesExecuted;
    }
}

void
EspController::registerStats(StatRegistry &reg,
                             const std::string &prefix) const
{
    reg.registerScalar(prefix + "jumps", &stats_.jumps);
    reg.registerScalar(prefix + "deep_jumps", &stats_.deepJumps);
    reg.registerScalar(prefix + "pre_executed_instrs",
                       &stats_.preExecutedInstrs);
    reg.registerScalar(prefix + "pre_executed_instrs_deep",
                       &stats_.preExecutedInstrsDeep);
    reg.registerScalar(prefix + "events_pre_executed",
                       &stats_.eventsPreExecuted);
    reg.registerScalar(prefix + "events_pre_executed_to_end",
                       &stats_.eventsPreExecutedToEnd);
    reg.registerScalar(prefix + "list_prefetches_instr",
                       &stats_.listPrefetchesInstr);
    reg.registerScalar(prefix + "list_prefetches_data",
                       &stats_.listPrefetchesData);
    reg.registerScalar(prefix + "branches_pre_trained",
                       &stats_.branchesPreTrained);
    reg.registerScalar(prefix + "ilist_overflows",
                       &stats_.iListOverflows);
    reg.registerScalar(prefix + "dlist_overflows",
                       &stats_.dListOverflows);
    reg.registerScalar(prefix + "blist_overflows",
                       &stats_.bListOverflows);
    reg.registerScalar(prefix + "ilist.blocks_recorded",
                       &stats_.iListBlocksRecorded);
    reg.registerScalar(prefix + "ilist.run_extensions",
                       &stats_.iListRunExtensions);
    reg.registerScalar(prefix + "ilist.retouches",
                       &stats_.iListRetouches);
    reg.registerScalar(prefix + "ilist.escapes", &stats_.iListEscapes);
    reg.registerScalar(prefix + "dlist.blocks_recorded",
                       &stats_.dListBlocksRecorded);
    reg.registerScalar(prefix + "dlist.run_extensions",
                       &stats_.dListRunExtensions);
    reg.registerScalar(prefix + "dlist.retouches",
                       &stats_.dListRetouches);
    reg.registerScalar(prefix + "dlist.escapes", &stats_.dListEscapes);
    // Coverage: fraction of distinct speculative blocks the bounded
    // list actually captured. Compression: blocks folded per encoded
    // record (run-length win), and how often delta encoding failed.
    reg.registerDerived(prefix + "ilist.coverage", [this] {
        const std::uint64_t total =
            stats_.iListBlocksRecorded + stats_.iListOverflows;
        return total == 0 ? 0.0
                          : static_cast<double>(
                                stats_.iListBlocksRecorded) /
                static_cast<double>(total);
    });
    reg.registerDerived(prefix + "ilist.blocks_per_record", [this] {
        const std::uint64_t recs =
            stats_.iListBlocksRecorded - stats_.iListRunExtensions;
        return recs == 0 ? 0.0
                         : static_cast<double>(
                               stats_.iListBlocksRecorded) /
                static_cast<double>(recs);
    });
    reg.registerDerived(prefix + "ilist.escape_fraction", [this] {
        const std::uint64_t recs =
            stats_.iListBlocksRecorded - stats_.iListRunExtensions;
        return recs == 0 ? 0.0
                         : static_cast<double>(stats_.iListEscapes) /
                static_cast<double>(recs);
    });
    reg.registerDerived(prefix + "dlist.coverage", [this] {
        const std::uint64_t total =
            stats_.dListBlocksRecorded + stats_.dListOverflows;
        return total == 0 ? 0.0
                          : static_cast<double>(
                                stats_.dListBlocksRecorded) /
                static_cast<double>(total);
    });
    reg.registerDerived(prefix + "dlist.blocks_per_record", [this] {
        const std::uint64_t recs =
            stats_.dListBlocksRecorded - stats_.dListRunExtensions;
        return recs == 0 ? 0.0
                         : static_cast<double>(
                               stats_.dListBlocksRecorded) /
                static_cast<double>(recs);
    });
    reg.registerDerived(prefix + "dlist.escape_fraction", [this] {
        const std::uint64_t recs =
            stats_.dListBlocksRecorded - stats_.dListRunExtensions;
        return recs == 0 ? 0.0
                         : static_cast<double>(stats_.dListEscapes) /
                static_cast<double>(recs);
    });
    reg.registerScalar(prefix + "diverged_events_pre_executed",
                       &stats_.divergedEventsPreExecuted);
    reg.registerScalar(prefix + "mispredicted_dispatches",
                       &stats_.mispredictedDispatches);
    reg.registerDerived(prefix + "spec_match_fraction", [this] {
        return stats_.eventsPreExecuted == 0
            ? 0.0
            : stats_.specMatchSum /
                static_cast<double>(stats_.eventsPreExecuted);
    });
    if (config_.trackWorkingSets) {
        for (std::size_t d = 0; d < instrWorkingSets_.size(); ++d) {
            const std::string depth = std::to_string(d + 1);
            reg.registerSamples(
                prefix + "working_set.instr.esp" + depth,
                &instrWorkingSets_[d]);
            reg.registerSamples(
                prefix + "working_set.data.esp" + depth,
                &dataWorkingSets_[d]);
        }
    }
}

} // namespace espsim
