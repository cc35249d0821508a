#include "cpu/ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "cpu/pacer.hh"
#include "report/spans.hh"
#include "report/telemetry.hh"
#include "report/timeline.hh"

namespace espsim
{

const char *
cycleBucketName(CycleBucket bucket)
{
    switch (bucket) {
      case CycleBucket::Retiring: return "retiring";
      case CycleBucket::FrontendBubble: return "frontend_bubble";
      case CycleBucket::IcacheMiss: return "icache_miss";
      case CycleBucket::DcacheMiss: return "dcache_miss";
      case CycleBucket::LsqFull: return "lsq_full";
      case CycleBucket::MispredictRedirect: return "mispredict_redirect";
      case CycleBucket::Drain: return "drain";
      case CycleBucket::LooperOverhead: return "looper_overhead";
      case CycleBucket::EspPreExec: return "esp_pre_exec";
      case CycleBucket::Runahead: return "runahead";
      case CycleBucket::Idle: return "idle";
    }
    panic("cycleBucketName: bad bucket %u",
          static_cast<unsigned>(bucket));
}

OoOCore::OoOCore(const CoreConfig &config, MemoryHierarchy &mem,
                 PentiumMPredictor &bp, const PrefetcherConfig &prefetch,
                 CoreHooks &hooks)
    : config_(config), issueSlots_(config.width), mem_(mem), bp_(bp),
      hooks_(hooks), prefetchCfg_(prefetch)
{
    // The pipeline queues are bounded by construction; size their
    // rings once here so the run loop never allocates.
    rob_.reset(config_.robSize);
    lsq_.reset(config_.lsqSize);
    specBucket_ = hooks_.engine() == SpecEngine::Runahead
        ? CycleBucket::Runahead
        : CycleBucket::EspPreExec;
}

void
OoOCore::addObserver(SpanSink *sink)
{
    if (sink)
        observers_.push_back(sink);
}

void
OoOCore::setTimeline(EventTimeline *timeline)
{
    timeline_ = timeline;
    addObserver(timeline);
}

void
OoOCore::setTelemetry(TelemetrySnapshotter *telemetry)
{
    addObserver(telemetry);
}

void
OoOCore::charge(CycleBucket bucket, Cycle cycles)
{
    stats_.bucketCycles[static_cast<std::size_t>(bucket)] += cycles;
}

void
OoOCore::chargeStall(CycleBucket bucket, Cycle cycles)
{
    // Re-charge the portion of the stall shadow the speculation engine
    // reported consumed (data-miss shadows are reported at detection
    // but materialise later, at the ROB head / LSQ / drain).
    const Cycle spec = std::min(pendingSpecCycles_, cycles);
    pendingSpecCycles_ -= spec;
    charge(specBucket_, spec);
    charge(bucket, cycles - spec);
}

void
OoOCore::registerStats(StatRegistry &reg,
                       const std::string &prefix) const
{
    reg.registerScalar(prefix + "cycles", &stats_.cycles);
    reg.registerScalar(prefix + "instructions", &stats_.instructions);
    reg.registerScalar(prefix + "events", &stats_.events);
    reg.registerScalar(prefix + "branches", &stats_.branches);
    reg.registerScalar(prefix + "mispredicts", &stats_.mispredicts);
    reg.registerScalar(prefix + "btb_misses", &stats_.btbMisses);
    reg.registerScalar(prefix + "loads", &stats_.loads);
    reg.registerScalar(prefix + "stores", &stats_.stores);
    reg.registerScalar(prefix + "llc_misses_instr",
                       &stats_.llcMissesInstr);
    reg.registerScalar(prefix + "llc_misses_data",
                       &stats_.llcMissesData);
    reg.registerScalar(prefix + "stall_cycles.icache",
                       &stats_.icacheStallCycles);
    reg.registerScalar(prefix + "stall_cycles.branch",
                       &stats_.branchStallCycles);
    reg.registerScalar(prefix + "stall_cycles.rob",
                       &stats_.robStallCycles);
    reg.registerScalar(prefix + "stall_cycles.lsq",
                       &stats_.lsqStallCycles);
    reg.registerScalar(prefix + "stall_windows",
                       &stats_.stallWindows);
    reg.registerDerived(prefix + "stride.dropped_wraps", [this] {
        return static_cast<double>(strideData_.droppedWraps());
    });
    reg.registerDerived(prefix + "ipc",
                        [this] { return stats_.ipc(); });
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        reg.registerScalar(prefix + "cycle_bucket." +
                               cycleBucketName(static_cast<CycleBucket>(b)),
                           &stats_.bucketCycles[b]);
    }
}

void
OoOCore::advanceSlots(unsigned slots, CycleBucket bucket)
{
    // Equals @p slots single-slot steps: every wrap past the fetch
    // width is one cycle.
    const unsigned slot = slotInCycle_ + slots;
    const Cycle cycles = issueSlots_.quotient(slot);
    slotInCycle_ = static_cast<unsigned>(issueSlots_.slot(slot));
    fetchCycle_ += cycles;
    charge(bucket, cycles);
}

void
OoOCore::retireForSpace()
{
    if (rob_.size() < config_.robSize)
        return;
    const RobEntry head = rob_.front();
    rob_.pop_front();
    const Cycle retire_at = std::max(head.complete, lastRetire_);
    lastRetire_ = retire_at;
    if (retire_at > fetchCycle_) {
        const Cycle idle = retire_at - fetchCycle_;
        stats_.robStallCycles += idle;
        chargeStall(CycleBucket::DcacheMiss, idle);
        if (timeline_) {
            timeline_->recordStall(TimelineStall::DataMiss, fetchCycle_,
                                   idle);
        }
        fetchCycle_ = retire_at;
        slotInCycle_ = 0;
    }
}

void
OoOCore::processOp(const MicroOp &op)
{
    retireForSpace();

    // --- Fetch: access the I-cache on block transitions. ------------
    const Addr iblock = blockAlign(op.pc);
    if (iblock != curFetchBlock_) {
        curFetchBlock_ = iblock;
        const AccessResult fetch = mem_.accessInstr(op.pc, fetchCycle_);
        if (prefetchCfg_.nextLineInstr)
            nlInstr_.notifyAccess(mem_, op.pc, fetchCycle_);
        const Cycle l1_lat = mem_.config().l1i.hitLatency;
        const Cycle hidden = l1_lat + config_.fetchQueueHide;
        if (fetch.latency > hidden) {
            const Cycle bubble = fetch.latency - hidden;
            stats_.icacheStallCycles += bubble;
            if (timeline_) {
                timeline_->recordStall(TimelineStall::InstrMiss,
                                       fetchCycle_, bubble);
            }
            if (fetch.llcMiss())
                ++stats_.llcMissesInstr;
            if (bubble >= config_.stallReportThreshold) {
                ++stats_.stallWindows;
                StallContext ctx;
                ctx.now = fetchCycle_;
                ctx.idleCycles = bubble;
                ctx.kind = StallKind::InstrLlcMiss;
                ctx.triggerOpIdx = curOpIdx_;
                pendingSpecCycles_ +=
                    std::min(hooks_.onStall(ctx), bubble);
            }
            chargeStall(CycleBucket::IcacheMiss, bubble);
            fetchCycle_ += bubble;
            slotInCycle_ = 0;
        }
    }

    // Dependency-limited issue: a consumer of the immediately
    // preceding producer can't issue in the same slot, and loads add a
    // load-to-use slot — this keeps the no-stall IPC of real code
    // (~2-2.5) rather than the fetch-width bound.
    const bool dependent = (op.srcA != noReg && op.srcA == lastDest_) ||
        (op.srcB != noReg && op.srcB == lastDest_);
    const unsigned bubble = (dependent ? 3u : 0u) + (op.isLoad() ? 2u : 0u);
    if (bubble != 0)
        advanceSlots(bubble, CycleBucket::FrontendBubble);
    lastDest_ = op.dest;

    const Cycle dispatch = fetchCycle_;
    Cycle complete = dispatch + config_.pipelineDepth;
    RobEntry entry;

    switch (op.type()) {
      case OpType::IntAlu:
        break;
      case OpType::FpAlu:
        complete += config_.fpExtraLatency;
        break;
      case OpType::Load:
      case OpType::Store: {
        // LSQ occupancy: wait for the oldest memory op to complete
        // when all 16 slots are busy. A long-latency LLC miss holding
        // the LSQ full is the same idle-window opportunity as one at
        // the head of the ROB, so it is reported to the stall engine.
        while (lsq_.size() >= config_.lsqSize) {
            const LsqEntry oldest = lsq_.front();
            lsq_.pop_front();
            if (oldest.complete > fetchCycle_) {
                const Cycle wait = oldest.complete - fetchCycle_;
                stats_.lsqStallCycles += wait;
                chargeStall(CycleBucket::LsqFull, wait);
                if (timeline_) {
                    timeline_->recordStall(TimelineStall::LsqFull,
                                           fetchCycle_, wait);
                }
                fetchCycle_ = oldest.complete;
                slotInCycle_ = 0;
            }
        }
        const bool is_store = op.isStore();
        const AccessResult res =
            mem_.accessData(op.memAddr, is_store, fetchCycle_);
        if (is_store) {
            ++stats_.stores;
            // Stores retire without waiting for the fill.
            complete = dispatch + config_.pipelineDepth;
        } else {
            ++stats_.loads;
            const Cycle l1_lat = mem_.config().l1d.hitLatency;
            complete = dispatch + config_.pipelineDepth + res.latency -
                l1_lat;
            if (res.llcMiss()) {
                ++stats_.llcMissesData;
                entry.llcMissLoad = true;
                entry.llcMissDest = op.dest;
            }
            // The paper's ESP/runahead trigger: a long-latency miss
            // will block the ROB head for roughly its fill time; the
            // speculation engine gets that shadow as budget.
            const Cycle shadow =
                res.latency > l1_lat ? res.latency - l1_lat : 0;
            if (shadow >= config_.stallReportThreshold) {
                ++stats_.stallWindows;
                StallContext sctx;
                sctx.now = fetchCycle_;
                sctx.idleCycles = shadow;
                sctx.kind = StallKind::DataLlcMiss;
                sctx.triggerOpIdx = curOpIdx_;
                sctx.missDest = op.dest;
                pendingSpecCycles_ +=
                    std::min(hooks_.onStall(sctx), shadow);
            }
            if (prefetchCfg_.nextLineData)
                nlData_.notifyAccess(mem_, op.memAddr, fetchCycle_);
            if (prefetchCfg_.strideData) {
                strideData_.notifyAccess(mem_, op.pc, op.memAddr,
                                         fetchCycle_);
            }
        }
        // Only in-flight misses occupy modeled LSQ/MSHR slots; hits
        // complete within the pipeline and release immediately.
        if (res.latency > mem_.config().l1d.hitLatency) {
            LsqEntry lentry;
            lentry.complete = complete;
            lentry.llcMissLoad = entry.llcMissLoad;
            lentry.llcMissDest = entry.llcMissDest;
            lsq_.push_back(lentry);
        }
        break;
      }
      case OpType::BranchCond:
      case OpType::BranchDirect:
      case OpType::BranchIndirect:
      case OpType::Call:
      case OpType::Return: {
        ++stats_.branches;
        if (!config_.perfectBranch) {
            const BranchResult res = bp_.executeBranch(op);
            if (res == BranchResult::Mispredict) {
                ++stats_.mispredicts;
                stats_.branchStallCycles += config_.mispredictPenalty;
                if (timeline_) {
                    timeline_->recordStall(TimelineStall::Mispredict,
                                           dispatch,
                                           config_.mispredictPenalty);
                }
                const Cycle redirect = dispatch +
                    config_.mispredictPenalty;
                if (redirect > fetchCycle_) {
                    charge(CycleBucket::MispredictRedirect,
                           redirect - fetchCycle_);
                    fetchCycle_ = redirect;
                }
                slotInCycle_ = 0;
            } else if (res == BranchResult::BtbMiss) {
                ++stats_.btbMisses;
                stats_.branchStallCycles += config_.btbMissPenalty;
                if (timeline_) {
                    timeline_->recordStall(TimelineStall::BtbMiss,
                                           fetchCycle_,
                                           config_.btbMissPenalty);
                }
                charge(CycleBucket::MispredictRedirect,
                       config_.btbMissPenalty);
                fetchCycle_ += config_.btbMissPenalty;
                slotInCycle_ = 0;
            }
        }
        break;
      }
    }

    entry.complete = complete;
    rob_.push_back(entry);
    ++stats_.instructions;
    advanceSlots(1, CycleBucket::Retiring);
}

void
OoOCore::drainRob()
{
    Cycle last = fetchCycle_;
    bool miss_pending = false;
    for (std::size_t k = 0; k < rob_.size(); ++k) {
        const RobEntry &e = rob_.at(k);
        last = std::max(last, e.complete);
        if (e.llcMissLoad && e.complete > fetchCycle_)
            miss_pending = true;
    }
    // The drain just accounts remaining completion time; outstanding
    // misses were already reported to the engine at detection time.
    if (miss_pending && last > fetchCycle_) {
        stats_.robStallCycles += last - fetchCycle_;
        chargeStall(CycleBucket::DcacheMiss, last - fetchCycle_);
        if (timeline_) {
            timeline_->recordStall(TimelineStall::DataMiss, fetchCycle_,
                                   last - fetchCycle_);
        }
    } else if (last > fetchCycle_) {
        charge(CycleBucket::Drain, last - fetchCycle_);
    }
    rob_.clear();
    lsq_.clear();
    fetchCycle_ = std::max(fetchCycle_, last);
    slotInCycle_ = 0;
    lastRetire_ = std::max(lastRetire_, fetchCycle_);
}

void
OoOCore::executeLooperOverhead()
{
    // The looper thread's dequeue/bookkeeping instructions (§3.6):
    // hot code, no misses; they just advance time — and give ESP its
    // pre-event prefetch window.
    const Cycle gap =
        (config_.looperOverheadInstr + config_.width - 1) / config_.width;
    charge(CycleBucket::LooperOverhead, gap);
    fetchCycle_ += gap;
    slotInCycle_ = 0;
    stats_.instructions += config_.looperOverheadInstr;
}

void
OoOCore::run(const Workload &workload)
{
    const bool observed = !observers_.empty();
    std::array<PrefetchSourceStats, numPrefetchSources> pf_start{};
    for (std::size_t idx = 0; idx < workload.numEvents(); ++idx) {
        const CycleBucketArray buckets_at_start = stats_.bucketCycles;
        // The record's window opens before any idle charge: its bucket
        // deltas cover every cycle the clock advances until retire,
        // so Σ record buckets == retire - span_start by construction.
        const Cycle span_start = fetchCycle_;
        if (observed) {
            for (unsigned s = 0; s < numPrefetchSources; ++s) {
                pf_start[s] = mem_.prefetchLifecycle(
                    static_cast<PrefetchSource>(s));
            }
        }
        Cycle queued_at = fetchCycle_;
        if (pacer_) {
            queued_at = pacer_->eventArrival(idx, fetchCycle_);
            if (queued_at > fetchCycle_) {
                // The queue is empty until the event arrives: the
                // core idles, and those cycles get their own bucket
                // so Σ buckets == cycles still closes.
                charge(CycleBucket::Idle, queued_at - fetchCycle_);
                fetchCycle_ = queued_at;
                slotInCycle_ = 0;
            }
        }
        // The hook fires before the looper-gap instructions so the ESP
        // list prefetcher gets its ~70-instruction head start (§3.6).
        hooks_.onEventStart(idx, fetchCycle_);
        executeLooperOverhead();
        const Cycle dispatched_at = fetchCycle_;
        if (pacer_)
            pacer_->eventDispatched(idx, dispatched_at);
        const InstCount instr_at_dispatch = stats_.instructions;
        const EventTrace &event = workload.event(idx);
        if (pacer_)
            pacer_->eventHandlerType(idx, event.handlerType);
        curFetchBlock_ = ~Addr{0};
        // Assemble ops by value from the SoA lanes; skip the per-op
        // virtual hook when the engine declared itself passive for
        // this event (the answer only changes at event boundaries).
        const OpSequence &ops = event.ops;
        const std::size_t num_ops = ops.size();
        const bool per_op = hooks_.perOpActive();
        for (std::size_t i = 0; i < num_ops; ++i) {
            curOpIdx_ = i;
            const MicroOp op = ops[i];
            if (per_op)
                hooks_.beforeOp(i, op, fetchCycle_);
            processOp(op);
        }
        drainRob();
        // A stall shadow never extends past the event-end drain; drop
        // any engine-consumed cycles whose stall never materialised so
        // they cannot leak attribution into the next event.
        pendingSpecCycles_ = 0;
        ++stats_.events;
        // Keep the cycles counter live at retire boundaries so a
        // mid-run counter snapshot is consistent with the rest of the
        // stat surface.
        stats_.cycles = fetchCycle_;
        hooks_.onEventEnd(idx, fetchCycle_);

        // The event's cycle-bucket delta, computed once: it feeds the
        // per-handler accounting and the observers' record.
        CycleBucketArray delta{};
        for (unsigned b = 0; b < numCycleBuckets; ++b)
            delta[b] = stats_.bucketCycles[b] - buckets_at_start[b];
        HandlerAccounting &acct =
            stats_.handlerAccounting[event.handlerType];
        ++acct.events;
        for (unsigned b = 0; b < numCycleBuckets; ++b)
            acct.buckets[b] += delta[b];

        if (pacer_)
            pacer_->eventRetired(idx, fetchCycle_);
        if (!observed)
            continue;
        RequestSpan record;
        record.index = idx;
        record.handlerType = event.handlerType;
        record.startCycle = span_start;
        record.arrival = queued_at;
        record.dispatch = dispatched_at;
        record.retire = fetchCycle_;
        record.instructions = stats_.instructions - instr_at_dispatch;
        record.buckets = delta;
        for (unsigned s = 0; s < numPrefetchSources; ++s) {
            const PrefetchSourceStats end =
                mem_.prefetchLifecycle(static_cast<PrefetchSource>(s));
            record.prefetch[s] = SpanPrefetchDelta{
                end.issued - pf_start[s].issued,
                end.timely - pf_start[s].timely,
                end.late - pf_start[s].late,
                end.harmful - pf_start[s].harmful};
        }
        for (SpanSink *observer : observers_)
            observer->onSpan(record);
    }
    stats_.cycles = fetchCycle_;
    if (stats_.bucketSum() != stats_.cycles) {
        panic("cycle-accounting invariant violated: buckets sum to "
              "%llu but the core ran %llu cycles",
              static_cast<unsigned long long>(stats_.bucketSum()),
              static_cast<unsigned long long>(stats_.cycles));
    }
}

} // namespace espsim
