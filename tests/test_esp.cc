/**
 * @file
 * Tests for the ESP controller and hardware event queue: jump-ahead on
 * stalls, re-entrant pre-execution, cachelet isolation from L1/L2,
 * list recording and promotion, normal-mode list-driven prefetching
 * and branch pre-training, divergence behaviour, the naive strawman,
 * and the working-set instrumentation.
 */

#include <gtest/gtest.h>

#include "esp/controller.hh"
#include "esp/event_queue.hh"
#include "workload/builder.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

/** Three-event workload with far-apart code/data per event. */
std::unique_ptr<InMemoryWorkload>
threeEvents()
{
    WorkloadBuilder b;
    for (int e = 0; e < 3; ++e) {
        const Addr code = 0x100000 * (e + 1);
        const Addr data = 0x8000000 + 0x100000 * e;
        b.beginEvent(code, 0x9000000 + 4096 * e);
        for (int i = 0; i < 40; ++i) {
            b.aluBlock(code + 256 * i, 4);
            b.load(code + 256 * i + 16, data + 512 * i,
                   static_cast<std::uint8_t>(i % 8));
            b.branch(code + 256 * i + 20, true, code + 256 * (i + 1));
        }
    }
    return b.build("three");
}

StallContext
dataStall(std::size_t trigger = 0, Cycle idle = 2000)
{
    StallContext ctx;
    ctx.kind = StallKind::DataLlcMiss;
    ctx.idleCycles = idle;
    ctx.triggerOpIdx = trigger;
    return ctx;
}

struct Rig
{
    std::unique_ptr<InMemoryWorkload> w;
    MemoryHierarchy mem{HierarchyConfig{}};
    PentiumMPredictor bp;
    EspConfig cfg;

    explicit Rig(std::unique_ptr<InMemoryWorkload> workload)
        : w(std::move(workload))
    {
    }

    EspController
    controller()
    {
        return EspController(cfg, mem, bp, *w, 4);
    }
};

} // namespace

TEST(EventQueue, RefillShowsNextTwoEvents)
{
    auto w = threeEvents();
    HardwareEventQueue q;
    q.refill(*w, 0);
    EXPECT_TRUE(q.entry(0).valid);
    EXPECT_EQ(q.entry(0).eventIdx, 1u);
    EXPECT_EQ(q.entry(0).handlerPc, w->event(1).handlerPc);
    EXPECT_EQ(q.entry(0).argObjectAddr, w->event(1).argObjectAddr);
    EXPECT_TRUE(q.entry(1).valid);
    EXPECT_EQ(q.entry(1).eventIdx, 2u);
}

TEST(EventQueue, RefillAtTailInvalidates)
{
    auto w = threeEvents();
    HardwareEventQueue q;
    q.refill(*w, 2); // last event running: nothing waits
    EXPECT_FALSE(q.entry(0).valid);
    EXPECT_FALSE(q.entry(1).valid);
}

TEST(EventQueue, EuBitSurvivesRefillOfSameEvent)
{
    auto w = threeEvents();
    HardwareEventQueue q;
    q.refill(*w, 0);
    q.entry(0).executionUnderway = true;
    q.refill(*w, 0);
    EXPECT_TRUE(q.entry(0).executionUnderway);
}

TEST(EventQueue, PopSlidesEntries)
{
    auto w = threeEvents();
    HardwareEventQueue q;
    q.refill(*w, 0);
    q.pop();
    EXPECT_EQ(q.entry(0).eventIdx, 2u);
    EXPECT_FALSE(q.entry(1).valid);
}

TEST(Esp, StallTriggersPreExecutionOfNextEvent)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    esp.onStall(dataStall());
    EXPECT_EQ(esp.stats().jumps, 1u);
    EXPECT_GT(esp.stats().preExecutedInstrs, 0u);
    // A long window can spill into the second queued event (ESP-2).
    EXPECT_GE(esp.stats().eventsPreExecuted, 1u);
    EXPECT_LE(esp.stats().eventsPreExecuted, 2u);
    EXPECT_TRUE(esp.eventQueue().entry(0).executionUnderway);
}

TEST(Esp, PreExecutionIsReentrant)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    esp.onStall(dataStall(0, 60)); // small budget: partial pre-exec
    const auto first = esp.stats().preExecutedInstrs;
    ASSERT_GT(first, 0u);
    ASSERT_LT(first, rig.w->event(1).size());
    esp.onStall(dataStall(10, 60));
    // Second visit continued, not restarted: strictly more coverage.
    EXPECT_GT(esp.stats().preExecutedInstrs, first);
    // Total instructions across both visits never exceeds the event +
    // possibly the deeper context.
    EXPECT_LE(esp.stats().preExecutedInstrs,
              rig.w->event(1).size() + rig.w->event(2).size());
}

TEST(Esp, NonReentrantAblationRestarts)
{
    Rig rig(threeEvents());
    rig.cfg.reentrant = false;
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    esp.onStall(dataStall(0, 60));
    const auto first = esp.stats().preExecutedInstrs;
    esp.onStall(dataStall(10, 60));
    // Restarting re-executes the same head: roughly double the count
    // without advancing coverage much; at minimum it re-pre-executes.
    EXPECT_GE(esp.stats().preExecutedInstrs, 2 * first - 5);
}

TEST(Esp, CacheletsIsolateSpeculativeTraffic)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    esp.onStall(dataStall());
    // Pre-execution must not have touched L1/L2 demand state: the
    // next event's blocks are still cold in the hierarchy.
    const Addr next_code = rig.w->event(1).handlerPc;
    EXPECT_EQ(rig.mem.probeInstr(next_code).level, HitLevel::Memory);
    EXPECT_EQ(rig.mem.l1iAccesses(), 0u);
    EXPECT_EQ(rig.mem.l1dAccesses(), 0u);
}

TEST(Esp, NaiveModeFillsHierarchyDirectly)
{
    Rig rig(threeEvents());
    rig.cfg.naiveMode = true;
    rig.cfg.branchPolicy = BranchPolicy::NoExtraHardware;
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    esp.onStall(dataStall());
    const Addr next_code = rig.w->event(1).handlerPc;
    // Blocks went straight into L1/L2 (the Figure 10 strawman)...
    EXPECT_NE(rig.mem.probeInstr(next_code).level, HitLevel::Memory);
    // ...but the *demand* stat counters stayed clean.
    EXPECT_EQ(rig.mem.l1iAccesses(), 0u);
}

TEST(Esp, ListsRecordPreExecutedFootprint)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    // Several windows, as a real event would produce: pre-execution
    // resumes each time (re-entrant) and fills the lists.
    for (int k = 0; k < 8; ++k)
        esp.onStall(dataStall(5 * k));
    // Promote: event 0 ends, event 1 becomes current.
    esp.onEventEnd(0, 5000);
    esp.onEventStart(1, 5100);
    // The recorded I-list now drives prefetches for event 1's head.
    const Addr head_block = blockAlign(rig.w->event(1).ops[0].pc);
    EXPECT_NE(rig.mem.probeInstr(head_block).level, HitLevel::Memory);
    EXPECT_GT(esp.stats().listPrefetchesInstr, 0u);
}

TEST(Esp, DataListDrivesDataPrefetches)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    for (int k = 0; k < 8; ++k)
        esp.onStall(dataStall(5 * k));
    esp.onEventEnd(0, 5000);
    esp.onEventStart(1, 5100);
    MicroOp dummy;
    dummy.setType(OpType::IntAlu);
    for (std::size_t i = 0; i < 60; ++i)
        esp.beforeOp(i, rig.w->event(1).ops[i], 5200 + i);
    EXPECT_GT(esp.stats().listPrefetchesData, 0u);
    // An early recorded data block must be resident (ops[4] is the
    // first load of the event).
    const Addr first_data = blockAlign(rig.w->event(1).ops[4].memAddr);
    EXPECT_NE(rig.mem.probeData(first_data).level, HitLevel::Memory);
}

TEST(Esp, AblationFlagsGateEachList)
{
    Rig rig(threeEvents());
    rig.cfg.useIList = false;
    rig.cfg.useDList = false;
    rig.cfg.useBList = false;
    rig.cfg.branchPolicy = BranchPolicy::SeparatePir;
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    for (int k = 0; k < 8; ++k)
        esp.onStall(dataStall(5 * k));
    esp.onEventEnd(0, 5000);
    esp.onEventStart(1, 5100);
    EXPECT_EQ(esp.stats().listPrefetchesInstr, 0u);
    EXPECT_EQ(esp.stats().listPrefetchesData, 0u);
    EXPECT_EQ(esp.stats().branchesPreTrained, 0u);
}

TEST(Esp, BListPreTrainsPredictor)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    for (int k = 0; k < 8; ++k)
        esp.onStall(dataStall(5 * k));
    esp.onEventEnd(0, 5000);
    esp.onEventStart(1, 5100);
    EXPECT_GT(esp.stats().branchesPreTrained, 0u);
    // The pre-trained head branches of event 1 now predict correctly
    // even though the predictor never executed them architecturally.
    const EventTrace &ev = rig.w->event(1);
    int miss = 0, seen = 0;
    for (std::size_t i = 0; i < ev.size() && seen < 10; ++i) {
        if (ev.ops[i].type() != OpType::BranchCond)
            continue;
        ++seen;
        miss += rig.bp.executeBranch(ev.ops[i]) ==
            BranchResult::Mispredict;
    }
    EXPECT_LT(miss, 3);
}

TEST(Esp, JumpsToSecondEventWhenFirstExhausted)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    // Enough re-entrant windows to finish both queued events: every
    // LLC miss during ESP-1 jumps to ESP-2, so ESP-1 advances only a
    // handful of ops per window.
    for (int k = 0; k < 120; ++k)
        esp.onStall(dataStall(5 * k, 1'000'000));
    EXPECT_GE(esp.stats().deepJumps, 1u);
    EXPECT_EQ(esp.stats().eventsPreExecuted, 2u);
    EXPECT_GT(esp.stats().preExecutedInstrsDeep, 0u);
    EXPECT_EQ(esp.stats().eventsPreExecutedToEnd, 2u);
}

TEST(Esp, MaxDepthOneNeverJumpsDeep)
{
    Rig rig(threeEvents());
    rig.cfg.maxDepth = 1;
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    for (int k = 0; k < 8; ++k)
        esp.onStall(dataStall(3 * k, 1'000'000));
    EXPECT_EQ(esp.stats().deepJumps, 0u);
    EXPECT_EQ(esp.stats().eventsPreExecuted, 1u);
}

TEST(Esp, NoJumpWhenQueueEmpty)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    esp.onEventEnd(0, 100);
    esp.onEventStart(1, 101);
    esp.onEventEnd(1, 200);
    esp.onEventStart(2, 201); // last event: nothing to pre-execute
    const auto jumps_before = esp.stats().jumps;
    esp.onStall(dataStall());
    EXPECT_EQ(esp.stats().jumps, jumps_before);
}

TEST(Esp, DivergentEventRecordsWrongTail)
{
    // Build two events where the second depends on the first; its
    // speculative view diverges to a different code region.
    WorkloadBuilder b;
    b.beginEvent(0x100000);
    for (int i = 0; i < 30; ++i)
        b.aluBlock(0x100000 + 128 * i, 6);
    b.beginEvent(0x200000);
    for (int i = 0; i < 30; ++i)
        b.aluBlock(0x200000 + 128 * i, 6);
    OpSequence tail;
    for (int i = 0; i < 60; ++i) {
        MicroOp op;
        op.pc = 0x700000 + 4 * i; // wrong path
        op.setType(OpType::IntAlu);
        tail.push_back(op);
    }
    b.dependsOnPrevious(30, tail);
    Rig rig(b.build("dep"));
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    for (int k = 0; k < 8; ++k)
        esp.onStall(dataStall(3 * k, 1'000'000));
    EXPECT_EQ(esp.stats().divergedEventsPreExecuted, 1u);
    EXPECT_LT(esp.stats().specMatchSum, 1.0);
    esp.onEventEnd(0, 5000);
    esp.onEventStart(1, 5100);
    // The wrong-path block was prefetched (pollution), the real tail
    // beyond the divergence was not.
    EXPECT_NE(rig.mem.probeInstr(0x700000).level, HitLevel::Memory);
}

TEST(Esp, PromotionShiftsContextsAndRotatesCachelets)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    for (int k = 0; k < 12; ++k)
        esp.onStall(dataStall(5 * k, 1'000'000));
    esp.onEventEnd(0, 5000);
    esp.onEventStart(1, 5100);
    // Event 2 (previously ESP-2) is now ESP-1; a further stall during
    // event 1 resumes it rather than restarting.
    const auto pre = esp.stats().preExecutedInstrs;
    esp.onStall(dataStall(0, 500));
    // Event 2 was fully pre-executed already; nothing to redo.
    EXPECT_EQ(esp.stats().preExecutedInstrs, pre);
    EXPECT_EQ(esp.stats().eventsPreExecuted, 2u);
}

TEST(Esp, WorkingSetTrackingPopulatesSamples)
{
    Rig rig(threeEvents());
    rig.cfg.trackWorkingSets = true;
    rig.cfg.ideal = true;
    rig.cfg.maxDepth = 2;
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    for (int k = 0; k < 8; ++k)
        esp.onStall(dataStall(3 * k, 1'000'000));
    esp.onEventEnd(0, 5000);
    ASSERT_EQ(esp.instrWorkingSets().size(), 2u);
    EXPECT_GT(esp.instrWorkingSets()[0].count(), 0u);
    EXPECT_GT(esp.instrWorkingSets()[0].max(), 0.0);
}

TEST(Esp, DepthCapBoundsPreExecution)
{
    Rig rig(threeEvents());
    rig.cfg.maxPreExecPerEvent = 20;
    rig.cfg.maxDepth = 1;
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    for (int k = 0; k < 4; ++k)
        esp.onStall(dataStall(3 * k, 1'000'000));
    EXPECT_LE(esp.stats().preExecutedInstrs, 21u);
}

TEST(Esp, ReportExportsCounters)
{
    Rig rig(threeEvents());
    auto esp = rig.controller();
    esp.onEventStart(0, 0);
    esp.onStall(dataStall());
    StatRegistry reg;
    esp.registerStats(reg, "esp.");
    const StatGroup g = reg.snapshot();
    EXPECT_GT(g.get("esp.jumps"), 0.0);
    EXPECT_GT(g.get("esp.pre_executed_instrs"), 0.0);
    EXPECT_GT(g.get("esp.spec_match_fraction"), 0.9);
}

TEST(Esp, HardwareBudgetMatchesPaperTotals)
{
    const EspConfig cfg;
    // Paper Figure 8: ESP-1 = 12.6 KB, ESP-2 = 1.2 KB.
    EXPECT_NEAR(cfg.hardwareBytes(0) / 1024.0, 12.6, 0.4);
    EXPECT_NEAR(cfg.hardwareBytes(1) / 1024.0, 1.2, 0.2);
}
