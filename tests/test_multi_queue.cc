/**
 * @file
 * Tests for the §4.5 multi-queue extension: interleaving, dispatch
 * prediction, barrier-induced mispredictions, the ESP controller's
 * incorrect-prediction veto, and end-to-end behaviour.
 */

#include <gtest/gtest.h>

#include "esp/controller.hh"
#include "sim/simulator.hh"
#include "workload/builder.hh"
#include "workload/generator.hh"
#include "workload/multi_queue.hh"

using namespace espsim;

namespace
{

std::unique_ptr<InMemoryWorkload>
simpleQueue(unsigned tag, std::size_t events)
{
    WorkloadBuilder b;
    for (std::size_t e = 0; e < events; ++e) {
        const Addr code = 0x100000 * (tag + 1) + 0x10000 * e;
        b.beginEvent(code);
        for (int i = 0; i < 30; ++i) {
            b.aluBlock(code + 128 * i, 5);
            b.load(code + 128 * i + 20,
                   0x8000000 + 0x100000 * tag + 512 * i, 1);
        }
    }
    // Two steps, not "q" + to_string(): GCC 12's -Wrestrict misfires
    // on the inlined operator+ at -O3.
    std::string name = "q";
    name += std::to_string(tag);
    return b.build(name);
}

std::unique_ptr<InterleavedWorkload>
makeInterleaved(double barrier_rate, std::uint64_t seed = 7)
{
    std::vector<std::unique_ptr<Workload>> queues;
    queues.push_back(simpleQueue(0, 12));
    queues.push_back(simpleQueue(1, 12));
    queues.push_back(simpleQueue(2, 12));
    MultiQueueConfig cfg;
    cfg.seed = seed;
    cfg.barrierRate = barrier_rate;
    return std::make_unique<InterleavedWorkload>("mq", std::move(queues),
                                                 cfg);
}

} // namespace

TEST(MultiQueue, MergePreservesAllEvents)
{
    auto w = makeInterleaved(0.0);
    EXPECT_EQ(w->numEvents(), 36u);
    // Per-queue order must be preserved and complete.
    std::vector<std::size_t> next(3, 0);
    for (std::size_t i = 0; i < w->numEvents(); ++i) {
        const unsigned q = w->queueOf(i);
        ASSERT_LT(q, 3u);
        ++next[q];
    }
    EXPECT_EQ(next[0], 12u);
    EXPECT_EQ(next[1], 12u);
    EXPECT_EQ(next[2], 12u);
}

TEST(MultiQueue, PerQueueEventOrderPreserved)
{
    auto w = makeInterleaved(0.0);
    // Events of one queue appear in increasing handlerPc order (the
    // builder assigned increasing code bases per event).
    Addr last[3] = {0, 0, 0};
    for (std::size_t i = 0; i < w->numEvents(); ++i) {
        const unsigned q = w->queueOf(i);
        EXPECT_GT(w->event(i).handlerPc, last[q]);
        last[q] = w->event(i).handlerPc;
    }
}

TEST(MultiQueue, InterleavesFineGrained)
{
    auto w = makeInterleaved(0.0);
    // The looper must actually alternate between queues, not run one
    // queue to completion first.
    unsigned switches = 0;
    for (std::size_t i = 1; i < w->numEvents(); ++i)
        switches += w->queueOf(i) != w->queueOf(i - 1);
    EXPECT_GT(switches, 10u);
}

TEST(MultiQueue, NoBarriersMeansPerfectPrediction)
{
    auto w = makeInterleaved(0.0);
    EXPECT_DOUBLE_EQ(w->dispatchPredictionAccuracy(), 1.0);
    for (std::size_t i = 0; i + 2 < w->numEvents(); ++i) {
        EXPECT_EQ(w->predictedNext(i, 1), i + 1);
        EXPECT_EQ(w->predictedNext(i, 2), i + 2);
    }
}

TEST(MultiQueue, BarriersDegradePredictionAccuracy)
{
    auto none = makeInterleaved(0.0);
    auto some = makeInterleaved(0.15);
    EXPECT_LT(some->dispatchPredictionAccuracy(),
              none->dispatchPredictionAccuracy());
    EXPECT_GT(some->dispatchPredictionAccuracy(), 0.5);
}

TEST(MultiQueue, DeterministicForSameSeed)
{
    auto a = makeInterleaved(0.1, 42);
    auto b = makeInterleaved(0.1, 42);
    ASSERT_EQ(a->numEvents(), b->numEvents());
    for (std::size_t i = 0; i < a->numEvents(); ++i) {
        ASSERT_EQ(a->queueOf(i), b->queueOf(i));
        ASSERT_EQ(a->predictedNext(i, 1), b->predictedNext(i, 1));
    }
}

TEST(MultiQueue, WarmSetIsUnionOfQueues)
{
    std::vector<std::unique_ptr<Workload>> queues;
    auto q0 = simpleQueue(0, 2);
    q0->setWarmSet({{0x1000, 0x2000}});
    auto q1 = simpleQueue(1, 2);
    q1->setWarmSet({{0x5000, 0x6000}});
    queues.push_back(std::move(q0));
    queues.push_back(std::move(q1));
    InterleavedWorkload w("mq", std::move(queues), MultiQueueConfig{});
    EXPECT_EQ(w.warmSet().size(), 2u);
}

TEST(MultiQueue, ControllerVetoesMispredictedDispatch)
{
    // Force a guaranteed barrier right after event 0: the controller
    // pre-executes the *predicted* next event; at promotion the actual
    // next differs, so the hints are discarded and counted.
    auto w = makeInterleaved(1.0, 3);
    ASSERT_LT(w->dispatchPredictionAccuracy(), 1.0);

    MemoryHierarchy mem{HierarchyConfig{}};
    PentiumMPredictor bp;
    EspConfig cfg;
    EspController esp(cfg, mem, bp, *w, 4);

    esp.onEventStart(0, 0);
    StallContext ctx;
    ctx.kind = StallKind::DataLlcMiss;
    ctx.idleCycles = 4000;
    for (int k = 0; k < 4; ++k)
        esp.onStall(ctx);
    ASSERT_GT(esp.stats().preExecutedInstrs, 0u);
    // The pre-executed event is the *predicted* one.
    EXPECT_EQ(esp.eventQueue().entry(0).eventIdx,
              w->predictedNext(0, 1));

    esp.onEventEnd(0, 9000);
    if (w->predictedNext(0, 1) != 1) {
        EXPECT_EQ(esp.stats().mispredictedDispatches, 1u);
        // With the hints vetoed, no list prefetches fire for event 1.
        esp.onEventStart(1, 9100);
        EXPECT_EQ(esp.stats().listPrefetchesInstr, 0u);
    }
}

TEST(MultiQueue, EndToEndEspStillHelps)
{
    std::vector<std::unique_ptr<Workload>> queues;
    for (unsigned q = 0; q < 3; ++q) {
        AppProfile p = AppProfile::testProfile();
        p.seed = 100 + q;
        p.numEvents = 10;
        p.avgEventLen = 4000;
        queues.push_back(SyntheticGenerator(p).generate());
    }
    MultiQueueConfig mq;
    mq.barrierRate = 0.05;
    InterleavedWorkload w("mq3", std::move(queues), mq);

    const SimResult base = Simulator(SimConfig::nextLine()).run(w);
    const SimResult esp = Simulator(SimConfig::espFull(true)).run(w);
    EXPECT_LT(esp.cycles, base.cycles);
}

TEST(MultiQueue, HigherBarrierRateWeakensEsp)
{
    auto run = [](double rate) {
        std::vector<std::unique_ptr<Workload>> queues;
        for (unsigned q = 0; q < 2; ++q) {
            AppProfile p = AppProfile::testProfile();
            p.seed = 50 + q;
            p.numEvents = 12;
            p.avgEventLen = 5000;
            queues.push_back(SyntheticGenerator(p).generate());
        }
        MultiQueueConfig mq;
        mq.barrierRate = rate;
        InterleavedWorkload w("mq", std::move(queues), mq);
        const SimResult base =
            Simulator(SimConfig::nextLine()).run(w);
        const SimResult esp = Simulator(SimConfig::espFull(true)).run(w);
        return esp.speedupOver(base);
    };
    // Frequent dispatch mispredictions waste pre-execution work.
    EXPECT_GT(run(0.0), run(0.8) - 0.02);
}

TEST(MultiQueueDeathTest, EmptyQueueListFatals)
{
    std::vector<std::unique_ptr<Workload>> queues;
    EXPECT_DEATH(
        InterleavedWorkload("x", std::move(queues), MultiQueueConfig{}),
        "at least one queue");
}
