/**
 * @file
 * Tests for the synthetic workload generator: bit-exact determinism,
 * pinned output fingerprints (browser and server profiles),
 * generation from one generator on several threads, structural
 * properties of generated traces (instruction mix, PC consistency of
 * the static program, call/return pairing), the inter-event
 * dependence model, and the warm set.
 */

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "server/profile.hh"
#include "workload/app_profile.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

bool
sameOp(const MicroOp &a, const MicroOp &b)
{
    return a.pc == b.pc && a.memAddr == b.memAddr &&
        a.branchTarget() == b.branchTarget() && a.type() == b.type() &&
        a.taken() == b.taken() && a.srcA == b.srcA && a.srcB == b.srcB &&
        a.dest == b.dest;
}

/**
 * FNV-1a over 64-bit words of every lane and metadata field of a
 * stream of events, plus the coverage facts the pinned sets must
 * exercise: dependent events (diverged tails) and PCs in cold code,
 * outside the warm app code image and the shared runtime.
 */
class Fingerprint
{
  public:
    explicit Fingerprint(const AppProfile &p)
        : sharedEnd_(layout::sharedCodeBase +
                     Addr{p.sharedCodeBlocks} * blockBytes),
          warmEnd_(layout::appCodeBase +
                   Addr{p.codeRegionPool} * p.blocksPerRegion *
                       blockBytes)
    {
    }

    void
    add(const EventTrace &t)
    {
        word(t.id);
        word(t.handlerType);
        word(t.handlerPc);
        word(t.argObjectAddr);
        word(t.divergencePoint);
        lanes(t.ops);
        lanes(t.divergedTail);
        if (!t.independent())
            ++dependent;
    }

    std::uint64_t value() const { return h_; }

    std::size_t dependent = 0; //!< events with a diverged tail
    std::size_t coldPcs = 0;   //!< ops outside the warm code image

  private:
    Addr sharedEnd_;
    Addr warmEnd_;
    std::uint64_t h_ = 0xcbf29ce484222325ULL;

    void word(std::uint64_t v) { h_ = (h_ ^ v) * 0x100000001b3ULL; }

    void
    lanes(const OpSequence &ops)
    {
        word(ops.size());
        for (std::size_t i = 0; i < ops.size(); ++i) {
            word(ops.pc(i));
            word(ops.memAddr(i));
            word(ops.metaLane(i));
            const Addr pc = ops.pc(i);
            const bool shared =
                pc >= layout::sharedCodeBase && pc < sharedEnd_;
            const bool warm = pc >= layout::appCodeBase && pc < warmEnd_;
            if (!shared && !warm)
                ++coldPcs;
        }
    }
};

/** Fingerprint of events [0, n) of @p gen. */
Fingerprint
fingerprintEvents(const SyntheticGenerator &gen, std::uint64_t n)
{
    Fingerprint fp(gen.profile());
    for (std::uint64_t id = 0; id < n; ++id)
        fp.add(gen.generateEvent(id));
    return fp;
}

/** Fingerprint of requests [0, n) of the server profile @p sp. */
Fingerprint
fingerprintRequests(const ServerProfile &sp, std::uint64_t n)
{
    const ServerTraceSource source(sp);
    Fingerprint fp(sp.app);
    for (std::uint64_t id = 0; id < n; ++id)
        fp.add(source.makeEvent(id));
    return fp;
}

} // namespace

TEST(Generator, EventRegeneratesBitIdentically)
{
    SyntheticGenerator gen(AppProfile::testProfile());
    for (std::uint64_t id : {0u, 1u, 7u, 23u}) {
        const EventTrace a = gen.generateEvent(id);
        const EventTrace b = gen.generateEvent(id);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_TRUE(sameOp(a.ops[i], b.ops[i])) << "op " << i;
        ASSERT_EQ(a.divergencePoint, b.divergencePoint);
        ASSERT_EQ(a.divergedTail.size(), b.divergedTail.size());
    }
}

// The generator's output is pinned: any change to a lane or a
// metadata field of these events (an rng draw reordered, a static
// property decoded differently) changes the fingerprint. Same-id
// determinism alone would not catch a changed trace.
TEST(Generator, OutputFingerprintIsPinned)
{
    const Fingerprint test = fingerprintEvents(
        SyntheticGenerator(AppProfile::testProfile()),
        AppProfile::testProfile().numEvents);
    EXPECT_EQ(test.value(), 0x0719b40c533a1976ULL);

    const Fingerprint amazon = fingerprintEvents(
        SyntheticGenerator(AppProfile::byName("amazon")), 6);
    EXPECT_EQ(amazon.value(), 0xda05873022b11aaeULL);

    const Fingerprint memcached =
        fingerprintRequests(ServerProfile::memcached(), 2000);
    EXPECT_EQ(memcached.value(), 0x5110a3c87e1ded55ULL);

    const Fingerprint http =
        fingerprintRequests(ServerProfile::httpRouter(), 2000);
    EXPECT_EQ(http.value(), 0x14b80a5b42287990ULL);

    // The pinned set exercises diverged tails and cold code.
    EXPECT_GT(test.dependent + amazon.dependent + memcached.dependent +
                  http.dependent,
              0u);
    EXPECT_GT(test.coldPcs, 0u);
    EXPECT_GT(amazon.coldPcs, 0u);
    EXPECT_GT(memcached.coldPcs, 0u);
    EXPECT_GT(http.coldPcs, 0u);
}

TEST(Generator, ConcurrentGenerationMatchesSerial)
{
    // Several threads generate interleaved ids from one shared
    // generator whose static decode is still cold, so they race to
    // decode the same PCs; every trace must equal serial generation.
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 64;
    p.dependencyRate = 0.25;
    const SyntheticGenerator shared(p);
    constexpr unsigned numThreads = 4;
    std::vector<std::uint64_t> got(p.numEvents);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < numThreads; ++t) {
        threads.emplace_back([&shared, &got, &p, t] {
            for (std::uint64_t id = t; id < p.numEvents; id += numThreads) {
                Fingerprint fp(p);
                fp.add(shared.generateEvent(id));
                got[id] = fp.value();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const SyntheticGenerator serial(p);
    for (std::uint64_t id = 0; id < p.numEvents; ++id) {
        Fingerprint fp(p);
        fp.add(serial.generateEvent(id));
        EXPECT_EQ(got[id], fp.value()) << "event " << id;
    }
}

TEST(Generator, DifferentSeedsProduceDifferentTraces)
{
    AppProfile p1 = AppProfile::testProfile();
    AppProfile p2 = p1;
    p2.seed = p1.seed + 1;
    const EventTrace a = SyntheticGenerator(p1).generateEvent(0);
    const EventTrace b = SyntheticGenerator(p2).generateEvent(0);
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = !sameOp(a.ops[i], b.ops[i]);
    EXPECT_TRUE(differs);
}

TEST(Generator, RespectsEventCountAndMinLength)
{
    const AppProfile p = AppProfile::testProfile();
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    EXPECT_EQ(w->numEvents(), p.numEvents);
    for (std::size_t i = 0; i < w->numEvents(); ++i)
        EXPECT_GE(w->event(i).size(), p.minEventLen);
}

TEST(Generator, AverageLengthInRange)
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 200;
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    const double avg = static_cast<double>(w->totalInstructions()) /
        static_cast<double>(w->numEvents());
    // Exponential-ish distribution around avgEventLen with a floor.
    EXPECT_GT(avg, 0.5 * p.avgEventLen);
    EXPECT_LT(avg, 2.5 * p.avgEventLen);
}

TEST(Generator, InstructionMixNearProfile)
{
    AppProfile p = AppProfile::testProfile();
    p.avgEventLen = 5000;
    p.numEvents = 8;
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    std::map<OpType, std::size_t> counts;
    std::size_t total = 0;
    for (std::size_t e = 0; e < w->numEvents(); ++e) {
        for (const MicroOp &op : w->event(e).ops) {
            ++counts[op.type()];
            ++total;
        }
    }
    const double loads =
        static_cast<double>(counts[OpType::Load]) / total;
    const double stores =
        static_cast<double>(counts[OpType::Store]) / total;
    std::size_t branches = 0;
    for (auto type : {OpType::BranchCond, OpType::BranchDirect,
                      OpType::BranchIndirect, OpType::Call,
                      OpType::Return}) {
        branches += counts[type];
    }
    // The plain-op fractions exclude terminators; allow slack.
    EXPECT_NEAR(loads, p.loadFrac * 0.87, 0.05);
    EXPECT_NEAR(stores, p.storeFrac * 0.87, 0.04);
    EXPECT_GT(static_cast<double>(branches) / total, 0.08);
    EXPECT_LT(static_cast<double>(branches) / total, 0.30);
}

TEST(Generator, StaticProgramIsConsistent)
{
    // The instruction at a PC must decode identically everywhere it is
    // executed: same type, and for calls the same target.
    AppProfile p = AppProfile::testProfile();
    p.avgEventLen = 3000;
    p.numEvents = 6;
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    std::unordered_map<Addr, OpType> type_at;
    std::unordered_map<Addr, Addr> call_target_at;
    for (std::size_t e = 0; e < w->numEvents(); ++e) {
        for (const MicroOp &op : w->event(e).ops) {
            auto [it, inserted] = type_at.emplace(op.pc, op.type());
            if (!inserted) {
                ASSERT_EQ(it->second, op.type()) << std::hex << op.pc;
            }
            if (op.type() == OpType::Call) {
                auto [ct, cins] =
                    call_target_at.emplace(op.pc, op.branchTarget());
                if (!cins) {
                    ASSERT_EQ(ct->second, op.branchTarget());
                }
            }
        }
    }
    EXPECT_GT(type_at.size(), 100u);
}

TEST(Generator, CallsAndReturnsPairUp)
{
    const AppProfile p = AppProfile::testProfile();
    SyntheticGenerator gen(p);
    const EventTrace t = gen.generateEvent(3);
    std::vector<Addr> stack;
    for (const MicroOp &op : t.ops) {
        if (op.type() == OpType::Call) {
            // The generator drops the oldest frame at the depth bound.
            if (stack.size() >= p.maxCallDepth)
                stack.erase(stack.begin());
            stack.push_back(op.pc + 4);
        } else if (op.type() == OpType::Return) {
            if (stack.empty())
                continue; // dispatcher return: free target
            ASSERT_EQ(op.branchTarget(), stack.back());
            stack.pop_back();
        }
    }
}

TEST(Generator, TakenBranchesRedirectThePc)
{
    SyntheticGenerator gen(AppProfile::testProfile());
    const EventTrace t = gen.generateEvent(5);
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        const MicroOp &op = t.ops[i];
        if (op.isBranchOp() && op.taken()) {
            ASSERT_EQ(t.ops[i + 1].pc, op.branchTarget());
        } else {
            ASSERT_EQ(t.ops[i + 1].pc, op.pc + 4);
        }
    }
}

TEST(Generator, DependencyRateApproximatesProfile)
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 600;
    p.avgEventLen = 220;
    p.minEventLen = 60;
    p.dependencyRate = 0.10;
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    const double indep = w->independentEventFraction();
    EXPECT_NEAR(indep, 0.90, 0.035);
}

TEST(Generator, DependentEventsHaveDivergedTails)
{
    AppProfile p = AppProfile::testProfile();
    p.dependencyRate = 1.0; // every event (but the first) depends
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    EXPECT_TRUE(w->event(0).independent());
    for (std::size_t i = 1; i < w->numEvents(); ++i) {
        const EventTrace &t = w->event(i);
        ASSERT_FALSE(t.independent());
        ASSERT_LT(t.divergencePoint, t.size());
        ASSERT_FALSE(t.divergedTail.empty());
        // The diverged tail starts at the divergence PC.
        EXPECT_EQ(t.divergedTail[0].pc, t.ops[t.divergencePoint].pc);
        EXPECT_LT(t.speculativeMatchFraction(), 1.0);
    }
}

TEST(Generator, SpeculationAccuracyMatchesPaperAtDefaultRate)
{
    // With the default ~2% dependence rate, the average speculative
    // match fraction across events is > 98% (paper: >99% match and
    // ~98% of forked pre-executions run to completion).
    SyntheticGenerator gen(AppProfile::byName("amazon"));
    double sum = 0;
    const std::size_t n = 40;
    for (std::size_t i = 0; i < n; ++i)
        sum += gen.generateEvent(i).speculativeMatchFraction();
    EXPECT_GT(sum / static_cast<double>(n), 0.98);
}

TEST(Generator, WarmSetCoversSharedAndAppCode)
{
    const AppProfile p = AppProfile::testProfile();
    SyntheticGenerator gen(p);
    const auto ranges = gen.warmSet();
    ASSERT_GE(ranges.size(), 3u);
    // Shared code range.
    EXPECT_EQ(ranges[0].first, layout::sharedCodeBase);
    // All hot-pool code PCs of a generated event fall inside some
    // warm range; cold-region PCs do not have to.
    const auto w = gen.generate();
    const Addr pool_end = layout::appCodeBase +
        Addr{p.codeRegionPool} * p.blocksPerRegion * blockBytes;
    std::size_t in_warm = 0, total = 0;
    for (const MicroOp &op : w->event(0).ops) {
        ++total;
        if (op.pc >= layout::sharedCodeBase && op.pc < pool_end)
            ++in_warm;
    }
    EXPECT_GT(static_cast<double>(in_warm) / total, 0.8);
}

TEST(Generator, ArgObjectsDistinctPerEvent)
{
    SyntheticGenerator gen(AppProfile::testProfile());
    const EventTrace a = gen.generateEvent(0);
    const EventTrace b = gen.generateEvent(1);
    EXPECT_NE(a.argObjectAddr, b.argObjectAddr);
}

TEST(Generator, SuiteProfilesAreWellFormed)
{
    const auto suite = AppProfile::webSuite();
    ASSERT_EQ(suite.size(), 7u);
    std::unordered_set<std::string> names;
    for (const AppProfile &p : suite) {
        names.insert(p.name);
        EXPECT_GT(p.numEvents, 0u);
        EXPECT_GT(p.avgEventLen, 1000.0);
        EXPECT_GT(p.paperEvents, 0.0);
        EXPECT_GT(p.paperInstMillions, 0.0);
        EXPECT_LE(p.loadFrac + p.storeFrac, 1.0);
        EXPECT_LE(p.argFrac + p.sharedHeapFrac + p.allocFrac +
                      p.coldDataFrac,
                  1.0);
    }
    EXPECT_EQ(names.size(), 7u);
    EXPECT_TRUE(names.count("amazon"));
    EXPECT_TRUE(names.count("pixlr"));
}

TEST(GeneratorDeathTest, UnknownProfileNameFatals)
{
    EXPECT_DEATH((void)AppProfile::byName("netscape"), "unknown");
}

TEST(GeneratorDeathTest, ZeroEventsFatal)
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 0;
    EXPECT_DEATH(SyntheticGenerator{p}, "zero events");
}

TEST(GeneratorDeathTest, ZeroCallDepthFatal)
{
    // The walk's call stack is a ring of maxCallDepth frames.
    AppProfile p = AppProfile::testProfile();
    p.maxCallDepth = 0;
    EXPECT_DEATH(SyntheticGenerator{p}, "zero call depth");
}
