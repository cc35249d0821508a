/**
 * @file
 * Tests for workload serialization: lossless round-trips (including
 * divergence tails and warm sets), format validation, and robustness
 * against corrupt, truncated or unpackable input; and for the 16-byte
 * packed op storage (OpSequence) the reader fills.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "sim/simulator.hh"
#include "trace/trace_io.hh"
#include "workload/builder.hh"
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

void
expectEqualWorkloads(const Workload &a, const Workload &b)
{
    ASSERT_EQ(a.numEvents(), b.numEvents());
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.warmSet().size(), b.warmSet().size());
    for (std::size_t r = 0; r < a.warmSet().size(); ++r) {
        EXPECT_EQ(a.warmSet()[r].first, b.warmSet()[r].first);
        EXPECT_EQ(a.warmSet()[r].second, b.warmSet()[r].second);
    }
    for (std::size_t e = 0; e < a.numEvents(); ++e) {
        const EventTrace &x = a.event(e);
        const EventTrace &y = b.event(e);
        ASSERT_EQ(x.size(), y.size()) << "event " << e;
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.handlerType, y.handlerType);
        EXPECT_EQ(x.handlerPc, y.handlerPc);
        EXPECT_EQ(x.argObjectAddr, y.argObjectAddr);
        EXPECT_EQ(x.divergencePoint, y.divergencePoint);
        ASSERT_EQ(x.divergedTail.size(), y.divergedTail.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            ASSERT_TRUE(sameOp(x.ops[i], y.ops[i]));
        for (std::size_t i = 0; i < x.divergedTail.size(); ++i)
            ASSERT_TRUE(sameOp(x.divergedTail[i], y.divergedTail[i]));
    }
}

/** A one-event, one-op trace file holding @p op. */
std::string
oneOpTrace(const MicroOp &op)
{
    EventTrace ev;
    ev.ops.push_back(op);
    std::vector<EventTrace> events;
    events.push_back(std::move(ev));
    const InMemoryWorkload w("one", std::move(events));
    std::stringstream buf;
    writeWorkload(buf, w);
    return buf.str();
}

/** Overwrite the u64 at byte @p offset of the last op in @p bytes
 *  (ops are 29 bytes: pc at 0, memAddr at 8, branchTarget at 16). */
void
patchLastOp(std::string &bytes, std::size_t offset, std::uint64_t value)
{
    std::memcpy(&bytes[bytes.size() - 29 + offset], &value, sizeof(value));
}

/** An op of @p type at the extremes the packed lanes must hold. */
MicroOp
extremeOp(OpType type, bool taken)
{
    MicroOp op;
    op.pc = 0xffff'fffcULL;
    op.setType(type);
    op.setTaken(taken);
    if (isMemory(type))
        op.memAddr = 0x1'ffff'fff8ULL; // 33 bits
    else
        op.setBranchTarget(0xffff'ffffULL);
    return op;
}

} // namespace

TEST(OpSequence, EveryTypeRoundTripsAtItsExtremes)
{
    std::vector<MicroOp> ops;
    for (unsigned t = 0; t <= static_cast<unsigned>(OpType::Return); ++t) {
        for (bool taken : {false, true}) {
            MicroOp op = extremeOp(static_cast<OpType>(t), taken);
            ops.push_back(op); // noReg operands
            op.srcA = 0;
            op.srcB = numArchRegs - 1;
            op.dest = 7;
            ops.push_back(op);
        }
    }
    OpSequence seq;
    for (const MicroOp &op : ops)
        seq.push_back(op);
    ASSERT_EQ(seq.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const MicroOp &want = ops[i];
        EXPECT_TRUE(sameOp(seq[i], want)) << "op " << i;
        EXPECT_EQ(seq.pc(i), want.pc);
        EXPECT_EQ(seq.memAddr(i), want.memAddr);
        EXPECT_EQ(seq.metaLane(i), want.metaLane());
    }
}

TEST(OpSequence, StoresSixteenBytesPerOp)
{
    static_assert(sizeof(OpSequence) == 2 * sizeof(std::vector<Addr>),
                  "OpSequence keeps exactly two lanes");
    OpSequence seq;
    seq.reserve(1000);
    EXPECT_EQ(seq.capacityBytes(), 16u * 1000);
}

TEST(OpSequenceDeathTest, PanicsOnWidePc)
{
    MicroOp op;
    op.pc = 0x1'0000'0000ULL;
    OpSequence seq;
    EXPECT_DEATH(seq.push_back(op), "does not fit");
}

TEST(OpSequenceDeathTest, PanicsOnMemAddrOfNonMemoryOp)
{
    MicroOp op = extremeOp(OpType::BranchCond, true);
    op.memAddr = 0x5000;
    OpSequence seq;
    EXPECT_DEATH(seq.push_back(op), "does not fit");
}

TEST(OpSequenceDeathTest, PanicsOnBranchTargetOfMemoryOp)
{
    MicroOp op = extremeOp(OpType::Load, false);
    op.setBranchTarget(0x1100);
    OpSequence seq;
    EXPECT_DEATH(seq.push_back(op), "does not fit");
}

TEST(TraceIo, RoundTripsBuilderWorkload)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000, 0x9000);
    b.aluBlock(0x1000, 5).load(0x1014, 0x5000, 3).branch(0x1018, true,
                                                         0x1100);
    b.beginEvent(0x2000);
    b.store(0x2000, 0x6000);
    b.dependsOnPrevious(0, {MicroOp{}});
    auto original = b.build("roundtrip");
    original->setWarmSet({{0x1000, 0x2000}, {0x5000, 0x7000}});

    std::stringstream buf;
    ASSERT_TRUE(writeWorkload(buf, *original));
    auto loaded = readWorkload(buf);
    ASSERT_NE(loaded, nullptr);
    expectEqualWorkloads(*original, *loaded);
}

TEST(TraceIo, RoundTripsGeneratedWorkload)
{
    AppProfile p = AppProfile::testProfile();
    p.dependencyRate = 0.3; // exercise diverged tails
    const auto original = SyntheticGenerator(p).generate();

    std::stringstream buf;
    ASSERT_TRUE(writeWorkload(buf, *original));
    auto loaded = readWorkload(buf);
    ASSERT_NE(loaded, nullptr);
    expectEqualWorkloads(*original, *loaded);
}

TEST(TraceIo, LoadedWorkloadSimulatesIdentically)
{
    const auto original =
        SyntheticGenerator(AppProfile::testProfile()).generate();
    std::stringstream buf;
    writeWorkload(buf, *original);
    auto loaded = readWorkload(buf);
    ASSERT_NE(loaded, nullptr);
    // Identical traces must produce bit-identical simulations.
    const auto a = Simulator(SimConfig::espFull(true)).run(*original);
    const auto b = Simulator(SimConfig::espFull(true)).run(*loaded);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.core.mispredicts, b.core.mispredicts);
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream buf;
    buf << "NOPE-this-is-not-a-trace";
    EXPECT_EQ(readWorkload(buf), nullptr);
}

TEST(TraceIo, RejectsWrongVersion)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).alu(0x1000);
    auto w = b.build("v");
    std::stringstream buf;
    writeWorkload(buf, *w);
    std::string bytes = buf.str();
    bytes[4] = static_cast<char>(0x7f); // clobber version
    std::stringstream bad(bytes);
    EXPECT_EQ(readWorkload(bad), nullptr);
}

TEST(TraceIo, RejectsTruncation)
{
    const auto w =
        SyntheticGenerator(AppProfile::testProfile()).generate();
    std::stringstream buf;
    writeWorkload(buf, *w);
    const std::string bytes = buf.str();
    // Cut the stream at several points; every cut must fail cleanly.
    for (std::size_t cut :
         {bytes.size() / 7, bytes.size() / 3, bytes.size() - 5}) {
        std::stringstream truncated(bytes.substr(0, cut));
        EXPECT_EQ(readWorkload(truncated), nullptr) << "cut " << cut;
    }
}

TEST(TraceIo, RejectsCorruptOpType)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).alu(0x1000);
    auto w = b.build("c");
    std::stringstream buf;
    writeWorkload(buf, *w);
    std::string bytes = buf.str();
    bytes[bytes.size() - 5] = 0x66; // op-type byte of the only op
    std::stringstream bad(bytes);
    EXPECT_EQ(readWorkload(bad), nullptr);
}

TEST(TraceIo, RejectsInsaneDivergencePoint)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).alu(0x1000);
    b.beginEvent(0x2000).alu(0x2000).alu(0x2004);
    b.dependsOnPrevious(1, {MicroOp{}});
    auto w = b.build("d");
    std::stringstream buf;
    writeWorkload(buf, *w);
    std::string bytes = buf.str();
    // Find the second event's divergence field and blow it up: easier
    // to just flip a high byte somewhere in it via re-encode — instead
    // rewrite the whole stream with a divergence >= opCount by hand.
    // (Cheap approach: corrupt every plausible location and require
    // that no corruption yields a workload with an out-of-range
    // divergence point.)
    for (std::size_t pos = 0; pos + 1 < bytes.size(); pos += 9) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(0xff);
        std::stringstream in(mutated);
        auto loaded = readWorkload(in);
        if (loaded) {
            for (std::size_t e = 0; e < loaded->numEvents(); ++e) {
                const EventTrace &ev = loaded->event(e);
                if (!ev.independent()) {
                    EXPECT_LT(ev.divergencePoint, ev.size());
                }
            }
        }
    }
}

TEST(TraceIo, RejectsUnpackableOps)
{
    MicroOp alu;
    alu.pc = 0x1000;
    MicroOp load;
    load.pc = 0x1004;
    load.setType(OpType::Load);
    load.memAddr = 0x5000;
    struct Case
    {
        const char *what;
        MicroOp op;
        std::size_t offset;
        std::uint64_t value;
    };
    for (const Case &c : {Case{"33-bit pc", alu, 0, 0x1'0000'1000ULL},
                          Case{"memAddr on an ALU op", alu, 8, 0x5000},
                          Case{"target on a load", load, 16, 0x1100}}) {
        std::string bytes = oneOpTrace(c.op);
        std::stringstream good(bytes);
        ASSERT_NE(readWorkload(good), nullptr) << c.what;
        patchLastOp(bytes, c.offset, c.value);
        std::stringstream bad(bytes);
        EXPECT_EQ(readWorkload(bad), nullptr) << c.what;
    }
}
