#include "workload/generator.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/addr_map.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace espsim
{

namespace
{

/** splitmix64-style stateless mixer for deriving static properties. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b = 0x9e3779b97f4a7c15ULL,
    std::uint64_t c = 0)
{
    std::uint64_t z =
        a + 0x9e3779b97f4a7c15ULL * (b + 1) + c * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Bytes per instruction: every PC the walk visits is 4-aligned. */
constexpr Addr instBytes = 4;

/** Function entries are quantised to 64 B boundaries. */
constexpr Addr entryStride = 64;

/** PCs of the warm app code image (the decode memo's first part). */
std::size_t
warmAppPcs(const AppProfile &p)
{
    return std::size_t{p.codeRegionPool} * p.blocksPerRegion *
        (blockBytes / instBytes);
}

/** PCs of the shared runtime (the decode memo's second part). */
std::size_t
runtimePcs(const AppProfile &p)
{
    return std::size_t{p.sharedCodeBlocks} * (blockBytes / instBytes);
}

/** Behaviour classes of conditional-branch PCs. */
enum class BranchClass : std::uint8_t
{
    Biased,     //!< almost always one direction
    Correlated, //!< function of recent outcome history
    Random,     //!< data dependent, unpredictable by tables
};

/** Static kinds of block-terminator instructions. */
enum class TermKind : std::uint8_t
{
    Call,
    Return,
    Indirect,
    CondForward,
    CondBackward, //!< loop branch
};

/**
 * Everything static about one PC, packed into the decode memo's 32-bit
 * entry. Bit 0 marks a decoded record, so an all-zero word means "not
 * decoded yet".
 *
 *   bit 0        decoded
 *   bit 1        block terminator
 *   plain op     bits 2-3 OpType (IntAlu, FpAlu, Load or Store),
 *                bits 4-8 dest, bits 9-13 srcB
 *   terminator   bits 2-4 TermKind, then per kind:
 *     CondForward   bits 5-6 BranchClass, bit 7 biased direction,
 *                   bit 8 correlated parity, bits 9-13 target distance
 *     CondBackward  bits 5-8 trip count, bits 9-13 target distance
 *     Call          bits 5-31 destination in entryStride units above
 *                   layout::sharedCodeBase (reaches 2^33 bytes; a
 *                   MicroOp target is 32 bits)
 *
 * Target distances count instructions.
 */
class StaticOp
{
    static_assert(static_cast<int>(OpType::IntAlu) == 0 &&
                      static_cast<int>(OpType::FpAlu) == 1 &&
                      static_cast<int>(OpType::Load) == 2 &&
                      static_cast<int>(OpType::Store) == 3,
                  "plain op types must fit the record's 2-bit field");

  public:
    explicit StaticOp(std::uint32_t bits) : bits_(bits) {}

    static StaticOp
    plain(OpType type, std::uint64_t dest, std::uint64_t src_b)
    {
        return StaticOp(decodedBit | static_cast<std::uint32_t>(type) << 2 |
                        static_cast<std::uint32_t>(dest) << 4 |
                        static_cast<std::uint32_t>(src_b) << 9);
    }

    static StaticOp
    terminator(TermKind kind, std::uint32_t fields = 0)
    {
        return StaticOp(decodedBit | termBit |
                        static_cast<std::uint32_t>(kind) << 2 |
                        fields << 5);
    }

    std::uint32_t bits() const { return bits_; }
    bool decoded() const { return bits_ & decodedBit; }
    bool terminates() const { return bits_ & termBit; }

    // --- plain ops
    OpType type() const { return OpType((bits_ >> 2) & 3); }
    std::uint8_t dest() const { return (bits_ >> 4) & 31; }
    std::uint8_t srcB() const { return (bits_ >> 9) & 31; }

    // --- terminators
    TermKind kind() const { return TermKind((bits_ >> 2) & 7); }
    BranchClass
    branchClass() const
    {
        return BranchClass((bits_ >> 5) & 3);
    }
    bool biasedDirection() const { return (bits_ >> 7) & 1; }
    unsigned correlatedParity() const { return (bits_ >> 8) & 1; }
    unsigned tripCount() const { return (bits_ >> 5) & 15; }
    Addr distance() const { return (bits_ >> 9) & 31; }

    Addr
    callTarget() const
    {
        return layout::sharedCodeBase + Addr{bits_ >> 5} * entryStride;
    }

  private:
    static constexpr std::uint32_t decodedBit = 1;
    static constexpr std::uint32_t termBit = 2;

    std::uint32_t bits_;
};

/**
 * Return-address stack bounded at the profile's maxCallDepth. A call
 * at the bound overwrites the oldest frame (matching RAS overflow), so
 * the decode at a call PC is always a call. Push and pop are O(1).
 */
class CallStack
{
  public:
    explicit CallStack(unsigned capacity)
        : frames_(capacity), capacity_(capacity)
    {
    }

    unsigned depth() const { return depth_; }
    bool empty() const { return depth_ == 0; }

    void
    push(Addr ret)
    {
        frames_[top_] = ret;
        top_ = top_ + 1 == capacity_ ? 0 : top_ + 1;
        depth_ = std::min(depth_ + 1, capacity_);
    }

    Addr
    pop()
    {
        top_ = top_ == 0 ? capacity_ - 1 : top_ - 1;
        --depth_;
        return frames_[top_];
    }

  private:
    std::vector<Addr> frames_;
    unsigned capacity_;
    unsigned top_ = 0; //!< slot the next push writes
    unsigned depth_ = 0;
};

/** In-progress state of one event-trace random walk. */
struct Walk
{
    Rng rng;
    OpSequence out;
    std::size_t targetLen = 0;
    Addr pc = 0;
    CallStack callStack;
    std::uint64_t histReg = 0; //!< recent conditional outcomes
    Addr argObject = 0;
    std::uint64_t eventId = 0;
    std::uint32_t handler = 0;
    unsigned eventPhase = 0; //!< steadies indirect targets per event
    Addr allocRegion = 0;
    Addr allocOff = 0;
    Addr lastDataBlock = 0; //!< previous memory-op block (reuse model)
    Addr keyRegion = 0;     //!< value object of this request (server)
    std::size_t keyBytes = 0;
    double keyFrac = 0.0;
    std::uint8_t lastDest = noReg;
    AddrMap<unsigned> loopCounts; //!< visits per loop-branch PC

    Walk(std::uint64_t seed, unsigned max_call_depth)
        : rng(seed), callStack(max_call_depth)
    {
    }
};

/**
 * Generator internals bound to one profile.
 *
 * The *static program* is a pure function of (PC, seed): whether a PC
 * is a block terminator, its instruction type, a branch's kind/class/
 * target, a call's destination — all derived by hashing the PC in one
 * place, decode(). Only the *dynamics* vary per visit: conditional
 * outcomes, indirect-target selection (per-event phase), memory
 * addresses, loop exits. Branch predictors therefore see stable,
 * learnable static branches exactly as they would in real code, while
 * the footprint and path coverage vary event to event.
 *
 * decode() runs once per PC of the warm code image (the app code pool
 * and the shared runtime): its record is memoized in the generator's
 * table. PCs outside it (cold code) are decoded on every visit.
 */
class WalkEngine
{
  public:
    /** @p memo is the generator's decode table; null (its allocation
     *  failed) decodes every visit. */
    WalkEngine(const AppProfile &p, std::uint32_t *memo)
        : p_(p), memo_(memo), appPcs_(memo ? warmAppPcs(p) : 0),
          runtimePcs_(memo ? runtimePcs(p) : 0)
    {
    }

    /** Run a walk until it reaches its target length. Every step
     *  emits exactly one op, so the lanes are sized once up front. */
    void
    run(Walk &st) const
    {
        st.out.reserve(st.targetLen);
        while (st.out.size() < st.targetLen)
            step(st);
    }

    /** Draw this event's target length (exponential-ish, floored). */
    std::size_t
    drawLength(Rng &rng) const
    {
        const double u = std::max(rng.real(), 1e-12);
        double len = p_.avgEventLen * -std::log(1.0 - u);
        len = std::min(len, 12.0 * p_.avgEventLen);
        return std::max<std::size_t>(static_cast<std::size_t>(len),
                                     p_.minEventLen);
    }

    /** Entry PC of handler @p h (its base region). */
    Addr
    handlerEntry(std::uint32_t h) const
    {
        return entryAt(handlerBaseSlot(h), 0);
    }

  private:
    const AppProfile &p_;
    std::uint32_t *memo_;
    std::size_t appPcs_;
    std::size_t runtimePcs_;

    Addr
    regionBase(std::uint64_t slot) const
    {
        return layout::appCodeBase +
            slot * p_.blocksPerRegion * blockBytes;
    }

    Addr
    regionBytes() const
    {
        return p_.blocksPerRegion * blockBytes;
    }

    /** Region-slot index containing @p pc (app code space only). */
    std::uint64_t
    slotOf(Addr pc) const
    {
        return (pc - layout::appCodeBase) / regionBytes();
    }

    /** First slot index of the cold (never-warm) code space. */
    std::uint64_t
    coldSlotBase() const
    {
        return p_.codeRegionPool;
    }

    /** Quantised entry inside region @p slot selected by hash @p h. */
    Addr
    entryAt(std::uint64_t slot, std::uint64_t h) const
    {
        const Addr entries = std::max<Addr>(regionBytes() / entryStride, 1);
        return regionBase(slot) + (h % entries) * entryStride;
    }

    std::uint64_t
    handlerBaseSlot(std::uint32_t handler) const
    {
        return mix(p_.seed, handler, 0x1000) % p_.codeRegionPool;
    }

    /** Quantised entry in the shared runtime, skew-selected. */
    Addr
    sharedEntry(std::uint64_t h) const
    {
        // Square the hash fraction for skew: a few runtime entry
        // points (dispatch, GC barriers, DOM glue) dominate.
        const double u = static_cast<double>(h % 65536) / 65536.0;
        const auto span =
            static_cast<std::uint64_t>(p_.sharedCodeBlocks) * blockBytes /
            entryStride;
        const auto idx = static_cast<std::uint64_t>(
            u * u * static_cast<double>(span));
        return layout::sharedCodeBase + idx * entryStride;
    }

    // --- static decode ----------------------------------------------

    /**
     * Fixed direct-call destination of the call at @p pc. Code is laid
     * out with call locality: a call site targets a function within a
     * small slot neighbourhood ahead of its own region (or the shared
     * runtime), so the walk drifts through the code image and the
     * touched footprint grows with event length.
     */
    Addr
    callTarget(Addr pc) const
    {
        const std::uint64_t h = mix(pc, p_.seed, 0xca11);
        const double u = static_cast<double>(h % 10000) / 10000.0;
        if (u < p_.sharedCodeFraction)
            return sharedEntry(h >> 16);
        const std::uint64_t span = p_.hotRegionsPerHandler;
        std::uint64_t slot;
        if (pc >= layout::appCodeBase) {
            const std::uint64_t here = slotOf(pc);
            if (here >= coldSlotBase()) {
                // Calls within fresh code stay in its neighbourhood.
                slot = here + 1 + (h >> 8) % 3;
            } else {
                // Calls stay inside the aligned `span`-region window
                // containing the call site: one module of the code
                // image. Event footprints are therefore bounded by the
                // window set the event visits, not by event length.
                const std::uint64_t window = here / span;
                slot = window * span + (here + 1 + (h >> 8) % span) % span;
            }
        } else {
            // Runtime code calling back into the application.
            slot = (h >> 8) % p_.codeRegionPool;
        }
        return entryAt(slot, h >> 24);
    }

    /**
     * The static decode of the instruction at @p pc: everything about
     * it that does not depend on how the walk reached it.
     */
    StaticOp
    decode(Addr pc) const
    {
        // Every 24th instruction slot terminates unconditionally so
        // straight-line runs are bounded.
        const double p_term = 1.0 / (p_.avgBasicBlockLen + 1.0);
        const bool terminator = (pc >> 2) % 24 == 23 ||
            static_cast<double>(mix(pc, p_.seed, 0x7e12) % 16384) <
                16384.0 * p_term;

        if (!terminator) {
            const std::uint64_t h = mix(pc, p_.seed, 0x0b);
            const double u = static_cast<double>(h % 10000) / 10000.0;
            if (u < p_.loadFrac)
                return StaticOp::plain(OpType::Load, (h >> 16) % 24, 0);
            if (u < p_.loadFrac + p_.storeFrac)
                return StaticOp::plain(OpType::Store, 0,
                                       (h >> 20) % numArchRegs);
            const double fp_cut =
                p_.loadFrac + p_.storeFrac +
                p_.fpFrac * (1.0 - p_.loadFrac - p_.storeFrac);
            return StaticOp::plain(u < fp_cut ? OpType::FpAlu
                                              : OpType::IntAlu,
                                   (h >> 16) % numArchRegs,
                                   (h >> 24) % numArchRegs);
        }

        const double u = static_cast<double>(
                             mix(pc, p_.seed, 0x7e57) % 16384) /
            16384.0;
        double acc = p_.callFrac;
        if (u < acc) {
            const Addr units =
                (callTarget(pc) - layout::sharedCodeBase) / entryStride;
            if (units >> 27)
                panic("call target of %#llx beyond the decode record",
                      static_cast<unsigned long long>(pc));
            return StaticOp::terminator(
                TermKind::Call, static_cast<std::uint32_t>(units));
        }
        acc += p_.returnFrac;
        if (u < acc)
            return StaticOp::terminator(TermKind::Return);
        acc += p_.indirectFrac;
        if (u < acc)
            return StaticOp::terminator(TermKind::Indirect);
        acc += p_.loopFrac;
        if (u < acc) {
            // Loop branch: per-PC-constant trip count and body size.
            const std::uint64_t h = mix(pc, p_.seed, 0x100b);
            const auto trips = static_cast<std::uint32_t>(2 + h % 13);
            const auto back = static_cast<std::uint32_t>(4 + (h >> 8) % 28);
            return StaticOp::terminator(TermKind::CondBackward,
                                        trips | back << 4);
        }

        const double uc = static_cast<double>(
                              mix(pc, p_.seed, 0xbc) % 10000) /
            10000.0;
        std::uint32_t fields;
        if (uc < p_.biasedBranchFrac) {
            fields = static_cast<std::uint32_t>(BranchClass::Biased) |
                static_cast<std::uint32_t>(
                    (mix(pc, p_.seed, 0xd1) >> 8) & 1)
                    << 2;
        } else if (uc < p_.biasedBranchFrac + p_.correlatedBranchFrac) {
            fields = static_cast<std::uint32_t>(BranchClass::Correlated) |
                static_cast<std::uint32_t>(
                    (mix(pc, p_.seed, 0xc0) >> 9) & 1)
                    << 3;
        } else {
            fields = static_cast<std::uint32_t>(BranchClass::Random);
        }
        const auto dist =
            static_cast<std::uint32_t>(5 + mix(pc, p_.seed, 0x5c1) % 26);
        return StaticOp::terminator(TermKind::CondForward,
                                    fields | dist << 4);
    }

    /** decode(@p pc), memoized inside the table's coverage. */
    StaticOp
    staticOp(Addr pc) const
    {
        const Addr app = (pc - layout::appCodeBase) / instBytes;
        const Addr runtime = (pc - layout::sharedCodeBase) / instBytes;
        std::uint32_t *entry = app < appPcs_ ? memo_ + app
            : runtime < runtimePcs_          ? memo_ + appPcs_ + runtime
                                             : nullptr;
        if (!entry)
            return decode(pc);
        // Racing threads store the same pure value: relaxed suffices.
        std::atomic_ref<std::uint32_t> slot(*entry);
        StaticOp op(slot.load(std::memory_order_relaxed));
        if (!op.decoded()) {
            op = decode(pc);
            slot.store(op.bits(), std::memory_order_relaxed);
        }
        return op;
    }

    /**
     * Destination of the indirect branch at @p pc for this visit:
     * stable within an event (the same receiver object), varies across
     * events, and reaches event-specific fresh code with probability
     * coldCodeFraction — this is how compulsory-miss code keeps
     * arriving, like newly JITted or first-touched functions.
     */
    Addr
    indirectTarget(const Walk &st, Addr pc) const
    {
        const std::uint64_t h = mix(pc, p_.seed, 0x19d);
        const unsigned fanout = 1 + static_cast<unsigned>((h >> 3) % 6);
        const unsigned which =
            (st.eventPhase + static_cast<unsigned>(h >> 16)) % fanout;
        const std::uint64_t hw = mix(h, which, 0x3b);
        const double u = static_cast<double>(hw % 10000) / 10000.0;
        if (u < p_.coldCodeFraction) {
            // Event-specific fresh code (JIT output, first-touched
            // functions): slots beyond the warm pool, so they are
            // compulsory-miss territory.
            const std::uint64_t slot = coldSlotBase() +
                mix(p_.seed, st.handler * 131 + st.eventId, hw >> 8) %
                    (1u << 20);
            return entryAt(slot, hw >> 20);
        }
        // Dispatch re-bases the walk onto one of this event's code
        // windows, cycling every phasePeriod instructions. An event's
        // instruction footprint is the union of a few windows however
        // long it runs — matching the bounded per-event working sets
        // of the paper's Figure 13.
        const std::uint64_t span = p_.hotRegionsPerHandler;
        const std::uint64_t num_windows =
            std::max<std::uint64_t>(p_.codeRegionPool / span, 1);
        const std::uint64_t phase = st.out.size() / p_.phasePeriod;
        const std::uint64_t wslot =
            (phase + (hw >> 7)) % p_.windowsPerEvent;
        const std::uint64_t window =
            mix(p_.seed, st.handler * 64 + st.eventPhase, wslot) %
            num_windows;
        // Early passes over the window set explore new dispatch
        // subgraphs (pass salt); later passes revisit them. Long
        // events therefore build their footprint over the first few
        // passes, then reuse it — misses stay front-loaded.
        const std::uint64_t pass =
            std::min<std::uint64_t>(phase / p_.windowsPerEvent, 3);
        const std::uint64_t slot =
            window * span + (mix(hw >> 4, pass, 0x9a) % span);
        return entryAt(slot, mix(hw >> 24, pass, 0x9b));
    }
    // --- dynamics ----------------------------------------------------

    /** Effective address for the next load or store. */
    Addr
    dataAddress(Walk &st) const
    {
        // Temporal/spatial locality: programs frequently re-touch the
        // line they just used (field accesses on the same object).
        if (st.lastDataBlock != 0 && st.rng.chance(p_.dataRepeatFrac))
            return st.lastDataBlock + 8 * st.rng.below(8);

        // Request-serving overlay (src/server): a slice of accesses
        // lands on the looked-up key's value object in the KV heap.
        // The keyFrac guard short-circuits before any rng draw, so
        // unshaped (browser) events consume an identical rng stream
        // whether or not this overlay exists.
        if (st.keyFrac > 0.0 && st.rng.chance(st.keyFrac)) {
            const Addr words = std::max<Addr>(st.keyBytes / 8, 1);
            return st.keyRegion + 8 * st.rng.below(words);
        }

        const double r = st.rng.real();
        double acc = p_.argFrac;
        if (r < acc)
            return st.argObject + 8 * st.rng.below(24);
        acc += p_.sharedHeapFrac;
        if (r < acc) {
            // Two-tier heap: a hot window of frequently-reused objects
            // plus a long cold tail over the whole heap.
            std::uint64_t block;
            if (st.rng.chance(p_.sharedHotFrac)) {
                block = st.rng.skewed(std::min<std::uint64_t>(
                    p_.sharedHotBlocks, p_.sharedHeapBlocks));
            } else {
                block = st.rng.below(p_.sharedHeapBlocks);
            }
            return layout::sharedHeapBase + block * blockBytes +
                8 * st.rng.below(8);
        }
        acc += p_.allocFrac;
        if (r < acc) {
            // Bump allocation with short-range reuse.
            const Addr span = p_.allocBlocksPerEvent * blockBytes;
            if (st.rng.chance(0.55) && st.allocOff > 0) {
                const Addr back =
                    std::min<Addr>(st.allocOff, 2 * blockBytes);
                return st.allocRegion + st.allocOff -
                    st.rng.below(back + 1);
            }
            st.allocOff = (st.allocOff + st.rng.range(16, 96)) % span;
            return st.allocRegion + st.allocOff;
        }
        acc += p_.coldDataFrac;
        if (r < acc) {
            // Streaming data, never reused.
            return layout::coldDataBase +
                (st.rng.next() % (Addr{1} << 30));
        }
        // Stack frame of the current call depth.
        return layout::stackBase - st.callStack.depth() * 192 -
            8 * st.rng.below(24);
    }

    /** Outcome of the forward conditional branch decoded as @p br. */
    bool
    conditionalOutcome(Walk &st, StaticOp br) const
    {
        bool outcome;
        switch (br.branchClass()) {
          case BranchClass::Biased: {
            const bool dir = br.biasedDirection();
            outcome = st.rng.chance(p_.branchBias) ? dir : !dir;
            break;
          }
          case BranchClass::Correlated:
            outcome = (std::popcount(st.histReg & 0x1b) +
                       static_cast<int>(br.correlatedParity())) &
                1;
            break;
          case BranchClass::Random:
          default:
            outcome = st.rng.chance(0.5);
            break;
        }
        st.histReg = (st.histReg << 1) | (outcome ? 1 : 0);
        return outcome;
    }

    // --- emission ----------------------------------------------------

    void
    emitPlainOp(Walk &st, StaticOp decoded) const
    {
        MicroOp op;
        op.pc = st.pc;
        op.setType(decoded.type());
        if (op.isLoad()) {
            op.memAddr = dataAddress(st);
            st.lastDataBlock = blockAlign(op.memAddr);
            op.dest = decoded.dest();
            op.srcA = st.rng.chance(0.30) && st.lastDest != noReg
                ? st.lastDest
                : static_cast<std::uint8_t>(st.rng.below(numArchRegs));
            st.lastDest = op.dest;
        } else if (op.isStore()) {
            op.memAddr = dataAddress(st);
            st.lastDataBlock = blockAlign(op.memAddr);
            op.srcA = st.rng.chance(0.40) && st.lastDest != noReg
                ? st.lastDest
                : static_cast<std::uint8_t>(st.rng.below(numArchRegs));
            op.srcB = decoded.srcB();
        } else {
            op.dest = decoded.dest();
            op.srcA = st.rng.chance(0.45) && st.lastDest != noReg
                ? st.lastDest
                : static_cast<std::uint8_t>(st.rng.below(numArchRegs));
            op.srcB = decoded.srcB();
            st.lastDest = op.dest;
        }
        st.out.push_back(op);
        st.pc += instBytes;
    }

    void
    emitControl(Walk &st, OpType type, bool taken, Addr target) const
    {
        MicroOp op;
        op.pc = st.pc;
        op.setType(type);
        op.setTaken(taken);
        op.setBranchTarget(taken ? target : 0);
        op.srcA = st.lastDest != noReg && st.rng.chance(0.2)
            ? st.lastDest
            : static_cast<std::uint8_t>(st.rng.below(numArchRegs));
        st.out.push_back(op);
        st.pc = taken ? target : st.pc + instBytes;
    }

    /** Emit one instruction (static decode at the walk's PC). */
    void
    step(Walk &st) const
    {
        const Addr pc = st.pc;
        const StaticOp decoded = staticOp(pc);
        if (!decoded.terminates()) {
            emitPlainOp(st, decoded);
            return;
        }

        switch (decoded.kind()) {
          case TermKind::Call:
            st.callStack.push(pc + instBytes);
            emitControl(st, OpType::Call, true, decoded.callTarget());
            break;
          case TermKind::Return: {
            // A return with an empty stack is the handler's final
            // return into the dispatcher: still a return instruction,
            // its target just isn't a recorded frame.
            const Addr ret = st.callStack.empty() ? indirectTarget(st, pc)
                                                  : st.callStack.pop();
            emitControl(st, OpType::Return, true, ret);
            break;
          }
          case TermKind::Indirect:
            emitControl(st, OpType::BranchIndirect, true,
                        indirectTarget(st, pc));
            break;
          case TermKind::CondBackward: {
            const unsigned count = ++st.loopCounts[pc];
            const bool taken = count % decoded.tripCount() != 0;
            emitControl(st, OpType::BranchCond, taken,
                        pc - instBytes * decoded.distance());
            st.histReg = (st.histReg << 1) | (taken ? 1 : 0);
            break;
          }
          case TermKind::CondForward: {
            const bool taken = conditionalOutcome(st, decoded);
            emitControl(st, OpType::BranchCond, taken,
                        pc + instBytes * (1 + decoded.distance()));
            break;
          }
        }
    }
};

} // namespace

void
SyntheticGenerator::FreeDeleter::operator()(std::uint32_t *table) const
{
    std::free(table);
}

SyntheticGenerator::SyntheticGenerator(AppProfile profile)
    : profile_(std::move(profile))
{
    if (profile_.numEvents == 0)
        fatal("profile '%s' has zero events", profile_.name.c_str());
    if (profile_.blocksPerRegion == 0 || profile_.codeRegionPool == 0)
        fatal("profile '%s' has an empty code image",
              profile_.name.c_str());
    if (profile_.maxCallDepth == 0)
        fatal("profile '%s' has a zero call depth", profile_.name.c_str());
    // calloc, not a zero-filled vector: fresh zero pages are mapped on
    // first touch, so construction stays O(1) and only the code a run
    // reaches costs memory.
    decoded_.reset(static_cast<std::uint32_t *>(std::calloc(
        warmAppPcs(profile_) + runtimePcs(profile_),
        sizeof(std::uint32_t))));
}

EventTrace
SyntheticGenerator::generateEvent(std::uint64_t id) const
{
    return generateShaped(id, nullptr);
}

EventTrace
SyntheticGenerator::generateEvent(std::uint64_t id,
                                  const EventShape &shape) const
{
    return generateShaped(id, &shape);
}

EventTrace
SyntheticGenerator::generateShaped(std::uint64_t id,
                                   const EventShape *shape) const
{
    const AppProfile &p = profile_;
    EventTrace trace;
    trace.id = id;

    WalkEngine engine(p, decoded_.get());
    Walk st(mix(p.seed, id, 0xe7e47), p.maxCallDepth);

    st.eventId = id;
    if (shape) {
        if (shape->handler >= p.numHandlerTypes)
            panic("event shape handler %u out of range %u",
                  shape->handler, p.numHandlerTypes);
        st.handler = shape->handler;
        st.keyRegion = shape->keyRegion;
        st.keyBytes = shape->keyBytes;
        st.keyFrac = shape->keyFrac;
    } else {
        // Handler popularity: half the events come from a skewed head
        // of popular handlers (timers, scroll), half are spread
        // uniformly — consecutive events usually run *different* code,
        // which is what destroys instruction locality in asynchronous
        // programs (§2.1).
        st.handler = static_cast<std::uint32_t>(
            st.rng.chance(0.5) ? st.rng.skewed(p.numHandlerTypes)
                               : st.rng.below(p.numHandlerTypes));
    }
    st.eventPhase =
        static_cast<unsigned>(mix(id, st.handler, 0x9a5e) % 64);
    st.targetLen = shape && shape->targetLen
        ? std::max<std::size_t>(shape->targetLen, p.minEventLen)
        : engine.drawLength(st.rng);
    st.argObject = layout::argObjectBase + id * 4096;
    st.allocRegion = layout::allocBase +
        id * (2ULL * p.allocBlocksPerEvent * blockBytes);
    st.pc = engine.handlerEntry(st.handler);

    trace.handlerType = st.handler;
    trace.handlerPc = st.pc;
    trace.argObjectAddr = st.argObject;

    // Inter-event dependence: decided before the walk so the divergence
    // point is a property of the event, not of its length realisation.
    const bool dependent = id > 0 && st.rng.chance(p.dependencyRate);
    const double div_frac = 0.15 + 0.70 * st.rng.real();

    engine.run(st);
    trace.ops = std::move(st.out);

    if (dependent) {
        trace.divergencePoint = std::min(
            trace.ops.size() - 1,
            static_cast<std::size_t>(
                div_frac * static_cast<double>(trace.ops.size())));

        // The wrong path a pre-execution follows after reading a stale
        // value: a fresh walk from the divergence PC with its own
        // random stream. Often shorter than the real remainder (the
        // paper's ~2% of forked pre-executions that fail early).
        Walk bad(mix(p.seed, id, 0xbad), p.maxCallDepth);
        bad.eventId = id;
        bad.handler = st.handler;
        bad.eventPhase = (st.eventPhase + 17) % 64;
        bad.argObject = st.argObject;
        bad.allocRegion = st.allocRegion;
        bad.keyRegion = st.keyRegion;
        bad.keyBytes = st.keyBytes;
        bad.keyFrac = st.keyFrac;
        bad.pc = trace.ops[trace.divergencePoint].pc;
        const std::size_t remainder =
            trace.ops.size() - trace.divergencePoint;
        bad.targetLen = std::max<std::size_t>(
            1,
            static_cast<std::size_t>(static_cast<double>(remainder) *
                                     (0.30 + 0.70 * bad.rng.real())));
        engine.run(bad);
        trace.divergedTail = std::move(bad.out);
    }

    return trace;
}

std::vector<AddrRange>
SyntheticGenerator::warmSet() const
{
    const AppProfile &p = profile_;
    std::vector<AddrRange> ranges;
    // Shared runtime code.
    ranges.emplace_back(layout::sharedCodeBase,
                        layout::sharedCodeBase +
                            Addr{p.sharedCodeBlocks} * blockBytes);
    // The application's entire warm code pool (handlers + callees).
    const Addr region_bytes = Addr{p.blocksPerRegion} * blockBytes;
    ranges.emplace_back(layout::appCodeBase,
                        layout::appCodeBase +
                            p.codeRegionPool * region_bytes);
    // The whole shared heap (hot window and tail).
    ranges.emplace_back(layout::sharedHeapBase,
                        layout::sharedHeapBase +
                            Addr{p.sharedHeapBlocks} * blockBytes);
    return ranges;
}

std::unique_ptr<InMemoryWorkload>
SyntheticGenerator::generate() const
{
    std::vector<EventTrace> events;
    events.reserve(profile_.numEvents);
    for (std::uint64_t id = 0; id < profile_.numEvents; ++id)
        events.push_back(generateEvent(id));
    auto workload = std::make_unique<InMemoryWorkload>(
        profile_.name, std::move(events));
    workload->setWarmSet(warmSet());
    return workload;
}

} // namespace espsim
