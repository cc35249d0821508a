/**
 * @file
 * Structure-of-arrays storage for a dynamic instruction stream.
 *
 * An event's ops live in two parallel 64-bit lanes, 16 bytes per op:
 *  - pcMeta: the 32-bit pc in the low half; type/taken, srcA, srcB
 *    and dest (the high half of MicroOp::metaLane()) in the high half;
 *  - operand: memAddr for a Load/Store, otherwise the branch target
 *    (0 on ALU ops).
 * A MicroOp never carries both a memory address and a branch target,
 * and every code address fits in 32 bits, so the two lanes hold the
 * whole op; the op type in pcMeta says how to read the operand.
 * push_back() panics on an op that breaks that contract, as
 * MicroOp::setBranchTarget() does on a wide target; a reader of
 * untrusted input checks fits() first.
 *
 * MicroOp remains the exchange currency: operator[] assembles one by
 * value, and const-reference bindings at existing call sites keep
 * working through lifetime extension.
 */

#ifndef ESPSIM_TRACE_OP_SEQUENCE_HH
#define ESPSIM_TRACE_OP_SEQUENCE_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <vector>

#include "common/logging.hh"
#include "trace/micro_op.hh"

namespace espsim
{

/** SoA container of MicroOps with vector-like surface. */
class OpSequence
{
  public:
    OpSequence() = default;

    OpSequence(std::initializer_list<MicroOp> ops)
    {
        reserve(ops.size());
        for (const MicroOp &op : ops)
            push_back(op);
    }

    /** True when the two packed lanes can hold @p op: a 32-bit pc, no
     *  branch target on a memory op, no memory address on any other. */
    static bool
    fits(const MicroOp &op)
    {
        if (op.pc >> 32)
            return false;
        return op.isMemoryOp() ? op.branchTarget() == 0 : op.memAddr == 0;
    }

    std::size_t size() const { return pcMeta_.size(); }
    bool empty() const { return pcMeta_.empty(); }

    /** Heap bytes the lanes hold (16 per op of capacity). */
    std::size_t
    capacityBytes() const
    {
        return pcMeta_.capacity() * sizeof(std::uint64_t) +
            operand_.capacity() * sizeof(Addr);
    }

    void
    reserve(std::size_t n)
    {
        pcMeta_.reserve(n);
        operand_.reserve(n);
    }

    void
    clear()
    {
        pcMeta_.clear();
        operand_.clear();
    }

    void
    push_back(const MicroOp &op)
    {
        if (!fits(op)) {
            panic("OpSequence: op at pc %#llx (type %u, memAddr %#llx, "
                  "branch target %#llx) does not fit the packed lanes",
                  static_cast<unsigned long long>(op.pc),
                  static_cast<unsigned>(op.type()),
                  static_cast<unsigned long long>(op.memAddr),
                  static_cast<unsigned long long>(op.branchTarget()));
        }
        pcMeta_.push_back(op.pc | (op.metaLane() & highHalf));
        operand_.push_back(op.isMemoryOp() ? op.memAddr
                                           : op.branchTarget());
    }

    /** Assemble the op at @p i by value. */
    MicroOp
    operator[](std::size_t i) const
    {
        assert(i < size());
        const std::uint64_t pc_meta = pcMeta_[i];
        const Addr operand = operand_[i];
        const bool mem = isMemoryLane(pc_meta);
        return MicroOp::fromLanes(pc_meta & ~highHalf, mem ? operand : 0,
                                  (pc_meta & highHalf) |
                                      (mem ? 0 : operand));
    }

    /** @name Logical lanes: the values a MicroOp of the op reports.
     * @{ */
    Addr pc(std::size_t i) const { return pcMeta_[i] & ~highHalf; }

    Addr
    memAddr(std::size_t i) const
    {
        return isMemoryLane(pcMeta_[i]) ? operand_[i] : 0;
    }

    /** MicroOp::metaLane() of the op at @p i. */
    std::uint64_t
    metaLane(std::size_t i) const
    {
        return (pcMeta_[i] & highHalf) |
            (isMemoryLane(pcMeta_[i]) ? 0 : operand_[i]);
    }
    /** @} */

    /** Input iterator yielding MicroOps by value (range-for support;
     *  `const MicroOp &` bindings live through lifetime extension). */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = MicroOp;
        using difference_type = std::ptrdiff_t;
        using pointer = const MicroOp *;
        using reference = MicroOp;

        const_iterator(const OpSequence *seq, std::size_t i)
            : seq_(seq), i_(i)
        {
        }

        MicroOp operator*() const { return (*seq_)[i_]; }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return i_ == other.i_;
        }

        bool
        operator!=(const const_iterator &other) const
        {
            return i_ != other.i_;
        }

      private:
        const OpSequence *seq_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    static constexpr std::uint64_t highHalf = 0xffff'ffff'0000'0000ULL;

    static bool
    isMemoryLane(std::uint64_t pc_meta)
    {
        return isMemory(MicroOp::typeOfMetaLane(pc_meta));
    }

    std::vector<std::uint64_t> pcMeta_;
    std::vector<Addr> operand_;
};

} // namespace espsim

#endif // ESPSIM_TRACE_OP_SEQUENCE_HH
