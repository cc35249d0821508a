/**
 * @file
 * Pentium M-style branch predictor, sized per the paper's Figure 7:
 * 2k-entry tagged global predictor (PIR-indexed), 4k-entry local
 * predictor, 2k-entry BTB, 256-entry indirect BTB (PIR-indexed),
 * 256-entry loop predictor, and a 16-deep return address stack.
 *
 * The predictor separates *context* (PIR + RAS — cheap, replicated per
 * ESP execution mode) from *tables* (shared across modes in the final
 * ESP design). BpContext snapshots support the mode switching of §4.3.
 */

#ifndef ESPSIM_BRANCH_PENTIUM_M_HH
#define ESPSIM_BRANCH_PENTIUM_M_HH

#include <cstdint>
#include <vector>

#include "branch/loop_predictor.hh"
#include "branch/pir.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table_index.hh"
#include "report/stat_registry.hh"
#include "trace/micro_op.hh"

namespace espsim
{

/** Table sizing knobs (defaults = paper Figure 7). */
struct BranchPredictorConfig
{
    std::size_t globalEntries = 2048;
    std::size_t localEntries = 4096;
    std::size_t btbEntries = 2048;
    std::size_t ibtbEntries = 256;
    std::size_t loopEntries = 256;
    unsigned rasDepth = 16;
};

/** A prediction: direction plus (0 = unknown) target. */
struct BranchPrediction
{
    bool taken = false;
    Addr target = 0;
};

/** Outcome of executing one branch against the predictor. */
enum class BranchResult
{
    Correct,    //!< direction and target both right
    BtbMiss,    //!< direction right, target unknown/stale (short bubble)
    Mispredict, //!< wrong direction or wrong indirect/return target
};

/** The replicable per-execution-context predictor state. */
struct BpContext
{
    Pir pir;
    std::vector<Addr> ras;

    void
    clear()
    {
        pir.reset();
        ras.clear();
    }
};

/** Pentium M composite predictor. */
class PentiumMPredictor
{
  public:
    explicit PentiumMPredictor(
        const BranchPredictorConfig &config = BranchPredictorConfig{});

    /**
     * Predict, compare against the op's actual outcome, and update all
     * structures. ESP-mode pre-executions pass @p count_stats = false
     * so speculative branches don't pollute the mispredict-rate stats.
     * Inline (with the whole predict/update chain below): both the
     * normal pipeline and the spec pre-execution loop execute one of
     * these per branch op.
     */
    BranchResult
    executeBranch(const MicroOp &op, bool count_stats = true)
    {
        if (count_stats)
            ++stat_branches_;
        const BranchPrediction pred = predict(ctx_, op);

        BranchResult result = BranchResult::Correct;
        switch (op.type()) {
          case OpType::BranchCond:
            if (pred.taken != op.taken())
                result = BranchResult::Mispredict;
            else if (op.taken() && pred.target != op.branchTarget())
                result = BranchResult::BtbMiss;
            break;
          case OpType::BranchDirect:
          case OpType::Call:
            if (pred.target != op.branchTarget())
                result = BranchResult::BtbMiss;
            break;
          case OpType::Return:
          case OpType::BranchIndirect:
            if (pred.target != op.branchTarget())
                result = BranchResult::Mispredict;
            break;
          default:
            panic("executeBranch() called on a non-branch op");
        }

        if (count_stats) {
            if (result == BranchResult::Mispredict)
                ++stat_mispredicts_;
            else if (result == BranchResult::BtbMiss)
                ++stat_btb_miss_;
        }

        if (op.type() == OpType::BranchCond) {
            updateDirection(ctx_, op.pc, op.taken(),
                            result == BranchResult::Mispredict,
                            count_stats);
        }
        updateTargets(ctx_, op);
        return result;
    }

    /**
     * What would be predicted right now, with no state change. Used by
     * the runahead engine to detect wrong-path divergence on branches
     * whose outcome depends on the missing load.
     */
    BranchPrediction predictOnly(const MicroOp &op) const
    {
        return predict(ctx_, op);
    }

    /**
     * Pre-train the tables with a known future outcome (ESP B-list
     * path). Uses @p train_ctx as the path context — the trainer owns
     * a PIR that replays the recorded path — and does not count stats.
     */
    void train(BpContext &train_ctx, Addr pc, OpType type, bool taken,
               Addr target);

    /** Swap in another execution context (returns the previous one). */
    BpContext swapContext(BpContext ctx);

    /** Current context access (tests / controller). */
    const BpContext &context() const { return ctx_; }
    void clearRas() { ctx_.ras.clear(); }

    /** Full-table snapshot support (the Fig. 12 "separate tables"
     *  design replicates the entire predictor per mode). */
    PentiumMPredictor clone() const { return *this; }
    void copyTablesFrom(const PentiumMPredictor &other);

    // --- statistics (conditional + indirect + return predictions) ---

    /** Register predictor counters by name (canonical surface). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    std::uint64_t branches() const { return stat_branches_; }
    std::uint64_t mispredicts() const { return stat_mispredicts_; }
    /** Mispredicts whose direction was right but the BTB had no/old
     *  target for a taken direct branch (cheaper front-end bubble). */
    std::uint64_t btbMisses() const { return stat_btb_miss_; }
    void
    clearStats()
    {
        stat_branches_ = stat_mispredicts_ = stat_btb_miss_ = 0;
    }

    double
    mispredictRate() const
    {
        return stat_branches_ == 0
            ? 0.0
            : static_cast<double>(stat_mispredicts_) /
                static_cast<double>(stat_branches_);
    }

  private:
    BranchPredictorConfig config_;
    BpContext ctx_;

    struct GlobalEntry
    {
        std::uint16_t tag = 0;
        std::uint8_t counter = 0; //!< 2-bit saturating
        bool valid = false;
    };
    struct TargetEntry
    {
        std::uint32_t tag = 0;
        Addr target = 0;
        bool valid = false;
    };

    std::vector<GlobalEntry> global_;
    std::vector<std::uint8_t> local_; //!< 2-bit counters
    std::vector<TargetEntry> btb_;
    std::vector<TargetEntry> ibtb_;
    LoopPredictor loop_;
    TableIndex globalIdx_;
    TableIndex localIdx_;
    TableIndex btbIdx_;
    TableIndex ibtbIdx_;

    std::uint64_t stat_branches_ = 0;
    std::uint64_t stat_mispredicts_ = 0;
    std::uint64_t stat_btb_miss_ = 0;

    // --- helpers ---------------------------------------------------
    static std::uint64_t
    hashMix(std::uint64_t v)
    {
        v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
        v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
        return v ^ (v >> 31);
    }

    std::size_t
    globalIndex(const Pir &pir, Addr pc) const
    {
        return static_cast<std::size_t>(
            globalIdx_.slot(hashMix(pir.value() ^ (pc >> 2))));
    }

    std::uint16_t
    globalTag(const Pir &pir, Addr pc) const
    {
        return static_cast<std::uint16_t>(
            hashMix((pc >> 2) * 31 + pir.value()) & 0xff);
    }

    std::size_t
    localIndex(Addr pc) const
    {
        return static_cast<std::size_t>(localIdx_.slot(pc >> 2));
    }

    std::size_t
    btbIndex(Addr pc) const
    {
        return static_cast<std::size_t>(btbIdx_.slot(pc >> 2));
    }

    std::uint32_t
    btbTag(Addr pc) const
    {
        return static_cast<std::uint32_t>(btbIdx_.quotient(pc >> 2)) &
            0xfffff;
    }

    std::size_t
    ibtbIndex(const Pir &pir, Addr pc) const
    {
        return static_cast<std::size_t>(
            ibtbIdx_.slot(hashMix(pir.value() * 7 ^ (pc >> 2))));
    }

    std::uint32_t
    ibtbTag(const Pir &pir, Addr pc) const
    {
        return static_cast<std::uint32_t>(
            hashMix((pc >> 2) ^ (pir.value() << 5)) & 0x3ff);
    }

    static void
    bumpCounter(std::uint8_t &counter, bool taken)
    {
        if (taken) {
            if (counter < 3)
                ++counter;
        } else if (counter > 0) {
            --counter;
        }
    }

    bool
    predictDirection(const BpContext &ctx, Addr pc) const
    {
        if (auto loop_pred = loop_.predict(pc))
            return *loop_pred;
        const GlobalEntry &g = global_[globalIndex(ctx.pir, pc)];
        if (g.valid && g.tag == globalTag(ctx.pir, pc))
            return g.counter >= 2;
        return local_[localIndex(pc)] >= 2;
    }

    void
    updateDirection(BpContext &ctx, Addr pc, bool taken,
                    bool final_pred_wrong, bool architectural)
    {
        // The loop predictor's trip counters are not idempotent: a
        // branch instance must be counted exactly once, by its
        // architectural execution. Speculative pre-execution (ESP
        // modes, runahead) and ahead-of-time B-list training skip it.
        if (architectural)
            loop_.update(pc, taken);
        bumpCounter(local_[localIndex(pc)], taken);
        GlobalEntry &g = global_[globalIndex(ctx.pir, pc)];
        const std::uint16_t tag = globalTag(ctx.pir, pc);
        if (g.valid && g.tag == tag) {
            bumpCounter(g.counter, taken);
        } else if (final_pred_wrong) {
            // Allocate on a misprediction, like the Pentium M's
            // mispredict-driven global allocation.
            g.valid = true;
            g.tag = tag;
            g.counter = taken ? 2 : 1;
        }
    }

    void
    updateTargets(BpContext &ctx, const MicroOp &op)
    {
        switch (op.type()) {
          case OpType::BranchCond:
            if (op.taken()) {
                TargetEntry &e = btb_[btbIndex(op.pc)];
                e.valid = true;
                e.tag = btbTag(op.pc);
                e.target = op.branchTarget();
            }
            break;
          case OpType::BranchDirect:
          case OpType::Call: {
            TargetEntry &e = btb_[btbIndex(op.pc)];
            e.valid = true;
            e.tag = btbTag(op.pc);
            e.target = op.branchTarget();
            if (op.type() == OpType::Call) {
                if (ctx.ras.size() >= config_.rasDepth)
                    ctx.ras.erase(ctx.ras.begin());
                ctx.ras.push_back(op.pc + 4);
            }
            break;
          }
          case OpType::Return:
            if (!ctx.ras.empty())
                ctx.ras.pop_back();
            break;
          case OpType::BranchIndirect: {
            TargetEntry &ie = ibtb_[ibtbIndex(ctx.pir, op.pc)];
            ie.valid = true;
            ie.tag = ibtbTag(ctx.pir, op.pc);
            ie.target = op.branchTarget();
            TargetEntry &e = btb_[btbIndex(op.pc)];
            e.valid = true;
            e.tag = btbTag(op.pc);
            e.target = op.branchTarget();
            break;
          }
          default:
            panic("updateTargets() called on a non-branch op");
        }
        if (op.taken())
            ctx.pir.update(op.pc, op.branchTarget());
    }

    BranchPrediction
    predict(const BpContext &ctx, const MicroOp &op) const
    {
        BranchPrediction pred;
        switch (op.type()) {
          case OpType::BranchCond: {
            pred.taken = predictDirection(ctx, op.pc);
            if (pred.taken) {
                const TargetEntry &e = btb_[btbIndex(op.pc)];
                if (e.valid && e.tag == btbTag(op.pc))
                    pred.target = e.target;
            }
            break;
          }
          case OpType::BranchDirect:
          case OpType::Call: {
            pred.taken = true;
            const TargetEntry &e = btb_[btbIndex(op.pc)];
            if (e.valid && e.tag == btbTag(op.pc))
                pred.target = e.target;
            break;
          }
          case OpType::Return: {
            pred.taken = true;
            if (!ctx.ras.empty())
                pred.target = ctx.ras.back();
            break;
          }
          case OpType::BranchIndirect: {
            pred.taken = true;
            const TargetEntry &ie = ibtb_[ibtbIndex(ctx.pir, op.pc)];
            if (ie.valid && ie.tag == ibtbTag(ctx.pir, op.pc)) {
                pred.target = ie.target;
            } else {
                const TargetEntry &e = btb_[btbIndex(op.pc)];
                if (e.valid && e.tag == btbTag(op.pc))
                    pred.target = e.target;
            }
            break;
          }
          default:
            panic("predict() called on a non-branch op");
        }
        return pred;
    }
};

} // namespace espsim

#endif // ESPSIM_BRANCH_PENTIUM_M_HH
