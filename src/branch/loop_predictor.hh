/**
 * @file
 * Loop branch predictor (256 entries in the Pentium M, Figure 7).
 *
 * Learns branches with a constant trip count: a branch observed taken
 * N-1 times then not-taken, repeatedly, is predicted not-taken exactly
 * on its N-th execution once confidence is established.
 */

#ifndef ESPSIM_BRANCH_LOOP_PREDICTOR_HH
#define ESPSIM_BRANCH_LOOP_PREDICTOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/table_index.hh"
#include "common/types.hh"

namespace espsim
{

/** Trip-count loop predictor. */
class LoopPredictor
{
  public:
    explicit LoopPredictor(std::size_t entries = 256);

    /**
     * Confident prediction for the branch at @p pc, or nullopt when
     * this branch isn't a recognised loop.
     */
    std::optional<bool>
    predict(Addr pc) const
    {
        const Entry &e = entries_[indexOf(pc)];
        if (!e.valid || e.tag != tagOf(pc) || e.confidence < 2 ||
            e.limit == 0) {
            return std::nullopt;
        }
        // Predict not-taken exactly when the learned trip count is
        // reached.
        return e.current + 1 < e.limit;
    }

    /** Observe the actual direction of the branch at @p pc. */
    void
    update(Addr pc, bool taken)
    {
        Entry &e = entries_[indexOf(pc)];
        const std::uint32_t tag = tagOf(pc);
        if (!e.valid || e.tag != tag) {
            // Allocate only on a not-taken outcome (potential loop
            // exit); this filters never-exiting branches out of the
            // small table.
            if (!taken) {
                e = Entry{};
                e.tag = tag;
                e.valid = true;
            }
            return;
        }
        if (taken) {
            ++e.current;
            if (e.current > 4096) {
                // Not a loop we can track; drop it.
                e.valid = false;
            }
            return;
        }
        const std::uint32_t trip = e.current + 1;
        if (trip == e.limit) {
            if (e.confidence < 3)
                ++e.confidence;
        } else {
            e.limit = trip;
            e.confidence = 0;
        }
        e.current = 0;
    }

    void reset();

  private:
    struct Entry
    {
        std::uint32_t tag = 0;
        std::uint32_t current = 0; //!< takens since last not-taken
        std::uint32_t limit = 0;   //!< learned trip count
        std::uint8_t confidence = 0;
        bool valid = false;
    };

    std::vector<Entry> entries_;
    TableIndex index_;

    std::size_t
    indexOf(Addr pc) const
    {
        return static_cast<std::size_t>(index_.slot(pc >> 2));
    }

    std::uint32_t
    tagOf(Addr pc) const
    {
        return static_cast<std::uint32_t>(index_.quotient(pc >> 2)) &
            0xffff;
    }
};

} // namespace espsim

#endif // ESPSIM_BRANCH_LOOP_PREDICTOR_HH
