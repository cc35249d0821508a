/**
 * @file
 * Index arithmetic for a fixed-size table: `x % n` and `x / n` by
 * mask and shift when n is a power of two (every default predictor,
 * prefetcher and cache geometry), by division otherwise. The
 * per-branch and per-access table lookups would otherwise pay a
 * hardware divide each.
 */

#ifndef ESPSIM_COMMON_TABLE_INDEX_HH
#define ESPSIM_COMMON_TABLE_INDEX_HH

#include <bit>
#include <cstddef>
#include <cstdint>

namespace espsim
{

/** Slot and quotient of a key in a table of @p entries slots. */
class TableIndex
{
  public:
    explicit TableIndex(std::size_t entries)
        : entries_(entries), pow2_(std::has_single_bit(entries)),
          mask_(entries - 1),
          shift_(pow2_ ? std::countr_zero(entries) : 0)
    {
    }

    /** @p key modulo the table size. */
    std::uint64_t
    slot(std::uint64_t key) const
    {
        return pow2_ ? key & mask_ : key % entries_;
    }

    /** @p key divided by the table size. */
    std::uint64_t
    quotient(std::uint64_t key) const
    {
        return pow2_ ? key >> shift_ : key / entries_;
    }

  private:
    std::uint64_t entries_;
    bool pow2_;
    std::uint64_t mask_;
    int shift_;
};

} // namespace espsim

#endif // ESPSIM_COMMON_TABLE_INDEX_HH
