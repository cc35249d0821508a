/**
 * @file
 * PC-indexed stride data prefetcher (256 entries, per the paper's
 * Figure 7 "Data: NL, Stride (256 entries)").
 *
 * Classic reference-prediction-table design (Chen & Baer): each load
 * PC tracks its last address and last stride; two consecutive equal
 * strides make the entry confident and arm prefetching of addr +
 * stride.
 */

#ifndef ESPSIM_PREFETCH_STRIDE_HH
#define ESPSIM_PREFETCH_STRIDE_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/table_index.hh"
#include "common/types.hh"

namespace espsim
{

/** Reference prediction table stride prefetcher. */
class StridePrefetcher
{
  public:
    explicit StridePrefetcher(std::size_t entries = 256,
                              unsigned degree = 1);

    /** Observe a demand load at @p pc touching @p addr. */
    void notifyAccess(MemoryHierarchy &mem, Addr pc, Addr addr,
                      Cycle now);

    /** Confident entries currently held (for tests). */
    std::size_t confidentEntries() const;

    /**
     * Prefetch targets dropped because the stride walked off either
     * end of the address space (unsigned wrap). Exported as the
     * `stride.dropped_wraps` stat.
     */
    std::uint64_t droppedWraps() const { return droppedWraps_; }

  private:
    struct Entry
    {
        std::uint32_t tag = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        std::uint8_t confidence = 0;
        bool valid = false;
    };

    std::vector<Entry> table_;
    TableIndex index_;
    unsigned degree_;
    std::uint64_t droppedWraps_ = 0;

    std::size_t indexOf(Addr pc) const;
    std::uint32_t tagOf(Addr pc) const;
};

} // namespace espsim

#endif // ESPSIM_PREFETCH_STRIDE_HH
