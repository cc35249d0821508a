#include "prefetch/inflight.hh"

#include "common/logging.hh"

namespace espsim
{

const char *
prefetchSourceName(PrefetchSource source)
{
    switch (source) {
      case PrefetchSource::EspIList: return "esp_ilist";
      case PrefetchSource::EspDList: return "esp_dlist";
      case PrefetchSource::NextLineInstr: return "next_line_instr";
      case PrefetchSource::NextLineData: return "next_line_data";
      case PrefetchSource::StrideData: return "stride_data";
      case PrefetchSource::Other: return "other";
    }
    panic("prefetchSourceName: bad source %u",
          static_cast<unsigned>(source));
}

void
PrefetchLifecycleTracker::finalize()
{
    live_.forEach([this](Addr, LiveEntry &entry) {
        if (!entry.used)
            ++stats_[static_cast<std::size_t>(entry.source)].useless;
    });
    live_.clear();
    demandLive_.clear();
}

void
InflightPrefetchBuffer::growFifo()
{
    // Unroll the ring into a fresh store twice the size, oldest
    // first, so index arithmetic stays a single mask.
    std::vector<Addr> bigger(fifo_.size() * 2);
    const std::uint64_t count = fifoTail_ - fifoHead_;
    for (std::uint64_t i = 0; i < count; ++i)
        bigger[i] = fifo_[(fifoHead_ + i) & (fifo_.size() - 1)];
    fifo_ = std::move(bigger);
    fifoHead_ = 0;
    fifoTail_ = count;
}

} // namespace espsim
