#include "layers.hh"

#include <algorithm>
#include <cstdio>

namespace espbench
{

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Sim: return "sim";
      case Layer::Cpu: return "cpu";
      case Layer::Workload: return "workload";
      case Layer::Esp: return "esp";
      case Layer::Runahead: return "runahead";
      case Layer::Server: return "server";
      case Layer::Report: return "report";
      case Layer::Count: break;
    }
    return "?";
}

const char *
boundaryName(Boundary b)
{
    switch (b) {
      case Boundary::CellSetup: return "cell.setup";
      case Boundary::CoreRun: return "core.run";
      case Boundary::CellFinalize: return "cell.finalize";
      case Boundary::WorkloadEvent: return "workload.event";
      case Boundary::MakeEvent: return "source.makeEvent";
      case Boundary::EspEventStart: return "esp.onEventStart";
      case Boundary::EspBeforeOp: return "esp.beforeOp";
      case Boundary::EspEventEnd: return "esp.onEventEnd";
      case Boundary::EspStall: return "esp.onStall";
      case Boundary::RunaheadEventStart: return "runahead.onEventStart";
      case Boundary::RunaheadEventEnd: return "runahead.onEventEnd";
      case Boundary::RunaheadStall: return "runahead.onStall";
      case Boundary::PacerArrival: return "pacer.eventArrival";
      case Boundary::PacerDispatched: return "pacer.eventDispatched";
      case Boundary::PacerHandlerType: return "pacer.eventHandlerType";
      case Boundary::PacerRetired: return "pacer.eventRetired";
      case Boundary::SinkOnSpan: return "spans.onSpan";
      case Boundary::Count: break;
    }
    return "?";
}

Layer
boundaryLayer(Boundary b)
{
    switch (b) {
      case Boundary::CellSetup:
      case Boundary::CellFinalize:
        return Layer::Sim;
      case Boundary::CoreRun:
        return Layer::Cpu;
      case Boundary::WorkloadEvent:
      case Boundary::MakeEvent:
        return Layer::Workload;
      case Boundary::EspEventStart:
      case Boundary::EspBeforeOp:
      case Boundary::EspEventEnd:
      case Boundary::EspStall:
        return Layer::Esp;
      case Boundary::RunaheadEventStart:
      case Boundary::RunaheadEventEnd:
      case Boundary::RunaheadStall:
        return Layer::Runahead;
      case Boundary::PacerArrival:
      case Boundary::PacerDispatched:
      case Boundary::PacerHandlerType:
      case Boundary::PacerRetired:
        return Layer::Server;
      case Boundary::SinkOnSpan:
        return Layer::Report;
      case Boundary::Count:
        break;
    }
    return Layer::Sim;
}

SpanRecorder::SpanRecorder(std::size_t logCapacity)
    : logCapacity_(logCapacity), epochNs_(nowNs())
{
    log_.reserve(logCapacity);
    stack_.reserve(16);
    std::vector<std::int64_t> gaps(4096);
    for (std::int64_t &gap : gaps) {
        const std::int64_t t0 = nowNs();
        gap = nowNs() - t0;
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                     gaps.end());
    emptySpanNs_ = gaps[gaps.size() / 2];
}

void
SpanRecorder::beginCell(const std::string &name)
{
    cellNames_.push_back(name);
    cell_ = BoundaryArray{};
    stack_.clear();
    cellStartNs_ = nowNs();
}

void
SpanRecorder::endCell()
{
    const std::int64_t wall = nowNs() - cellStartNs_;

    // Unsampled beforeOp calls ran inside core.run's self time; charge
    // them to ESP at the sampled mean self time per call, less the
    // clock reads a sampled span adds (a typical call is cheaper than
    // the two reads that time it).
    BoundaryTotals &op = cell_[index(Boundary::EspBeforeOp)];
    if (op.timed > 0 && op.calls > op.timed) {
        const double perCall = std::max(
            0.0, static_cast<double>(op.selfNs) /
                    static_cast<double>(op.timed) -
                static_cast<double>(emptySpanNs_));
        const auto estimate = static_cast<std::int64_t>(
            perCall * static_cast<double>(op.calls - op.timed));
        op.selfNs += estimate;
        op.totalNs += estimate;
        cell_[index(Boundary::CoreRun)].selfNs -= estimate;
    }

    std::int64_t selfSum = 0;
    for (std::size_t b = 0; b < numBoundaries; ++b) {
        selfSum += cell_[b].selfNs;
        totals_[b].calls += cell_[b].calls;
        totals_[b].timed += cell_[b].timed;
        totals_[b].selfNs += cell_[b].selfNs;
        totals_[b].totalNs += cell_[b].totalNs;
    }
    closures_.push_back(CellClosure{cellNames_.back(), wall, selfSum});
}

void
SpanRecorder::open(Boundary b)
{
    BoundaryTotals &t = cell_[index(b)];
    ++t.calls;
    ++t.timed;
    std::uint32_t logIndex = 0;
    if (log_.size() < logCapacity_) {
        SpanRecord rec;
        rec.parent = stack_.empty() ? 0 : stack_.back().logIndex;
        rec.cell = static_cast<std::uint16_t>(cellNames_.size() - 1);
        rec.boundary = b;
        log_.push_back(rec);
        logIndex = static_cast<std::uint32_t>(log_.size());
    } else {
        ++dropped_;
    }
    stack_.push_back(Open{b, 0, 0, logIndex});
    // Read the clock last so the bookkeeping above lands in the
    // parent's self time, not in this span.
    stack_.back().startNs = nowNs();
}

void
SpanRecorder::close()
{
    const std::int64_t end = nowNs();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = end - o.startNs;
    BoundaryTotals &t = cell_[index(o.boundary)];
    t.selfNs += dur - o.childNs;
    t.totalNs += dur;
    if (!stack_.empty())
        stack_.back().childNs += dur;
    if (o.logIndex != 0) {
        SpanRecord &rec = log_[o.logIndex - 1];
        rec.startNs = o.startNs - epochNs_;
        rec.endNs = end - epochNs_;
    }
}

std::int64_t
SpanRecorder::layerSelfNs(Layer layer) const
{
    std::int64_t sum = 0;
    for (std::size_t b = 0; b < numBoundaries; ++b) {
        if (boundaryLayer(static_cast<Boundary>(b)) == layer)
            sum += totals_[b].selfNs;
    }
    return sum;
}

bool
SpanRecorder::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "kind,id,parent,cell,name,start_ns,end_ns\n");
    for (std::size_t c = 0; c < cellNames_.size(); ++c)
        std::fprintf(f, "cell,%zu,,,%s,,\n", c, cellNames_[c].c_str());
    for (std::size_t i = 0; i < log_.size(); ++i) {
        const SpanRecord &r = log_[i];
        std::fprintf(f, "span,%zu,%u,%u,%s,%lld,%lld\n", i + 1,
                     r.parent, unsigned{r.cell},
                     boundaryName(r.boundary),
                     static_cast<long long>(r.startNs),
                     static_cast<long long>(r.endNs));
    }
    if (dropped_ > 0)
        std::fprintf(f, "dropped,%llu,,,,,\n",
                     static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
}

TimedHooks::TimedHooks(espsim::CoreHooks &inner, SpanRecorder &rec,
                       unsigned sampleEvery)
    : inner_(inner), rec_(rec), sampleEvery_(sampleEvery),
      esp_(inner.engine() == espsim::SpecEngine::Esp)
{
}

void
TimedHooks::onEventStart(std::size_t idx, Cycle now)
{
    SpanScope s(&rec_, esp_ ? Boundary::EspEventStart
                            : Boundary::RunaheadEventStart);
    inner_.onEventStart(idx, now);
}

void
TimedHooks::onEventEnd(std::size_t idx, Cycle now)
{
    SpanScope s(&rec_, esp_ ? Boundary::EspEventEnd
                            : Boundary::RunaheadEventEnd);
    inner_.onEventEnd(idx, now);
}

void
TimedHooks::beforeOp(std::size_t opIdx, const espsim::MicroOp &op,
                     Cycle now)
{
    if (!esp_) {
        inner_.beforeOp(opIdx, op, now);
        return;
    }
    if (++beforeOpCalls_ % sampleEvery_ == 0) {
        SpanScope s(&rec_, Boundary::EspBeforeOp);
        inner_.beforeOp(opIdx, op, now);
        return;
    }
    rec_.countOnly(Boundary::EspBeforeOp);
    inner_.beforeOp(opIdx, op, now);
}

Cycle
TimedHooks::onStall(const espsim::StallContext &ctx)
{
    SpanScope s(&rec_,
                esp_ ? Boundary::EspStall : Boundary::RunaheadStall);
    return inner_.onStall(ctx);
}

Cycle
BenchPacer::eventArrival(std::size_t idx, Cycle now)
{
    ++events_;
    if (inner_ == nullptr)
        return now;
    SpanScope s(rec_, Boundary::PacerArrival);
    return inner_->eventArrival(idx, now);
}

void
BenchPacer::eventDispatched(std::size_t idx, Cycle now)
{
    if (inner_ != nullptr) {
        SpanScope s(rec_, Boundary::PacerDispatched);
        inner_->eventDispatched(idx, now);
    }
    if (hostUs_ != nullptr)
        dispatchNs_ = nowNs();
}

void
BenchPacer::eventRetired(std::size_t idx, Cycle now)
{
    if (hostUs_ != nullptr) {
        hostUs_->push_back(
            static_cast<float>(static_cast<double>(nowNs() - dispatchNs_) /
                               1e3));
    }
    if (inner_ != nullptr) {
        SpanScope s(rec_, Boundary::PacerRetired);
        inner_->eventRetired(idx, now);
    }
}

void
BenchPacer::eventHandlerType(std::size_t idx, std::uint32_t handlerType)
{
    if (inner_ == nullptr)
        return;
    SpanScope s(rec_, Boundary::PacerHandlerType);
    inner_->eventHandlerType(idx, handlerType);
}

void
BenchPacer::registerStats(espsim::StatRegistry &reg,
                          const std::string &prefix) const
{
    if (inner_ != nullptr)
        inner_->registerStats(reg, prefix);
}

} // namespace espbench
