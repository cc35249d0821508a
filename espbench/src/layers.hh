/**
 * @file
 * Host-time attribution for the benchmark's traced pass.
 *
 * A SpanRecorder keeps one span per call across a decorated boundary
 * (name, start, end, parent, cell id) and folds each span's self time
 * (its duration minus its children's) into the layer that owns the
 * boundary. The decorators below sit on the four virtual boundaries
 * the core calls — Workload::event / EventSource::makeEvent,
 * CoreHooks, EventPacer and SpanSink — so every layer is timed from
 * outside the library.
 */

#ifndef ESPBENCH_LAYERS_HH
#define ESPBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/hooks.hh"
#include "cpu/pacer.hh"
#include "report/spans.hh"
#include "trace/workload.hh"
#include "workload/streaming.hh"

namespace espbench
{

using espsim::Cycle;

/** Host nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Simulator layers, named after the source modules. */
enum class Layer : std::uint8_t
{
    Sim,      //!< cell construction, L2 pre-warm, finalize, stats
    Cpu,      //!< OoOCore::run self time (incl. cache/predictor walk)
    Workload, //!< Workload::event and trace generation
    Esp,      //!< EspController hooks
    Runahead, //!< RunaheadEngine hooks
    Server,   //!< ServePacer
    Report,   //!< span collector
    Count,
};

constexpr std::size_t numLayers = static_cast<std::size_t>(Layer::Count);

const char *layerName(Layer layer);

/** Decorated call sites; each belongs to exactly one layer. */
enum class Boundary : std::uint8_t
{
    CellSetup,
    CoreRun,
    CellFinalize,
    WorkloadEvent,
    MakeEvent,
    EspEventStart,
    EspBeforeOp,
    EspEventEnd,
    EspStall,
    RunaheadEventStart,
    RunaheadEventEnd,
    RunaheadStall,
    PacerArrival,
    PacerDispatched,
    PacerHandlerType,
    PacerRetired,
    SinkOnSpan,
    Count,
};

constexpr std::size_t numBoundaries =
    static_cast<std::size_t>(Boundary::Count);

const char *boundaryName(Boundary b);
Layer boundaryLayer(Boundary b);

/** Calls and host time at one boundary. */
struct BoundaryTotals
{
    std::uint64_t calls = 0;
    std::uint64_t timed = 0; //!< calls that opened a span
    std::int64_t selfNs = 0;
    std::int64_t totalNs = 0;
};

using BoundaryArray = std::array<BoundaryTotals, numBoundaries>;

/** One recorded span (kept in memory, written at the end). */
struct SpanRecord
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint32_t parent = 0; //!< index + 1 into the log; 0 = root
    std::uint16_t cell = 0;
    Boundary boundary = Boundary::CellSetup;
};

/** Per-cell closure check result. */
struct CellClosure
{
    std::string cell;
    std::int64_t wallNs = 0;
    std::int64_t selfSumNs = 0;
};

/**
 * Span stack + per-boundary self-time accounting. Single-threaded:
 * the benchmark runs one simulation thread.
 */
class SpanRecorder
{
  public:
    /** @p logCapacity bounds the in-memory span log. */
    explicit SpanRecorder(std::size_t logCapacity);

    /** Start a cell; spans until endCell() carry its id. */
    void beginCell(const std::string &name);
    /**
     * Close the cell: move the unsampled beforeOp estimate from the
     * core's self time to the ESP layer, fold the cell into the run
     * totals and record its closure.
     */
    void endCell();

    void open(Boundary b);
    void close();
    /** A call that was counted but not timed (sampled boundary). */
    void countOnly(Boundary b) { ++cell_[index(b)].calls; }

    const BoundaryArray &totals() const { return totals_; }
    const std::vector<CellClosure> &closures() const
    {
        return closures_;
    }
    std::int64_t layerSelfNs(Layer layer) const;

    /** Host cost of one empty span (two clock reads), calibrated at
     *  construction; subtracted from sampled beforeOp spans. */
    std::int64_t emptySpanNs() const { return emptySpanNs_; }

    std::uint64_t spansLogged() const { return log_.size(); }
    std::uint64_t spansDropped() const { return dropped_; }

    /** Write the span log as CSV (cell table, then spans). */
    bool writeCsv(const std::string &path) const;

  private:
    struct Open
    {
        Boundary boundary;
        std::int64_t startNs;
        std::int64_t childNs;
        std::uint32_t logIndex; //!< index + 1; 0 = not logged
    };

    static std::size_t index(Boundary b)
    {
        return static_cast<std::size_t>(b);
    }

    std::vector<Open> stack_;
    BoundaryArray cell_{};
    BoundaryArray totals_{};
    std::vector<SpanRecord> log_;
    std::size_t logCapacity_;
    std::uint64_t dropped_ = 0;
    std::vector<std::string> cellNames_;
    std::vector<CellClosure> closures_;
    std::int64_t cellStartNs_ = 0;
    std::int64_t epochNs_ = 0;
    std::int64_t emptySpanNs_ = 0;
};

/** RAII span; a null recorder makes it a no-op. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder *rec, Boundary b) : rec_(rec)
    {
        if (rec_)
            rec_->open(b);
    }
    ~SpanScope()
    {
        if (rec_)
            rec_->close();
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder *rec_;
};

/** Times Workload::event. */
class TimedWorkload final : public espsim::Workload
{
  public:
    TimedWorkload(const espsim::Workload &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {
    }

    const std::string &name() const override { return inner_.name(); }
    std::size_t numEvents() const override
    {
        return inner_.numEvents();
    }
    const espsim::EventTrace &
    event(std::size_t idx) const override
    {
        SpanScope span(&rec_, Boundary::WorkloadEvent);
        return inner_.event(idx);
    }
    std::vector<espsim::AddrRange> warmSet() const override
    {
        return inner_.warmSet();
    }
    std::size_t
    predictedNext(std::size_t current, unsigned ahead) const override
    {
        return inner_.predictedNext(current, ahead);
    }

  private:
    const espsim::Workload &inner_;
    SpanRecorder &rec_;
};

/**
 * EventSource decorator: times makeEvent (given a recorder), adds each
 * generated event's op count to @p opsGenerated and, given
 * @p opsPerEvent, records it under the event's id.
 */
class TimedSource final : public espsim::EventSource
{
  public:
    TimedSource(std::unique_ptr<const espsim::EventSource> inner,
                SpanRecorder *rec, std::uint64_t &opsGenerated,
                std::vector<std::uint32_t> *opsPerEvent)
        : inner_(std::move(inner)), rec_(rec), ops_(opsGenerated),
          opsPerEvent_(opsPerEvent)
    {
        if (opsPerEvent_)
            opsPerEvent_->assign(inner_->numEvents(), 0);
    }

    const std::string &name() const override { return inner_->name(); }
    std::size_t numEvents() const override
    {
        return inner_->numEvents();
    }
    espsim::EventTrace
    makeEvent(std::uint64_t id) const override
    {
        SpanScope span(rec_, Boundary::MakeEvent);
        espsim::EventTrace trace = inner_->makeEvent(id);
        ops_ += trace.ops.size();
        if (opsPerEvent_)
            (*opsPerEvent_)[id] =
                static_cast<std::uint32_t>(trace.ops.size());
        return trace;
    }
    std::vector<espsim::AddrRange> warmSet() const override
    {
        return inner_->warmSet();
    }

  private:
    std::unique_ptr<const espsim::EventSource> inner_;
    SpanRecorder *rec_;
    std::uint64_t &ops_;
    std::vector<std::uint32_t> *opsPerEvent_;
};

/**
 * Times an engine's CoreHooks. Every beforeOp call is counted but
 * only one in @p sampleEvery opens a span: timing each per-op call
 * would dominate the ESP cells' host time.
 */
class TimedHooks final : public espsim::CoreHooks
{
  public:
    TimedHooks(espsim::CoreHooks &inner, SpanRecorder &rec,
               unsigned sampleEvery);

    void onEventStart(std::size_t idx, Cycle now) override;
    void onEventEnd(std::size_t idx, Cycle now) override;
    bool perOpActive() const override { return inner_.perOpActive(); }
    void beforeOp(std::size_t opIdx, const espsim::MicroOp &op,
                  Cycle now) override;
    Cycle onStall(const espsim::StallContext &ctx) override;
    espsim::SpecEngine engine() const override
    {
        return inner_.engine();
    }

  private:
    espsim::CoreHooks &inner_;
    SpanRecorder &rec_;
    unsigned sampleEvery_;
    std::uint64_t beforeOpCalls_ = 0;
    bool esp_;
};

/**
 * The benchmark's EventPacer decorator. It forwards to an inner pacer
 * (nullptr = the paper's saturated looper: every event is already
 * queued, so the run is identical to one without a pacer), records
 * each event's host time from dispatch to retire (two clock reads),
 * and, given a recorder, times the inner pacer's calls.
 */
class BenchPacer final : public espsim::EventPacer
{
  public:
    BenchPacer(espsim::EventPacer *inner, std::vector<float> *hostUs,
               SpanRecorder *rec)
        : inner_(inner), hostUs_(hostUs), rec_(rec)
    {
    }

    Cycle eventArrival(std::size_t idx, Cycle now) override;
    void eventDispatched(std::size_t idx, Cycle now) override;
    void eventRetired(std::size_t idx, Cycle now) override;
    void eventHandlerType(std::size_t idx,
                          std::uint32_t handlerType) override;
    void registerStats(espsim::StatRegistry &reg,
                       const std::string &prefix) const override;

    std::uint64_t events() const { return events_; }

  private:
    espsim::EventPacer *inner_;
    std::vector<float> *hostUs_;
    SpanRecorder *rec_;
    std::int64_t dispatchNs_ = 0;
    std::uint64_t events_ = 0;
};

/** Times SpanSink::onSpan. */
class TimedSpanSink final : public espsim::SpanSink
{
  public:
    TimedSpanSink(espsim::SpanSink &inner, SpanRecorder &rec)
        : inner_(inner), rec_(rec)
    {
    }

    void
    onSpan(const espsim::RequestSpan &span) override
    {
        SpanScope s(&rec_, Boundary::SinkOnSpan);
        inner_.onSpan(span);
    }

  private:
    espsim::SpanSink &inner_;
    SpanRecorder &rec_;
};

} // namespace espbench

#endif // ESPBENCH_LAYERS_HH
