#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "common/logging.hh"
#include "trace/op_sequence.hh"

namespace espsim
{

namespace
{

constexpr char magic[4] = {'E', 'S', 'P', 'W'};

/** Hard caps so malformed files can't trigger huge allocations. */
constexpr std::uint64_t maxEvents = 1u << 24;
constexpr std::uint64_t maxOpsPerEvent = 1u << 28;
constexpr std::uint64_t maxWarmRanges = 1u << 20;
constexpr std::uint64_t maxNameLength = 1u << 16;

template <typename T>
void
put(std::ostream &out, T value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
bool
get(std::istream &in, T &value)
{
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    return static_cast<bool>(in);
}

void
putOp(std::ostream &out, const MicroOp &op)
{
    put<std::uint64_t>(out, op.pc);
    put<std::uint64_t>(out, op.memAddr);
    put<std::uint64_t>(out, op.branchTarget());
    put<std::uint8_t>(out, static_cast<std::uint8_t>(op.type()));
    put<std::uint8_t>(out, op.taken() ? 1 : 0);
    put<std::uint8_t>(out, op.srcA);
    put<std::uint8_t>(out, op.srcB);
    put<std::uint8_t>(out, op.dest);
}

bool
getOp(std::istream &in, MicroOp &op)
{
    std::uint64_t pc, mem, tgt;
    std::uint8_t type, taken, a, b, d;
    if (!get(in, pc) || !get(in, mem) || !get(in, tgt) ||
        !get(in, type) || !get(in, taken) || !get(in, a) ||
        !get(in, b) || !get(in, d)) {
        return false;
    }
    if (type > static_cast<std::uint8_t>(OpType::Return))
        return false;
    // The packed MicroOp layout stores branch targets in 32 bits;
    // reject rather than truncate a file claiming a wider target.
    if (tgt >> 32)
        return false;
    op.pc = pc;
    op.memAddr = mem;
    op.setBranchTarget(tgt);
    op.setType(static_cast<OpType>(type));
    op.setTaken(taken != 0);
    op.srcA = a;
    op.srcB = b;
    op.dest = d;
    // OpSequence's 16-byte layout holds a 32-bit pc and one operand
    // (address or target); reject an op it could not store.
    return OpSequence::fits(op);
}

} // namespace

bool
writeWorkload(std::ostream &out, const Workload &workload)
{
    out.write(magic, sizeof(magic));
    put<std::uint32_t>(out, traceFormatVersion);
    put<std::uint32_t>(out,
                       static_cast<std::uint32_t>(workload.numEvents()));
    const auto warm = workload.warmSet();
    put<std::uint32_t>(out, static_cast<std::uint32_t>(warm.size()));
    const std::string &name = workload.name();
    put<std::uint64_t>(out, name.size());
    out.write(name.data(), static_cast<std::streamsize>(name.size()));

    for (const AddrRange &range : warm) {
        put<std::uint64_t>(out, range.first);
        put<std::uint64_t>(out, range.second);
    }

    for (std::size_t i = 0; i < workload.numEvents(); ++i) {
        const EventTrace &ev = workload.event(i);
        put<std::uint64_t>(out, ev.id);
        put<std::uint32_t>(out, ev.handlerType);
        put<std::uint64_t>(out, ev.handlerPc);
        put<std::uint64_t>(out, ev.argObjectAddr);
        put<std::uint64_t>(out,
                           ev.independent()
                               ? std::numeric_limits<std::uint64_t>::max()
                               : ev.divergencePoint);
        put<std::uint64_t>(out, ev.ops.size());
        put<std::uint64_t>(out, ev.divergedTail.size());
        for (const MicroOp &op : ev.ops)
            putOp(out, op);
        for (const MicroOp &op : ev.divergedTail)
            putOp(out, op);
    }
    return static_cast<bool>(out);
}

std::unique_ptr<InMemoryWorkload>
readWorkload(std::istream &in)
{
    char m[4];
    in.read(m, sizeof(m));
    if (!in || std::memcmp(m, magic, sizeof(magic)) != 0)
        return nullptr;
    std::uint32_t version, num_events, num_warm;
    std::uint64_t name_len;
    if (!get(in, version) || version != traceFormatVersion)
        return nullptr;
    if (!get(in, num_events) || num_events > maxEvents)
        return nullptr;
    if (!get(in, num_warm) || num_warm > maxWarmRanges)
        return nullptr;
    if (!get(in, name_len) || name_len > maxNameLength)
        return nullptr;
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    if (!in)
        return nullptr;

    std::vector<AddrRange> warm;
    warm.reserve(num_warm);
    for (std::uint32_t i = 0; i < num_warm; ++i) {
        std::uint64_t begin, end;
        if (!get(in, begin) || !get(in, end) || end < begin)
            return nullptr;
        warm.emplace_back(begin, end);
    }

    std::vector<EventTrace> events;
    events.reserve(num_events);
    for (std::uint32_t i = 0; i < num_events; ++i) {
        EventTrace ev;
        std::uint64_t divergence, num_ops, num_tail;
        std::uint32_t handler;
        if (!get(in, ev.id) || !get(in, handler) ||
            !get(in, ev.handlerPc) || !get(in, ev.argObjectAddr) ||
            !get(in, divergence) || !get(in, num_ops) ||
            !get(in, num_tail)) {
            return nullptr;
        }
        ev.handlerType = handler;
        if (num_ops > maxOpsPerEvent || num_tail > maxOpsPerEvent)
            return nullptr;
        if (divergence != std::numeric_limits<std::uint64_t>::max()) {
            if (divergence >= num_ops)
                return nullptr;
            ev.divergencePoint = static_cast<std::size_t>(divergence);
        }
        ev.ops.reserve(static_cast<std::size_t>(num_ops));
        for (std::uint64_t k = 0; k < num_ops; ++k) {
            MicroOp op;
            if (!getOp(in, op))
                return nullptr;
            ev.ops.push_back(op);
        }
        ev.divergedTail.reserve(static_cast<std::size_t>(num_tail));
        for (std::uint64_t k = 0; k < num_tail; ++k) {
            MicroOp op;
            if (!getOp(in, op))
                return nullptr;
            ev.divergedTail.push_back(op);
        }
        events.push_back(std::move(ev));
    }

    auto workload = std::make_unique<InMemoryWorkload>(
        std::move(name), std::move(events));
    workload->setWarmSet(std::move(warm));
    return workload;
}

bool
saveWorkload(const std::string &path, const Workload &workload)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    return writeWorkload(out, workload);
}

std::unique_ptr<InMemoryWorkload>
loadWorkload(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        logLine(LogLevel::Error, "cannot open trace file '%s'",
                path.c_str());
        return nullptr;
    }
    auto workload = readWorkload(in);
    if (!workload)
        logLine(LogLevel::Error, "malformed trace file '%s'",
                path.c_str());
    return workload;
}

} // namespace espsim
