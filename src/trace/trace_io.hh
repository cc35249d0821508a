/**
 * @file
 * Workload (de)serialization — the adoption path for users with real
 * traces: capture an asynchronous program once (e.g., via a Pin/DynamoRIO
 * tool that tags event boundaries), write it in this format, and replay
 * it through every simulator configuration.
 *
 * Format (little-endian, versioned):
 *   header   : magic "ESPW", u32 version, u32 event count,
 *              u32 warm-range count, u64 name length + bytes
 *   warm set : per range, u64 begin, u64 end
 *   events   : per event, u64 id, u32 handlerType, u64 handlerPc,
 *              u64 argObjectAddr, u64 divergencePoint (max = none),
 *              u64 opCount, u64 tailOpCount, then packed ops
 *   op       : u64 pc, u64 memAddr, u64 branchTarget, u8 type,
 *              u8 taken, u8 srcA, u8 srcB, u8 dest (29 bytes)
 */

#ifndef ESPSIM_TRACE_TRACE_IO_HH
#define ESPSIM_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/workload.hh"

namespace espsim
{

/** Current on-disk format version. */
constexpr std::uint32_t traceFormatVersion = 1;

/** Serialize @p workload to @p out. @return false on I/O error. */
bool writeWorkload(std::ostream &out, const Workload &workload);

/** Serialize to @p path (fatal on open failure, false on write error). */
bool saveWorkload(const std::string &path, const Workload &workload);

/**
 * Deserialize a workload. Returns nullptr on malformed input (bad
 * magic, unsupported version, truncation, implausible sizes, or an
 * op OpSequence cannot store: a pc of 2^32 or above, a memory address
 * on a non-memory op, a branch target on a load/store).
 */
std::unique_ptr<InMemoryWorkload> readWorkload(std::istream &in);

/**
 * Deserialize from @p path. Returns nullptr, after logging which,
 * when the file cannot be opened or is malformed.
 */
std::unique_ptr<InMemoryWorkload> loadWorkload(const std::string &path);

} // namespace espsim

#endif // ESPSIM_TRACE_TRACE_IO_HH
