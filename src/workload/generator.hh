/**
 * @file
 * Synthetic asynchronous-program trace generator.
 *
 * Produces, deterministically from an AppProfile seed, the event-trace
 * stream of an asynchronous application: short varied events drawn from
 * a set of handler types, random-walking a large static code image
 * (hot handler regions + a shared runtime + continually-touched fresh
 * code, which yields the compulsory LLC misses ESP feeds on), with a
 * calibrated mix of loads/stores/branches and a small rate of
 * read-after-write dependences between adjacent events (which make
 * speculative pre-execution diverge).
 *
 * Every event regenerates bit-identically from (profile.seed, eventId),
 * which is what lets ESP's pre-execution observe "the same event" the
 * normal execution will later run — exactly the property the paper got
 * from forking off a second Chromium renderer.
 */

#ifndef ESPSIM_WORKLOAD_GENERATOR_HH
#define ESPSIM_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <memory>

#include "trace/workload.hh"
#include "workload/app_profile.hh"

namespace espsim
{

/** Simulated virtual-address-space layout used by generated traces. */
namespace layout
{
/** Shared runtime/JS-engine code (hot across all events). */
constexpr Addr sharedCodeBase = 0x1000'0000;
/** Application code image (handler regions live here). */
constexpr Addr appCodeBase = 0x2000'0000;
/** Call stack (grows down). */
constexpr Addr stackBase = 0x7fff'0000;
/** Event argument objects (one 4 KB slot per event). */
constexpr Addr argObjectBase = 0x9000'0000;
/** Per-event fresh allocations (bump allocated). */
constexpr Addr allocBase = 0xa000'0000;
/** Application shared heap. */
constexpr Addr sharedHeapBase = 0xc000'0000;
/** Key/value store heap (request-serving profiles, src/server). */
constexpr Addr kvHeapBase = 0xd000'0000;
/** Streaming / never-reused data. */
constexpr Addr coldDataBase = 0x1'0000'0000;
} // namespace layout

/**
 * External shaping of one generated event. Request-serving profiles
 * (src/server) pick the handler (GET/SET/DEL op, HTTP route), the
 * length class and the key's value object per request, then delegate
 * the instruction-level walk to the synthetic generator. Unshaped
 * generation is untouched: the browser profiles' random streams (and
 * thus every committed golden artifact) are bit-identical with or
 * without this struct existing.
 */
struct EventShape
{
    /** Handler type to run (must be < profile.numHandlerTypes). */
    std::uint32_t handler = 0;
    /** Target instruction count (0 = draw from the profile). */
    std::size_t targetLen = 0;
    /** Base of the value object this request touches (0 = none). */
    Addr keyRegion = 0;
    /** Size of the value object in bytes. */
    std::size_t keyBytes = 0;
    /** Fraction of memory ops redirected onto the value object. */
    double keyFrac = 0.0;
};

/** Deterministic generator of an application's event stream. */
class SyntheticGenerator
{
  public:
    explicit SyntheticGenerator(AppProfile profile);

    /** The profile driving this generator. */
    const AppProfile &profile() const { return profile_; }

    /** Generate the complete workload (profile.numEvents events). */
    std::unique_ptr<InMemoryWorkload> generate() const;

    /**
     * Generate the trace of one event. Bit-identical for the same
     * (profile.seed, id) pair.
     */
    EventTrace generateEvent(std::uint64_t id) const;

    /**
     * Generate one event with externally chosen handler / length /
     * key-value footprint. Bit-identical for the same
     * (profile.seed, id, shape) triple.
     */
    EventTrace generateEvent(std::uint64_t id,
                             const EventShape &shape) const;

    /**
     * The application's standing memory image: shared runtime code,
     * every handler's hot code regions, and the shared heap. Installed
     * as the workload's warm set (resident in the LLC at session
     * start, like the long-running browser the paper traces).
     */
    std::vector<AddrRange> warmSet() const;

  private:
    /** Releases the calloc'd decode memo. */
    struct FreeDeleter
    {
        void operator()(std::uint32_t *table) const;
    };

    AppProfile profile_;
    /**
     * Static-decode memo: one packed 32-bit record per PC of the warm
     * app code image, then one per PC of the shared runtime (layout
     * and coverage in generator.cc). Zero means "not decoded yet".
     * Entries are pure functions of (PC, seed), filled with relaxed
     * atomic stores by const generation calls, which may run on
     * several threads at once.
     */
    std::unique_ptr<std::uint32_t[], FreeDeleter> decoded_;

    EventTrace generateShaped(std::uint64_t id,
                              const EventShape *shape) const;
};

} // namespace espsim

#endif // ESPSIM_WORKLOAD_GENERATOR_HH
