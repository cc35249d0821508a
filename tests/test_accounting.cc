/**
 * @file
 * Tests for the observability layer added with cycle accounting: the
 * top-down cycle attributor's sum invariant across configurations,
 * per-handler attribution, prefetch-lifecycle classification on
 * synthetic streams, the suite artifact's --jobs determinism, and the
 * `espsim diff` tolerance / exit-code contract.
 */

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "esp/lists.hh"
#include "report/artifact.hh"
#include "report/diff.hh"
#include "report/json_reader.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

AppProfile
tinyProfile()
{
    AppProfile p = AppProfile::byName("amazon");
    p.name = "amazon-tiny";
    p.numEvents = 6;
    p.avgEventLen = 3000;
    return p;
}

Cycle
bucket(const CoreStats &stats, CycleBucket b)
{
    return stats.bucketCycles[static_cast<unsigned>(b)];
}

SimResult
runTiny(const SimConfig &config)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    return Simulator(config).run(*workload);
}

} // namespace

// --------------------------------------------------------------------
// Cycle-accounting invariant
// --------------------------------------------------------------------

TEST(Accounting, BucketsSumToTotalCyclesAcrossConfigs)
{
    const std::vector<SimConfig> configs{
        SimConfig::baseline(),      SimConfig::nextLineStride(),
        SimConfig::runaheadExec(true), SimConfig::espFull(true),
        SimConfig::espNaive(true),
    };
    for (const SimConfig &config : configs) {
        const SimResult r = runTiny(config);
        EXPECT_EQ(r.core.bucketSum(), r.core.cycles)
            << "config " << config.name;
        EXPECT_GT(bucket(r.core, CycleBucket::Retiring), 0u)
            << "config " << config.name;
    }
}

TEST(Accounting, SpeculationBucketsFollowTheEngine)
{
    const SimResult base = runTiny(SimConfig::baseline());
    EXPECT_EQ(bucket(base.core, CycleBucket::EspPreExec), 0u);
    EXPECT_EQ(bucket(base.core, CycleBucket::Runahead), 0u);

    // ESP pre-executes inside stall shadows; those cycles move out of
    // the miss buckets into the ESP bucket.
    const SimResult esp = runTiny(SimConfig::espFull(true));
    EXPECT_GT(bucket(esp.core, CycleBucket::EspPreExec), 0u);
    EXPECT_EQ(bucket(esp.core, CycleBucket::Runahead), 0u);

    const SimResult ra = runTiny(SimConfig::runaheadExec(true));
    EXPECT_GT(bucket(ra.core, CycleBucket::Runahead), 0u);
    EXPECT_EQ(bucket(ra.core, CycleBucket::EspPreExec), 0u);
}

TEST(Accounting, HandlerAttributionCoversEveryCycleAndEvent)
{
    const SimResult r = runTiny(SimConfig::espFull(true));
    CycleBucketArray summed{};
    std::uint64_t events = 0;
    for (const auto &[handler, ha] : r.core.handlerAccounting) {
        (void)handler;
        events += ha.events;
        for (unsigned b = 0; b < numCycleBuckets; ++b)
            summed[b] += ha.buckets[b];
    }
    EXPECT_EQ(events, r.core.events);
    for (unsigned b = 0; b < numCycleBuckets; ++b)
        EXPECT_EQ(summed[b], r.core.bucketCycles[b]) << "bucket " << b;
}

TEST(Accounting, BucketStatsLandInTheRegistrySnapshot)
{
    const SimResult r = runTiny(SimConfig::espFull(true));
    EXPECT_GT(r.stats.get("core.cycle_bucket.retiring"), 0.0);
    EXPECT_GT(r.stats.get("core.cycle_bucket.esp_pre_exec"), 0.0);
    double sum = 0.0;
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        sum += r.stats.get(
            std::string("core.cycle_bucket.") +
            cycleBucketName(static_cast<CycleBucket>(b)));
    }
    EXPECT_DOUBLE_EQ(sum, r.stats.get("core.cycles"));
}

// --------------------------------------------------------------------
// Prefetch lifecycle classification (synthetic streams)
// --------------------------------------------------------------------

TEST(Accounting, TimelyPrefetchEarnsLeadCycles)
{
    MemoryHierarchy mem{HierarchyConfig{}};
    mem.prefetchData(0x400000, 0, PrefetchSource::StrideData);
    // Demand arrives long after the fill completed: timely.
    mem.accessData(0x400000, false, 500);
    const PrefetchSourceStats s =
        mem.prefetchLifecycle(PrefetchSource::StrideData);
    EXPECT_EQ(s.issued, 1u);
    EXPECT_EQ(s.timely, 1u);
    EXPECT_EQ(s.late, 0u);
    EXPECT_GT(s.avgLeadCycles(), 0.0);
    EXPECT_DOUBLE_EQ(s.accuracy(), 1.0);
}

TEST(Accounting, LatePrefetchStillCountsAsUsed)
{
    MemoryHierarchy mem{HierarchyConfig{}};
    mem.prefetchData(0x410000, 0, PrefetchSource::StrideData);
    // Demand lands one cycle later, far before the memory fill: late.
    mem.accessData(0x410000, false, 1);
    const PrefetchSourceStats s =
        mem.prefetchLifecycle(PrefetchSource::StrideData);
    EXPECT_EQ(s.timely, 0u);
    EXPECT_EQ(s.late, 1u);
    EXPECT_DOUBLE_EQ(s.accuracy(), 1.0);
}

TEST(Accounting, UntouchedPrefetchScoresUselessAtFinalize)
{
    MemoryHierarchy mem{HierarchyConfig{}};
    mem.prefetchData(0x420000, 0, PrefetchSource::EspDList);
    mem.finalizePrefetchLifecycles();
    const PrefetchSourceStats s =
        mem.prefetchLifecycle(PrefetchSource::EspDList);
    EXPECT_EQ(s.issued, 1u);
    EXPECT_EQ(s.useless, 1u);
    EXPECT_DOUBLE_EQ(s.accuracy(), 0.0);
}

TEST(Accounting, PrefetchEvictingDemandLiveBlockIsHarmful)
{
    MemoryHierarchy mem{HierarchyConfig{}};
    // L1-D: 32 KB, 2-way, 64 B blocks -> 256 sets; addresses 16 KB
    // apart share a set. Two demand blocks fill the set, then two
    // prefetches displace them while still demand-live.
    constexpr Addr setStride = 256 * blockBytes;
    const Addr d0 = 0x800000;
    const Addr d1 = d0 + setStride;
    mem.accessData(d0, false, 0);
    mem.accessData(d1, false, 1);
    mem.prefetchData(d0 + 2 * setStride, 2, PrefetchSource::EspDList);
    mem.prefetchData(d0 + 3 * setStride, 3, PrefetchSource::EspDList);
    const PrefetchSourceStats s =
        mem.prefetchLifecycle(PrefetchSource::EspDList);
    EXPECT_EQ(s.issued, 2u);
    EXPECT_EQ(s.harmful, 2u);
}

namespace
{

/**
 * Reference lifecycle tracker: the MERE-style taxonomy with every
 * hook going straight to hash containers and no filter in front. It
 * is scored exactly like PrefetchLifecycleTracker.
 */
class ReferenceLifecycle
{
  public:
    void
    onPrefetchIssue(Addr block, PrefetchSource source, Cycle ready,
                    std::optional<Addr> evicted)
    {
        if (evicted)
            onEviction(*evicted, source);
        ++stats_[static_cast<std::size_t>(source)].issued;
        live_[block] = Live{source, ready, false};
    }

    void
    onDemandAccess(Addr block, Cycle now)
    {
        auto it = live_.find(block);
        if (it != live_.end() && !it->second.used) {
            it->second.used = true;
            PrefetchSourceStats &s =
                stats_[static_cast<std::size_t>(it->second.source)];
            if (now >= it->second.ready) {
                ++s.timely;
                s.leadCycleSum += now - it->second.ready;
            } else {
                ++s.late;
            }
        }
        demandLive_.insert(block);
    }

    void
    onDemandFill(Addr block, std::optional<Addr> evicted)
    {
        if (evicted)
            onEviction(*evicted, std::nullopt);
        demandLive_.insert(block);
        live_.erase(block);
    }

    void
    finalize()
    {
        for (const auto &[block, entry] : live_) {
            if (!entry.used)
                ++stats_[static_cast<std::size_t>(entry.source)].useless;
        }
        live_.clear();
        demandLive_.clear();
    }

    const PrefetchSourceStats &
    stats(PrefetchSource source) const
    {
        return stats_[static_cast<std::size_t>(source)];
    }

  private:
    struct Live
    {
        PrefetchSource source;
        Cycle ready;
        bool used;
    };

    void
    onEviction(Addr block, std::optional<PrefetchSource> byPrefetch)
    {
        auto it = live_.find(block);
        if (it != live_.end()) {
            if (!it->second.used) {
                ++stats_[static_cast<std::size_t>(it->second.source)]
                      .useless;
            } else if (byPrefetch) {
                ++stats_[static_cast<std::size_t>(*byPrefetch)].harmful;
            }
            live_.erase(it);
            demandLive_.erase(block);
            return;
        }
        if (demandLive_.erase(block) && byPrefetch)
            ++stats_[static_cast<std::size_t>(*byPrefetch)].harmful;
    }

    std::array<PrefetchSourceStats, numPrefetchSources> stats_{};
    std::unordered_map<Addr, Live> live_;
    std::unordered_set<Addr> demandLive_;
};

/** One side (I or D) of the reference hierarchy. */
struct ReferenceSide
{
    explicit ReferenceSide(const CacheGeometry &geometry) : l1(geometry)
    {
    }

    SetAssocCache l1;
    InflightPrefetchBuffer inflight;
    ReferenceLifecycle lifecycle;
};

/**
 * MemoryHierarchy's demand and prefetch walk, scoring every counted
 * demand access in the reference tracker.
 */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const HierarchyConfig &config)
        : config_(config), i_(config.l1i), d_(config.l1d), l2_(config.l2)
    {
    }

    ReferenceSide &side(bool instr) { return instr ? i_ : d_; }
    SetAssocCache &l2() { return l2_; }
    void setStatCounting(bool enable) { count_ = enable; }

    AccessResult
    access(bool instr, Addr addr, bool write, Cycle now)
    {
        ReferenceSide &s = side(instr);
        const Addr block = blockAlign(addr);
        const Cycle l1_lat = s.l1.geometry().hitLatency;
        const Cycle l2_lat = l2_.geometry().hitLatency;
        const auto ready = s.inflight.consume(block);
        if (const std::size_t line = s.l1.lookupLine(addr);
            line != SetAssocCache::noLine) {
            if (count_)
                s.lifecycle.onDemandAccess(block, now);
            if (write)
                s.l1.markDirty(line);
            if (ready && *ready > now)
                return {*ready - now + l1_lat, HitLevel::L2};
            return {l1_lat, HitLevel::L1};
        }
        if (l2_.lookup(addr)) {
            const auto evicted = s.l1.insertEvicting(addr, write);
            if (count_)
                s.lifecycle.onDemandFill(block, evicted);
            return {l1_lat + l2_lat, HitLevel::L2};
        }
        l2_.insert(addr);
        const auto evicted = s.l1.insertEvicting(addr, write);
        if (count_)
            s.lifecycle.onDemandFill(block, evicted);
        return {l1_lat + l2_lat + config_.memLatency, HitLevel::Memory};
    }

    bool
    prefetch(bool instr, Addr addr, Cycle now, PrefetchSource source)
    {
        ReferenceSide &s = side(instr);
        if (s.l1.contains(addr) || s.inflight.contains(addr))
            return false;
        Cycle latency = s.l1.geometry().hitLatency +
            l2_.geometry().hitLatency;
        if (!l2_.contains(addr))
            latency += config_.memLatency;
        l2_.insert(addr);
        const auto evicted = s.l1.insertEvicting(addr);
        s.inflight.issue(blockAlign(addr), now + latency);
        s.lifecycle.onPrefetchIssue(blockAlign(addr), source,
                                    now + latency, evicted);
        return true;
    }

    void
    finalize()
    {
        i_.lifecycle.finalize();
        d_.lifecycle.finalize();
    }

    PrefetchSourceStats
    lifecycle(PrefetchSource source) const
    {
        const PrefetchSourceStats &i = i_.lifecycle.stats(source);
        const PrefetchSourceStats &d = d_.lifecycle.stats(source);
        PrefetchSourceStats sum;
        sum.issued = i.issued + d.issued;
        sum.timely = i.timely + d.timely;
        sum.late = i.late + d.late;
        sum.useless = i.useless + d.useless;
        sum.harmful = i.harmful + d.harmful;
        sum.leadCycleSum = i.leadCycleSum + d.leadCycleSum;
        return sum;
    }

  private:
    HierarchyConfig config_;
    bool count_ = true;
    ReferenceSide i_;
    ReferenceSide d_;
    SetAssocCache l2_;
};

void
expectSameLifecycle(const MemoryHierarchy &mem,
                    const ReferenceHierarchy &ref, int step)
{
    for (unsigned src = 0; src < numPrefetchSources; ++src) {
        const auto source = static_cast<PrefetchSource>(src);
        const PrefetchSourceStats a = mem.prefetchLifecycle(source);
        const PrefetchSourceStats b = ref.lifecycle(source);
        const char *name = prefetchSourceName(source);
        EXPECT_EQ(a.issued, b.issued) << name << " step " << step;
        EXPECT_EQ(a.timely, b.timely) << name << " step " << step;
        EXPECT_EQ(a.late, b.late) << name << " step " << step;
        EXPECT_EQ(a.useless, b.useless) << name << " step " << step;
        EXPECT_EQ(a.harmful, b.harmful) << name << " step " << step;
        EXPECT_EQ(a.leadCycleSum, b.leadCycleSum)
            << name << " step " << step;
    }
}

} // namespace

/**
 * The hierarchy scores prefetch lifecycles through an exact filter
 * (the per-line demand-seen bit and the empty-table fast paths). Drive
 * it and the unfiltered reference with one random stream that mixes
 * counted and uncounted demand accesses, prefetches from every source,
 * direct cache fills and invalidations, and mid-stream finalizes: the
 * per-source stats must agree at every finalize.
 */
TEST(Accounting, LifecycleFiltersMatchReferenceTracker)
{
    // Small caches over a small block pool: plenty of L1 hits, repeat
    // hits, conflict evictions and prefetch pollution.
    HierarchyConfig config;
    config.l1i = {"L1-I", 1024, 2, 2};
    config.l1d = {"L1-D", 1024, 2, 2};
    config.l2 = {"L2", 4096, 4, 12};
    config.memLatency = 60;
    MemoryHierarchy mem(config);
    ReferenceHierarchy ref(config);

    Rng rng(20150613);
    Cycle now = 0;
    const auto draw_addr = [&rng] {
        return 0x400000 + rng.below(96) * blockBytes + rng.below(64);
    };
    int finalizes = 0;
    for (int step = 0; step < 200000; ++step) {
        now += rng.below(24);
        const bool instr = rng.chance(0.4);
        const Addr addr = draw_addr();
        const std::uint64_t op = rng.below(100);
        if (op < 60) {
            const bool write = !instr && rng.chance(0.3);
            const AccessResult a = instr ? mem.accessInstr(addr, now)
                                         : mem.accessData(addr, write,
                                                          now);
            const AccessResult b = ref.access(instr, addr, write, now);
            ASSERT_EQ(a.latency, b.latency) << "step " << step;
            ASSERT_EQ(a.level, b.level) << "step " << step;
        } else if (op < 85) {
            const auto source = static_cast<PrefetchSource>(
                rng.below(numPrefetchSources));
            const bool a = instr ? mem.prefetchInstr(addr, now, source)
                                 : mem.prefetchData(addr, now, source);
            ASSERT_EQ(a, ref.prefetch(instr, addr, now, source))
                << "step " << step;
        } else if (op < 93) {
            // Direct fills (naive ESP's path): the tracker never
            // hears of the evictions they cause.
            const std::uint64_t which = rng.below(3);
            if (which == 2) {
                mem.l2().insert(addr);
                ref.l2().insert(addr);
            } else {
                (which ? mem.l1i() : mem.l1d()).insert(addr);
                ref.side(which != 0).l1.insert(addr);
            }
        } else if (op < 97) {
            // Runahead / naive ESP gate statistics off for a while.
            const bool on = rng.chance(0.5);
            mem.setStatCounting(on);
            ref.setStatCounting(on);
        } else if (op < 98 && rng.chance(0.05)) {
            (instr ? mem.l1i() : mem.l1d()).invalidateAll();
            ref.side(instr).l1.invalidateAll();
        } else if (op < 99 && rng.chance(0.01)) {
            mem.finalizePrefetchLifecycles();
            ref.finalize();
            expectSameLifecycle(mem, ref, step);
            ++finalizes;
        }
    }
    mem.finalizePrefetchLifecycles();
    ref.finalize();
    expectSameLifecycle(mem, ref, -1);
    EXPECT_GT(finalizes, 0);

    // The stream must have exercised every outcome of the taxonomy.
    PrefetchSourceStats total;
    for (unsigned src = 0; src < numPrefetchSources; ++src) {
        const PrefetchSourceStats s =
            ref.lifecycle(static_cast<PrefetchSource>(src));
        EXPECT_GT(s.issued, 0u) << src;
        total.timely += s.timely;
        total.late += s.late;
        total.useless += s.useless;
        total.harmful += s.harmful;
    }
    EXPECT_GT(total.timely, 0u);
    EXPECT_GT(total.late, 0u);
    EXPECT_GT(total.useless, 0u);
    EXPECT_GT(total.harmful, 0u);
}

TEST(Accounting, LifecycleStatsAppearInSimulatorSnapshot)
{
    const SimResult r = runTiny(SimConfig::espFull(true));
    // ESP ran with its lists on, so the I-list issued prefetches and
    // their lifecycle stats are part of the canonical surface.
    EXPECT_GT(r.stats.get("mem.prefetch.esp_ilist.issued"), 0.0);
    const double timely = r.stats.get("mem.prefetch.esp_ilist.timely");
    const double late = r.stats.get("mem.prefetch.esp_ilist.late");
    const double useless =
        r.stats.get("mem.prefetch.esp_ilist.useless");
    EXPECT_LE(timely + late + useless,
              r.stats.get("mem.prefetch.esp_ilist.issued") + 0.5);
}

// --------------------------------------------------------------------
// ESP list encoding outcomes
// --------------------------------------------------------------------

TEST(Accounting, AppendOutcomesClassifyEncoding)
{
    AddressList list(0); // unbounded
    AppendOutcome out;
    EXPECT_TRUE(list.append(0x1000, 0, &out));
    EXPECT_EQ(out, AppendOutcome::NewRecord);
    EXPECT_TRUE(list.append(0x1004, 1, &out)); // same block
    EXPECT_EQ(out, AppendOutcome::Retouch);
    EXPECT_TRUE(list.append(0x1040, 2, &out)); // next block
    EXPECT_EQ(out, AppendOutcome::RunExtended);
    EXPECT_TRUE(list.append(0x2000, 3, &out)); // small delta
    EXPECT_EQ(out, AppendOutcome::NewRecord);
    EXPECT_TRUE(list.append(0x200000, 4, &out)); // > 127 blocks away
    EXPECT_EQ(out, AppendOutcome::NewRecordEscaped);
}

TEST(Accounting, AppendReportsRejectedWhenFull)
{
    // 64 bits: room for the first (full-address, 3x19-bit) entry
    // only; a second far-away entry cannot be charged.
    AddressList list(8);
    AppendOutcome out;
    EXPECT_TRUE(list.append(0x1000, 0, &out));
    EXPECT_EQ(out, AppendOutcome::NewRecord);
    EXPECT_FALSE(list.append(0x900000, 1, &out));
    EXPECT_EQ(out, AppendOutcome::Rejected);
}

// --------------------------------------------------------------------
// Artifact determinism across --jobs
// --------------------------------------------------------------------

TEST(Accounting, SuiteArtifactIdenticalAcrossJobs)
{
    const std::vector<AppProfile> apps{tinyProfile()};
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::espFull(true)};
    SuiteRunner serial(apps);
    serial.setJobs(1);
    SuiteRunner parallel(apps);
    parallel.setJobs(8);
    const auto rows1 = serial.run(configs);
    const auto rows8 = parallel.run(configs);

    ArtifactManifest manifest;
    manifest.source = "test";
    manifest.toolVersion = "fixed";
    manifest.buildType = "fixed";
    const std::string a1 =
        renderSuiteArtifactJson(manifest, configs, rows1);
    const std::string a8 =
        renderSuiteArtifactJson(manifest, configs, rows8);
    EXPECT_EQ(a1, a8);

    const auto j1 = parseJson(a1);
    const auto j8 = parseJson(a8);
    ASSERT_TRUE(j1 && j8);
    const DiffResult d = diffSuiteArtifacts(*j1, *j8);
    EXPECT_EQ(d.exitCode(), 0);
    EXPECT_TRUE(d.drifts.empty());
    EXPECT_GT(d.statsCompared, 0u);
}

// --------------------------------------------------------------------
// espsim diff: tolerance and exit-code matrix
// --------------------------------------------------------------------

namespace
{

std::string
fakeArtifact(const std::string &hash, double cycles,
             double dcacheBucket, double ipc,
             bool includeSecondPoint = false,
             const std::string &extraStat = "")
{
    std::string s =
        R"({"schema":"espsim-suite-artifact","format_version":1,)";
    s += R"("manifest":{"source":"test","tool_version":"v1",)";
    s += R"("build_type":"Release","config_hash":")" + hash +
        R"(","apps":["a"],"configs":["c"],"points":1},"results":[)";
    s += R"({"app":"a","config":"c","stats":{)";
    s += R"("core.cycles":)" + std::to_string(cycles);
    s += R"(,"core.cycle_bucket.dcache_miss":)" +
        std::to_string(dcacheBucket);
    s += R"(,"core.cycle_bucket.retiring":)" +
        std::to_string(cycles - dcacheBucket);
    s += R"(,"derived.ipc":)" + std::to_string(ipc);
    if (!extraStat.empty())
        s += "," + extraStat;
    s += "}}";
    if (includeSecondPoint)
        s += R"(,{"app":"b","config":"c","stats":{"core.cycles":100}})";
    s += "]}";
    return s;
}

DiffResult
diffStrings(const std::string &base, const std::string &cand,
            const DiffOptions &opts = {})
{
    const auto b = parseJson(base);
    const auto c = parseJson(cand);
    EXPECT_TRUE(b && c);
    return diffSuiteArtifacts(*b, *c, opts);
}

} // namespace

TEST(Diff, IdenticalArtifactsExitZero)
{
    const std::string a = fakeArtifact("h", 1000, 200, 1.5);
    const DiffResult d = diffStrings(a, a);
    EXPECT_EQ(d.exitCode(), 0);
    EXPECT_TRUE(d.drifts.empty());
    EXPECT_EQ(d.pointsCompared, 1u);
}

TEST(Diff, HeadlineDriftFailsAndIsAttributedToBuckets)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5);
    const std::string cand = fakeArtifact("h", 1100, 300, 1.5);
    const DiffResult d = diffStrings(base, cand);
    EXPECT_EQ(d.exitCode(), 1);
    EXPECT_GE(d.headlineRegressions, 1u);
    bool found = false;
    for (const StatDrift &drift : d.drifts) {
        if (drift.stat != "core.cycles")
            continue;
        found = true;
        EXPECT_TRUE(drift.headline);
        EXPECT_NEAR(drift.relDrift, 0.1, 1e-9);
        // The drift is explained through the accounting buckets.
        EXPECT_NE(drift.attribution.find("dcache_miss +100"),
                  std::string::npos)
            << drift.attribution;
    }
    EXPECT_TRUE(found);
}

TEST(Diff, RelativeToleranceAbsorbsHeadlineDrift)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5);
    const std::string cand = fakeArtifact("h", 1100, 300, 1.5);
    DiffOptions opts;
    opts.relTol = 0.6; // covers even the 50% bucket move
    const DiffResult d = diffStrings(base, cand, opts);
    EXPECT_EQ(d.exitCode(), 0);
    EXPECT_EQ(d.headlineRegressions, 0u);
    EXPECT_TRUE(d.drifts.empty());
}

TEST(Diff, HeadlineToleranceOverridesGeneralTolerance)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5);
    const std::string cand = fakeArtifact("h", 1100, 300, 1.5);
    DiffOptions opts;
    opts.relTol = 0.6;
    opts.headlineRelTol = 0.01; // stricter just for headline stats
    const DiffResult d = diffStrings(base, cand, opts);
    EXPECT_EQ(d.exitCode(), 1);
    EXPECT_GE(d.headlineRegressions, 1u);
}

TEST(Diff, NonHeadlineDriftIsReportedButPasses)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5, false,
                                          R"("mem.extra":10)");
    const std::string cand = fakeArtifact("h", 1000, 200, 1.5, false,
                                          R"("mem.extra":20)");
    const DiffResult d = diffStrings(base, cand);
    EXPECT_EQ(d.exitCode(), 0);
    ASSERT_EQ(d.drifts.size(), 1u);
    EXPECT_EQ(d.drifts[0].stat, "mem.extra");
    EXPECT_FALSE(d.drifts[0].headline);
}

TEST(Diff, ConfigHashMismatchFailsUnlessIgnored)
{
    const std::string base = fakeArtifact("aaaa", 1000, 200, 1.5);
    const std::string cand = fakeArtifact("bbbb", 1000, 200, 1.5);
    const DiffResult strict = diffStrings(base, cand);
    EXPECT_EQ(strict.exitCode(), 1);
    EXPECT_FALSE(strict.configHashMatch);

    DiffOptions opts;
    opts.ignoreConfigHash = true;
    const DiffResult relaxed = diffStrings(base, cand, opts);
    EXPECT_EQ(relaxed.exitCode(), 0);
}

TEST(Diff, MissingPointFailsTheGate)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5, true);
    const std::string cand = fakeArtifact("h", 1000, 200, 1.5, false);
    const DiffResult d = diffStrings(base, cand);
    EXPECT_EQ(d.exitCode(), 1);
    bool found = false;
    for (const StatDrift &drift : d.drifts)
        found |= drift.onlyInBaseline && drift.app == "b";
    EXPECT_TRUE(found);
}

TEST(Diff, UnreadableInputExitsTwo)
{
    const DiffResult d = diffSuiteArtifactFiles(
        "/nonexistent/base.json", "/nonexistent/cand.json");
    EXPECT_EQ(d.exitCode(), 2);
    EXPECT_FALSE(d.loaded);
    EXPECT_FALSE(d.error.empty());
}

TEST(Diff, NonArtifactDocumentExitsTwo)
{
    const auto bogus = parseJson(R"({"schema":"something-else"})");
    const auto good = parseJson(fakeArtifact("h", 1000, 200, 1.5));
    ASSERT_TRUE(bogus && good);
    const DiffResult d = diffSuiteArtifacts(*bogus, *good);
    EXPECT_EQ(d.exitCode(), 2);
}

TEST(Diff, ReportRendersDriftTable)
{
    const std::string base = fakeArtifact("h", 1000, 200, 1.5);
    const std::string cand = fakeArtifact("h", 1100, 300, 1.5);
    const DiffResult d = diffStrings(base, cand);
    const std::string report = renderDiffReport(d);
    EXPECT_NE(report.find("core.cycles"), std::string::npos);
    EXPECT_NE(report.find("[headline]"), std::string::npos);
    EXPECT_NE(report.find("headline regressions:"), std::string::npos);
}
