#include "cache/hierarchy.hh"

namespace espsim
{

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config)
    : config_(config), l1i_(config.l1i), l1d_(config.l1d), l2_(config.l2)
{
}

PrefetchSourceStats
MemoryHierarchy::prefetchLifecycle(PrefetchSource source) const
{
    const PrefetchSourceStats &i = lifecycleInstr_.stats(source);
    const PrefetchSourceStats &d = lifecycleData_.stats(source);
    PrefetchSourceStats sum;
    sum.issued = i.issued + d.issued;
    sum.timely = i.timely + d.timely;
    sum.late = i.late + d.late;
    sum.useless = i.useless + d.useless;
    sum.harmful = i.harmful + d.harmful;
    sum.leadCycleSum = i.leadCycleSum + d.leadCycleSum;
    return sum;
}

void
MemoryHierarchy::finalizePrefetchLifecycles()
{
    lifecycleInstr_.finalize();
    lifecycleData_.finalize();
    // finalize() empties the demand-live sets the bits vouch for.
    l1i_.clearDemandSeen();
    l1d_.clearDemandSeen();
}

void
MemoryHierarchy::registerStats(StatRegistry &reg,
                               const std::string &prefix) const
{
    reg.registerScalar(prefix + "l1i.accesses", &stat_l1i_acc_);
    reg.registerScalar(prefix + "l1i.misses", &stat_l1i_miss_);
    reg.registerScalar(prefix + "l1d.accesses", &stat_l1d_acc_);
    reg.registerScalar(prefix + "l1d.misses", &stat_l1d_miss_);
    reg.registerScalar(prefix + "l2.misses", &stat_l2_miss_);
    reg.registerScalar(prefix + "prefetches.issued", &stat_pf_issued_);
    reg.registerScalar(prefix + "prefetches.late", &stat_pf_late_);
    for (unsigned s = 0; s < numPrefetchSources; ++s) {
        const auto source = static_cast<PrefetchSource>(s);
        const std::string base = prefix + "prefetch." +
            prefetchSourceName(source) + ".";
        reg.registerDerived(base + "issued", [this, source] {
            return static_cast<double>(prefetchLifecycle(source).issued);
        });
        reg.registerDerived(base + "timely", [this, source] {
            return static_cast<double>(prefetchLifecycle(source).timely);
        });
        reg.registerDerived(base + "late", [this, source] {
            return static_cast<double>(prefetchLifecycle(source).late);
        });
        reg.registerDerived(base + "useless", [this, source] {
            return static_cast<double>(
                prefetchLifecycle(source).useless);
        });
        reg.registerDerived(base + "harmful", [this, source] {
            return static_cast<double>(
                prefetchLifecycle(source).harmful);
        });
        reg.registerDerived(base + "accuracy", [this, source] {
            return prefetchLifecycle(source).accuracy();
        });
        reg.registerDerived(base + "avg_lead_cycles", [this, source] {
            return prefetchLifecycle(source).avgLeadCycles();
        });
    }
    // Coverage: fraction of would-be misses a prefetch covered
    // (timely fully, late partially). Late hits already count in the
    // miss stat, so the would-be-miss denominator is timely + misses.
    reg.registerDerived(prefix + "prefetch.coverage.instr", [this] {
        std::uint64_t timely = 0, used = 0;
        for (unsigned s = 0; s < numPrefetchSources; ++s) {
            const PrefetchSourceStats &st =
                lifecycleInstr_.stats(static_cast<PrefetchSource>(s));
            timely += st.timely;
            used += st.used();
        }
        const std::uint64_t denom = timely + stat_l1i_miss_;
        return denom == 0 ? 0.0
                          : static_cast<double>(used) /
                static_cast<double>(denom);
    });
    reg.registerDerived(prefix + "prefetch.coverage.data", [this] {
        std::uint64_t timely = 0, used = 0;
        for (unsigned s = 0; s < numPrefetchSources; ++s) {
            const PrefetchSourceStats &st =
                lifecycleData_.stats(static_cast<PrefetchSource>(s));
            timely += st.timely;
            used += st.used();
        }
        const std::uint64_t denom = timely + stat_l1d_miss_;
        return denom == 0 ? 0.0
                          : static_cast<double>(used) /
                static_cast<double>(denom);
    });
}

} // namespace espsim
