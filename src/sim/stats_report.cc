#include "sim/stats_report.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "common/job_pool.hh"
#include "common/logging.hh"
#include "report/artifact.hh"
#include "workload/generator.hh"
#include "workload/streaming.hh"

namespace espsim
{

namespace
{

/**
 * Per-app shared state for one sweep: the workload is generated once
 * (by whichever job gets there first), shared read-only across that
 * app's config jobs, and released when the last of them completes.
 */
struct AppSlot
{
    std::once_flag once;
    std::shared_ptr<const Workload> workload;
    std::atomic<std::size_t> remaining{0};
};

/**
 * Test hook: ESPSIM_FAULT_INJECT="app:config" (either side "*") makes
 * the matching cells throw, exercising the ErrorCell degradation path
 * end-to-end without a real model bug.
 */
bool
faultInjected(const std::string &app, const std::string &config)
{
    const char *env = std::getenv("ESPSIM_FAULT_INJECT");
    if (!env || !*env)
        return false;
    const std::string spec(env);
    const std::size_t colon = spec.find(':');
    const std::string want_app = spec.substr(0, colon);
    const std::string want_cfg =
        colon == std::string::npos ? "*" : spec.substr(colon + 1);
    return (want_app == "*" || want_app == app) &&
        (want_cfg == "*" || want_cfg == config);
}

} // namespace

bool
suiteHasErrors(const std::vector<SuiteRow> &rows)
{
    for (const SuiteRow &row : rows) {
        if (row.hasErrors())
            return true;
    }
    return false;
}

SuiteRunner::SuiteRunner(std::vector<AppProfile> apps)
    : apps_(std::move(apps))
{
    if (apps_.empty())
        fatal("SuiteRunner needs at least one application profile");
}

std::vector<SuiteRow>
SuiteRunner::run(const std::vector<SimConfig> &configs,
                 bool announce_progress) const
{
    const std::size_t n_apps = apps_.size();
    const std::size_t n_cfgs = configs.size();
    const std::size_t points = n_apps * n_cfgs;

    std::vector<SuiteRow> rows(n_apps);
    std::vector<AppSlot> slots(n_apps);
    for (std::size_t a = 0; a < n_apps; ++a) {
        rows[a].app = apps_[a].name;
        rows[a].results.resize(n_cfgs);
        rows[a].errors.resize(n_cfgs);
        slots[a].remaining.store(n_cfgs, std::memory_order_relaxed);
    }
    if (points == 0)
        return rows;

    // One job per (app, config) point; never more threads than points.
    const unsigned want = jobs_ == 0 ? JobPool::defaultJobs() : jobs_;
    const auto n_jobs = static_cast<unsigned>(
        std::min<std::size_t>(want, points));

    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;

    JobPool pool(n_jobs);
    for (std::size_t a = 0; a < n_apps; ++a) {
        for (std::size_t c = 0; c < n_cfgs; ++c) {
            pool.submit([&, a, c] {
                AppSlot &slot = slots[a];
                // A throwing cell degrades to a CellError instead of
                // aborting the sweep. (A std::call_once whose callable
                // throws leaves the flag unset, so a later cell of the
                // same app retries workload generation.)
                try {
                    if (faultInjected(apps_[a].name, configs[c].name)) {
                        throw std::runtime_error(
                            "injected fault (ESPSIM_FAULT_INJECT)");
                    }
                    std::call_once(slot.once, [&] {
                        if (streaming_) {
                            slot.workload =
                                std::make_shared<StreamingWorkload>(
                                    std::make_unique<GeneratorSource>(
                                        apps_[a]));
                        } else {
                            slot.workload =
                                SyntheticGenerator(apps_[a]).generate();
                        }
                    });
                    std::shared_ptr<const Workload> workload =
                        slot.workload;
                    rows[a].results[c] =
                        Simulator(configs[c]).run(*workload);
                    workload.reset();
                } catch (const std::exception &e) {
                    rows[a].errors[c].message = e.what();
                    rows[a].errors[c].configHash =
                        configsHash({configs[c]});
                    warn("suite cell (%s, %s) failed: %s",
                         apps_[a].name.c_str(), configs[c].name.c_str(),
                         e.what());
                } catch (...) {
                    rows[a].errors[c].message = "unknown exception";
                    rows[a].errors[c].configHash =
                        configsHash({configs[c]});
                    warn("suite cell (%s, %s) failed: unknown "
                         "exception",
                         apps_[a].name.c_str(),
                         configs[c].name.c_str());
                }
                // Last point of this app: free its workload now so a
                // sweep never holds more live workloads than it needs.
                if (slot.remaining.fetch_sub(
                        1, std::memory_order_acq_rel) == 1)
                    slot.workload.reset();
                if (announce_progress) {
                    const std::size_t k =
                        done.fetch_add(1, std::memory_order_relaxed) +
                        1;
                    std::lock_guard<std::mutex> lock(progress_mutex);
                    inform("%zu/%zu points done (%s on %s)", k, points,
                           configs[c].name.c_str(),
                           apps_[a].name.c_str());
                }
            });
        }
    }
    pool.wait();
    return rows;
}

double
hmeanImprovementPct(const std::vector<SuiteRow> &rows, std::size_t cfg,
                    std::size_t ref)
{
    std::vector<double> speedups;
    speedups.reserve(rows.size());
    for (const SuiteRow &row : rows) {
        if (row.ok(cfg) && row.ok(ref))
            speedups.push_back(
                row.results[cfg].speedupOver(row.results[ref]));
    }
    return (harmonicMean(speedups) - 1.0) * 100.0;
}

} // namespace espsim
