#include "report/watchdog.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/logging.hh"
#include "report/telemetry.hh"

namespace espsim
{

StallWatchdog::StallWatchdog(TelemetryPlane &plane, double budgetMs,
                             DumpFn dump)
    : plane_(plane), budgetMs_(budgetMs), dump_(std::move(dump))
{
    thread_ = std::thread([this] { watchLoop(); });
}

StallWatchdog::~StallWatchdog()
{
    stop();
}

void
StallWatchdog::stop()
{
    if (!thread_.joinable())
        return;
    stop_.store(true, std::memory_order_release);
    thread_.join();
}

void
StallWatchdog::watchLoop()
{
    using clock = std::chrono::steady_clock;
    // Poll at a quarter of the budget (capped at 50ms) so detection
    // latency stays within ~1.25x the budget without busy-waiting.
    const auto poll_interval = std::chrono::milliseconds(std::max<long>(
        1, std::min<long>(50, static_cast<long>(budgetMs_ / 4))));

    std::uint64_t last_progress = plane_.progress();
    auto last_move = clock::now();
    bool fired = false;

    while (!stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(poll_interval);
        const std::uint64_t progress = plane_.progress();
        const auto now = clock::now();
        if (progress != last_progress) {
            last_progress = progress;
            last_move = now;
            continue;
        }
        const double stalled_ms =
            std::chrono::duration<double, std::milli>(now - last_move)
                .count();
        if (fired || stalled_ms < budgetMs_)
            continue;
        // Exactly-once: latch locally; the plane's degraded state
        // latches globally for /healthz and the artifact.
        fired = true;
        fires_.fetch_add(1, std::memory_order_release);
        char reason[160];
        std::snprintf(reason, sizeof(reason),
                      "stall watchdog: no retire progress for %.0f ms "
                      "(budget %.0f ms, progress=%llu)",
                      stalled_ms, budgetMs_,
                      static_cast<unsigned long long>(last_progress));
        plane_.markDegraded(reason);
        logLine(LogLevel::Warn, "%s", reason);
        if (dump_) {
            StallReport report;
            report.stalledMs = stalled_ms;
            report.lastProgress = last_progress;
            dump_(report);
        }
    }
}

} // namespace espsim
