#include "common/job_pool.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace espsim
{

JobPool::JobPool(unsigned threads)
    : threads_(threads == 0 ? defaultJobs() : threads)
{
    if (threads_ <= 1)
        return; // inline mode: no workers at all
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

JobPool::~JobPool()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (firstError_) {
            // Can't rethrow from a destructor; the caller skipped the
            // wait() that would have surfaced this.
            warn("JobPool destroyed with an unretrieved job exception "
                 "(call wait() to propagate it)");
            firstError_ = nullptr;
        }
        if (workers_.empty())
            return;
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

std::size_t
JobPool::droppedExceptions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return droppedErrors_;
}

void
JobPool::runGuarded(std::function<void()> &job)
{
    std::exception_ptr error;
    try {
        job();
    } catch (...) {
        error = std::current_exception();
    }
    if (!error)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (firstError_)
        ++droppedErrors_;
    else
        firstError_ = error;
}

void
JobPool::submit(std::function<void()> job)
{
    if (workers_.empty()) {
        // jobs=1: execute in submission order, old serial path — but
        // under the same exception contract as the threaded pool.
        runGuarded(job);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
    }
    work_cv_.notify_one();
}

void
JobPool::drain()
{
    if (workers_.empty())
        return;
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock,
                  [this] { return queue_.empty() && inflight_ == 0; });
}

void
JobPool::wait()
{
    drain();
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        error = firstError_;
        firstError_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
JobPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(
                lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            job = std::move(queue_.front());
            queue_.pop_front();
            ++inflight_;
        }
        runGuarded(job);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inflight_;
            if (queue_.empty() && inflight_ == 0)
                done_cv_.notify_all();
        }
    }
}

unsigned
JobPool::defaultJobs()
{
    if (const char *env = std::getenv("ESPSIM_JOBS")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<unsigned>(std::min(v, 1024ul));
        warn("ignoring malformed ESPSIM_JOBS='%s'", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

} // namespace espsim
