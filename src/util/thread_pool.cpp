#include "util/thread_pool.hpp"

#include <chrono>
#include <exception>
#include <string>

#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace qbasis {

namespace {

/** Worker index of the current thread, or SIZE_MAX off-pool. */
thread_local size_t tls_worker_index = SIZE_MAX;
/** Pool owning the current worker thread. */
thread_local const void *tls_worker_pool = nullptr;

} // namespace

int
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads)
{
    if (threads < 0)
        fatal("ThreadPool: negative thread count %d", threads);
    if (threads == 0)
        threads = hardwareThreads();
    workers_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] {
            setTraceThreadName("pool-worker-" + std::to_string(i));
            workerLoop(static_cast<size_t>(i));
        });
}

ThreadPool::~ThreadPool()
{
    stop_.store(true);
    sleep_cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task, TaskPriority priority)
{
    size_t slot;
    if (tls_worker_pool == this) {
        // Worker threads push to their own deque for locality.
        slot = tls_worker_index;
    } else {
        slot = submit_counter_.fetch_add(1) % workers_.size();
    }
    {
        std::lock_guard<std::mutex> lock(workers_[slot]->mutex);
        if (priority == TaskPriority::Background)
            workers_[slot]->background.push_back(std::move(task));
        else
            workers_[slot]->tasks.push_back(std::move(task));
    }
    // Serialize against the worker's empty-rescan before notifying:
    // without this a push landing between a worker's rescan and its
    // wait() would have its notification dropped, stalling the task
    // for a full wait_for timeout.
    { std::lock_guard<std::mutex> lock(sleep_mutex_); }
    sleep_cv_.notify_one();
}

bool
ThreadPool::tryRunLane(size_t self, bool background)
{
    std::function<void()> task;
    {
        // Own deque first (front; most recently local-submitted work
        // stays hot at the back for thieves).
        Worker &w = *workers_[self];
        std::lock_guard<std::mutex> lock(w.mutex);
        auto &lane = background ? w.background : w.tasks;
        if (!lane.empty()) {
            task = std::move(lane.front());
            lane.pop_front();
        }
    }
    if (!task) {
        // Steal from the back of a sibling deque.
        const size_t n = workers_.size();
        for (size_t k = 1; k < n && !task; ++k) {
            Worker &v = *workers_[(self + k) % n];
            std::lock_guard<std::mutex> lock(v.mutex);
            auto &lane = background ? v.background : v.tasks;
            if (!lane.empty()) {
                task = std::move(lane.back());
                lane.pop_back();
            }
        }
    }
    if (!task)
        return false;
    task();
    return true;
}

bool
ThreadPool::tryRun(size_t self)
{
    // Exhaust the Normal lane pool-wide before taking a Background
    // task: recalibration work never outcompetes the serving path
    // for a free worker.
    return tryRunLane(self, /*background=*/false)
           || tryRunLane(self, /*background=*/true);
}

void
ThreadPool::workerLoop(size_t self)
{
    tls_worker_index = self;
    tls_worker_pool = this;
    for (;;) {
        if (tryRun(self))
            continue;
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        if (stop_.load())
            break;
        // Re-check for work while holding the sleep lock; submit()
        // touches the sleep lock after pushing, so any push landing
        // after this rescan notifies once we are in wait_for below.
        bool any = false;
        for (const auto &w : workers_) {
            std::lock_guard<std::mutex> wl(w->mutex);
            if (!w->tasks.empty() || !w->background.empty()) {
                any = true;
                break;
            }
        }
        if (any)
            continue;
        sleep_cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
    tls_worker_pool = nullptr;
    tls_worker_index = SIZE_MAX;
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)> &fn,
                        TaskPriority priority)
{
    std::vector<std::exception_ptr> errors(n);
    TaskGroup group(*this, priority);
    for (size_t i = 0; i < n; ++i) {
        group.run([&fn, &errors, i] {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    group.wait();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

struct TaskGroup::State
{
    std::mutex mutex;
    /** Signalled when a task is queued and when the last one ends. */
    std::condition_variable cv;
    std::deque<std::function<void()>> queued;
    size_t unfinished = 0; ///< Queued plus running tasks.

    /** Run the oldest queued task; false when none is queued. A task
     *  that throws ends the process here, as a pool task does. */
    bool
    runOne() noexcept
    {
        {
            std::function<void()> task;
            {
                std::lock_guard<std::mutex> lock(mutex);
                if (queued.empty())
                    return false;
                task = std::move(queued.front());
                queued.pop_front();
            }
            task();
        } // The task's captures are gone before it counts as done.
        std::lock_guard<std::mutex> lock(mutex);
        if (--unfinished == 0)
            cv.notify_all();
        return true;
    }
};

TaskGroup::TaskGroup(ThreadPool &pool, TaskPriority priority)
    : pool_(pool), priority_(priority),
      state_(std::make_shared<State>())
{
}

TaskGroup::~TaskGroup() { wait(); }

void
TaskGroup::run(std::function<void()> task)
{
    State &st = *state_;
    std::lock_guard<std::mutex> lock(st.mutex);
    // Submit the ticket first, under the lock so it cannot look
    // before the task is queued: if the push then throws, run() has
    // queued nothing and only a spare ticket is left, which is
    // harmless because tickets take whichever task is oldest.
    pool_.submit([state = state_] { state->runOne(); }, priority_);
    st.queued.push_back(std::move(task));
    ++st.unfinished;
    st.cv.notify_all();
}

void
TaskGroup::wait()
{
    State &st = *state_;
    for (;;) {
        if (st.runOne())
            continue;
        std::unique_lock<std::mutex> lock(st.mutex);
        if (st.unfinished == 0)
            return;
        if (!st.queued.empty())
            continue;
        // Everything left is running on a worker: sleep until a task
        // is queued or the last one ends. Only this sleep is blocked
        // time; the tasks run above have spans of their own.
        QBASIS_TRACE_SCOPE("pool.wait");
        st.cv.wait(lock, [&st] {
            return st.unfinished == 0 || !st.queued.empty();
        });
    }
}

} // namespace qbasis
