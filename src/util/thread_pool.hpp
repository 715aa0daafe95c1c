#ifndef QBASIS_UTIL_THREAD_POOL_HPP
#define QBASIS_UTIL_THREAD_POOL_HPP

/**
 * @file
 * Work-stealing thread pool for the synthesis engine.
 *
 * Each worker owns a deque of tasks: it pops work from the front of
 * its own deque and, when empty, steals from the back of a sibling's
 * deque (classic Chase-Lev shape, implemented with per-deque locks --
 * task bodies here run for milliseconds, so queue contention is
 * negligible and correctness stays obvious). External threads submit
 * round-robin across workers; worker threads submit to their own
 * deque for locality.
 *
 * Fork-joins go through a TaskGroup (below): the thread that waits
 * on one runs the group's queued tasks itself, so it computes
 * instead of idling, and a pool worker may fork and join too.
 * parallelFor() is the simple fork-join case; the synthesis engine's
 * batch is a group whose tasks add their depth waves to it.
 *
 * Two priority lanes: every worker owns a Normal and a Background
 * deque, and both the local pop and the steal scan exhaust Normal
 * work pool-wide before touching a Background task. Background is
 * for work that must not starve the serving path -- recalibration
 * pipelines submit there so compile-path synthesis restarts always
 * win a free worker first. A Background task that is already running
 * is never preempted; the lane only biases dequeue order, so overall
 * throughput (and determinism) is unchanged.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qbasis {

/** Dequeue lane of a submitted task. */
enum class TaskPriority
{
    Normal,     ///< Serving path (default); always dequeued first.
    Background, ///< Maintenance work (recalibration pipelines);
                ///< runs only when no Normal task is pending.
};

/** Fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    /**
     * Start `threads` workers; 0 means hardwareThreads().
     * The pool is non-copyable and joins all workers on destruction.
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task. Safe to call from worker threads. */
    void submit(std::function<void()> task,
                TaskPriority priority = TaskPriority::Normal);

    /**
     * Run fn(i) for i in [0, n) as one TaskGroup and return when all
     * are done; the calling thread runs indices too, so it may be a
     * pool worker. Exceptions thrown by tasks are captured and the
     * one with the smallest index is rethrown on the caller (results
     * for other indices are still completed first). The group's
     * tickets go on `priority`'s lane.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                     TaskPriority priority = TaskPriority::Normal);

    /** Number of worker threads. */
    int size() const { return static_cast<int>(threads_.size()); }

    /** Detected hardware concurrency (at least 1). */
    static int hardwareThreads();

  private:
    struct Worker
    {
        std::deque<std::function<void()>> tasks;
        std::deque<std::function<void()>> background;
        std::mutex mutex;
    };

    void workerLoop(size_t self);
    bool tryRun(size_t self);
    bool tryRunLane(size_t self, bool background);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;
    std::mutex sleep_mutex_;
    std::condition_variable sleep_cv_;
    std::atomic<bool> stop_{false};
    std::atomic<uint64_t> submit_counter_{0};
};

/**
 * A fork-join batch on a pool, waited for by the thread that owns it.
 *
 * run() queues a task on the group and submits one ticket on the
 * group's lane; a ticket that a worker dequeues runs the group's
 * oldest not-yet-started task, if any is left. wait() runs the
 * group's not-yet-started tasks on the calling thread and sleeps
 * (under a `pool.wait` span) only while every remaining task is
 * already running on a worker. The caller only ever runs its own
 * group's tasks: never another group's, and never a task submitted
 * straight to the pool, such as a Background-lane recalibration
 * pipeline.
 *
 * A running task may add tasks to its own group; wait() returns once
 * every task ever added has finished. Tasks must not throw (as with
 * ThreadPool::submit, an escaping exception terminates the process).
 * Only the owner calls wait(); the destructor waits too, so an owner
 * that unwinds never leaves a task running over its stack.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool,
                       TaskPriority priority = TaskPriority::Normal);
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Queue a task. Safe to call from the group's own tasks. If it
     *  throws, the task was not queued. */
    void run(std::function<void()> task);

    /** Run or await every task of the group, including those added
     *  while waiting. */
    void wait();

  private:
    struct State;

    ThreadPool &pool_;
    TaskPriority priority_;
    /** Shared with the tickets, which may outlive the group. */
    std::shared_ptr<State> state_;
};

} // namespace qbasis

#endif // QBASIS_UTIL_THREAD_POOL_HPP
