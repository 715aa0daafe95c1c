/**
 * @file
 * Tests for the util library: RNG determinism and distributions,
 * statistics, table rendering, logging failure modes, the thread
 * pool and its task groups.
 */

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace qbasis {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    std::vector<std::atomic<int>> counts(257);
    for (auto &c : counts)
        c.store(0);
    pool.parallelFor(counts.size(),
                     [&](size_t i) { counts[i].fetch_add(1); });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, NestedSubmissionFromWorkers)
{
    // Tasks submitting tasks (the engine's depth waves do this) must
    // not deadlock, including on a single-thread pool.
    for (int threads : {1, 3}) {
        ThreadPool pool(threads);
        std::atomic<int> done{0};
        pool.parallelFor(8, [&](size_t) {
            pool.submit([&] { done.fetch_add(1); });
        });
        // Drain: the nested tasks have no completion handle, so spin
        // briefly through another barrier.
        while (done.load() < 8)
            pool.parallelFor(1, [](size_t) {});
        EXPECT_EQ(done.load(), 8);
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(4,
                                  [](size_t i) {
                                      if (i == 2)
                                          fatal("boom %zu", i);
                                  }),
                 std::runtime_error);
}

/** How long a wait that must not hang may take before its test fails:
 *  a thread that sleeps while its own work sits queued never returns. */
constexpr std::chrono::seconds kWatchdog(30);

/** Parks every worker of a pool on a latch until release(). */
class WorkerPark
{
  public:
    explicit WorkerPark(ThreadPool &pool)
    {
        const std::shared_future<void> open = open_.get_future().share();
        for (int w = 0; w < pool.size(); ++w) {
            pool.submit([this, open] {
                parked_.fetch_add(1);
                open.wait();
            });
        }
        while (parked_.load() < pool.size())
            std::this_thread::yield();
    }

    ~WorkerPark() { release(); }

    void
    release()
    {
        if (!released_) {
            released_ = true;
            open_.set_value();
        }
    }

  private:
    std::promise<void> open_;
    std::atomic<int> parked_{0};
    bool released_ = false;
};

/** Thread ids recorded by tasks, safe to append from any thread. */
struct ThreadLog
{
    std::mutex mutex;
    std::vector<std::thread::id> ids;

    void
    record()
    {
        std::lock_guard<std::mutex> lock(mutex);
        ids.push_back(std::this_thread::get_id());
    }
};

TEST(TaskGroup, CallerRunsItsGroupWhileEveryWorkerIsBusy)
{
    ThreadLog log; // outlives the pool's workers
    ThreadPool pool(1);
    WorkerPark park(pool);
    auto caller = std::async(std::launch::async, [&] {
        TaskGroup group(pool);
        for (int i = 0; i < 8; ++i)
            group.run([&log] { log.record(); });
        group.wait();
        return std::this_thread::get_id();
    });
    const bool returned =
        caller.wait_for(kWatchdog) == std::future_status::ready;
    // Unpark either way: a wait() that sleeps on queued tasks is then
    // finished by the worker, and the test fails instead of hanging.
    park.release();
    const std::thread::id caller_id = caller.get();
    ASSERT_TRUE(returned) << "wait() slept while its tasks were queued";
    ASSERT_EQ(log.ids.size(), 8u);
    for (const std::thread::id id : log.ids)
        EXPECT_EQ(id, caller_id);
}

TEST(TaskGroup, CallerRunsOnlyItsOwnGroup)
{
    ThreadLog own, other_group, background; // outlive the workers
    auto pool = std::make_unique<ThreadPool>(1);
    WorkerPark park(*pool);
    TaskGroup b(*pool);
    for (int i = 0; i < 4; ++i) {
        b.run([&other_group] { other_group.record(); });
        pool->submit([&background] { background.record(); },
                     TaskPriority::Background);
    }
    ThreadPool &p = *pool;
    auto caller = std::async(std::launch::async, [&] {
        TaskGroup a(p);
        for (int i = 0; i < 4; ++i)
            a.run([&own] { own.record(); });
        a.wait();
        return std::this_thread::get_id();
    });
    const bool returned =
        caller.wait_for(kWatchdog) == std::future_status::ready;
    // The worker is parked, so nothing of group B or the Background
    // lane can have run unless the caller ran it.
    {
        std::lock_guard<std::mutex> lock(other_group.mutex);
        EXPECT_TRUE(other_group.ids.empty());
    }
    {
        std::lock_guard<std::mutex> lock(background.mutex);
        EXPECT_TRUE(background.ids.empty());
    }
    park.release();
    const std::thread::id caller_id = caller.get();
    ASSERT_TRUE(returned) << "wait() slept while its tasks were queued";
    b.wait();
    pool.reset(); // workers drain the Background lane before joining
    ASSERT_EQ(own.ids.size(), 4u);
    for (const std::thread::id id : own.ids)
        EXPECT_EQ(id, caller_id);
    ASSERT_EQ(other_group.ids.size(), 4u);
    for (const std::thread::id id : other_group.ids)
        EXPECT_NE(id, caller_id);
    ASSERT_EQ(background.ids.size(), 4u);
    for (const std::thread::id id : background.ids)
        EXPECT_NE(id, caller_id);
}

TEST(TaskGroup, ParallelForNestsInsideAPoolTask)
{
    // The only worker runs the outer task and must finish the inner
    // fork-join itself. A pool whose join sleeps deadlocks here; it is
    // leaked on timeout so the test fails instead of hanging.
    auto pool = std::make_unique<ThreadPool>(1);
    auto sum = std::make_shared<std::promise<size_t>>();
    std::future<size_t> result = sum->get_future();
    ThreadPool &p = *pool;
    pool->submit([&p, sum] {
        std::atomic<size_t> total{0};
        p.parallelFor(16, [&total](size_t i) { total.fetch_add(i); });
        sum->set_value(total.load());
    });
    if (result.wait_for(kWatchdog) != std::future_status::ready) {
        (void)pool.release();
        FAIL() << "parallelFor inside a pool task did not return";
    }
    EXPECT_EQ(result.get(), 120u);
}

TEST(TaskGroup, TasksThatAddTasksAreWaitedFor)
{
    {
        // The worker's task adds a child only after the caller has run
        // out of queued tasks: wait() must outlast the running parent
        // and then run or await the child.
        ThreadPool pool(1);
        TaskGroup group(pool);
        std::atomic<int> done{0};
        std::promise<void> started;
        group.run([&] {
            started.set_value();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            group.run([&done] { done.fetch_add(1); });
            done.fetch_add(1);
        });
        started.get_future().wait();
        group.wait();
        EXPECT_EQ(done.load(), 2);
    }
    // Every task of a depth-6 binary tree adds its two children to the
    // group before it counts itself.
    for (int threads : {1, 3}) {
        ThreadPool pool(threads);
        TaskGroup group(pool);
        std::atomic<int> done{0};
        std::function<void(int)> node = [&](int depth) {
            if (depth > 0) {
                for (int child = 0; child < 2; ++child)
                    group.run([&node, depth] { node(depth - 1); });
            }
            done.fetch_add(1);
        };
        group.run([&node] { node(6); });
        group.wait();
        EXPECT_EQ(done.load(), 127) << threads << " workers";
    }
}

TEST(Rng, DeriveSeedIsDeterministicAndDecorrelated)
{
    // Same inputs -> same stream; nearby stream indices -> unrelated
    // seeds (the property the per-restart synthesis streams rely on).
    EXPECT_EQ(Rng::deriveSeed(7, 3), Rng::deriveSeed(7, 3));
    EXPECT_NE(Rng::deriveSeed(7, 3), Rng::deriveSeed(7, 4));
    EXPECT_NE(Rng::deriveSeed(7, 3), Rng::deriveSeed(8, 3));
    // Consecutive streams should not produce correlated first draws.
    double prev = Rng(Rng::deriveSeed(1234, 0)).uniform();
    int distinct = 0;
    for (uint64_t k = 1; k < 32; ++k) {
        const double cur = Rng(Rng::deriveSeed(1234, k)).uniform();
        if (std::abs(cur - prev) > 1e-6)
            ++distinct;
        prev = cur;
    }
    EXPECT_GE(distinct, 30);
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntervalRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanConverges)
{
    Rng rng(11);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.normal());
    EXPECT_NEAR(s.mean(), 0.0, 0.02);
    EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalShifted)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.normal(5.0, 0.25));
    EXPECT_NEAR(s.mean(), 5.0, 0.01);
    EXPECT_NEAR(s.stddev(), 0.25, 0.01);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(5);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 8000; ++i)
        counts[rng.uniformInt(8)]++;
    for (int c : counts)
        EXPECT_GT(c, 800);
}

TEST(Rng, UniformIntZeroPanics)
{
    Rng rng(5);
    EXPECT_THROW(rng.uniformInt(0), std::logic_error);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(99);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePermutes)
{
    Rng rng(21);
    std::vector<size_t> v{0, 1, 2, 3, 4, 5, 6, 7};
    auto orig = v;
    rng.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, orig);
}

TEST(RunningStats, Basics)
{
    RunningStats s;
    s.add(1.0);
    s.add(2.0);
    s.add(3.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_DOUBLE_EQ(s.sum(), 6.0);
    EXPECT_NEAR(s.stddev(), 1.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, VectorHelpers)
{
    std::vector<double> v{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    EXPECT_DOUBLE_EQ(median(v), 2.5);
    EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MedianOdd)
{
    std::vector<double> v{9.0, 1.0, 5.0};
    EXPECT_DOUBLE_EQ(median(v), 5.0);
}

TEST(TextTable, RendersAllCells)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addSeparator();
    t.addRow({"beta", "22"});
    const std::string s = t.render();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("beta"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
    EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(TextTable, ArityMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::logic_error);
}

TEST(Format, FixedAndPercent)
{
    EXPECT_EQ(fmtFixed(1.23456, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.123456, 3), "12.3%");
}

TEST(Logging, FatalThrowsRuntimeError)
{
    EXPECT_THROW(fatal("user error %d", 42), std::runtime_error);
}

TEST(Logging, PanicThrowsLogicError)
{
    EXPECT_THROW(panic("bug %s", "here"), std::logic_error);
}

TEST(Logging, StrformatFormats)
{
    EXPECT_EQ(strformat("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
}

} // namespace
} // namespace qbasis
