/**
 * @file
 * heapprof: an LD_PRELOAD heap profiler for any qbasis binary.
 *
 *   LD_PRELOAD=build/libheapprof.so build/bench_serve --smoke
 *
 * It wraps glibc's malloc family and keeps three process-wide
 * counters: live bytes, the peak of live bytes, and the number of
 * allocations. Sizes are malloc_usable_size() of each block, so they
 * read what the allocator handed out, not what was asked for. At
 * exit it prints two lines to stderr:
 *
 *   heapprof: peak_bytes=<n> live_bytes=<n> allocs=<n>
 *   heapprof: arena_bytes=<n> free_bytes=<n> mmap_bytes=<n>
 *
 * The second is glibc's mallinfo2() over all arenas at exit: the
 * bytes the allocator holds from the kernel in its arenas (arena),
 * how much of that is free chunks (free), and the bytes in mmap'd
 * blocks (mmap). Resident memory follows what the allocator holds,
 * not what is live, so two runs with equal live peaks can differ in
 * RSS by their arena bytes.
 *
 * With HEAPPROF_BACKTRACE_BYTES=<n> in the environment it also
 * prints the size and a backtrace (backtrace_symbols_fd) of every
 * allocation of at least n bytes, to find who allocates the large
 * blocks of a profile.
 *
 * CMake builds this as its own shared library (target heapprof); it
 * is never linked into qbasis. glibc only: it forwards to the
 * __libc_* entry points.
 */

#include <execinfo.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern "C" {
void *__libc_malloc(size_t);
void __libc_free(void *);
void *__libc_calloc(size_t, size_t);
void *__libc_realloc(void *, size_t);
void *__libc_memalign(size_t, size_t);
}

namespace {

std::atomic<long long> g_live{0};
std::atomic<long long> g_peak{0};
std::atomic<unsigned long long> g_allocs{0};
size_t g_backtrace_bytes = 0; ///< 0: no backtraces.
__thread int t_in_backtrace __attribute__((tls_model("initial-exec")));

/** printf to stderr through a stack buffer (no stdio buffering, and
 *  no allocation for these formats). */
__attribute__((format(printf, 1, 2))) void
say(const char *fmt, ...)
{
    char line[256];
    va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(line, sizeof line, fmt, args);
    va_end(args);
    if (n > 0)
        (void)!write(2, line, std::min(static_cast<size_t>(n),
                                       sizeof line - 1));
}

void
noteAlloc(void *p, size_t requested)
{
    if (p == nullptr)
        return;
    const long long size = static_cast<long long>(malloc_usable_size(p));
    const long long live =
        g_live.fetch_add(size, std::memory_order_relaxed) + size;
    long long peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak
           && !g_peak.compare_exchange_weak(peak, live,
                                            std::memory_order_relaxed)) {
    }
    g_allocs.fetch_add(1, std::memory_order_relaxed);

    if (g_backtrace_bytes != 0 && requested >= g_backtrace_bytes
        && !t_in_backtrace) {
        // backtrace() may allocate on first use; the flag keeps that
        // allocation from printing a trace of its own.
        t_in_backtrace = 1;
        say("heapprof: %zu bytes (live %lld, allocs %llu)\n",
            requested, live, g_allocs.load(std::memory_order_relaxed));
        void *frames[32];
        const int depth = backtrace(frames, 32);
        backtrace_symbols_fd(frames, depth, 2);
        t_in_backtrace = 0;
    }
}

void
noteFree(void *p)
{
    if (p != nullptr)
        g_live.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
}

__attribute__((constructor)) void
start()
{
    if (const char *v = std::getenv("HEAPPROF_BACKTRACE_BYTES"))
        g_backtrace_bytes = std::strtoull(v, nullptr, 10);
}

__attribute__((destructor)) void
finish()
{
    say("heapprof: peak_bytes=%lld live_bytes=%lld allocs=%llu\n",
        g_peak.load(), g_live.load(), g_allocs.load());
    const struct mallinfo2 info = mallinfo2();
    say("heapprof: arena_bytes=%zu free_bytes=%zu mmap_bytes=%zu\n",
        info.arena, info.fordblks, info.hblkhd);
}

} // namespace

extern "C" {

void *
malloc(size_t n)
{
    void *p = __libc_malloc(n);
    noteAlloc(p, n);
    return p;
}

void
free(void *p)
{
    noteFree(p);
    __libc_free(p);
}

void *
calloc(size_t count, size_t n)
{
    void *p = __libc_calloc(count, n);
    noteAlloc(p, count * n);
    return p;
}

void *
realloc(void *p, size_t n)
{
    if (p == nullptr)
        return malloc(n);
    if (n == 0) {
        free(p);
        return nullptr;
    }
    const long long old = static_cast<long long>(malloc_usable_size(p));
    void *q = __libc_realloc(p, n);
    if (q != nullptr) {
        g_live.fetch_sub(old, std::memory_order_relaxed);
        noteAlloc(q, n);
    }
    return q;
}

void *
memalign(size_t align, size_t n)
{
    void *p = __libc_memalign(align, n);
    noteAlloc(p, n);
    return p;
}

void *
aligned_alloc(size_t align, size_t n)
{
    return memalign(align, n);
}

int
posix_memalign(void **out, size_t align, size_t n)
{
    if (align < sizeof(void *) || (align & (align - 1)) != 0)
        return EINVAL;
    void *p = memalign(align, n);
    if (p == nullptr)
        return ENOMEM;
    *out = p;
    return 0;
}

void *
valloc(size_t n)
{
    return memalign(static_cast<size_t>(sysconf(_SC_PAGESIZE)), n);
}

void *
pvalloc(size_t n)
{
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return memalign(page, (n + page - 1) / page * page);
}

} // extern "C"
