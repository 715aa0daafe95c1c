/**
 * @file
 * Heap regression tests for the compile pipeline. This binary
 * replaces the global operator new/delete with counting versions, so
 * a test can read the peak live heap bytes and the largest single
 * allocation of one call.
 */

#include <malloc.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "transpile/pipeline.hpp"
#include "util/rng.hpp"
#include "weyl/gates.hpp"

namespace {

std::atomic<long long> g_live{0};
std::atomic<long long> g_peak{0};
std::atomic<size_t> g_largest{0};

void *
countedAlloc(size_t n, size_t align)
{
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (n + align - 1) / align * align)
                  : std::malloc(n == 0 ? 1 : n);
    if (p == nullptr)
        throw std::bad_alloc();
    const long long size = static_cast<long long>(malloc_usable_size(p));
    const long long live =
        g_live.fetch_add(size, std::memory_order_relaxed) + size;
    long long peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak
           && !g_peak.compare_exchange_weak(peak, live,
                                            std::memory_order_relaxed)) {
    }
    size_t largest = g_largest.load(std::memory_order_relaxed);
    while (n > largest
           && !g_largest.compare_exchange_weak(largest, n,
                                               std::memory_order_relaxed)) {
    }
    return p;
}

void
countedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    g_live.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
    std::free(p);
}

void *
countedAllocNothrow(size_t n, size_t align) noexcept
{
    try {
        return countedAlloc(n, align);
    } catch (...) {
        return nullptr;
    }
}

} // namespace

void *operator new(size_t n) { return countedAlloc(n, 0); }
void *operator new[](size_t n) { return countedAlloc(n, 0); }
void *operator new(size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<size_t>(a));
}
void *operator new[](size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<size_t>(a));
}
void *operator new(size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(n, 0);
}
void *operator new[](size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNothrow(n, 0);
}
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, size_t) noexcept { countedFree(p); }
void operator delete[](void *p, size_t) noexcept { countedFree(p); }
void operator delete(void *p, std::align_val_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    countedFree(p);
}
void operator delete(void *p, size_t, std::align_val_t) noexcept
{
    countedFree(p);
}
void operator delete[](void *p, size_t, std::align_val_t) noexcept
{
    countedFree(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace qbasis {
namespace {

/** Ceiling on the peak live heap of WarmTranspilePeakIsBounded's warm
 *  compile: the streamed pipeline measured 1,164,024 bytes at most in
 *  five runs (792,880 of them the returned circuit), and the earlier
 *  pipeline, which built every intermediate circuit, 3,169,576. */
constexpr long long kWarmTranspilePeakBytes = 1300000;

/** The heap over one scope: its peak live bytes above the live bytes
 *  at its start, and its largest single allocation. Nothing else may
 *  allocate meanwhile. */
class HeapWindow
{
  public:
    HeapWindow() : base_(g_live.load())
    {
        g_peak.store(base_);
        g_largest.store(0);
    }

    long long peakBytes() const { return g_peak.load() - base_; }
    size_t largestAllocation() const { return g_largest.load(); }

  private:
    long long base_;
};

/** A seeded circuit on every qubit of `cm`: 2Q gates between qubits
 *  at most two couplings apart (so routing adds some SWAPs, not a
 *  chain per gate) between runs of random rotations. */
Circuit
latticeCircuit(const CouplingMap &cm, int two_qubit_gates, uint64_t seed)
{
    Rng rng(seed);
    const int n = cm.numQubits();
    Circuit c(n);
    for (int k = 0; k < two_qubit_gates; ++k) {
        const int a = static_cast<int>(rng.uniformInt(n));
        const std::vector<int> &near = cm.neighbors(a);
        int b = near[rng.uniformInt(near.size())];
        if (rng.uniformInt(2) == 0) {
            const std::vector<int> &far = cm.neighbors(b);
            const int b2 = far[rng.uniformInt(far.size())];
            if (b2 != a)
                b = b2;
        }
        c.rz(a, rng.uniform(0.0, 6.0));
        c.rx(b, rng.uniform(0.0, 6.0));
        if (rng.uniformInt(3) == 0)
            c.cz(a, b);
        else
            c.cx(a, b);
    }
    return c;
}

/** Two synthetic bases alternating over the edges. */
std::vector<EdgeBasis>
syntheticBases(const CouplingMap &cm)
{
    std::vector<EdgeBasis> bases(cm.edges().size());
    for (size_t e = 0; e < bases.size(); ++e) {
        bases[e].gate = e % 2 == 0 ? sqrtIswapGate()
                                   : canonicalGate(0.45, 0.23, 0.07);
        bases[e].duration_ns = e % 2 == 0 ? 83.0 : 12.0;
        bases[e].label = e % 2 == 0 ? "sqisw" : "ns";
    }
    return bases;
}

TEST(Heap, CountingAllocatorSeesVectors)
{
    const HeapWindow window;
    {
        std::vector<char> block(100000);
        EXPECT_GE(window.peakBytes(), 100000);
    }
    EXPECT_EQ(window.largestAllocation(), 100000u);
}

TEST(Heap, SabreLayoutAllocatesNoGateArray)
{
    const CouplingMap cm = CouplingMap::heavyHex(4, 9);
    const Circuit logical = latticeCircuit(cm, 600, 0x4ea9ull);
    const HeapWindow window;
    const std::vector<int> layout = sabreLayout(logical, cm, 3);
    EXPECT_EQ(layout.size(), static_cast<size_t>(cm.numQubits()));
    // Its passes read only SWAP counts and final layouts: no routed
    // circuit, and no reversed copy of the input.
    EXPECT_LT(window.largestAllocation(), logical.size() * sizeof(Gate));
}

TEST(Heap, WarmTranspilePeakIsBounded)
{
    const CouplingMap cm = CouplingMap::heavyHex(4, 9);
    ASSERT_GE(cm.numQubits(), 100);
    const Circuit logical = latticeCircuit(cm, 600, 0x4ea9ull);
    ASSERT_GE(logical.countTwoQubit(), 500u);
    const std::vector<EdgeBasis> bases = syntheticBases(cm);
    SynthEngine engine(2);
    SharedDecompositionCache cache;
    const SynthClient client{engine, cache};

    // The cold compile publishes every class the warm one needs.
    const size_t cold_size =
        transpileCircuit(logical, cm, bases, client).physical.size();

    long long peak = 0;
    size_t physical = 0;
    {
        const HeapWindow window;
        const TranspileResult warm =
            transpileCircuit(logical, cm, bases, client);
        peak = window.peakBytes();
        physical = warm.physical.size();
    }
    EXPECT_EQ(physical, cold_size);
    const long long returned =
        static_cast<long long>(physical * sizeof(Gate));
    RecordProperty("peak_bytes", std::to_string(peak));
    RecordProperty("returned_gate_bytes", std::to_string(returned));
    std::printf("warm transpile: %zu physical gates (%lld bytes), "
                "peak live heap %lld bytes\n",
                physical, returned, peak);
    EXPECT_LT(peak, kWarmTranspilePeakBytes);
}

} // namespace
} // namespace qbasis
