/**
 * @file
 * Ablation of the Section VII claim: starting the numerical gate
 * synthesis at the analytically predicted depth (Theorem 5.1 +
 * Section V regions) speeds up compilation versus NuOp's escalate-
 * from-one-layer search, with identical results.
 *
 * Uses google-benchmark for the timing comparison.
 */

#include <benchmark/benchmark.h>

#include "weyl/gates.hpp"

#include "serial_synth.hpp"

using namespace qbasis;

namespace {

const Mat4 &
nonstandardBasis()
{
    static const Mat4 basis = canonicalGate(0.26, 0.24, 0.03);
    return basis;
}

void
BM_SynthesizeSwapWithDepthPrediction(benchmark::State &state)
{
    SynthOptions opts;
    opts.use_depth_prediction = true;
    for (auto _ : state) {
        const TwoQubitDecomposition d =
            synthesizeGate(swapGate(), nonstandardBasis(), opts);
        benchmark::DoNotOptimize(d.infidelity);
        if (d.infidelity > 1e-7)
            state.SkipWithError("synthesis failed");
    }
}
BENCHMARK(BM_SynthesizeSwapWithDepthPrediction)
    ->Unit(benchmark::kMillisecond);

void
BM_SynthesizeSwapEscalateFromOne(benchmark::State &state)
{
    SynthOptions opts;
    opts.use_depth_prediction = false;
    for (auto _ : state) {
        const TwoQubitDecomposition d =
            synthesizeGate(swapGate(), nonstandardBasis(), opts);
        benchmark::DoNotOptimize(d.infidelity);
        if (d.infidelity > 1e-7)
            state.SkipWithError("synthesis failed");
    }
}
BENCHMARK(BM_SynthesizeSwapEscalateFromOne)
    ->Unit(benchmark::kMillisecond);

void
BM_SynthesizeCnotWithDepthPrediction(benchmark::State &state)
{
    SynthOptions opts;
    opts.use_depth_prediction = true;
    for (auto _ : state) {
        const TwoQubitDecomposition d =
            synthesizeGate(cnotGate(), nonstandardBasis(), opts);
        benchmark::DoNotOptimize(d.infidelity);
    }
}
BENCHMARK(BM_SynthesizeCnotWithDepthPrediction)
    ->Unit(benchmark::kMillisecond);

void
BM_SynthesizeCnotEscalateFromOne(benchmark::State &state)
{
    SynthOptions opts;
    opts.use_depth_prediction = false;
    for (auto _ : state) {
        const TwoQubitDecomposition d =
            synthesizeGate(cnotGate(), nonstandardBasis(), opts);
        benchmark::DoNotOptimize(d.infidelity);
    }
}
BENCHMARK(BM_SynthesizeCnotEscalateFromOne)
    ->Unit(benchmark::kMillisecond);

void
BM_KakDecomposition(benchmark::State &state)
{
    const Mat4 u = canonicalGate(0.31, 0.17, 0.09);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cartanCoords(u));
    }
}
BENCHMARK(BM_KakDecomposition)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
