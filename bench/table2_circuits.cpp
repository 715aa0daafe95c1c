/**
 * @file
 * Reproduces Table II: coherence-limited fidelities of the benchmark
 * circuits (QFT, BV, Cuccaro adder, QAOA) compiled onto the 10x10
 * grid with the three basis-gate sets (baseline, Criterion 1,
 * Criterion 2).
 *
 * Pipeline per cell, matching Section VIII-C: SABRE layout +
 * routing, 1Q merging, per-edge basis translation via the cached
 * numerical synthesizer, ASAP scheduling, and the per-qubit
 * e^{-t/T} fidelity model with T = 80 us and 20 ns 1Q gates.
 *
 * Expected shapes: Criterion 2 >= Criterion 1 > baseline on every
 * row, with the gap growing exponentially in benchmark size.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "apps/bv.hpp"
#include "apps/cuccaro.hpp"
#include "apps/qaoa.hpp"
#include "apps/qft.hpp"
#include "bench_common.hpp"
#include "serve/api.hpp"
#include "synth/engine.hpp"
#include "util/table.hpp"

using namespace qbasis;
using namespace qbasis::bench;

namespace {

struct BenchRow
{
    std::string name;
    Circuit circuit;
};

std::vector<BenchRow>
paperBenchmarks()
{
    std::vector<BenchRow> rows;
    rows.push_back({"qft 10", qftCircuit(10)});
    rows.push_back({"qft 20", qftCircuit(20)});
    for (int n = 9; n <= 99; n += 10)
        rows.push_back({strformat("bv %d", n), bvAllOnesCircuit(n)});
    rows.push_back({"cuccaro 10", cuccaroAdderByTotalQubits(10)});
    rows.push_back({"cuccaro 20", cuccaroAdderByTotalQubits(20)});
    for (int n = 10; n <= 40; n += 10) {
        rows.push_back({strformat("qaoa 0.1 %d", n),
                        qaoaErdosRenyiCircuit(n, 0.1)});
    }
    rows.push_back({"qaoa 0.33 10", qaoaErdosRenyiCircuit(10, 0.33)});
    rows.push_back({"qaoa 0.33 20", qaoaErdosRenyiCircuit(20, 0.33)});
    return rows;
}

} // namespace

int
main()
{
    std::printf("=== Table II: compiled benchmark fidelities ===\n");
    const GridDevice device{paperDeviceParams()};
    std::printf("device: %dx%d grid, %zu edges; T = 80 us, 1Q = 20 "
                "ns\n\n", device.rows(), device.cols(),
                device.coupling().edges().size());

    setLogLevel(LogLevel::Warn);

    const CalibratedBasisSet baseline = calibrateDevice(
        device, kBaselineXi, SelectionCriterion::Criterion1,
        "baseline", calibrationOptions(130.0));
    const CalibratedBasisSet crit1 = calibrateDevice(
        device, kStrongXi, SelectionCriterion::Criterion1,
        "criterion1", calibrationOptions(30.0));
    const CalibratedBasisSet crit2 = calibrateDevice(
        device, kStrongXi, SelectionCriterion::Criterion2,
        "criterion2", calibrationOptions(30.0));

    SynthEngine engine;
    SharedDecompositionCache cache_b, cache_1, cache_2;
    const SynthClient client_b{engine, cache_b};
    const SynthClient client_1{engine, cache_1};
    const SynthClient client_2{engine, cache_2};
    const TranspileOptions topts;

    TextTable table({"benchmark", "baseline", "criterion 1",
                     "criterion 2", "C2 makespan (us)", "swaps"});
    const std::vector<BenchRow> rows = paperBenchmarks();
    for (const BenchRow &row : rows) {
        if (row.circuit.numQubits() > device.numQubits()) {
            std::printf("  [%s skipped: needs %d qubits, device has "
                        "%d]\n", row.name.c_str(),
                        row.circuit.numQubits(), device.numQubits());
            continue;
        }
        CompileRequest req(0, 0, row.name, row.circuit);
        req.options.transpile = topts;
        req.options.t_1q_ns = kOneQubitNs;
        req.options.t_coherence_ns = kCoherenceNs;
        const CompiledCircuitResult rb =
            runCompile(device, baseline, client_b, req).result;
        const CompiledCircuitResult r1 =
            runCompile(device, crit1, client_1, req).result;
        const CompiledCircuitResult r2 =
            runCompile(device, crit2, client_2, req).result;
        table.addRow({row.name, fmtPercent(rb.fidelity, 3),
                      fmtPercent(r1.fidelity, 3),
                      fmtPercent(r2.fidelity, 3),
                      fmtFixed(r2.makespan_ns / 1e3, 2),
                      strformat("%zu", r2.swaps_inserted)});
        std::printf("  [%s done]\n", row.name.c_str());
    }
    std::printf("\n");
    table.print();

    std::printf("\npaper Table II reference (baseline / C1 / C2):\n"
                "  qft 10: 58.2/65.6/70.8%%   qft 20: "
                "1.33/6.03/9.94%%\n"
                "  bv 9: 88.7/94.4/95.3%%     bv 99: "
                "0.06/6.26/7.97%%\n"
                "  cuccaro 10: 21.5/46.3/52.6%%  cuccaro 20: "
                "0.80/7.68/11.8%%\n"
                "  qaoa 0.1 10: 97.2/98.5/98.8%%  qaoa 0.1 40: "
                "0.006/5.59/8.56%%\n"
                "  qaoa 0.33 10: 66.1/81.0/84.3%%  qaoa 0.33 20: "
                "15.0/42.2/48.2%%\n");
    auto hit_rate = [](const SharedDecompositionCache &c) {
        const double total =
            static_cast<double>(c.hits() + c.misses());
        return total > 0.0 ? 100.0 * static_cast<double>(c.hits())
                                 / total
                           : 0.0;
    };
    std::printf("\nsynthesis cache (Weyl classes): baseline %zu "
                "entries (%llu hits, %.1f%%), C1 %zu (%llu, %.1f%%), "
                "C2 %zu (%llu, %.1f%%) on %d engine threads\n",
                cache_b.size(),
                static_cast<unsigned long long>(cache_b.hits()),
                hit_rate(cache_b), cache_1.size(),
                static_cast<unsigned long long>(cache_1.hits()),
                hit_rate(cache_1), cache_2.size(),
                static_cast<unsigned long long>(cache_2.hits()),
                hit_rate(cache_2), engine.threadCount());
    return 0;
}
