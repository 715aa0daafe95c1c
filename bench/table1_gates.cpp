/**
 * @file
 * Reproduces Table I: average duration and coherence-limited
 * fidelity of the 2Q basis gates and of the synthesized SWAP and
 * CNOT gates, for
 *   - Baseline:    standard trajectory at xi = 0.005 (sqiSW-like),
 *   - Criterion 1: nonstandard trajectory at xi = 0.04, fastest
 *                  SWAP-in-3 gate,
 *   - Criterion 2: same trajectory, fastest SWAP-in-3 AND CNOT-in-2
 *                  gate.
 *
 * Also reports the Section VIII-D single-qubit duration share and
 * prints an example synthesized decomposition (Fig. 3 shapes).
 *
 * Expected shapes (not absolute numbers): nonstandard basis gates
 * ~8x faster; SWAP ~3x and CNOT ~2-2.8x faster; Criterion 2's CNOT
 * faster than Criterion 1's at a slightly slower SWAP.
 */

#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "synth/engine.hpp"
#include "util/table.hpp"
#include "weyl/gates.hpp"

using namespace qbasis;
using namespace qbasis::bench;

int
main()
{
    std::printf("=== Table I: basis / SWAP / CNOT gate summary ===\n");
    const GridDevice device{paperDeviceParams()};
    std::printf("device: %dx%d grid, %zu edges\n\n", device.rows(),
                device.cols(), device.coupling().edges().size());

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

    const SynthOptions synth;
    SynthEngine engine;
    SharedDecompositionCache cache_b, cache_1, cache_2;
    const SynthClient client_b{engine, cache_b};
    const SynthClient client_1{engine, cache_1};
    const SynthClient client_2{engine, cache_2};
    const auto synth_t0 = std::chrono::steady_clock::now();
    const GateSetSummary sb =
        summarizeGateSet(device, baseline, client_b, synth,
                         kOneQubitNs, kCoherenceNs);
    const GateSetSummary s1 = summarizeGateSet(
        device, crit1, client_1, synth, kOneQubitNs, kCoherenceNs);
    const GateSetSummary s2 = summarizeGateSet(
        device, crit2, client_2, synth, kOneQubitNs, kCoherenceNs);
    const double synth_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - synth_t0)
            .count();
    std::printf("synthesis sweep: %.1f ms on %d engine threads, "
                "%zu Weyl classes for %zu edge summaries\n",
                synth_ms, engine.threadCount(),
                cache_b.size() + cache_1.size() + cache_2.size(),
                3 * device.coupling().edges().size());

    TextTable table({"basis set", "basis (ns / fid)",
                     "SWAP (ns / fid)", "CNOT (ns / fid)"});
    auto row = [&table](const GateSetSummary &s) {
        table.addRow(
            {s.label,
             strformat("%.2f ns / %.3f%%", s.avg_basis_ns,
                       100.0 * s.avg_basis_fidelity),
             strformat("%.1f ns / %.3f%%", s.avg_swap_ns,
                       100.0 * s.avg_swap_fidelity),
             strformat("%.1f ns / %.3f%%", s.avg_cnot_ns,
                       100.0 * s.avg_cnot_fidelity)});
    };
    row(sb);
    row(s1);
    row(s2);
    table.print();

    std::printf("\npaper Table I reference:\n"
                "  Baseline    83.04 ns/99.884%%  329.1 ns/99.541%%  "
                "226.1 ns/99.684%%\n"
                "  Criterion 1 10.15 ns/99.986%%  110.5 ns/99.845%%  "
                "110.5 ns/99.845%%\n"
                "  Criterion 2 10.76 ns/99.985%%  112.3 ns/99.843%%  "
                "81.51 ns/99.886%%\n");

    std::printf("\nspeedups vs baseline (paper: ~8x basis, 3.0x/2.9x"
                " SWAP, 2.0x/2.8x CNOT):\n");
    TextTable speed({"basis set", "basis", "SWAP", "CNOT",
                     "SWAP layers", "CNOT layers", "1Q share of "
                     "SWAP"});
    auto srow = [&](const GateSetSummary &s) {
        speed.addRow({s.label,
                      strformat("%.2fx",
                                sb.avg_basis_ns / s.avg_basis_ns),
                      strformat("%.2fx",
                                sb.avg_swap_ns / s.avg_swap_ns),
                      strformat("%.2fx",
                                sb.avg_cnot_ns / s.avg_cnot_ns),
                      fmtFixed(s.avg_swap_layers, 2),
                      fmtFixed(s.avg_cnot_layers, 2),
                      fmtPercent(s.one_q_share_swap, 3)});
    };
    srow(sb);
    srow(s1);
    srow(s2);
    speed.print();
    std::printf("\npaper Section VIII-D: 1Q gates take ~24%% of the "
                "compiled SWAP duration for the baseline and ~72%% "
                "for the nonstandard sets.\n");
    std::printf("max decomposition infidelity across all edges: "
                "%.2e (baseline) / %.2e (C1) / %.2e (C2) -- "
                "negligible vs decoherence, as the paper assumes.\n",
                sb.max_decomposition_infidelity,
                s1.max_decomposition_infidelity,
                s2.max_decomposition_infidelity);

    // Fig. 3 flavor: show one synthesized SWAP decomposition.
    std::printf("\nexample: SWAP on edge 0 of the Criterion-1 set "
                "(Fig. 3(d) shape):\n");
    const TwoQubitDecomposition dec = client_1.synthesizeBatch(
        {{0, swapGate(), crit1.bases[0].gate}}, synth)[0];
    std::printf("  %d layers of the %.2f ns basis gate %s, "
                "infidelity %.1e\n", dec.layers(),
                crit1.bases[0].duration_ns,
                crit1.edges[0].gate.coords.str(4).c_str(),
                dec.infidelity);
    std::printf("  duration: %.1f ns = %d x %.2f + %d x %.0f (1Q "
                "layers)\n",
                dec.duration(crit1.bases[0].duration_ns, kOneQubitNs),
                dec.layers(), crit1.bases[0].duration_ns,
                dec.layers() + 1, kOneQubitNs);
    return 0;
}
