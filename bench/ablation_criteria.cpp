/**
 * @file
 * Ablation of the selection criterion (Section V-E): compare the
 * basis gates and synthesized SWAP/CNOT costs produced by
 * Criterion 1, Criterion 2, the perfect-entangler criterion, and
 * PE+SWAP3, on a sample of device edges at the strong amplitude.
 */

#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"
#include "weyl/gates.hpp"
#include "weyl/invariants.hpp"

using namespace qbasis;
using namespace qbasis::bench;

int
main()
{
    std::printf("=== Criterion ablation (Section V-E) ===\n\n");
    setLogLevel(LogLevel::Warn);

    GridDeviceParams dp = paperDeviceParams();
    const GridDevice device{dp};

    DeviceCalibrationOptions copts = calibrationOptions(30.0);
    if (copts.edge_limit < 0)
        copts.edge_limit = 12; // a representative sample suffices

    const SelectionCriterion criteria[] = {
        SelectionCriterion::Criterion1,
        SelectionCriterion::Criterion2,
        SelectionCriterion::PerfectEntangler,
        SelectionCriterion::PeAndSwap3,
    };

    ThreadPool pool;
    SynthEngine engine(pool);
    TextTable table({"criterion", "basis (ns)", "SWAP (ns)",
                     "CNOT (ns)", "SWAP layers", "CNOT layers",
                     "min ep"});
    for (SelectionCriterion crit : criteria) {
        const CalibratedBasisSet set =
            calibrateDevice(pool, device, kStrongXi, crit,
                            criterionName(crit), copts);
        SharedDecompositionCache cache;
        const SynthClient client{engine, cache};
        const GateSetSummary s = summarizeGateSet(
            device, set, client, SynthOptions{}, kOneQubitNs,
            kCoherenceNs);
        double min_ep = 1.0;
        for (int e = 0; e < copts.edge_limit; ++e) {
            min_ep = std::min(
                min_ep, entanglingPower(set.edges[e].gate.coords));
        }
        table.addRow({criterionName(crit),
                      fmtFixed(s.avg_basis_ns, 2),
                      fmtFixed(s.avg_swap_ns, 1),
                      fmtFixed(s.avg_cnot_ns, 1),
                      fmtFixed(s.avg_swap_layers, 2),
                      fmtFixed(s.avg_cnot_layers, 2),
                      fmtFixed(min_ep, 4)});
    }
    table.print();

    std::printf("\nreading: Criterion 1 gives the fastest SWAP; "
                "Criterion 2 trades a slightly slower basis gate "
                "for 2-layer CNOTs (the paper's Table I pattern); "
                "PE-only selects faster gates that may need deeper "
                "SWAP/CNOT circuits.\n");
    return 0;
}
