/**
 * @file
 * End-to-end compilation example: calibrate per-edge basis gates on
 * a small grid device (baseline XY gates vs nonstandard strong-drive
 * gates), compile a QAOA MaxCut circuit with SABRE + per-edge basis
 * translation, and compare the coherence-limited fidelities.
 */

#include <cstdio>

#include "apps/qaoa.hpp"
#include "core/experiment.hpp"
#include "serve/api.hpp"
#include "util/table.hpp"

using namespace qbasis;

int
main()
{
    std::printf("== compiling QAOA with heterogeneous basis gates "
                "==\n\n");
    setLogLevel(LogLevel::Warn);

    GridDeviceParams dp;
    dp.rows = 2;
    dp.cols = 3;
    const GridDevice device{dp};

    std::printf("calibrating %zu edges (baseline xi = 0.005 and "
                "nonstandard xi = 0.04)...\n",
                device.coupling().edges().size());

    // The pool calibrates the edges in parallel, then runs synthesis.
    ThreadPool pool;
    DeviceCalibrationOptions copts;
    copts.max_ns = 130.0;
    const CalibratedBasisSet baseline = calibrateDevice(
        pool, device, 0.005, SelectionCriterion::Criterion1, "baseline",
        copts);
    copts.max_ns = 30.0;
    const CalibratedBasisSet nonstandard = calibrateDevice(
        pool, device, 0.04, SelectionCriterion::Criterion2, "criterion2",
        copts);

    TextTable edges({"edge", "baseline (ns)", "nonstandard (ns)",
                     "nonstandard coords"});
    for (size_t e = 0; e < baseline.edges.size(); ++e) {
        edges.addRow({strformat("%zu", e),
                      fmtFixed(baseline.bases[e].duration_ns, 1),
                      fmtFixed(nonstandard.bases[e].duration_ns, 1),
                      nonstandard.edges[e].gate.coords.str(3)});
    }
    edges.print();

    const Circuit qaoa = qaoaErdosRenyiCircuit(6, 0.4);
    std::printf("\nQAOA instance: %d qubits, %zu RZZ gates\n",
                qaoa.numQubits(), qaoa.count(GateKind::RZZ));

    SynthEngine engine(pool);
    SharedDecompositionCache cache;
    const SynthClient client{engine, cache};
    CompileRequest req(1, 0, "qaoa", qaoa);
    const CompiledCircuitResult rb =
        runCompile(device, baseline, client, req).result;
    req.request_id = 2;
    const CompiledCircuitResult rn =
        runCompile(device, nonstandard, client, req).result;

    TextTable results({"basis set", "fidelity", "makespan (us)",
                       "2Q gates", "swaps"});
    results.addRow({"baseline", fmtPercent(rb.fidelity, 4),
                    fmtFixed(rb.makespan_ns / 1e3, 2),
                    strformat("%zu", rb.two_qubit_gates),
                    strformat("%zu", rb.swaps_inserted)});
    results.addRow({"criterion2", fmtPercent(rn.fidelity, 4),
                    fmtFixed(rn.makespan_ns / 1e3, 2),
                    strformat("%zu", rn.two_qubit_gates),
                    strformat("%zu", rn.swaps_inserted)});
    std::printf("\n");
    results.print();

    std::printf("\nletting each pair keep its own fast nonstandard "
                "gate shortens the schedule and raises the circuit "
                "fidelity -- the paper's headline result.\n");
    return 0;
}
