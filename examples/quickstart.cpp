/**
 * @file
 * Quickstart: pick a basis gate from a nonstandard Cartan trajectory
 * and compile with it -- no device simulation required.
 *
 * Flow:
 *  1. build a synthetic trajectory that deviates from the XY family
 *     (an iSWAP-like drive with a growing ZZ systematic),
 *  2. select the fastest gate able to synthesize SWAP in 3 layers
 *     and CNOT in 2 layers (the paper's Criterion 2),
 *  3. synthesize SWAP and CNOT into that gate with the numerical
 *     NuOp-style engine, starting at the analytically predicted
 *     depth,
 *  4. report durations under the paper's timing model.
 */

#include <cstdio>

#include "core/criteria.hpp"
#include "core/selector.hpp"
#include "monodromy/depth.hpp"
#include "synth/engine.hpp"
#include "weyl/gates.hpp"
#include "weyl/invariants.hpp"

using namespace qbasis;

int
main()
{
    std::printf("== qbasis quickstart ==\n\n");

    // 1. A nonstandard trajectory: tx = ty grow at 0.025 / ns, with
    //    a coherent ZZ deviation (tz) that standard compilers would
    //    reject as an error.
    Trajectory trajectory;
    for (double t = 0.0; t <= 30.0; t += 1.0) {
        TrajectoryPoint pt;
        pt.duration = t;
        const double s = 0.025 * t;
        pt.coords = canonicalize({s, s, 0.1 * s});
        pt.unitary =
            canonicalGate(pt.coords.tx, pt.coords.ty, pt.coords.tz);
        trajectory.append(std::move(pt));
    }
    std::printf("trajectory: %zu samples at 1 ns controller "
                "resolution, XY-like with a ZZ systematic\n",
                trajectory.size());

    // 2. Criterion 2 selection.
    const auto selected = selectBasisGate(
        trajectory, SelectionCriterion::Criterion2);
    if (!selected) {
        std::printf("no usable basis gate on this trajectory\n");
        return 1;
    }
    std::printf("selected basis gate: t = %.0f ns, coords %s, "
                "entangling power %.4f\n",
                selected->duration_ns,
                selected->coords.str(4).c_str(),
                entanglingPower(selected->coords));
    std::printf("(continuous entry-face crossing at %.2f ns)\n\n",
                selected->continuous_crossing_ns);

    // 3. Synthesize SWAP and CNOT into the selected gate.
    const SynthOptions opts;
    std::printf("analytic depth prediction: SWAP needs %d layers, "
                "CNOT needs %d layers\n",
                predictSwapDepth(selected->coords),
                predictCnotDepth(selected->gate));

    SynthEngine engine;
    SharedDecompositionCache cache;
    const SynthClient client{engine, cache};
    const std::vector<TwoQubitDecomposition> decs =
        client.synthesizeBatch({{0, swapGate(), selected->gate},
                                {0, cnotGate(), selected->gate}},
                               opts);
    const TwoQubitDecomposition &swap_dec = decs[0];
    const TwoQubitDecomposition &cnot_dec = decs[1];

    // 4. Durations: n layers of the basis gate + (n+1) 1Q layers.
    const double t1q = 20.0;
    std::printf("\nSWAP: %d layers, infidelity %.1e, duration %.1f "
                "ns\n", swap_dec.layers(), swap_dec.infidelity,
                swap_dec.duration(selected->duration_ns, t1q));
    std::printf("CNOT: %d layers, infidelity %.1e, duration %.1f "
                "ns\n", cnot_dec.layers(), cnot_dec.infidelity,
                cnot_dec.duration(selected->duration_ns, t1q));

    std::printf("\nlocal gates of the SWAP decomposition "
                "(Fig. 3(d) form):\n");
    for (int j = 0; j <= swap_dec.layers(); ++j) {
        std::printf("  K%d:\n%s", j,
                    swap_dec.locals[j].q1.str(3).c_str());
    }
    return 0;
}
