/**
 * @file
 * Calibration-cycle example (paper Section VI): run the initial
 * tuneup with simulated QPT + GST on one pair, then a daily retune
 * after parameter drift, and show the decomposition cache being
 * rebuilt once per cycle.
 */

#include <cstdio>
#include <vector>

#include "calib/drift.hpp"
#include "calib/protocol.hpp"
#include "core/criteria.hpp"
#include "sim/device.hpp"
#include "synth/engine.hpp"
#include "weyl/gates.hpp"
#include "weyl/invariants.hpp"

using namespace qbasis;

int
main()
{
    std::printf("== one calibration cycle on one pair ==\n\n");
    setLogLevel(LogLevel::Warn);

    GridDeviceParams dp;
    dp.rows = 2;
    dp.cols = 2;
    const GridDevice device{dp};
    const PairDeviceParams pair = device.edgeParams(0);
    const PairSimulator sim(pair, device.couplerOmegaMax());

    Rng rng(99);
    TuneupOptions opts;
    opts.xi = 0.04;
    opts.max_ns = 25.0;
    opts.qpt.shots = 1500;
    opts.qpt.spam_error = 0.02;

    std::printf("[initial tuneup]\n");
    const TuneupResult tuneup = initialTuneup(
        sim, criterionPredicate(SelectionCriterion::Criterion1),
        opts, rng);
    if (!tuneup.success) {
        std::printf("tuneup failed\n");
        return 1;
    }
    std::printf("  QPT candidates: %zu; chosen %.0f ns gate at %s\n",
                tuneup.candidates.size(), tuneup.duration_ns,
                cartanCoords(tuneup.gate).str(4).c_str());

    std::printf("\n[per-cycle decomposition cache]\n");
    SynthEngine engine;
    SharedDecompositionCache cache;
    const SynthClient client{engine, cache};
    const SynthOptions synth;
    const std::vector<TwoQubitDecomposition> decs =
        client.synthesizeBatch({{0, swapGate(), tuneup.gate},
                                {0, cnotGate(), tuneup.gate}},
                               synth);
    std::printf("  SWAP: %d layers (infidelity %.1e); CNOT: %d "
                "layers (infidelity %.1e)\n", decs[0].layers(),
                decs[0].infidelity, decs[1].layers(),
                decs[1].infidelity);
    std::printf("  cache holds %zu entries for this cycle\n",
                cache.size());

    std::printf("\n[next day: drift + retune]\n");
    DriftModel drift;
    const PairDeviceParams drifted =
        driftParams(pair, drift, rng);
    const PairSimulator day2(drifted, device.couplerOmegaMax());
    const RetuneResult r = retune(day2, tuneup, opts.gst, rng);
    if (!r.success) {
        std::printf("  retune failed: %s\n", r.error.c_str());
        return 1;
    }
    std::printf("  drive refreshed to %.4f GHz; gate moved by "
                "%.2e (trace infidelity)\n", r.omega_d / kTwoPi,
                r.gate_shift);

    // The cache is rebuilt against the refreshed gate.
    cache.clear();
    const TwoQubitDecomposition swap2 =
        client.synthesizeBatch({{0, swapGate(), r.gate}}, synth)[0];
    std::printf("  new cycle cache: SWAP again %d layers "
                "(infidelity %.1e)\n", swap2.layers(),
                swap2.infidelity);
    return 0;
}
