#include "core/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "noise/coherence.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"
#include "weyl/gates.hpp"

namespace qbasis {

int
calibrateEdge(int edge_id, const PairDeviceParams &params,
              double coupler_omega_max, double xi,
              SelectionCriterion criterion,
              const DeviceCalibrationOptions &opts, EdgeCalibration &out)
{
    QBASIS_TRACE_SCOPE("calib.edge", "edge",
                       static_cast<uint64_t>(edge_id));
    const PairSimulator sim = [&] {
        QBASIS_TRACE_SCOPE("sim.bias");
        return PairSimulator(params, coupler_omega_max, opts.sim);
    }();
    out = EdgeCalibration{};
    out.edge_id = edge_id;
    out.xi = xi;
    out.omega_c0 = sim.omegaC0();
    out.zz_residual = sim.zzResidual();
    {
        QBASIS_TRACE_SCOPE("sim.scan");
        out.omega_d = sim.calibrateDriveFrequency(xi);
    }

    QBASIS_TRACE_SCOPE("sim.trajectory");
    TrajectoryStream stream(sim, xi, out.omega_d);
    BasisGateSelector selector(criterion, opts.selector);
    double window = opts.max_ns;
    for (int ext = 0; ext <= opts.max_extensions; ++ext) {
        while (!selector.done()) {
            const std::optional<TrajectoryPoint> pt = stream.next(window);
            if (!pt)
                break;
            selector.push(*pt);
        }
        if (const std::optional<SelectedBasisGate> sel =
                selector.selected()) {
            out.gate = *sel;
            return ext;
        }
        window *= 2.0;
    }
    // Not fatal(): a retune contains this error and quarantines the
    // edge, so nothing is logged here.
    throw std::runtime_error(strformat(
        "edge %d: no basis gate satisfied criterion '%s' within %.0f ns",
        edge_id, criterionName(criterion).c_str(), window / 2.0));
}

CalibratedBasisSet
calibrateDevice(ThreadPool &pool, const GridDevice &device, double xi,
                SelectionCriterion criterion, const std::string &label,
                const DeviceCalibrationOptions &opts)
{
    const size_t n_edges = device.coupling().edges().size();
    const size_t simulate_edges =
        opts.edge_limit > 0
            ? std::min<size_t>(opts.edge_limit, n_edges)
            : n_edges;

    CalibratedBasisSet set;
    set.label = label;
    set.xi = xi;
    set.criterion = criterion;
    set.edges.resize(n_edges);
    set.bases.resize(n_edges);

    // Each index writes only its own slots, and every edge is a pure
    // function of its parameters: the set is the same on any pool.
    pool.parallelFor(simulate_edges, [&](size_t eid) {
        PairDeviceParams params =
            device.edgeParams(static_cast<int>(eid));
        if (opts.apply_drift) {
            // Per-edge derived stream: drifted parameters do not
            // depend on edge order or on edge_limit.
            Rng rng(Rng::deriveSeed(opts.drift_seed, eid));
            params = driftParams(params, opts.drift, rng);
        }
        EdgeCalibration &cal = set.edges[eid];
        calibrateEdge(static_cast<int>(eid), params,
                      device.couplerOmegaMax(), xi, criterion, opts,
                      cal);
        set.bases[eid].gate = cal.gate.gate;
        set.bases[eid].duration_ns = cal.gate.duration_ns;
        set.bases[eid].label = label;
    });

    // Fast mode: replicate calibrated edges round-robin so the basis
    // table stays complete for the transpiler.
    for (size_t eid = simulate_edges; eid < n_edges; ++eid) {
        const size_t src = eid % simulate_edges;
        set.edges[eid] = set.edges[src];
        set.edges[eid].edge_id = static_cast<int>(eid);
        set.bases[eid] = set.bases[src];
    }
    return set;
}

namespace {

/** SWAP + CNOT synthesis request per edge (the Table I batch). */
std::vector<SynthRequest>
gateSetRequests(const CouplingMap &cm, const CalibratedBasisSet &set)
{
    std::vector<SynthRequest> requests;
    requests.reserve(2 * cm.edges().size());
    for (size_t eid = 0; eid < cm.edges().size(); ++eid) {
        SynthRequest swap_req;
        swap_req.edge_id = static_cast<int>(eid);
        swap_req.target = swapGate();
        swap_req.basis = set.bases[eid].gate;
        requests.push_back(swap_req);
        SynthRequest cnot_req;
        cnot_req.edge_id = static_cast<int>(eid);
        cnot_req.target = cnotGate();
        cnot_req.basis = set.bases[eid].gate;
        requests.push_back(cnot_req);
    }
    return requests;
}

} // namespace

GateSetSummary
summarizeGateSet(const GridDevice &device, const CalibratedBasisSet &set,
                 const SynthClient &client, const SynthOptions &synth,
                 double t_1q_ns, double t_coherence_ns)
{
    const CouplingMap &cm = device.coupling();
    const std::vector<TwoQubitDecomposition> decs =
        client.synthesizeBatch(gateSetRequests(cm, set), synth);

    GateSetSummary s;
    s.label = set.label;

    RunningStats basis_ns, swap_ns, cnot_ns;
    RunningStats basis_fid, swap_fid, cnot_fid;
    RunningStats swap_layers, cnot_layers, oneq_share;

    for (size_t eid = 0; eid < cm.edges().size(); ++eid) {
        const EdgeBasis &eb = set.bases[eid];
        basis_ns.add(eb.duration_ns);
        basis_fid.add(1.0
                      - coherenceLimitError(2, eb.duration_ns,
                                            t_coherence_ns));

        const TwoQubitDecomposition &swap_dec = decs[2 * eid];
        const TwoQubitDecomposition &cnot_dec = decs[2 * eid + 1];

        const double swap_t =
            swap_dec.duration(eb.duration_ns, t_1q_ns);
        const double cnot_t =
            cnot_dec.duration(eb.duration_ns, t_1q_ns);
        swap_ns.add(swap_t);
        cnot_ns.add(cnot_t);
        swap_fid.add(
            1.0 - coherenceLimitError(2, swap_t, t_coherence_ns));
        cnot_fid.add(
            1.0 - coherenceLimitError(2, cnot_t, t_coherence_ns));
        swap_layers.add(swap_dec.layers());
        cnot_layers.add(cnot_dec.layers());
        oneq_share.add((swap_dec.layers() + 1.0) * t_1q_ns / swap_t);
        s.max_decomposition_infidelity =
            std::max({s.max_decomposition_infidelity,
                      swap_dec.infidelity, cnot_dec.infidelity});
    }

    s.avg_basis_ns = basis_ns.mean();
    s.avg_swap_ns = swap_ns.mean();
    s.avg_cnot_ns = cnot_ns.mean();
    s.avg_basis_fidelity = basis_fid.mean();
    s.avg_swap_fidelity = swap_fid.mean();
    s.avg_cnot_fidelity = cnot_fid.mean();
    s.avg_swap_layers = swap_layers.mean();
    s.avg_cnot_layers = cnot_layers.mean();
    s.one_q_share_swap = oneq_share.mean();
    return s;
}

} // namespace qbasis
