#include "transpile/plan.hpp"

#include <utility>

#include "transpile/basis_translate.hpp"
#include "transpile/merge_1q.hpp"
#include "util/fnv.hpp"
#include "util/logging.hpp"
#include "weyl/gates.hpp"

namespace qbasis {

namespace {

/** Mirror of basis_translate's target orientation: lo-qubit-first. */
Mat4
orientedPlanTarget(const Gate &g, const CouplingMap &cm, int eid)
{
    const auto [lo, hi] = cm.edges()[static_cast<size_t>(eid)];
    (void)hi;
    Mat4 target = g.matrix4();
    if (g.qubits[0] != lo) {
        const Mat4 s = swapGate();
        target = s * target * s;
    }
    return target;
}

} // namespace

uint64_t
structuralCircuitHash(const Circuit &c)
{
    Fnv64 f;
    f.mix(static_cast<uint64_t>(c.numQubits()));
    f.mix(static_cast<uint64_t>(c.size()));
    for (const Gate &g : c.gates()) {
        f.mix(static_cast<uint64_t>(g.kind));
        f.mix(static_cast<uint64_t>(g.qubits.size()));
        for (const int q : g.qubits)
            f.mix(static_cast<uint64_t>(static_cast<int64_t>(q)));
        // Parameter *count* is structure; values are not.
        f.mix(static_cast<uint64_t>(g.params.size()));
    }
    return f.h;
}

uint64_t
circuitParamFingerprint(const Circuit &c)
{
    Fnv64 f;
    for (const Gate &g : c.gates()) {
        f.mix(static_cast<uint64_t>(g.params.size()));
        for (const double p : g.params)
            f.mixDouble(p);
        if (g.kind == GateKind::Unitary1Q) {
            for (int r = 0; r < 2; ++r)
                for (int col = 0; col < 2; ++col) {
                    f.mixDouble(g.custom2(r, col).real());
                    f.mixDouble(g.custom2(r, col).imag());
                }
        } else if (g.kind == GateKind::Unitary2Q) {
            const Mat4 &m = g.custom4->matrix;
            for (int r = 0; r < 4; ++r)
                for (int col = 0; col < 4; ++col) {
                    f.mixDouble(m(r, col).real());
                    f.mixDouble(m(r, col).imag());
                }
        }
    }
    return f.h;
}

uint64_t
transpilePlanOptionsHash(const TranspileOptions &opts)
{
    Fnv64 f;
    f.mix(static_cast<uint64_t>(
        static_cast<int64_t>(opts.sabre.extended_set_size)));
    f.mixDouble(opts.sabre.extended_weight);
    f.mixDouble(opts.sabre.decay_increment);
    f.mix(static_cast<uint64_t>(
        static_cast<int64_t>(opts.sabre.decay_reset_interval)));
    f.mix(opts.sabre.seed);
    f.mix(static_cast<uint64_t>(
        static_cast<int64_t>(opts.layout_iterations)));
    f.mix(DecompositionCache::hashOptions(opts.synth));
    return f.h;
}

TranspilePlan
captureTranspilePlan(PlanKey key, const RoutedCircuit &routed,
                     const CouplingMap &cm,
                     const std::vector<EdgeBasis> &bases,
                     const SynthOptions &synth_opts)
{
    TranspilePlan plan;
    plan.key = std::move(key);
    plan.num_physical = routed.circuit.numQubits();
    plan.initial_layout = routed.initial_layout;
    plan.final_layout = routed.final_layout;
    plan.swaps_inserted = routed.swaps_inserted;
    plan.ops = routed.ops;

    // Class keys of the routed 2Q gates, in circuit order. 1Q merging
    // never touches 2Q gates, so this matches the translated
    // circuit's 2Q sequence exactly.
    for (const Gate &g : routed.circuit.gates()) {
        if (!g.isTwoQubit())
            continue;
        const int eid = cm.edgeId(g.qubits[0], g.qubits[1]);
        if (eid < 0)
            panic("plan capture: routed 2Q gate on uncoupled pair "
                  "(%d, %d)",
                  g.qubits[0], g.qubits[1]);
        const Mat4 target = orientedPlanTarget(g, cm, eid);
        const CanonicalKak kak = canonicalKakDecompose(target);
        plan.class_keys.push_back(DecompositionCache::classKey(
            kak.coords, bases[static_cast<size_t>(eid)].gate,
            synth_opts));
    }
    return plan;
}

bool
replayTranspilePlan(const TranspilePlan &plan, const Circuit &logical,
                    const CouplingMap &cm,
                    const std::vector<EdgeBasis> &bases,
                    const SynthOptions &synth_opts,
                    const PlanClassLookup &peek, TranspileResult *out)
{
    // Structural-fit validation. A plan is looked up by structural
    // hash, so a collision (or a corrupt snapshot) could hand us a
    // plan that does not fit this circuit; every check below returns
    // false instead of trusting the hash.
    if (plan.num_physical != cm.numQubits())
        return false;
    if (bases.size() != cm.edges().size())
        return false;
    if (plan.initial_layout.size() !=
            static_cast<size_t>(logical.numQubits()) ||
        plan.final_layout.size() !=
            static_cast<size_t>(logical.numQubits()))
        return false;
    for (const int p : plan.initial_layout)
        if (p < 0 || p >= plan.num_physical)
            return false;
    for (const int p : plan.final_layout)
        if (p < 0 || p >= plan.num_physical)
            return false;

    std::vector<char> seen(logical.size(), 0);
    size_t emitted = 0;
    for (const RouteOp &op : plan.ops) {
        const bool is_2q = op.q1 >= 0;
        if (op.q0 < 0 || op.q0 >= plan.num_physical)
            return false;
        if (is_2q &&
            (op.q1 >= plan.num_physical || op.q1 == op.q0 ||
             cm.edgeId(op.q0, op.q1) < 0))
            return false;
        if (op.source < 0) {
            if (!is_2q) // routing SWAPs are two-qubit
                return false;
            continue;
        }
        if (static_cast<size_t>(op.source) >= logical.size() ||
            seen[static_cast<size_t>(op.source)])
            return false;
        seen[static_cast<size_t>(op.source)] = 1;
        ++emitted;
        const Gate &g = logical.gates()[static_cast<size_t>(op.source)];
        if (g.isTwoQubit() != is_2q)
            return false;
    }
    if (emitted != logical.size())
        return false;

    // Fast bail-out before any KAK work: every class key must already
    // be published.
    for (const DecompositionCache::ClassKey &key : plan.class_keys)
        if (peek(key) == nullptr)
            return false;

    // Rebuild the routed circuit with the live gate parameters, then
    // run the *same* merge + translate + merge sequence as the full
    // pipeline so the output is bit-identical to a fresh transpile.
    const Circuit merged = mergeSingleQubitRuns(
        emitRouteOps(logical, plan.num_physical, plan.ops));
    BasisTranslationStats stats;
    std::optional<Circuit> translated = translateFromPublishedClasses(
        merged, cm, bases, synth_opts, peek, &stats);
    if (!translated)
        return false;

    out->physical = mergeSingleQubitRuns(*translated);
    out->initial_layout = plan.initial_layout;
    out->final_layout = plan.final_layout;
    out->swaps_inserted = plan.swaps_inserted;
    out->translation = stats;
    return true;
}

} // namespace qbasis
