#include "transpile/basis_translate.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>

#include "util/logging.hpp"
#include "weyl/gates.hpp"

namespace qbasis {

namespace {

/** Conjugate a 4x4 gate by SWAP (reverse the qubit roles). */
Mat4
swapConjugate(const Mat4 &m)
{
    const Mat4 s = swapGate();
    return s * m * s;
}

/** Edge id of a (routed) 2Q gate, with diagnostics. */
int
edgeIdOf(const Gate &g, const CouplingMap &cm)
{
    const int eid = cm.edgeId(g.qubits[0], g.qubits[1]);
    if (eid < 0) {
        fatal("translate: 2Q gate '%s' on uncoupled pair "
              "(%d, %d); route the circuit first",
              g.name().c_str(), g.qubits[0], g.qubits[1]);
    }
    return eid;
}

/** Oriented synthesis target of one routed 2Q gate. */
Mat4
orientedTarget(const Gate &g, const CouplingMap &cm, int eid)
{
    // Orient the target with the edge's lo qubit as the most
    // significant slot so decompositions are shared between both
    // gate orientations.
    const auto [lo, hi] = cm.edges()[eid];
    (void)hi;
    Mat4 target = g.matrix4();
    if (g.qubits[0] != lo)
        target = swapConjugate(target);
    return target;
}

/**
 * Shared emission loop: rewrite every 2Q gate using `decs`, which
 * holds the decomposition of each 2Q gate in circuit order. The
 * basis applications on one edge share one Unitary2QData while their
 * matrices are bit-equal; a decomposition whose basis differs in any
 * bit (one shared class decomposition may serve several edges)
 * starts a new block for that edge.
 */
Circuit
emitTranslation(const Circuit &physical, const CouplingMap &cm,
                const std::vector<EdgeBasis> &bases,
                const std::vector<TwoQubitDecomposition> &decs,
                BasisTranslationStats *stats)
{
    Circuit out(physical.numQubits());
    size_t emitted = physical.size() - decs.size();
    for (const TwoQubitDecomposition &dec : decs)
        emitted += 2 + 3 * static_cast<size_t>(dec.layers());
    out.reserve(emitted);

    BasisTranslationStats local_stats;
    size_t next_2q = 0;
    std::unordered_map<int, std::shared_ptr<const Unitary2QData>>
        edge_basis;

    for (const Gate &g : physical.gates()) {
        if (!g.isTwoQubit()) {
            out.append(g);
            continue;
        }
        const int eid = edgeIdOf(g, cm);
        const auto [lo, hi] = cm.edges()[eid];

        const TwoQubitDecomposition &dec = decs[next_2q++];
        if (dec.infidelity > 1e-6) {
            warn("translate: decomposition infidelity %.2e on edge "
                 "%d for gate '%s'", dec.infidelity, eid,
                 g.name().c_str());
        }

        // Emit K_0, then (B, K_j) pairs; locals[j].q1 acts on `lo`.
        out.unitary1q(lo, dec.locals[0].q1, "u");
        out.unitary1q(hi, dec.locals[0].q0, "u");
        std::shared_ptr<const Unitary2QData> &shared = edge_basis[eid];
        for (int layer = 0; layer < dec.layers(); ++layer) {
            const Mat4 &b = dec.basis[static_cast<size_t>(layer)];
            if (shared == nullptr ||
                std::memcmp(shared->matrix.data(), b.data(),
                            sizeof(Complex) * 16) != 0) {
                const std::string &label =
                    bases[static_cast<size_t>(eid)].label;
                shared = std::make_shared<const Unitary2QData>(
                    Unitary2QData{b, label.empty() ? "basis" : label});
            }
            out.append(makeUnitary2(lo, hi, shared));
            out.unitary1q(lo, dec.locals[layer + 1].q1, "u");
            out.unitary1q(hi, dec.locals[layer + 1].q0, "u");
        }

        ++local_stats.translated_2q;
        local_stats.total_layers +=
            static_cast<size_t>(dec.layers());
        local_stats.max_infidelity =
            std::max(local_stats.max_infidelity, dec.infidelity);
    }

    if (stats)
        *stats = local_stats;
    return out;
}

} // namespace

std::vector<SynthRequest>
collectSynthRequests(const Circuit &physical, const CouplingMap &cm,
                     const std::vector<EdgeBasis> &bases)
{
    if (bases.size() != cm.edges().size())
        fatal("edge basis table size %zu != edge count %zu",
              bases.size(), cm.edges().size());
    std::vector<SynthRequest> requests;
    requests.reserve(physical.countTwoQubit());
    for (const Gate &g : physical.gates()) {
        if (!g.isTwoQubit())
            continue;
        const int eid = edgeIdOf(g, cm);
        SynthRequest req;
        req.edge_id = eid;
        req.target = orientedTarget(g, cm, eid);
        req.basis = bases[static_cast<size_t>(eid)].gate;
        requests.push_back(std::move(req));
    }
    return requests;
}

Circuit
translateToEdgeBases(const Circuit &physical, const CouplingMap &cm,
                     const std::vector<EdgeBasis> &bases,
                     const SynthClient &client,
                     const SynthOptions &synth_opts,
                     BasisTranslationStats *stats)
{
    return emitTranslation(
        physical, cm, bases,
        client.synthesizeBatch(collectSynthRequests(physical, cm, bases),
                               synth_opts),
        stats);
}

std::optional<Circuit>
translateFromPublishedClasses(
    const Circuit &physical, const CouplingMap &cm,
    const std::vector<EdgeBasis> &bases,
    const SynthOptions &synth_opts,
    const std::function<const TwoQubitDecomposition *(
        const DecompositionCache::ClassKey &)> &peek,
    BasisTranslationStats *stats)
{
    if (bases.size() != cm.edges().size())
        fatal("edge basis table size %zu != edge count %zu",
              bases.size(), cm.edges().size());

    // Pre-pass: dress every 2Q gate from its published class. Bail
    // before emitting anything if a class is missing, so a partial
    // replay never escapes.
    std::vector<TwoQubitDecomposition> dressed;
    dressed.reserve(physical.countTwoQubit());
    for (const Gate &g : physical.gates()) {
        if (!g.isTwoQubit())
            continue;
        const int eid = edgeIdOf(g, cm);
        const Mat4 target = orientedTarget(g, cm, eid);
        const CanonicalKak kak = canonicalKakDecompose(target);
        const DecompositionCache::ClassKey key =
            DecompositionCache::classKey(
                kak.coords, bases[static_cast<size_t>(eid)].gate,
                synth_opts);
        const TwoQubitDecomposition *cls = peek(key);
        if (cls == nullptr)
            return std::nullopt;
        dressed.push_back(DecompositionCache::dressClassDecomposition(
            *cls, kak, target));
    }

    return emitTranslation(physical, cm, bases, dressed, stats);
}

DurationModel
edgeDurationModel(const CouplingMap &cm,
                  const std::vector<EdgeBasis> &bases, double t_1q_ns)
{
    if (bases.size() != cm.edges().size())
        fatal("edge basis table size %zu != edge count %zu",
              bases.size(), cm.edges().size());
    // Copy the durations; the model may outlive the basis table.
    std::vector<double> durations(bases.size());
    for (size_t i = 0; i < bases.size(); ++i)
        durations[i] = bases[i].duration_ns;
    return [&cm, durations, t_1q_ns](const Gate &g) {
        if (!g.isTwoQubit())
            return t_1q_ns;
        const int eid = cm.edgeId(g.qubits[0], g.qubits[1]);
        if (eid < 0)
            fatal("duration model: 2Q gate on uncoupled pair "
                  "(%d, %d)", g.qubits[0], g.qubits[1]);
        return durations[static_cast<size_t>(eid)];
    };
}

} // namespace qbasis
