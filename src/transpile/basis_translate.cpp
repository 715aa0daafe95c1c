#include "transpile/basis_translate.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>

#include "transpile/merge_1q.hpp"
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

[[noreturn]] void
uncoupled(const Gate &g)
{
    fatal("translate: 2Q gate '%s' on uncoupled pair "
          "(%d, %d); route the circuit first",
          g.name().c_str(), g.qubits[0], g.qubits[1]);
}

/** Edge id of a (routed) 2Q gate, with diagnostics. */
int
edgeIdOf(const Gate &g, const CouplingMap &cm)
{
    const int eid = cm.edgeId(g.qubits[0], g.qubits[1]);
    if (eid < 0)
        uncoupled(g);
    return eid;
}

void
checkBases(const CouplingMap &cm, const std::vector<EdgeBasis> &bases)
{
    if (bases.size() != cm.edges().size())
        fatal("edge basis table size %zu != edge count %zu",
              bases.size(), cm.edges().size());
}

/** Synthesis target of `g`'s matrix on edge `eid`, applied with
 *  `q0` as its first qubit. The target is oriented with the edge's
 *  lo qubit as the most significant slot, so both gate orientations
 *  share decompositions. */
Mat4
orientedTarget(const Gate &g, int q0, const CouplingMap &cm, int eid)
{
    Mat4 target = g.matrix4();
    if (q0 != cm.edges()[static_cast<size_t>(eid)].first)
        target = swapConjugate(target);
    return target;
}

Mat4
orientedTarget(const Gate &g, const CouplingMap &cm, int eid)
{
    return orientedTarget(g, g.qubits[0], cm, eid);
}

/** One routed 2Q gate as class resolution reads it: the gate that
 *  supplies its matrix, its first physical qubit and its edge. */
struct TwoQubitSite
{
    const Gate *gate;
    int q0;
    int eid;
};

std::vector<TwoQubitSite>
sitesOf(const Circuit &physical, const CouplingMap &cm,
        const std::vector<EdgeBasis> &bases)
{
    checkBases(cm, bases);
    std::vector<TwoQubitSite> sites;
    sites.reserve(physical.countTwoQubit());
    for (const Gate &g : physical.gates())
        if (g.isTwoQubit())
            sites.push_back({&g, g.qubits[0], edgeIdOf(g, cm)});
    return sites;
}

std::vector<TwoQubitSite>
sitesOf(const Circuit &logical, const std::vector<RouteOp> &ops,
        const CouplingMap &cm, const std::vector<EdgeBasis> &bases)
{
    checkBases(cm, bases);
    static const Gate swap_gate = makeGate2(GateKind::Swap, 0, 1);
    size_t count = 0;
    for (const RouteOp &op : ops)
        count += op.q1 >= 0;
    std::vector<TwoQubitSite> sites;
    sites.reserve(count);
    for (const RouteOp &op : ops) {
        if (op.q1 < 0)
            continue;
        const int eid = cm.edgeId(op.q0, op.q1);
        if (eid < 0)
            uncoupled(routedGate(logical, op));
        sites.push_back(
            {op.source < 0
                 ? &swap_gate
                 : &logical.gates()[static_cast<size_t>(op.source)],
             op.q0, eid});
    }
    return sites;
}

/** Phases 1-3 of the engine's batch over the sites' targets. */
ResolvedClasses
resolveSynthesized(const std::vector<TwoQubitSite> &sites,
                   const CouplingMap &cm,
                   const std::vector<EdgeBasis> &bases,
                   const SynthClient &client, const SynthOptions &opts)
{
    return client.resolveClasses(
        SynthBatchView{
            sites.size(),
            [&](size_t i) {
                return orientedTarget(*sites[i].gate, sites[i].q0, cm,
                                      sites[i].eid);
            },
            [&](size_t i) -> const Mat4 & {
                return bases[static_cast<size_t>(sites[i].eid)].gate;
            }},
        opts);
}

/** The sites' classes from published decompositions only; false as
 *  soon as one is missing. Leaves `keys` empty. */
bool
resolvePublished(
    const std::vector<TwoQubitSite> &sites, const CouplingMap &cm,
    const std::vector<EdgeBasis> &bases, const SynthOptions &opts,
    const std::function<const TwoQubitDecomposition *(
        const DecompositionCache::ClassKey &)> &peek,
    ResolvedClasses &out)
{
    out.kaks.reserve(sites.size());
    out.classes.reserve(sites.size());
    BatchClassKeys keys(opts);
    for (const TwoQubitSite &site : sites) {
        const CanonicalKak kak = canonicalKakDecompose(
            orientedTarget(*site.gate, site.q0, cm, site.eid));
        const TwoQubitDecomposition *cls = peek(keys.classKey(
            kak.coords, bases[static_cast<size_t>(site.eid)].gate));
        if (cls == nullptr)
            return false;
        out.kaks.push_back(kak);
        out.classes.push_back(cls);
    }
    return true;
}

/**
 * The translation pass as a gate sink: 1Q gates pass through, and
 * the k-th 2Q gate is dressed from the k-th resolved class and
 * emitted as K_0, then (B, K_j) pairs. The basis applications on one
 * edge share one Unitary2QData while their matrices are bit-equal; a
 * decomposition whose basis differs in any bit (one shared class
 * decomposition may serve several edges) starts a new block for that
 * edge.
 */
class TranslationSink final : public GateSink
{
  public:
    TranslationSink(const CouplingMap &cm,
                    const std::vector<EdgeBasis> &bases,
                    const ResolvedClasses &classes, GateSink &out)
        : cm_(cm), bases_(bases), classes_(classes), out_(out)
    {
    }

    void gate(const Gate &g) override;
    void unitary1q(int q, const Mat2 &u) override { out_.unitary1q(q, u); }

    BasisTranslationStats stats;

  private:
    const CouplingMap &cm_;
    const std::vector<EdgeBasis> &bases_;
    const ResolvedClasses &classes_;
    GateSink &out_;
    size_t next_2q_ = 0;
    TwoQubitDecomposition dec_; ///< Scratch, reused gate to gate.
    std::unordered_map<int, std::shared_ptr<const Unitary2QData>>
        edge_basis_;
};

void
TranslationSink::gate(const Gate &g)
{
    if (!g.isTwoQubit()) {
        out_.gate(g);
        return;
    }
    const int eid = edgeIdOf(g, cm_);
    const auto [lo, hi] = cm_.edges()[eid];

    const size_t k = next_2q_++;
    DecompositionCache::dressClassDecomposition(
        *classes_.classes[k], classes_.kaks[k],
        orientedTarget(g, cm_, eid), dec_);
    const TwoQubitDecomposition &dec = dec_;
    if (dec.infidelity > 1e-6) {
        warn("translate: decomposition infidelity %.2e on edge "
             "%d for gate '%s'", dec.infidelity, eid,
             g.name().c_str());
    }

    // Emit K_0, then (B, K_j) pairs; locals[j].q1 acts on `lo`.
    out_.unitary1q(lo, dec.locals[0].q1);
    out_.unitary1q(hi, dec.locals[0].q0);
    std::shared_ptr<const Unitary2QData> &shared = edge_basis_[eid];
    for (int layer = 0; layer < dec.layers(); ++layer) {
        const Mat4 &b = dec.basis[static_cast<size_t>(layer)];
        if (shared == nullptr ||
            std::memcmp(shared->matrix.data(), b.data(),
                        sizeof(Complex) * 16) != 0) {
            const std::string &label =
                bases_[static_cast<size_t>(eid)].label;
            shared = std::make_shared<const Unitary2QData>(
                Unitary2QData{b, label.empty() ? "basis" : label});
        }
        out_.gate(makeUnitary2(lo, hi, shared));
        out_.unitary1q(lo, dec.locals[layer + 1].q1);
        out_.unitary1q(hi, dec.locals[layer + 1].q0);
    }

    ++stats.translated_2q;
    stats.total_layers += static_cast<size_t>(dec.layers());
    stats.max_infidelity = std::max(stats.max_infidelity, dec.infidelity);
}

/** Translate `physical` gate by gate into a circuit sized once. */
Circuit
emitTranslation(const Circuit &physical, const CouplingMap &cm,
                const std::vector<EdgeBasis> &bases,
                const ResolvedClasses &classes,
                BasisTranslationStats *stats)
{
    Circuit out(physical.numQubits());
    size_t emitted = physical.size() - classes.classes.size();
    for (const TwoQubitDecomposition *cls : classes.classes)
        emitted += 2 + 3 * static_cast<size_t>(cls->layers());
    out.reserve(emitted);

    CircuitSink sink(out);
    TranslationSink translate(cm, bases, classes, sink);
    for (const Gate &g : physical.gates())
        translate.gate(g);
    if (stats)
        *stats = translate.stats;
    return out;
}

/**
 * Gates the streamed translation of `ops` emits at most: one per
 * basis application and one per 1Q run of the final merge, counted
 * as if no run merged to the identity. This is what
 * mergeSingleQubitRuns reserves for the translated circuit, so the
 * streamed output is sized exactly when no run is dropped.
 */
size_t
streamedSizeBound(const std::vector<RouteOp> &ops, int num_physical,
                  const ResolvedClasses &classes)
{
    std::vector<char> pending(num_physical, 0); // first merge's runs
    std::vector<char> in_run(num_physical, 0);  // final merge's runs
    size_t bound = 0;
    auto open = [&](int q) {
        if (!in_run[q]) {
            in_run[q] = 1;
            ++bound;
        }
    };
    auto flush = [&](int q) {
        if (pending[q]) {
            pending[q] = 0;
            open(q);
        }
    };
    size_t k = 0;
    for (const RouteOp &op : ops) {
        if (op.q1 < 0) {
            pending[op.q0] = 1;
            continue;
        }
        flush(op.q0);
        flush(op.q1);
        // K_0 joins or opens a run on each qubit; each basis
        // application closes both and its K_j opens two new ones.
        open(op.q0);
        open(op.q1);
        bound += 3 * static_cast<size_t>(classes.classes[k++]->layers());
    }
    for (int q = 0; q < num_physical; ++q)
        flush(q);
    return bound;
}

/** Route emission -> 1Q merge -> translation -> 1Q merge, streamed
 *  into one circuit. */
Circuit
emitStreamedTranslation(const Circuit &logical,
                        const std::vector<RouteOp> &ops,
                        int num_physical, const CouplingMap &cm,
                        const std::vector<EdgeBasis> &bases,
                        const ResolvedClasses &classes,
                        BasisTranslationStats *stats)
{
    Circuit out(num_physical);
    out.reserve(streamedSizeBound(ops, num_physical, classes));
    CircuitSink sink(out);
    SingleQubitMerger final_merge(num_physical, sink);
    TranslationSink translate(cm, bases, classes, final_merge);
    SingleQubitMerger merge(num_physical, translate);
    streamRouteOps(logical, ops, merge);
    merge.finish();
    final_merge.finish();
    if (stats)
        *stats = translate.stats;
    return out;
}

} // namespace

std::vector<SynthRequest>
collectSynthRequests(const Circuit &physical, const CouplingMap &cm,
                     const std::vector<EdgeBasis> &bases)
{
    checkBases(cm, bases);
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
    const ResolvedClasses classes = resolveSynthesized(
        sitesOf(physical, cm, bases), cm, bases, client, synth_opts);
    return emitTranslation(physical, cm, bases, classes, stats);
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
    // Resolve every 2Q gate's class before emitting anything, so a
    // partial replay never escapes.
    ResolvedClasses classes;
    if (!resolvePublished(sitesOf(physical, cm, bases), cm, bases,
                          synth_opts, peek, classes))
        return std::nullopt;
    return emitTranslation(physical, cm, bases, classes, stats);
}

Circuit
translateRouteOps(const Circuit &logical,
                  const std::vector<RouteOp> &ops, int num_physical,
                  const CouplingMap &cm,
                  const std::vector<EdgeBasis> &bases,
                  const SynthClient &client,
                  const SynthOptions &synth_opts,
                  BasisTranslationStats *stats,
                  std::vector<DecompositionCache::ClassKey> *class_keys)
{
    ResolvedClasses classes = resolveSynthesized(
        sitesOf(logical, ops, cm, bases), cm, bases, client, synth_opts);
    // Emission does not read the keys: hand them to the caller, or
    // free them, before the output is built.
    if (class_keys != nullptr)
        *class_keys = std::move(classes.keys);
    std::vector<DecompositionCache::ClassKey>().swap(classes.keys);
    return emitStreamedTranslation(logical, ops, num_physical, cm,
                                   bases, classes, stats);
}

std::optional<Circuit>
translateRouteOpsFromPublishedClasses(
    const Circuit &logical, const std::vector<RouteOp> &ops,
    int num_physical, const CouplingMap &cm,
    const std::vector<EdgeBasis> &bases, const SynthOptions &synth_opts,
    const std::function<const TwoQubitDecomposition *(
        const DecompositionCache::ClassKey &)> &peek,
    BasisTranslationStats *stats)
{
    ResolvedClasses classes;
    if (!resolvePublished(sitesOf(logical, ops, cm, bases), cm, bases,
                          synth_opts, peek, classes))
        return std::nullopt;
    return emitStreamedTranslation(logical, ops, num_physical, cm,
                                   bases, classes, stats);
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
