#include "transpile/routing.hpp"

#include <algorithm>
#include <limits>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {

namespace {

/** Dependency DAG over gate indices, per-qubit chains. */
struct GateDag
{
    explicit GateDag(const Circuit &c)
        : num_preds(c.size(), 0), successors(c.size())
    {
        std::vector<int> last(c.numQubits(), -1);
        for (size_t i = 0; i < c.gates().size(); ++i) {
            for (int q : c.gates()[i].qubits) {
                if (last[q] >= 0) {
                    successors[last[q]].push_back(i);
                    ++num_preds[i];
                }
                last[q] = static_cast<int>(i);
            }
        }
    }

    std::vector<int> num_preds;
    std::vector<std::vector<size_t>> successors;
};

} // namespace

RoutedCircuit
sabreRoute(const Circuit &logical, const CouplingMap &cm,
           std::vector<int> initial_layout, const SabreOptions &opts)
{
    const int nl = logical.numQubits();
    const int np = cm.numQubits();
    if (nl > np)
        fatal("circuit has %d qubits but device only %d", nl, np);
    if (initial_layout.size() != static_cast<size_t>(nl))
        fatal("initial layout size %zu != logical qubits %d",
              initial_layout.size(), nl);

    // layout[l] = physical wire of logical qubit l;
    // inverse[p] = logical qubit on physical wire p (-1 if none).
    std::vector<int> layout = std::move(initial_layout);
    std::vector<int> inverse(np, -1);
    for (int l = 0; l < nl; ++l) {
        const int p = layout[l];
        if (p < 0 || p >= np || inverse[p] >= 0)
            fatal("invalid initial layout (physical %d)", p);
        inverse[p] = l;
    }

    RoutedCircuit out;
    out.circuit = Circuit(np);
    out.initial_layout = layout;

    GateDag dag(logical);
    std::vector<size_t> front;
    for (size_t i = 0; i < logical.size(); ++i)
        if (dag.num_preds[i] == 0)
            front.push_back(i);

    std::vector<double> decay(np, 1.0);
    Rng rng(opts.seed);
    int swaps_since_reset = 0;

    auto executable = [&](size_t gi) {
        const Gate &g = logical.gates()[gi];
        if (!g.isTwoQubit())
            return true;
        return cm.connected(layout[g.qubits[0]], layout[g.qubits[1]]);
    };

    // Record the routing program; the circuit is built from it once
    // the swap count, and so its size, is known.
    auto emit = [&](size_t gi) {
        const Gate &g = logical.gates()[gi];
        out.ops.push_back({static_cast<int>(gi), layout[g.qubits[0]],
                           g.isTwoQubit() ? layout[g.qubits[1]] : -1});
    };

    auto advance = [&](size_t gi, std::vector<size_t> &next_front) {
        for (size_t s : dag.successors[gi]) {
            if (--dag.num_preds[s] == 0)
                next_front.push_back(s);
        }
    };

    size_t executed = 0;
    const size_t total = logical.size();
    size_t stall_guard = 0;
    const size_t stall_limit = 10 * total + 1000;

    while (executed < total) {
        // Execute every ready gate.
        bool progressed = true;
        while (progressed) {
            progressed = false;
            std::vector<size_t> next_front;
            std::vector<size_t> still_blocked;
            for (size_t gi : front) {
                if (executable(gi)) {
                    emit(gi);
                    advance(gi, next_front);
                    ++executed;
                    progressed = true;
                } else {
                    still_blocked.push_back(gi);
                }
            }
            front = std::move(still_blocked);
            front.insert(front.end(), next_front.begin(),
                         next_front.end());
            if (progressed) {
                std::fill(decay.begin(), decay.end(), 1.0);
                swaps_since_reset = 0;
            }
        }
        if (executed >= total)
            break;

        if (++stall_guard > stall_limit)
            panic("sabreRoute made no progress (stall guard hit)");

        // All front gates are blocked 2Q gates: pick the best SWAP.
        // Candidate swaps touch a physical qubit of a blocked gate.
        std::vector<int> candidate_edges;
        for (size_t gi : front) {
            const Gate &g = logical.gates()[gi];
            if (!g.isTwoQubit())
                continue;
            for (int lq : g.qubits) {
                const int p = layout[lq];
                for (int nb : cm.neighbors(p))
                    candidate_edges.push_back(cm.edgeId(p, nb));
            }
        }
        std::sort(candidate_edges.begin(), candidate_edges.end());
        candidate_edges.erase(std::unique(candidate_edges.begin(),
                                          candidate_edges.end()),
                              candidate_edges.end());
        if (candidate_edges.empty())
            panic("sabreRoute: blocked without swap candidates");

        // Extended set: successors of the front (lookahead).
        std::vector<size_t> extended;
        {
            std::vector<size_t> frontier = front;
            std::vector<int> preds_copy; // shallow lookahead walk
            size_t cursor = 0;
            std::vector<size_t> walk = front;
            while (cursor < walk.size()
                   && extended.size()
                          < static_cast<size_t>(
                              opts.extended_set_size)) {
                const size_t gi = walk[cursor++];
                for (size_t s : dag.successors[gi]) {
                    if (logical.gates()[s].isTwoQubit())
                        extended.push_back(s);
                    walk.push_back(s);
                    if (extended.size()
                        >= static_cast<size_t>(
                            opts.extended_set_size))
                        break;
                }
            }
        }

        auto scoreWith = [&](int pa, int pb) {
            // Score the layout obtained by swapping wires pa, pb.
            std::swap(inverse[pa], inverse[pb]);
            if (inverse[pa] >= 0)
                layout[inverse[pa]] = pa;
            if (inverse[pb] >= 0)
                layout[inverse[pb]] = pb;

            double basic = 0.0;
            int front_2q = 0;
            for (size_t gi : front) {
                const Gate &g = logical.gates()[gi];
                if (!g.isTwoQubit())
                    continue;
                basic += cm.distance(layout[g.qubits[0]],
                                     layout[g.qubits[1]]);
                ++front_2q;
            }
            if (front_2q > 0)
                basic /= front_2q;
            double ext = 0.0;
            if (!extended.empty()) {
                for (size_t gi : extended) {
                    const Gate &g = logical.gates()[gi];
                    ext += cm.distance(layout[g.qubits[0]],
                                       layout[g.qubits[1]]);
                }
                ext /= static_cast<double>(extended.size());
            }

            // Undo.
            std::swap(inverse[pa], inverse[pb]);
            if (inverse[pa] >= 0)
                layout[inverse[pa]] = pa;
            if (inverse[pb] >= 0)
                layout[inverse[pb]] = pb;

            const double decay_factor =
                std::max(decay[pa], decay[pb]);
            return decay_factor
                   * (basic + opts.extended_weight * ext);
        };

        int best_edge = -1;
        double best_score = std::numeric_limits<double>::max();
        for (int eid : candidate_edges) {
            const auto [pa, pb] = cm.edges()[eid];
            const double score =
                scoreWith(pa, pb)
                + 1e-9 * static_cast<double>(rng.uniformInt(1000));
            if (score < best_score) {
                best_score = score;
                best_edge = eid;
            }
        }

        const auto [pa, pb] = cm.edges()[best_edge];
        out.ops.push_back({-1, pa, pb});
        ++out.swaps_inserted;
        std::swap(inverse[pa], inverse[pb]);
        if (inverse[pa] >= 0)
            layout[inverse[pa]] = pa;
        if (inverse[pb] >= 0)
            layout[inverse[pb]] = pb;
        decay[pa] += opts.decay_increment;
        decay[pb] += opts.decay_increment;
        if (++swaps_since_reset >= opts.decay_reset_interval) {
            std::fill(decay.begin(), decay.end(), 1.0);
            swaps_since_reset = 0;
        }
    }

    out.circuit = emitRouteOps(logical, np, out.ops);
    out.final_layout = layout;
    return out;
}

Circuit
emitRouteOps(const Circuit &logical, int num_physical,
             const std::vector<RouteOp> &ops)
{
    Circuit out(num_physical);
    out.reserve(ops.size());
    for (const RouteOp &op : ops) {
        if (op.source < 0) {
            out.swap(op.q0, op.q1);
            continue;
        }
        Gate g = logical.gates()[static_cast<size_t>(op.source)];
        g.qubits = op.q1 >= 0 ? GateQubits{op.q0, op.q1}
                              : GateQubits{op.q0};
        out.append(std::move(g));
    }
    return out;
}

} // namespace qbasis
