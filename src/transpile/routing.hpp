#ifndef QBASIS_TRANSPILE_ROUTING_HPP
#define QBASIS_TRANSPILE_ROUTING_HPP

/**
 * @file
 * SABRE swap-insertion routing (Li, Ding, Xie, ASPLOS'19), the
 * routing method the paper uses via Qiskit (Section VIII-C).
 */

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/coupling.hpp"

namespace qbasis {

/** Tunables of the SABRE heuristic. */
struct SabreOptions
{
    int extended_set_size = 20;   ///< Lookahead window size.
    double extended_weight = 0.5; ///< Weight of the lookahead term.
    double decay_increment = 0.001; ///< Per-swap decay penalty.
    int decay_reset_interval = 5; ///< Swaps between decay resets.
    uint64_t seed = 0x5ab3eull;   ///< Tie-breaking seed.
};

/**
 * One step of a routing program. `source >= 0` emits logical gate
 * `source` on physical qubits (q0[, q1]); `source == -1` emits a
 * routing SWAP on (q0, q1). `q1 == -1` marks a single-qubit gate.
 */
struct RouteOp
{
    int source = -1;
    int q0 = 0;
    int q1 = -1;

    bool
    operator==(const RouteOp &o) const
    {
        return source == o.source && q0 == o.q0 && q1 == o.q1;
    }
};

/**
 * A routing program with the layouts it starts and ends in: all a
 * SABRE route decides, without the routed circuit.
 */
struct SabreRouting
{
    std::vector<int> initial_layout; ///< logical -> physical.
    std::vector<int> final_layout;   ///< logical -> physical at end.
    size_t swaps_inserted = 0;    ///< Number of SWAP gates added.
    /// The routing program, one op per routed gate. Lets a transpile
    /// plan replay it on a structurally identical circuit with
    /// different parameters.
    std::vector<RouteOp> ops;
};

/** Result of routing a logical circuit onto a device. */
struct RoutedCircuit : SabreRouting
{
    Circuit circuit;              ///< Physical circuit (with SWAPs).

    RoutedCircuit() : circuit(1) {}
};

/**
 * The gate routing op `op` emits from `logical`: the source gate on
 * the op's physical qubits, or a SWAP. The op must fit `logical`.
 */
Gate routedGate(const Circuit &logical, const RouteOp &op);

/**
 * Feed the gates the routing program `ops` emits from `logical` to
 * `sink`, in program order, without building the routed circuit.
 */
void streamRouteOps(const Circuit &logical,
                    const std::vector<RouteOp> &ops, GateSink &sink);

/**
 * The circuit on `num_physical` qubits that the routing program
 * `ops` emits from `logical`, with its gate array sized once. Every
 * op must fit `logical` and the register (replayTranspilePlan checks
 * an untrusted program first).
 */
Circuit emitRouteOps(const Circuit &logical, int num_physical,
                     const std::vector<RouteOp> &ops);

/**
 * Route `logical` onto the device described by `cm`, starting from
 * the given layout (logical -> physical): the routing program only.
 * sabreRoute is this plus emitRouteOps.
 */
SabreRouting sabreRouting(const Circuit &logical, const CouplingMap &cm,
                          std::vector<int> initial_layout,
                          const SabreOptions &opts = {});

/**
 * Route `logical` onto the device described by `cm`, starting from
 * the given layout (logical -> physical).
 *
 * All emitted gates act on physical qubit indices; every 2Q gate in
 * the result acts on a coupled pair.
 */
RoutedCircuit sabreRoute(const Circuit &logical, const CouplingMap &cm,
                         std::vector<int> initial_layout,
                         const SabreOptions &opts = {});

/**
 * The SABRE core every route and layout pass runs: route `logical`
 * (walked back to front when `reversed`) from `layout`, which it
 * leaves at the final layout, and return the SWAP count. The program
 * is appended to `*ops` when `ops` is non-null, its sources indexing
 * `logical` in either direction; layout passes pass null and
 * allocate nothing per gate beyond the dependency DAG.
 */
size_t sabreRouteCore(const Circuit &logical, bool reversed,
                      const CouplingMap &cm, std::vector<int> &layout,
                      const SabreOptions &opts,
                      std::vector<RouteOp> *ops);

} // namespace qbasis

#endif // QBASIS_TRANSPILE_ROUTING_HPP
