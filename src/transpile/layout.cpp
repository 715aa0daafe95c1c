#include "transpile/layout.hpp"

#include <algorithm>
#include <numeric>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {

std::vector<int>
trivialLayout(int num_logical)
{
    std::vector<int> layout(num_logical);
    std::iota(layout.begin(), layout.end(), 0);
    return layout;
}

std::vector<int>
sabreLayout(const Circuit &logical, const CouplingMap &cm,
            int iterations, const SabreOptions &opts)
{
    const int nl = logical.numQubits();

    std::vector<int> best_layout = trivialLayout(nl);
    size_t best_swaps = ~size_t{0};

    // Several starting placements (trivial + random), each refined
    // by forward/backward reverse-traversal passes; keep the initial
    // layout whose forward routing inserts the fewest SWAPs. This
    // mirrors Qiskit's multi-seed SABRE layout. A pass reads only
    // its SWAP count and final layout, so it routes without
    // recording a program, and the backward pass walks `logical`
    // back to front instead of routing a reversed copy.
    Rng seed_rng(opts.seed ^ 0x1a707ull);
    const int trials = 3;
    for (int trial = 0; trial < trials; ++trial) {
        std::vector<int> layout;
        if (trial == 0) {
            layout = trivialLayout(nl);
        } else {
            std::vector<size_t> wires(cm.numQubits());
            for (size_t i = 0; i < wires.size(); ++i)
                wires[i] = i;
            seed_rng.shuffle(wires);
            layout.resize(nl);
            for (int l = 0; l < nl; ++l)
                layout[l] = static_cast<int>(wires[l]);
        }

        for (int iter = 0; iter < iterations; ++iter) {
            SabreOptions fwd_opts = opts;
            fwd_opts.seed = opts.seed + 16 * trial + 2 * iter;
            std::vector<int> routed = layout;
            const size_t swaps = sabreRouteCore(logical, false, cm,
                                                routed, fwd_opts,
                                                nullptr);
            if (swaps < best_swaps) {
                best_swaps = swaps;
                best_layout = layout;
            }
            // Reverse pass starts from where the forward pass
            // ended; its final layout is a refined placement.
            SabreOptions bwd_opts = opts;
            bwd_opts.seed = opts.seed + 16 * trial + 2 * iter + 1;
            sabreRouteCore(logical, true, cm, routed, bwd_opts,
                           nullptr);
            layout = std::move(routed);
        }
    }
    return best_layout;
}

} // namespace qbasis
