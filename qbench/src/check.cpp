#include "check.hpp"

#include <cmath>
#include <map>
#include <set>

#include "circuit/statevector.hpp"
#include "util.hpp"

using namespace qbasis;

namespace qbench {

namespace {

/** Acceptance: per-gate synthesis error is ~1e-8, so any real
 *  miscompile lands orders of magnitude below this. */
constexpr double kMinFidelity = 1.0 - 1e-6;

void
prepareProduct(Statevector &sv, const std::vector<int> &positions,
               Rng64 &rng)
{
    for (const int q : positions) {
        Circuit prep(sv.numQubits());
        prep.u3(q, 3.14159265358979 * rng.uniform(),
                6.28318530717959 * rng.uniform(),
                6.28318530717959 * rng.uniform());
        sv.applyCircuit(prep);
    }
}

} // namespace

StatevectorCheck
checkCompiled(const Circuit &logical, const TranspileResult &compiled,
              uint64_t seed, int inputs)
{
    StatevectorCheck out;
    const int n = logical.numQubits();
    std::set<int> touched;
    for (const Gate &g : compiled.physical.gates())
        touched.insert(g.qubits.begin(), g.qubits.end());
    for (int q = 0; q < n; ++q) {
        touched.insert(compiled.initial_layout.at(q));
        touched.insert(compiled.final_layout.at(q));
    }
    out.touched = static_cast<int>(touched.size());
    if (out.touched > kMaxCheckQubits) {
        out.skipped = true;
        out.detail = "touches " + std::to_string(out.touched) + " qubits";
        return out;
    }
    std::map<int, int> compact;
    for (const int q : touched)
        compact.emplace(q, static_cast<int>(compact.size()));
    const int k = out.touched;

    Circuit physical(k);
    for (Gate g : compiled.physical.gates()) {
        for (int &q : g.qubits)
            q = compact.at(q);
        physical.append(std::move(g));
    }
    std::vector<int> logical_pos(n), initial_pos(n), final_pos(n);
    for (int q = 0; q < n; ++q) {
        logical_pos[q] = q;
        initial_pos[q] = compact.at(compiled.initial_layout[q]);
        final_pos[q] = compact.at(compiled.final_layout[q]);
    }

    out.worst_fidelity = 1.0;
    for (int input = 0; input < inputs; ++input) {
        const uint64_t input_seed =
            Rng64::derive(seed, static_cast<uint64_t>(input));
        Statevector expected_logical(n);
        Rng64 rng_l(input_seed);
        prepareProduct(expected_logical, logical_pos, rng_l);
        expected_logical.applyCircuit(logical);

        Statevector actual(k);
        Rng64 rng_p(input_seed);
        prepareProduct(actual, initial_pos, rng_p);
        actual.applyCircuit(physical);

        // <expected|actual>, where expected places logical bit q on
        // compact qubit final_pos[q] and leaves the others at |0>.
        Complex inner{0.0, 0.0};
        const std::vector<Complex> &la = expected_logical.amplitudes();
        for (size_t b = 0; b < la.size(); ++b) {
            size_t p = 0;
            for (int q = 0; q < n; ++q)
                if (b & (size_t{1} << q))
                    p |= size_t{1} << final_pos[q];
            inner += std::conj(la[b]) * actual.amplitude(p);
        }
        out.worst_fidelity =
            std::min(out.worst_fidelity, std::norm(inner));
    }
    out.ok = out.worst_fidelity >= kMinFidelity;
    if (!out.ok)
        out.detail = "fidelity " + std::to_string(out.worst_fidelity);
    return out;
}

} // namespace qbench
