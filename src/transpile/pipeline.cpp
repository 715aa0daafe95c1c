#include "transpile/pipeline.hpp"

#include "obs/trace.hpp"
#include "transpile/merge_1q.hpp"

namespace qbasis {

TranspileResult
transpileCircuit(const Circuit &logical, const CouplingMap &cm,
                 const std::vector<EdgeBasis> &bases,
                 const SynthClient &client, const TranspileOptions &opts,
                 RoutedCircuit *captured_routing)
{
    QBASIS_TRACE_SCOPE("transpile.pipeline", "gates", logical.size(),
                       "qubits",
                       static_cast<uint64_t>(logical.numQubits()));
    TranspileResult result;

    const std::vector<int> layout =
        sabreLayout(logical, cm, opts.layout_iterations, opts.sabre);
    RoutedCircuit routed = [&] {
        QBASIS_TRACE_SCOPE("transpile.route");
        return sabreRoute(logical, cm, layout, opts.sabre);
    }();

    result.initial_layout = routed.initial_layout;
    result.final_layout = routed.final_layout;
    result.swaps_inserted = routed.swaps_inserted;
    if (captured_routing != nullptr)
        *captured_routing = routed;

    const Circuit merged = mergeSingleQubitRuns(routed.circuit);
    QBASIS_TRACE_SCOPE("transpile.translate", "gates", merged.size());
    result.physical = mergeSingleQubitRuns(translateToEdgeBases(
        merged, cm, bases, client, opts.synth, &result.translation));
    return result;
}

} // namespace qbasis
