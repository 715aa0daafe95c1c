#include "transpile/pipeline.hpp"

#include "obs/trace.hpp"
#include "transpile/plan.hpp"

namespace qbasis {

TranspileResult
transpileCircuit(const Circuit &logical, const CouplingMap &cm,
                 const std::vector<EdgeBasis> &bases,
                 const SynthClient &client, const TranspileOptions &opts,
                 TranspilePlan *captured_plan)
{
    QBASIS_TRACE_SCOPE("transpile.pipeline", "gates", logical.size(),
                       "qubits",
                       static_cast<uint64_t>(logical.numQubits()));
    TranspileResult result;

    const std::vector<int> layout =
        sabreLayout(logical, cm, opts.layout_iterations, opts.sabre);
    SabreRouting routing = [&] {
        QBASIS_TRACE_SCOPE("transpile.route");
        return sabreRouting(logical, cm, layout, opts.sabre);
    }();

    QBASIS_TRACE_SCOPE("transpile.translate", "gates",
                       routing.ops.size());
    result.physical = translateRouteOps(
        logical, routing.ops, cm.numQubits(), cm, bases, client,
        opts.synth, &result.translation,
        captured_plan != nullptr ? &captured_plan->class_keys : nullptr);
    result.swaps_inserted = routing.swaps_inserted;
    if (captured_plan != nullptr) {
        captured_plan->num_physical = cm.numQubits();
        captured_plan->initial_layout = routing.initial_layout;
        captured_plan->final_layout = routing.final_layout;
        captured_plan->swaps_inserted = routing.swaps_inserted;
        captured_plan->ops = std::move(routing.ops);
    }
    result.initial_layout = std::move(routing.initial_layout);
    result.final_layout = std::move(routing.final_layout);
    return result;
}

} // namespace qbasis
