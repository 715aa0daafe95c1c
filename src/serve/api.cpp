#include "serve/api.hpp"

#include <chrono>
#include <exception>

#include "circuit/schedule.hpp"
#include "noise/coherence.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"
#include "util/fnv.hpp"

namespace qbasis {

const char *
compileStatusName(CompileStatus status)
{
    switch (status) {
    case CompileStatus::Ok:
        return "ok";
    case CompileStatus::Rejected:
        return "rejected";
    case CompileStatus::Failed:
        return "failed";
    }
    return "unknown";
}

void
putCircuitResult(std::vector<uint8_t> &buf,
                 const CompiledCircuitResult &result)
{
    putF64(buf, result.fidelity);
    putF64(buf, result.makespan_ns);
    putU64(buf, static_cast<uint64_t>(result.swaps_inserted));
    putU64(buf, static_cast<uint64_t>(result.two_qubit_gates));
    putI64(buf, result.depth);
}

std::vector<uint8_t>
canonicalBytes(const CompileResponse &resp)
{
    std::vector<uint8_t> buf;
    putU64(buf, resp.request_id);
    putU64(buf, static_cast<uint64_t>(resp.status));
    putString(buf, resp.error);
    putU64(buf, resp.basis_epoch);
    putCircuitResult(buf, resp.result);
    return buf;
}

uint64_t
compileResponseDigest(const CompileResponse &resp)
{
    return fnv64(canonicalBytes(resp));
}

uint64_t
compileRequestFingerprint(const CompileRequest &req)
{
    Fnv64 fnv;
    fnv.mix(req.request_id);
    fnv.mix(static_cast<uint64_t>(req.device_id));
    fnv.mix(req.name.size());
    fnv.mixString(req.name);
    fnv.mix(static_cast<uint64_t>(req.circuit.numQubits()));
    fnv.mix(req.circuit.size());
    for (const Gate &g : req.circuit.gates()) {
        fnv.mix(static_cast<uint64_t>(g.kind));
        for (const int q : g.qubits)
            fnv.mix(static_cast<uint64_t>(q));
        for (const double p : g.params)
            fnv.mixDouble(p);
    }
    fnv.mixDouble(req.options.t_1q_ns);
    fnv.mixDouble(req.options.t_coherence_ns);
    return fnv.h;
}

namespace {

/** Schedule + score one transpiled circuit into `resp.result`. Both
 *  the full pipeline and the plan-replay path fund the response
 *  through this single definition, so a replayed (bit-identical)
 *  physical circuit scores bit-identically. */
void
scoreCompiled(CompileResponse &resp, const GridDevice &device,
              const CalibratedBasisSet &set, const CompileRequest &req,
              const TranspileResult &compiled)
{
    QBASIS_TRACE_SCOPE("compile.schedule");
    const CouplingMap &cm = device.coupling();
    const Schedule sched = scheduleAsap(
        compiled.physical,
        edgeDurationModel(cm, set.bases, req.options.t_1q_ns));

    resp.result.fidelity =
        circuitCoherenceFidelity(sched, req.options.t_coherence_ns);
    resp.result.makespan_ns = sched.makespan;
    resp.result.swaps_inserted = compiled.swaps_inserted;
    resp.result.two_qubit_gates = compiled.physical.countTwoQubit();
    resp.result.depth = compiled.physical.depth();
    resp.status = CompileStatus::Ok;
}

/** Full-pipeline compile, optionally capturing the transpile plan
 *  (all but its key) so the caller can store it. */
CompileResponse
runCompileCaptured(const GridDevice &device,
                   const CalibratedBasisSet &set,
                   const SynthClient &client, const CompileRequest &req,
                   TranspilePlan *captured_plan)
{
    // Root correlation for direct callers (the service's serveOne
    // sets the same id one frame up; re-setting is idempotent).
    TraceCorrelation correlation(req.request_id);
    QBASIS_TRACE_SCOPE("compile.run", "request_id", req.request_id,
                       "gates", req.circuit.size());
    CompileResponse resp;
    resp.request_id = req.request_id;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        const CouplingMap &cm = device.coupling();
        const TranspileResult compiled = transpileCircuit(
            req.circuit, cm, set.bases, client, req.options.transpile,
            captured_plan);
        scoreCompiled(resp, device, set, req, compiled);
    } catch (const std::exception &e) {
        // One bad request must not take a serving daemon down with
        // it: contain the pipeline error into the response.
        resp.status = CompileStatus::Failed;
        resp.error = e.what();
        resp.result = CompiledCircuitResult{};
    }
    resp.compile_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return resp;
}

} // namespace

CompileResponse
runCompile(const GridDevice &device, const CalibratedBasisSet &set,
           const SynthClient &client, const CompileRequest &req)
{
    return runCompileCaptured(device, set, client, req, nullptr);
}

namespace {

/** Parameter fingerprint of the memo tier: everything the plan key's
 *  structural hash ignores but the result depends on. */
uint64_t
planMemoFingerprint(const CompileRequest &req)
{
    Fnv64 fnv;
    fnv.mix(circuitParamFingerprint(req.circuit));
    fnv.mixDouble(req.options.t_1q_ns);
    fnv.mixDouble(req.options.t_coherence_ns);
    return fnv.h;
}

} // namespace

CompileResponse
runCompile(const GridDevice &device,
           const VersionedBasisSet &calibration, const SynthClient &client,
           const CompileRequest &req, PlanCache *plans)
{
    TraceCorrelation correlation(req.request_id);
    const auto t0 = std::chrono::steady_clock::now();
    const CalibrationSnapshot snap = [&] {
        QBASIS_TRACE_SCOPE("compile.snapshot", "request_id",
                           req.request_id);
        return calibration.snapshot();
    }();
    const double wait_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (plans == nullptr) {
        CompileResponse resp = runCompile(device, *snap.set, client, req);
        resp.basis_epoch = snap.version;
        resp.snapshot_wait_ms = wait_ms;
        return resp;
    }

    PlanKey key;
    key.structural_hash = structuralCircuitHash(req.circuit);
    key.options_hash = transpilePlanOptionsHash(req.options.transpile);
    key.epochs = {{req.device_id, snap.version}};
    const uint64_t fingerprint = planMemoFingerprint(req);

    // Tier 1: exact repeat. Skips transpile, schedule, and score;
    // the stored result was produced by the full pipeline at this
    // same epoch, so returning it is trivially bit-identical.
    CompiledCircuitResult memo;
    if (plans->lookupMemo(key, fingerprint, &memo)) {
        QBASIS_TRACE_SCOPE("compile.plan_memo", "request_id",
                           req.request_id);
        CompileResponse resp;
        resp.request_id = req.request_id;
        resp.basis_epoch = snap.version;
        resp.snapshot_wait_ms = wait_ms;
        resp.status = CompileStatus::Ok;
        resp.plan_path = PlanServePath::Memo;
        resp.result = memo;
        resp.compile_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return resp;
    }

    // Tier 2: replay the routing program with this request's
    // parameters against published Weyl classes only. Any
    // irregularity -- unpublished class, plan that does not fit
    // (hash collision), exception -- falls through to the full
    // pipeline so failure behavior matches the plan-off path exactly.
    if (const std::shared_ptr<const TranspilePlan> plan =
            plans->lookup(key)) {
        const PlanClassLookup peek =
            [&cache = client.cache](const DecompositionCache::ClassKey &k) {
                return cache.peekPublished(k);
            };
        const auto tr0 = std::chrono::steady_clock::now();
        try {
            QBASIS_TRACE_SCOPE("compile.plan_replay", "request_id",
                               req.request_id);
            TranspileResult compiled;
            if (replayTranspilePlan(*plan, req.circuit,
                                    device.coupling(), snap.set->bases,
                                    req.options.transpile.synth, peek,
                                    &compiled)) {
                CompileResponse resp;
                resp.request_id = req.request_id;
                resp.basis_epoch = snap.version;
                resp.snapshot_wait_ms = wait_ms;
                resp.plan_path = PlanServePath::Replay;
                scoreCompiled(resp, device, *snap.set, req, compiled);
                plans->noteReplayHit(key);
                plans->memoize(key, fingerprint, resp.result);
                resp.compile_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - tr0)
                        .count();
                return resp;
            }
        } catch (const std::exception &) {
            // Fall through to the full pipeline, which contains (or
            // reproduces) the failure identically to a plan-off
            // compile.
        }
    }

    // Tier 3: full pipeline, then capture the plan for the next
    // repeat of this shape.
    plans->noteMiss();
    TranspilePlan plan;
    CompileResponse resp =
        runCompileCaptured(device, *snap.set, client, req, &plan);
    resp.basis_epoch = snap.version;
    resp.snapshot_wait_ms = wait_ms;
    if (resp.status == CompileStatus::Ok) {
        try {
            plan.key = key;
            plans->store(std::move(plan));
            plans->memoize(key, fingerprint, resp.result);
        } catch (const std::exception &) {
            // A capture failure must never fail a served request.
        }
    }
    return resp;
}

} // namespace qbasis
