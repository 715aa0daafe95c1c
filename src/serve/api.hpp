#ifndef QBASIS_SERVE_API_HPP
#define QBASIS_SERVE_API_HPP

/**
 * @file
 * The compile request/response API.
 *
 * Three value types — CompileRequest in, CompileOptions inside,
 * CompileResponse out — and one entry point, runCompile, which
 * synthesizes through a SynthClient (synth/engine.hpp). The batch
 * `FleetDriver::compileCircuits` path, the streaming
 * `CompileService` (serve/compile_service.hpp), the bench drivers and
 * the examples all compile through it.
 *
 * Determinism contract: a CompileResponse is a pure function of
 * (CompileRequest, calibrated basis set at the served epoch,
 * SynthOptions seed). Its canonical bytes and their digest below are
 * the enforcement handle — same request + same basis epoch must
 * produce bit-identical responses regardless of how requests
 * interleave.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/recalib.hpp"
#include "synth/plan_cache.hpp"

namespace qbasis {

/** Which plan-cache tier served a request. Diagnostic only:
 *  deliberately left out of a response's canonical bytes, because
 *  the determinism contract requires plan-hit and plan-miss
 *  responses to stay bit-identical. */
enum class PlanServePath : int
{
    None = 0,   ///< Full pipeline (miss, or plan cache off).
    Replay = 1, ///< Plan replayed with this request's parameters.
    Memo = 2,   ///< Exact repeat served from the memo tier.
};

/** Everything tunable about one compile, in one place. */
struct CompileOptions
{
    TranspileOptions transpile; ///< Routing + synthesis settings.
    double t_1q_ns = 20.0;      ///< 1Q gate duration for scheduling.
    double t_coherence_ns = 80e3; ///< Coherence time for scoring.
};

/**
 * One unit of compile traffic: a logical circuit bound for one
 * device. Requests are value types — safe to queue, copy across
 * threads, and replay.
 */
struct CompileRequest
{
    uint64_t request_id = 0; ///< Client-chosen id, echoed in the
                             ///< response (and mixed into fault
                             ///< keys, so replays are per-request).
    int device_id = 0;       ///< Fleet device the circuit targets.
    std::string name;        ///< Diagnostic label ("qft4", ...).
    Circuit circuit{1};      ///< Logical circuit to compile.
    CompileOptions options;

    CompileRequest() = default;
    CompileRequest(uint64_t id, int device, std::string label,
                   Circuit logical)
        : request_id(id), device_id(device), name(std::move(label)),
          circuit(std::move(logical))
    {
    }
};

/** Terminal state of one request. */
enum class CompileStatus : int
{
    Ok = 0,       ///< Compiled; `result` is valid.
    Rejected = 1, ///< Admission control refused it (queue full or
                  ///< service stopping); never entered the pipeline.
    Failed = 2,   ///< Compile pipeline threw; `error` has the cause.
};

const char *compileStatusName(CompileStatus status);

/** What the caller gets back, whatever happened. */
struct CompileResponse
{
    uint64_t request_id = 0;
    CompileStatus status = CompileStatus::Ok;
    std::string error; ///< Empty unless Rejected/Failed.
    /** VersionedBasisSet version this request compiled against
     *  (0 when unversioned or never admitted). */
    uint64_t basis_epoch = 0;
    double snapshot_wait_ms = 0.0; ///< Snapshot acquisition wall time.
    double queue_ms = 0.0;   ///< Admission-to-dispatch wall time.
    double compile_ms = 0.0; ///< Pipeline wall time.
    /** Plan-cache disposition (diagnostic; not in the canonical
     *  bytes). */
    PlanServePath plan_path = PlanServePath::None;
    CompiledCircuitResult result; ///< Valid only when status == Ok.
};

/**
 * Canonical bytes (util/bytes.hpp) of the deterministic payload of a
 * response: request_id, status, error, basis_epoch, and every result
 * field. The wall-clock fields (queue/compile/snapshot times) are
 * measurements, not results, and plan_path is diagnostic, so both
 * are left out. Two responses are bit-identical exactly when their
 * bytes are equal.
 */
std::vector<uint8_t> canonicalBytes(const CompileResponse &resp);

/**
 * FNV-64 over canonicalBytes(resp). The serve determinism tests,
 * bench_serve and the repository benchmark's verification digest
 * gate on it.
 */
uint64_t compileResponseDigest(const CompileResponse &resp);

/** Append the scored fields of a compiled circuit: fidelity,
 *  makespan, inserted SWAPs, 2Q gates and depth. Every canonical
 *  encoding that holds a CompiledCircuitResult writes it with this. */
void putCircuitResult(std::vector<uint8_t> &buf,
                      const CompiledCircuitResult &result);

/**
 * Structural fingerprint of a request: request_id, device, name,
 * circuit shape, and the scheduling constants. Used as the
 * `serve.admit` fault key (so fault replay is per-request and
 * independent of arrival interleaving) and for diagnostics; it is
 * NOT a cache key.
 */
uint64_t compileRequestFingerprint(const CompileRequest &req);

/**
 * Compile one request against a frozen calibrated set.
 *
 * The single compile entry point: transpile with synthesis through
 * `client`, schedule ASAP against the set's per-edge durations, and
 * score with the paper's e^{-t/T} model. Pipeline exceptions are
 * contained into status == Failed
 * (with `error` = what()) rather than thrown, because a serving
 * daemon must not die on one bad request; batch callers that want
 * the old throwing behavior re-throw on !Ok.
 *
 * `basis_epoch` is left at 0 — the caller owns epoch semantics (see
 * the VersionedBasisSet overload).
 */
CompileResponse runCompile(const GridDevice &device,
                           const CalibratedBasisSet &set,
                           const SynthClient &client,
                           const CompileRequest &req);

/**
 * Versioned variant: snapshot `calibration`, compile against the
 * frozen set, and record the served epoch + snapshot wait. An edge
 * mid-recalibration serves its last published basis.
 *
 * With `plans`, consult the plan cache before the pipeline and feed
 * it afterwards. Tier order per request:
 *
 *  1. memo — exact repeat (same shape, parameter fingerprint, and
 *     timing model at the same basis epoch): the stored result is
 *     returned without transpiling, scheduling, or scoring;
 *  2. replay — same shape at the same epoch with new parameters: the
 *     stored routing program is replayed and translated against
 *     published Weyl classes only (bypassing the SynthEngine batch),
 *     then scheduled and scored normally;
 *  3. miss — full pipeline; on success the plan is captured and the
 *     result memoized.
 *
 * Any replay irregularity (unpublished class, structural-hash
 * collision, exception) falls back to the full pipeline, so the
 * response — including a Failed response's error text — is always
 * bit-identical to what the plan-off path (`plans == nullptr`)
 * produces at the same epoch.
 */
CompileResponse runCompile(const GridDevice &device,
                           const VersionedBasisSet &calibration,
                           const SynthClient &client,
                           const CompileRequest &req,
                           PlanCache *plans = nullptr);

} // namespace qbasis

#endif // QBASIS_SERVE_API_HPP
