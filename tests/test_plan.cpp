/**
 * @file
 * Plan-cache tests: the structural-hash contract (parameter values
 * never hash; gate order and qubit mapping always do), bit-identical
 * compileResponseDigest across plan-miss / memo / replay / fallback
 * serve paths, the epoch-sweep invalidation property (a recalibration
 * evicts exactly the plans whose epoch vector died, and a swept plan
 * is never served), the probation queue (one-shot plans are evicted
 * beyond PlanCache::kProbationPlans, a served hit or a snapshot load
 * keeps a plan, and an evicted shape recompiles as with the plan tier
 * off), and snapshot round-trips of the plans section (byte-stable
 * encoding, CRC rejection, version rejection).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "apps/qft.hpp"
#include "calib/drift.hpp"
#include "serve/compile_service.hpp"
#include "synth/cache_io.hpp"
#include "transpile/plan.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace qbasis {
namespace {

/** Cheap-but-converging synthesis settings for test fleets. */
SynthOptions
cheapSynth()
{
    SynthOptions s;
    s.restarts = 2;
    s.adam_iters = 250;
    s.polish_iters = 100;
    s.max_layers = 4;
    s.target_infidelity = 1e-7;
    return s;
}

/** A 2x2 grid device (4 qubits); edge_limit keeps calibration fast. */
FleetDeviceSpec
quadSpec(uint64_t grid_seed)
{
    FleetDeviceSpec spec;
    spec.grid.rows = 2;
    spec.grid.cols = 2;
    spec.grid.seed = grid_seed;
    spec.xi = 0.04;
    return spec;
}

CompileServiceOptions
tinyServiceOptions(bool plan_cache)
{
    CompileServiceOptions opts;
    opts.fleet.shards = 2;
    opts.fleet.threads = 2;
    opts.fleet.synth = cheapSynth();
    opts.fleet.calib.edge_limit = 1;
    opts.queue_capacity = 64;
    opts.dispatchers = 2;
    opts.max_batch = 4;
    opts.plan_cache = plan_cache;
    return opts;
}

/**
 * A hardware-efficient ansatz shape: parametric 1Q layers around
 * fixed CX entanglers. Varying `theta` changes every rotation angle
 * but no 2Q gate, so a repeat at a new theta replays the stored plan
 * against the *same* published Weyl classes (the replay tier's
 * intended traffic).
 */
Circuit
ansatzCircuit(int n, double theta)
{
    Circuit c(n);
    for (int q = 0; q < n; ++q) {
        c.h(q);
        c.rz(q, theta + 0.1 * q);
    }
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        c.ry(q, 0.5 * theta - 0.2 * q);
    return c;
}

/** A shape whose parameter IS the Weyl class: rzz(gamma) changes the
 *  canonical coordinates, so a new gamma cannot replay against the
 *  old published class and must fall back to the full pipeline. */
Circuit
entanglerCircuit(double gamma)
{
    Circuit c(3);
    c.h(0);
    c.h(1);
    c.rzz(0, 1, gamma);
    c.rzz(1, 2, gamma * 0.5);
    return c;
}

/** Minimal synthetic plan for unit-level cache tests. */
TranspilePlan
syntheticPlan(uint64_t structural, std::vector<DeviceEpoch> epochs)
{
    TranspilePlan p;
    p.key.structural_hash = structural;
    p.key.options_hash = 7;
    p.key.epochs = std::move(epochs);
    p.num_physical = 4;
    p.initial_layout = {0, 1};
    p.final_layout = {1, 0};
    p.swaps_inserted = 1;
    p.ops = {{0, 0, 1}, {-1, 1, 2}, {1, 2, -1}};
    DecompositionCache::ClassKey k;
    k.context = structural;
    k.qx = 3;
    k.qy = 2;
    k.qz = 1;
    p.class_keys = {k};
    return p;
}

class PlanTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogLevel(LogLevel::Warn);
    }
};

// --- Structural hash contract ---------------------------------------

TEST_F(PlanTest, StructuralHashIgnoresParameterValuesOnly)
{
    // Same shape, different parameter values: one routing program
    // serves both, so the structural hash must collide -- and the
    // parameter fingerprint must not.
    const Circuit a = ansatzCircuit(3, 0.7);
    const Circuit b = ansatzCircuit(3, 1.9);
    EXPECT_EQ(structuralCircuitHash(a), structuralCircuitHash(b));
    EXPECT_NE(circuitParamFingerprint(a), circuitParamFingerprint(b));

    // Identical circuits agree on both.
    const Circuit a2 = ansatzCircuit(3, 0.7);
    EXPECT_EQ(structuralCircuitHash(a), structuralCircuitHash(a2));
    EXPECT_EQ(circuitParamFingerprint(a),
              circuitParamFingerprint(a2));

    // Custom-matrix gates: the matrix entries are parameters too.
    Circuit u1(2), u2(2);
    u1.rzz(0, 1, 0.4);
    u2.rzz(0, 1, 0.4);
    u1.unitary1q(0, Mat2(Complex(0.8, -0.6), 0.0, 0.0,
                         Complex(0.8, 0.6)));
    u2.unitary1q(0, Mat2(Complex(0.6, -0.8), 0.0, 0.0,
                         Complex(0.6, 0.8)));
    EXPECT_EQ(structuralCircuitHash(u1), structuralCircuitHash(u2));
    EXPECT_NE(circuitParamFingerprint(u1),
              circuitParamFingerprint(u2));
}

TEST_F(PlanTest, StructuralHashSeparatesNearCollisionPairs)
{
    // Near-collision pair 1: same gate multiset, different order.
    // Routing reads the DAG, so order must change the hash.
    Circuit order_a(3), order_b(3);
    order_a.cx(0, 1);
    order_a.cx(1, 2);
    order_b.cx(1, 2);
    order_b.cx(0, 1);
    EXPECT_NE(structuralCircuitHash(order_a),
              structuralCircuitHash(order_b));

    // Near-collision pair 2: same shape, permuted qubit mapping.
    Circuit map_a(3), map_b(3);
    map_a.h(0);
    map_a.cx(0, 1);
    map_b.h(1);
    map_b.cx(1, 0);
    EXPECT_NE(structuralCircuitHash(map_a),
              structuralCircuitHash(map_b));

    // Near-collision pair 3: swapped control/target only.
    Circuit dir_a(2), dir_b(2);
    dir_a.cx(0, 1);
    dir_b.cx(1, 0);
    EXPECT_NE(structuralCircuitHash(dir_a),
              structuralCircuitHash(dir_b));

    // Near-collision pair 4: same qubits and arity, different kind.
    Circuit kind_a(2), kind_b(2);
    kind_a.rx(0, 0.5);
    kind_b.ry(0, 0.5);
    EXPECT_NE(structuralCircuitHash(kind_a),
              structuralCircuitHash(kind_b));

    // Register width matters even when the gate list is identical.
    Circuit wide(4), narrow(3);
    wide.cx(0, 1);
    narrow.cx(0, 1);
    EXPECT_NE(structuralCircuitHash(wide),
              structuralCircuitHash(narrow));
}

TEST_F(PlanTest, FingerprintsKeepTheirValuesOnEveryGateKind)
{
    // One gate of every GateKind with literal angles and literal
    // custom matrices, so the values depend on the IR and FNV alone.
    // Plan keys are persisted in snapshots: these values were taken
    // before the compact gate layout and must never move.
    Circuit c(3);
    c.h(0);
    c.x(1);
    c.y(2);
    c.z(0);
    c.s(1);
    c.append(makeGate1(GateKind::Sdg, 2));
    c.t(0);
    c.append(makeGate1(GateKind::Tdg, 1));
    c.rx(2, 0.25);
    c.ry(0, -1.5);
    c.rz(1, 3.0);
    c.phase(2, 0.125);
    c.u3(0, 0.5, 1.25, -0.75);
    const Mat2 a(Complex(0.6, 0.0), Complex(0.0, 0.8), Complex(0.0, 0.8),
                 Complex(0.6, 0.0));
    const Mat2 b(Complex(0.0, 1.0), Complex(0.0, 0.0), Complex(0.0, 0.0),
                 Complex(0.0, -1.0));
    c.unitary1q(1, a, "u");
    c.cx(0, 1);
    c.cz(1, 2);
    c.swap(2, 0);
    c.iswap(0, 2);
    c.append(makeGate2(GateKind::SqrtISwap, 1, 0));
    c.cphase(2, 1, 0.375);
    c.crz(0, 2, -0.625);
    c.rzz(1, 0, 2.5);
    c.unitary2q(2, 1, Mat4::kron(a, b), "basis");
    ASSERT_EQ(c.size(), static_cast<size_t>(GateKind::Unitary2Q) + 1);

    CompileRequest req(41, 2, "every_kind", c);
    req.options.t_1q_ns = 35.0;
    req.options.t_coherence_ns = 80000.0;
    EXPECT_EQ(structuralCircuitHash(c), 0x92ca48ee193c5e21ull);
    EXPECT_EQ(circuitParamFingerprint(c), 0x24104c3b173ad0a5ull);
    EXPECT_EQ(compileRequestFingerprint(req), 0x4bcd72080dc68354ull);
}

// --- Serve-path digest identity -------------------------------------

TEST_F(PlanTest, AllPlanPathsProduceBitIdenticalDigests)
{
    // Two identically-specced services: `off` always runs the full
    // pipeline, `on` serves from the plan cache. Every pass below
    // must produce bit-identical per-request digests across the two.
    CompileService off(tinyServiceOptions(false));
    CompileService on(tinyServiceOptions(true));
    off.start({quadSpec(31)});
    on.start({quadSpec(31)});

    const auto check = [&](const CompileRequest &req,
                           PlanServePath want_path) {
        const CompileResponse r_off = off.compileSync(req);
        const CompileResponse r_on = on.compileSync(req);
        ASSERT_EQ(r_off.status, CompileStatus::Ok) << r_off.error;
        ASSERT_EQ(r_on.status, CompileStatus::Ok) << r_on.error;
        EXPECT_EQ(compileResponseDigest(r_on),
                  compileResponseDigest(r_off))
            << "plan path diverged for request " << req.request_id;
        EXPECT_EQ(canonicalBytes(r_on), canonicalBytes(r_off));
        EXPECT_EQ(r_off.plan_path, PlanServePath::None);
        EXPECT_EQ(r_on.plan_path, want_path)
            << "request " << req.request_id;
    };

    // Pass 1: cold -- both sides run the pipeline; `on` stores plans.
    check(CompileRequest(1, 0, "ansatz", ansatzCircuit(3, 0.7)),
          PlanServePath::None);
    check(CompileRequest(2, 0, "qft3", qftCircuit(3)),
          PlanServePath::None);
    check(CompileRequest(3, 0, "rzz", entanglerCircuit(0.4)),
          PlanServePath::None);

    // Pass 2: exact repeats -- memo tier, no pipeline at all.
    check(CompileRequest(4, 0, "ansatz", ansatzCircuit(3, 0.7)),
          PlanServePath::Memo);
    check(CompileRequest(5, 0, "qft3", qftCircuit(3)),
          PlanServePath::Memo);

    // Pass 3: same shape, new 1Q parameters -- replay tier (the 2Q
    // entanglers are parameter-free, so every class is published).
    check(CompileRequest(6, 0, "ansatz", ansatzCircuit(3, 1.9)),
          PlanServePath::Replay);

    // Pass 4: new parameters that move the Weyl class -- the stored
    // plan cannot replay (class unpublished) and must fall back to
    // the full pipeline, still bit-identical.
    check(CompileRequest(7, 0, "rzz", entanglerCircuit(0.9)),
          PlanServePath::None);
    // ... and the fallback re-captured the plan: exact repeat memos.
    check(CompileRequest(8, 0, "rzz", entanglerCircuit(0.9)),
          PlanServePath::Memo);

    const PlanCacheStats ps = on.driver().planCache().stats();
    EXPECT_GE(ps.memo_hits, 3u);
    EXPECT_GE(ps.replay_hits, 1u);
    EXPECT_GE(ps.stores, 4u); // 3 cold + the rzz re-capture
    EXPECT_EQ(on.snapshot().plan_hits, 4u);
    EXPECT_EQ(off.snapshot().plan_hits, 0u);
    EXPECT_EQ(off.driver().planCache().stats().stores, 0u);

    on.stop();
    off.stop();
}

// --- Epoch-sweep invalidation ---------------------------------------

TEST_F(PlanTest, RetireSweepsExactlyThePlansWhoseEpochVectorDied)
{
    // Property: after retire(live), a plan survives iff every
    // (device, epoch) coordinate it references matches `live`
    // exactly. Randomized rounds against a brute-force oracle.
    Rng rng(0x9137);
    for (int round = 0; round < 50; ++round) {
        PlanCache pc;
        const int devices = 3;
        std::vector<DeviceEpoch> live;
        for (int d = 0; d < devices; ++d)
            live.push_back({d, 1 + rng.uniformInt(3)});

        std::vector<TranspilePlan> plans;
        const size_t n = 4 + rng.uniformInt(8);
        for (size_t i = 0; i < n; ++i) {
            std::vector<DeviceEpoch> epochs;
            // 1..2 coordinates over devices 0..3 (3 = unknown).
            const size_t coords = 1 + rng.uniformInt(2);
            std::set<int> used;
            for (size_t c = 0; c < coords; ++c) {
                const int dev =
                    static_cast<int>(rng.uniformInt(devices + 1));
                if (!used.insert(dev).second)
                    continue;
                epochs.push_back({dev, 1 + rng.uniformInt(3)});
            }
            std::sort(epochs.begin(), epochs.end());
            plans.push_back(syntheticPlan(100 + i, epochs));
        }
        for (const TranspilePlan &p : plans)
            pc.store(p);

        const auto alive = [&](const TranspilePlan &p) {
            for (const DeviceEpoch &de : p.key.epochs) {
                bool match = false;
                for (const DeviceEpoch &l : live)
                    match |= (l == de);
                if (!match)
                    return false;
            }
            return true;
        };
        size_t expect_dead = 0;
        for (const TranspilePlan &p : plans)
            if (!alive(p))
                ++expect_dead;

        EXPECT_EQ(pc.retire(live), expect_dead) << "round " << round;
        EXPECT_EQ(pc.size(), plans.size() - expect_dead);
        for (const TranspilePlan &p : plans) {
            const bool resident = pc.lookup(p.key) != nullptr;
            EXPECT_EQ(resident, alive(p)) << "round " << round;
        }
        EXPECT_EQ(pc.stats().retired, expect_dead);
        // Retiring against the same live set again is a no-op.
        EXPECT_EQ(pc.retire(live), 0u);
    }
}

TEST_F(PlanTest, RecalibrationEvictsOnlyTheBumpedDevicesPlans)
{
    CompileService off(tinyServiceOptions(false));
    CompileService on(tinyServiceOptions(true));
    off.start({quadSpec(41), quadSpec(42)});
    on.start({quadSpec(41), quadSpec(42)});

    // Seed one plan per device (same shape, distinct epoch vectors).
    for (int dev = 0; dev < 2; ++dev) {
        const CompileRequest req(10 + static_cast<uint64_t>(dev), dev,
                                 "ansatz", ansatzCircuit(3, 0.7));
        ASSERT_EQ(on.compileSync(req).status, CompileStatus::Ok);
        ASSERT_EQ(off.compileSync(req).status, CompileStatus::Ok);
    }
    ASSERT_EQ(on.driver().planCache().size(), 2u);

    // Retune device 0's edge identically on both services (their
    // deterministic calibration published identical bases, so the
    // drifted parameters coincide too).
    const DriftModel model{1e-4, 5e-3};
    RecalibEdgeRequest retune;
    retune.device_id = 0;
    retune.edge_id = 0;
    retune.cycle = 1;
    retune.params = driftParamsAt(
        on.driver().device(0).device.edgeParams(0), model, 55, 0, 1);
    on.recalibrate({retune});
    off.recalibrate({retune});
    on.drainRecalibration();
    off.drainRecalibration();

    // The sweep drops exactly device 0's plan.
    on.driver().retireCache();
    EXPECT_EQ(on.driver().planCache().stats().retired, 1u);
    EXPECT_EQ(on.driver().planCache().size(), 1u);

    // Device 1's plan survived and still serves exact repeats.
    const CompileRequest repeat1(20, 1, "ansatz",
                                 ansatzCircuit(3, 0.7));
    const CompileResponse r1 = on.compileSync(repeat1);
    ASSERT_EQ(r1.status, CompileStatus::Ok) << r1.error;
    EXPECT_EQ(r1.plan_path, PlanServePath::Memo);

    // Device 0's swept plan is never served: the request runs the
    // full pipeline at the new epoch, bit-identical to plan-off.
    const CompileRequest repeat0(21, 0, "ansatz",
                                 ansatzCircuit(3, 0.7));
    const CompileResponse r0_on = on.compileSync(repeat0);
    const CompileResponse r0_off = off.compileSync(repeat0);
    ASSERT_EQ(r0_on.status, CompileStatus::Ok) << r0_on.error;
    EXPECT_EQ(r0_on.plan_path, PlanServePath::None);
    EXPECT_EQ(r0_on.basis_epoch, on.basisEpoch(0));
    EXPECT_EQ(compileResponseDigest(r0_on),
              compileResponseDigest(r0_off));

    // The fresh compile re-seeded the plan tier at the new epoch.
    // Same request id: the memo-served digest must be bit-identical
    // to the pipeline-served one (the digest mixes request_id).
    const CompileResponse r0_again = on.compileSync(repeat0);
    EXPECT_EQ(r0_again.plan_path, PlanServePath::Memo);
    EXPECT_EQ(compileResponseDigest(r0_again),
              compileResponseDigest(r0_on));

    on.stop();
    off.stop();
}

// --- Probation: plans earn their residency --------------------------

class PlanCacheProbation : public PlanTest
{
};

/** A one-shot plan on device 1 at epoch 1, unique per `i`. */
TranspilePlan
oneShotPlan(uint64_t i)
{
    return syntheticPlan(100000 + i, {{1, 1}});
}

TEST_F(PlanCacheProbation, OneShotStoresKeepOnlyTheProbationWindow)
{
    PlanCache pc;
    const TranspilePlan memo_head = syntheticPlan(1, {{0, 1}});
    const TranspilePlan replay_head = syntheticPlan(2, {{0, 1}});
    pc.store(memo_head);
    pc.memoize(memo_head.key, 11, CompiledCircuitResult{});
    pc.store(replay_head);

    constexpr uint64_t kOneShots = 640;
    for (uint64_t i = 0; i < kOneShots; ++i) {
        pc.store(oneShotPlan(i));
        // Each head's first served hit lands among the one-shots.
        if (i == 10) {
            CompiledCircuitResult out;
            ASSERT_TRUE(pc.lookupMemo(memo_head.key, 11, &out));
        }
        if (i == 20)
            pc.noteReplayHit(replay_head.key);
    }

    const PlanCacheStats st = pc.stats();
    EXPECT_EQ(pc.size(), PlanCache::kProbationPlans + 2);
    EXPECT_EQ(st.plans, pc.size());
    EXPECT_EQ(st.stores, kOneShots + 2);
    EXPECT_EQ(st.evicted, st.stores - pc.size());
    EXPECT_NE(pc.lookup(memo_head.key), nullptr);
    EXPECT_NE(pc.lookup(replay_head.key), nullptr);
    // The survivors are the newest one-shots, in store order.
    for (uint64_t i = 0; i < kOneShots; ++i) {
        const bool held = pc.lookup(oneShotPlan(i).key) != nullptr;
        EXPECT_EQ(held, i >= kOneShots - PlanCache::kProbationPlans)
            << "one-shot " << i;
    }
}

TEST_F(PlanCacheProbation, HitPlansSurviveAThousandOneShotsAndStillMemo)
{
    CompileService on(tinyServiceOptions(true));
    on.start({quadSpec(31)});
    PlanCache &pc = on.driver().planCache();

    const auto serve = [&](uint64_t id, const char *name,
                           const Circuit &c) {
        const CompileResponse r =
            on.compileSync(CompileRequest(id, 0, name, c));
        EXPECT_EQ(r.status, CompileStatus::Ok) << r.error;
        return r.plan_path;
    };
    // One memo hit for qft3, one replay hit for the ansatz.
    EXPECT_EQ(serve(1, "qft3", qftCircuit(3)), PlanServePath::None);
    EXPECT_EQ(serve(2, "qft3", qftCircuit(3)), PlanServePath::Memo);
    EXPECT_EQ(serve(3, "ansatz", ansatzCircuit(3, 0.7)),
              PlanServePath::None);
    EXPECT_EQ(serve(4, "ansatz", ansatzCircuit(3, 1.9)),
              PlanServePath::Replay);

    for (uint64_t i = 0; i < 1000; ++i)
        pc.store(oneShotPlan(i));
    EXPECT_EQ(pc.stats().evicted, 1000 - PlanCache::kProbationPlans);
    EXPECT_EQ(pc.size(), PlanCache::kProbationPlans + 2);

    EXPECT_EQ(serve(5, "qft3", qftCircuit(3)), PlanServePath::Memo);
    EXPECT_EQ(serve(6, "ansatz", ansatzCircuit(3, 1.9)),
              PlanServePath::Memo);
    on.stop();
}

TEST_F(PlanCacheProbation, EvictedShapeRecompilesLikePlanOff)
{
    CompileService off(tinyServiceOptions(false));
    CompileService on(tinyServiceOptions(true));
    off.start({quadSpec(31)});
    on.start({quadSpec(31)});
    PlanCache &pc = on.driver().planCache();

    const CompileRequest first(1, 0, "ansatz", ansatzCircuit(3, 0.7));
    ASSERT_EQ(on.compileSync(first).status, CompileStatus::Ok);
    ASSERT_EQ(pc.size(), 1u);
    // Stored but never hit: 64 newer one-shots push it out.
    for (uint64_t i = 0; i < PlanCache::kProbationPlans; ++i)
        pc.store(oneShotPlan(i));
    EXPECT_EQ(pc.stats().evicted, 1u);
    EXPECT_EQ(pc.size(), PlanCache::kProbationPlans);

    const CompileRequest again(2, 0, "ansatz", ansatzCircuit(3, 0.7));
    const CompileResponse r_on = on.compileSync(again);
    const CompileResponse r_off = off.compileSync(again);
    ASSERT_EQ(r_on.status, CompileStatus::Ok) << r_on.error;
    ASSERT_EQ(r_off.status, CompileStatus::Ok) << r_off.error;
    EXPECT_EQ(r_on.plan_path, PlanServePath::None);
    EXPECT_EQ(compileResponseDigest(r_on), compileResponseDigest(r_off));
    EXPECT_EQ(canonicalBytes(r_on), canonicalBytes(r_off));

    // The miss stored the shape again, so its next repeat memos.
    EXPECT_EQ(on.compileSync(again).plan_path, PlanServePath::Memo);
    on.stop();
    off.stop();
}

TEST_F(PlanCacheProbation, LoadedPlansAreNeverEvicted)
{
    PlanCache pc;
    std::vector<TranspilePlan> loaded;
    for (uint64_t i = 0; i < 10; ++i) {
        loaded.push_back(syntheticPlan(500 + i, {{0, 1}}));
        ASSERT_TRUE(pc.insertLoaded(loaded.back()));
    }
    for (uint64_t i = 0; i < 640; ++i)
        pc.store(oneShotPlan(i));

    EXPECT_EQ(pc.size(), PlanCache::kProbationPlans + loaded.size());
    EXPECT_EQ(pc.stats().evicted, 640 - PlanCache::kProbationPlans);
    EXPECT_EQ(pc.stats().loaded, loaded.size());
    for (const TranspilePlan &p : loaded)
        EXPECT_NE(pc.lookup(p.key), nullptr);
}

TEST_F(PlanCacheProbation, ErasedThenRestoredKeyKeepsItsNewPlace)
{
    // Retirement and clear() both erase the key; its second store
    // must queue behind plans stored before it, not at its first
    // store's place.
    const TranspilePlan key_plan = syntheticPlan(7, {{0, 1}});
    for (const bool by_retire : {true, false}) {
        SCOPED_TRACE(by_retire ? "retire" : "clear");
        PlanCache pc;
        pc.store(key_plan);
        if (by_retire)
            ASSERT_EQ(pc.retire({{0, 2}, {1, 1}}), 1u);
        else
            pc.clear();
        ASSERT_EQ(pc.size(), 0u);

        constexpr uint64_t kOlder = 10;
        for (uint64_t i = 0; i < kOlder; ++i)
            pc.store(oneShotPlan(i));
        pc.store(key_plan);
        uint64_t next = kOlder;
        while (pc.size() < PlanCache::kProbationPlans)
            pc.store(oneShotPlan(next++));
        // Each further store evicts one of the older plans first.
        for (uint64_t i = 0; i < kOlder; ++i) {
            pc.store(oneShotPlan(next++));
            EXPECT_NE(pc.lookup(key_plan.key), nullptr)
                << "evicted after " << i + 1 << " of " << kOlder;
        }
        EXPECT_EQ(pc.stats().evicted, kOlder);
        pc.store(oneShotPlan(next++));
        EXPECT_EQ(pc.lookup(key_plan.key), nullptr);
        EXPECT_EQ(pc.stats().evicted, kOlder + 1);
    }
}

TEST_F(PlanCacheProbation, ConcurrentStoreHitRetire)
{
    // Two storers stream one-shot plans, alternately on device 1,
    // whose epoch a retirer bumps and sweeps, and on device 2, which
    // stays live (so eviction must happen however the threads
    // interleave), while two hitters each serve their own head
    // shapes on device 0 the way runCompile does: memo hit, else
    // store and memoize. Plans are only ever created by a store into
    // an absent key, so every one of them ends up held, evicted or
    // retired.
    PlanCache pc;
    constexpr int kHitters = 2;
    constexpr uint64_t kHeadsPerHitter = 4;
    constexpr uint64_t kStoresPerStorer = 3000;
    constexpr uint64_t kFingerprint = 5;
    const auto headPlan = [](int hitter, uint64_t h) {
        return syntheticPlan(
            static_cast<uint64_t>(hitter) * kHeadsPerHitter + h,
            {{0, 1}});
    };
    for (int t = 0; t < kHitters; ++t) {
        for (uint64_t h = 0; h < kHeadsPerHitter; ++h) {
            pc.store(headPlan(t, h));
            pc.memoize(headPlan(t, h).key, kFingerprint,
                       CompiledCircuitResult{});
        }
    }

    std::atomic<bool> go{false};
    const auto awaitGo = [&] {
        while (!go.load())
            std::this_thread::yield();
    };
    std::atomic<uint64_t> epoch{1};
    std::atomic<int> storing{2};
    std::atomic<uint64_t> head_restores{0};
    std::atomic<bool> bounded{true};
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            awaitGo();
            for (uint64_t i = 0; i < kStoresPerStorer; ++i)
                pc.store(syntheticPlan(
                    100000 + static_cast<uint64_t>(t) * kStoresPerStorer
                        + i,
                    {i % 2 == 0 ? DeviceEpoch{1, epoch.load()}
                                : DeviceEpoch{2, 1}}));
            storing.fetch_sub(1);
        });
    }
    for (int t = 0; t < kHitters; ++t) {
        threads.emplace_back([&, t] {
            awaitGo();
            while (storing.load() > 0) {
                for (uint64_t h = 0; h < kHeadsPerHitter; ++h) {
                    const TranspilePlan head = headPlan(t, h);
                    CompiledCircuitResult out;
                    if (!pc.lookupMemo(head.key, kFingerprint, &out)) {
                        pc.store(head);
                        pc.memoize(head.key, kFingerprint, out);
                        head_restores.fetch_add(1);
                    }
                }
                // Only heads are ever hit, so at most every head plus
                // the probation window is held.
                if (pc.size() > kHitters * kHeadsPerHitter
                                    + PlanCache::kProbationPlans)
                    bounded.store(false);
            }
        });
    }
    threads.emplace_back([&] {
        awaitGo();
        while (storing.load() > 0) {
            const uint64_t e = epoch.fetch_add(1) + 1;
            pc.retire({{0, 1}, {1, e}, {2, 1}});
            std::this_thread::yield();
        }
    });
    go.store(true);
    for (std::thread &t : threads)
        t.join();

    const PlanCacheStats st = pc.stats();
    const uint64_t created = kHitters * kHeadsPerHitter
                             + head_restores.load()
                             + 2 * kStoresPerStorer;
    EXPECT_TRUE(bounded.load());
    EXPECT_EQ(st.stores, created);
    EXPECT_EQ(st.plans + st.evicted + st.retired, created);
    EXPECT_GT(st.evicted, 0u);

    // Serve every head once more, then stream more one-shots than
    // the window: the heads have all been hit, so they all stay.
    for (int t = 0; t < kHitters; ++t) {
        for (uint64_t h = 0; h < kHeadsPerHitter; ++h) {
            const TranspilePlan head = headPlan(t, h);
            CompiledCircuitResult out;
            if (!pc.lookupMemo(head.key, kFingerprint, &out)) {
                pc.store(head);
                pc.noteReplayHit(head.key);
            }
        }
    }
    for (uint64_t i = 0; i < 2 * PlanCache::kProbationPlans; ++i)
        pc.store(oneShotPlan(i));
    for (int t = 0; t < kHitters; ++t)
        for (uint64_t h = 0; h < kHeadsPerHitter; ++h)
            EXPECT_NE(pc.lookup(headPlan(t, h).key), nullptr);
}

// --- Snapshot persistence of the plans section ----------------------

TEST_F(PlanTest, SnapshotRoundTripsPlansByteIdentically)
{
    std::vector<TranspilePlan> plans;
    plans.push_back(syntheticPlan(900, {{0, 3}}));
    plans.push_back(syntheticPlan(901, {{0, 3}, {1, 2}}));
    plans.push_back(syntheticPlan(902, {{2, 7}}));

    const std::vector<uint8_t> bytes =
        encodeCacheSnapshot({}, plans);
    std::vector<CacheSnapshotEntry> out_entries;
    std::vector<TranspilePlan> out_plans;
    const CacheIoResult r = decodeCacheSnapshot(
        bytes.data(), bytes.size(), &out_entries, &out_plans);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_TRUE(out_entries.empty());
    ASSERT_EQ(out_plans.size(), plans.size());

    // Decoded plans are field-identical (keys are sorted, and the
    // inputs above are already in key order).
    for (size_t i = 0; i < plans.size(); ++i) {
        EXPECT_EQ(out_plans[i].key, plans[i].key);
        EXPECT_EQ(out_plans[i].num_physical, plans[i].num_physical);
        EXPECT_EQ(out_plans[i].initial_layout,
                  plans[i].initial_layout);
        EXPECT_EQ(out_plans[i].final_layout, plans[i].final_layout);
        EXPECT_EQ(out_plans[i].swaps_inserted,
                  plans[i].swaps_inserted);
        EXPECT_EQ(out_plans[i].ops, plans[i].ops);
        ASSERT_EQ(out_plans[i].class_keys.size(),
                  plans[i].class_keys.size());
    }

    // snapshot -> restore -> snapshot reproduces the exact bytes.
    const std::vector<uint8_t> bytes2 =
        encodeCacheSnapshot(std::move(out_entries),
                            std::move(out_plans));
    EXPECT_EQ(bytes2, bytes);
}

TEST_F(PlanTest, PlanCacheSaveLoadMergesThroughTheSnapshotFile)
{
    PlanCache pc;
    pc.store(syntheticPlan(900, {{0, 3}}));
    pc.store(syntheticPlan(901, {{1, 2}}));

    const std::string path =
        ::testing::TempDir() + "qbasis_plan_snapshot.qbwc";
    SharedDecompositionCache cache(2);
    ASSERT_TRUE(saveCacheSnapshot(cache, pc, path).ok());

    SharedDecompositionCache cache2(2);
    PlanCache pc2;
    // Pre-seed the destination with a conflicting resident plan:
    // resident wins the merge, mirroring the class-entry rule.
    TranspilePlan resident = syntheticPlan(900, {{0, 3}});
    resident.swaps_inserted = 99;
    pc2.store(resident);

    const CacheIoResult r = loadCacheSnapshot(path, cache2, &pc2);
    ASSERT_TRUE(r.ok()) << r.message;
    EXPECT_EQ(pc2.size(), 2u);
    EXPECT_EQ(pc2.stats().loaded, 1u); // only the absent plan merged
    const auto kept = pc2.lookup(resident.key);
    ASSERT_NE(kept, nullptr);
    EXPECT_EQ(kept->swaps_inserted, 99u);
    std::remove(path.c_str());
}

TEST_F(PlanTest, CorruptPlansSectionAndOldVersionsAreRejected)
{
    std::vector<TranspilePlan> plans;
    plans.push_back(syntheticPlan(900, {{0, 3}}));
    const std::vector<uint8_t> bytes =
        encodeCacheSnapshot({}, plans);

    {
        // Flip one byte inside the plans section (it is the last
        // section of the file): its CRC must reject the load.
        std::vector<uint8_t> bad = bytes;
        bad.back() ^= 0x10u;
        std::vector<TranspilePlan> out;
        EXPECT_EQ(decodeCacheSnapshot(bad.data(), bad.size(), nullptr,
                                      &out)
                      .status,
                  CacheIoStatus::ChecksumMismatch);
        EXPECT_TRUE(out.empty());
    }
    {
        // A v2 snapshot (no plans section) is rejected outright --
        // forge the version field; it is checked before the header
        // CRC, so no reseal is needed.
        std::vector<uint8_t> bad = bytes;
        bad[8] = 2;
        EXPECT_EQ(decodeCacheSnapshot(bad.data(), bad.size(), nullptr,
                                      nullptr)
                      .status,
                  CacheIoStatus::VersionMismatch);
    }
}

} // namespace
} // namespace qbasis
