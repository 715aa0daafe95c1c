#ifndef QBASIS_SYNTH_ENGINE_HPP
#define QBASIS_SYNTH_ENGINE_HPP

/**
 * @file
 * Parallel two-qubit synthesis engine.
 *
 * The engine batches every synthesis job of a compilation pass (all
 * 2Q gates of a circuit, or all SWAP/CNOT summaries of a device
 * sweep), dedupes them through the shared Weyl-class cache, and fans
 * the remaining class syntheses over a work-stealing thread pool:
 *
 *  - one *job* per distinct (basis, options, canonical-coords) class;
 *  - per job, a *wave* of multistart restarts at the current depth
 *    runs concurrently, each restart on its own splitmix-derived RNG
 *    stream;
 *  - the first restart (in index order) that reaches the target
 *    infidelity wins; restarts with larger indices are cooperatively
 *    cancelled (lower indices run to completion so the winner never
 *    depends on thread timing), and queued restarts that have not
 *    started yet are *pruned* outright once a smaller index succeeds
 *    (they would have been cancelled anyway, so skipping their setup
 *    cannot change the winner);
 *  - if a wave fails, the job advances one depth and launches the
 *    next wave (waves of different jobs interleave freely).
 *
 * This is the only synthesis implementation: a batch's own classes
 * and the re-claim of a class whose concurrent owner abandoned it
 * both run through these waves, on the pool's Normal lane. A
 * recalibration synthesizes nothing: the first compile against a
 * retuned basis claims and synthesizes its classes like any other.
 * Results are a pure function of (class, basis, options) for a fixed
 * seed, independent of thread count and completion order: restart
 * streams are derived (not shared), selection is by index rather
 * than by completion time, and classes publish in submission order.
 * The tests keep a serial transcription of the same rule
 * (tests/serial_synth.hpp) as the byte-for-byte reference.
 */

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "synth/cache.hpp"
#include "synth/shared_cache.hpp"
#include "util/thread_pool.hpp"

namespace qbasis {

/** One two-qubit synthesis request (a target gate against a basis). */
struct SynthRequest
{
    int edge_id = -1; ///< Originating device edge (diagnostics only).
    Mat4 target;      ///< Gate to decompose.
    Mat4 basis;       ///< Edge basis gate to decompose into.
};

/**
 * A batch's requests read by index rather than from an array: the
 * target and basis of request i. `target` is called from pool
 * threads and must be safe to call concurrently.
 */
struct SynthBatchView
{
    size_t size = 0;
    std::function<Mat4(size_t)> target;
    std::function<const Mat4 &(size_t)> basis;
};

/**
 * Phases 1-3 of a synthesis batch: each request's canonical KAK,
 * Weyl-class key and published class decomposition, in request
 * order. Request i's decomposition is
 * DecompositionCache::dressClassDecomposition(*classes[i], kaks[i],
 * target i); the class pointers stay valid until the cache is
 * cleared.
 */
struct ResolvedClasses
{
    std::vector<CanonicalKak> kaks;
    std::vector<DecompositionCache::ClassKey> keys;
    std::vector<const TwoQubitDecomposition *> classes;
};

/**
 * A class a batch claimed (SharedDecompositionCache::acquire
 * returned Claim::Owner) and synthesizes itself: the claim, held
 * until the class is published, and the basis the class decomposes
 * into.
 */
struct OwnedClass
{
    ClaimGuard claim;
    Mat4 basis;
};

/** Thread-pooled batch synthesizer. */
class SynthEngine
{
  public:
    /** Create an engine with its own pool; 0 threads = hardware. */
    explicit SynthEngine(int threads = 0);

    /**
     * Create an engine on a borrowed pool (the fleet driver's engine
     * and each compile-service dispatcher's engine share the
     * driver's pool). The pool must outlive the engine.
     */
    explicit SynthEngine(ThreadPool &pool);

    /**
     * Multi-client batch submission against the fleet-wide shared
     * cache, on behalf of device `device_id`.
     *
     * Safe to call concurrently from multiple threads on the same
     * engine or on sibling engines sharing the pool. The calling
     * thread runs the batch's tasks alongside the workers (see
     * TaskGroup). Classes already claimed by a concurrent batch are
     * awaited rather than re-synthesized, so each class is
     * synthesized once per process; that wait sleeps, so a caller
     * that is a pool task idles its worker while it lasts.
     * Returns one decomposition per request, in request order; the
     * cache's hit/miss counters advance exactly as if the requests
     * had been looked up serially in order. Results are bit-identical
     * for a fixed SynthOptions::seed, independent of shard count, as
     * long as clients sharing a class hash use byte-identical basis
     * matrices (true for replicated fleet devices; sub-1e-9 basis
     * differences would share the class anyway by construction of
     * the key).
     */
    std::vector<TwoQubitDecomposition>
    synthesizeBatch(const std::vector<SynthRequest> &requests,
                    SharedDecompositionCache &cache,
                    const SynthOptions &opts, int device_id = 0);

    /**
     * synthesizeBatch without its last phase: resolve every request's
     * Weyl class (KAK, class key, cache acquire, synthesis of the
     * classes this batch owns, waits on the others) and leave the
     * per-request dressing to the caller. The cache counters and
     * every published class are the same as synthesizeBatch's, which
     * is this plus a parallel dressing pass.
     */
    ResolvedClasses
    resolveClasses(const SynthBatchView &batch,
                   SharedDecompositionCache &cache,
                   const SynthOptions &opts, int device_id = 0);

    /** Worker threads in the pool. */
    int threadCount() const { return pool_->size(); }

    /** The pool the engine's batches run on. */
    ThreadPool &pool() const { return *pool_; }

    /** Cumulative restart accounting across batches. */
    struct Stats
    {
        /** Restarts that actually ran the optimizer. */
        uint64_t restarts_run = 0;
        /** Queued restarts skipped at dequeue time because a
         *  smaller-index restart of their wave had already reached
         *  the target (submission-time pruning). */
        uint64_t restarts_pruned = 0;
        /** Restarts that threw and were contained as aborted slots
         *  (the job fails only when every restart of every wave
         *  fails; see the failure-model notes in the README). */
        uint64_t restarts_failed = 0;
        /** Mat4 kernel backend the engine's synthesis math ran on
         *  ("scalar" or "avx2"; see linalg/mat4_kernels.hpp). */
        const char *mat4_backend = "";
    };

    Stats stats() const;

  private:
    using ClassMap = std::map<DecompositionCache::ClassKey,
                              const TwoQubitDecomposition *>;

    /**
     * Synthesize classes the batch owns and publish them in order;
     * returns the published decompositions in that order. The
     * classes run as one task group, through the depth prefetch,
     * waves, winner rule and pruning, and the calling thread runs
     * their tasks too. It never waits on another client's claim. If
     * it throws, every claim it was handed and has not published is
     * abandoned, so waiters re-claim.
     */
    std::vector<const TwoQubitDecomposition *>
    synthesizeOwned(std::vector<OwnedClass> classes,
                    SharedDecompositionCache &cache,
                    const SynthOptions &opts);

    /**
     * Phases 1-3 over `n` requests read through `target(i)` (called
     * from pool threads) and `basis(i)`: fill each request's KAK and
     * class key, and return every distinct class's decomposition.
     * synthesizeBatch instantiates it over its request array and
     * resolveClasses over a SynthBatchView.
     */
    template <class Target, class Basis>
    ClassMap resolveBatch(size_t n, const Target &target,
                          const Basis &basis,
                          SharedDecompositionCache &cache,
                          const SynthOptions &opts, int device_id,
                          std::vector<CanonicalKak> &kaks,
                          std::vector<DecompositionCache::ClassKey> &keys);

    void readMetrics(MetricsSource::Out &out) const;

    std::unique_ptr<ThreadPool> owned_; ///< Null for borrowed pools.
    ThreadPool *pool_;
    std::atomic<uint64_t> restarts_run_{0};
    std::atomic<uint64_t> restarts_pruned_{0};
    std::atomic<uint64_t> restarts_failed_{0};
    /** Last member: the registry reads the restart counters here. */
    MetricsSource metrics_{
        [this](MetricsSource::Out &out) { readMetrics(out); }};
};

/**
 * One synthesis client: an engine on a pool, the shared Weyl-class
 * cache and a device id. It is the only route synthesis
 * takes: the transpiler, the experiment drivers, the fleet driver,
 * the compile service and the bench drivers all submit through it,
 * which is what lets identical bases on different devices dedupe
 * onto one synthesis. A standalone caller builds one engine, one
 * SharedDecompositionCache and one client over them.
 */
struct SynthClient
{
    SynthEngine &engine;
    SharedDecompositionCache &cache;
    int device_id = 0;

    std::vector<TwoQubitDecomposition>
    synthesizeBatch(const std::vector<SynthRequest> &requests,
                    const SynthOptions &opts) const
    {
        return engine.synthesizeBatch(requests, cache, opts,
                                      device_id);
    }

    ResolvedClasses
    resolveClasses(const SynthBatchView &batch,
                   const SynthOptions &opts) const
    {
        return engine.resolveClasses(batch, cache, opts, device_id);
    }
};

/** Second name of SynthClient: the repository benchmark (qbench/)
 *  spells the compile API's synthesis handle `SynthRoute(client)`. */
using SynthRoute = SynthClient;

} // namespace qbasis

#endif // QBASIS_SYNTH_ENGINE_HPP
