#ifndef QBASIS_CORE_RECALIB_HPP
#define QBASIS_CORE_RECALIB_HPP

/**
 * @file
 * Versioned, atomically-swapped calibration state -- the handle that
 * lets circuit compilation keep serving while edges recalibrate.
 *
 * A VersionedBasisSet holds an immutable CalibratedBasisSet behind a
 * shared_ptr. Readers take a CalibrationSnapshot (one pointer copy
 * under a briefly-held lock -- no waiting on any in-flight
 * recalibration) and compile against that frozen set for the whole
 * pass; writers publish copy-on-write replacements, either a whole
 * set or a single edge. A reader therefore never observes a
 * half-published basis: it either sees the old set or the new one,
 * never a mix of a new `edges[e]` with an old `bases[e]`.
 *
 * Versions count publishes. Post-cycle version numbers are
 * deterministic (one publish per recalibrated edge per cycle), even
 * though the publish *order* of concurrent edges is not -- which is
 * exactly what the sync-vs-async bit-identical report contract
 * needs.
 *
 * The Weyl-class caches make this coexistence cheap: cache keys
 * include the basis hash, so decompositions against the last
 * published basis and against the in-flight replacement live in
 * different cache lines and never invalidate each other.
 */

#include <cstdint>
#include <memory>
#include <mutex>

#include "core/experiment.hpp"

namespace qbasis {

/** One frozen view of a device's calibration. */
struct CalibrationSnapshot
{
    uint64_t version = 0;
    std::shared_ptr<const CalibratedBasisSet> set;

    const CalibratedBasisSet &operator*() const { return *set; }
    const CalibratedBasisSet *operator->() const { return set.get(); }
};

/** Atomically-swapped, versioned calibration state of one device. */
class VersionedBasisSet
{
  public:
    VersionedBasisSet() = default;
    explicit VersionedBasisSet(CalibratedBasisSet initial);

    VersionedBasisSet(const VersionedBasisSet &) = delete;
    VersionedBasisSet &operator=(const VersionedBasisSet &) = delete;

    /**
     * Current set + version. Never blocks on recalibration: the lock
     * protects only the pointer/version copy.
     */
    CalibrationSnapshot snapshot() const;

    /** Publish a whole replacement set; returns the new version. */
    uint64_t publish(CalibratedBasisSet next);

    /**
     * Publish one edge's recalibration outcome: copy-on-write the
     * current set, replace `edges[cal.edge_id]` and
     * `bases[cal.edge_id]` together, swap. Readers see both arrays
     * change atomically.
     */
    uint64_t publishEdge(const EdgeCalibration &cal,
                         const EdgeBasis &basis);

    /** Publishes so far (0 until the first publish()). */
    uint64_t version() const;

  private:
    mutable std::mutex mutex_;
    std::shared_ptr<const CalibratedBasisSet> current_;
    uint64_t version_ = 0;
};

/** Compile result annotated with the calibration version it used. */
struct VersionedCompileResult
{
    uint64_t basis_version = 0;
    /** Wall time spent acquiring the snapshot -- the only point at
     *  which the compile path could ever have waited on
     *  recalibration state (it holds no lock beyond a pointer copy,
     *  so this stays at microseconds by construction). */
    double snapshot_wait_ms = 0.0;
    CompiledCircuitResult result;
};

/**
 * Append the (basis gate, synthesis options) context hashes of every
 * edge of the snapshot's set to `out` (unsorted, duplicates kept --
 * callers sort+unique fleet-wide). These are the refcount roots of
 * cycle-aware cache retirement: a Weyl-class entry is *live* exactly
 * when its key.context appears in some live VersionedBasisSet
 * snapshot, and retirable otherwise (its basis was drifted away and
 * no compile can ever look it up again).
 */
void appendLiveContexts(const CalibrationSnapshot &snap,
                        const SynthOptions &synth,
                        std::vector<uint64_t> &out);

} // namespace qbasis

#endif // QBASIS_CORE_RECALIB_HPP
