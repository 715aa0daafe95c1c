#include "core/recalib.hpp"

#include "util/logging.hpp"

namespace qbasis {

VersionedBasisSet::VersionedBasisSet(CalibratedBasisSet initial)
{
    publish(std::move(initial));
}

CalibrationSnapshot
VersionedBasisSet::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CalibrationSnapshot snap;
    snap.version = version_;
    snap.set = current_;
    return snap;
}

uint64_t
VersionedBasisSet::publish(CalibratedBasisSet next)
{
    auto replacement = std::make_shared<const CalibratedBasisSet>(
        std::move(next));
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = std::move(replacement);
    return ++version_;
}

uint64_t
VersionedBasisSet::publishEdge(const EdgeCalibration &cal,
                               const EdgeBasis &basis)
{
    const size_t edge = static_cast<size_t>(cal.edge_id);
    // Copy-on-write with a compare-and-swap retry: the whole-set
    // copy always happens outside the lock, so the lock is never
    // held longer than a pointer compare + swap and snapshot()
    // stays wait-free in practice. Concurrent publishers to
    // *different* edges (the normal case when a cycle retunes
    // several edges of one device) just retry against the freshest
    // set; publishers to the *same* edge are serialized by the
    // scheduler's per-edge FIFO queues.
    for (;;) {
        CalibrationSnapshot snap = snapshot();
        if (!snap.set || edge >= snap.set->edges.size())
            panic("VersionedBasisSet: publishEdge on unknown edge %d",
                  cal.edge_id);
        CalibratedBasisSet next = *snap.set;
        next.edges[edge] = cal;
        next.bases[edge] = basis;
        auto replacement = std::make_shared<const CalibratedBasisSet>(
            std::move(next));

        std::lock_guard<std::mutex> lock(mutex_);
        if (current_ != snap.set)
            continue; // lost a race; rebuild from the fresher set
        current_ = std::move(replacement);
        return ++version_;
    }
}

uint64_t
VersionedBasisSet::version() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return version_;
}

void
appendLiveContexts(const CalibrationSnapshot &snap,
                   const SynthOptions &synth,
                   std::vector<uint64_t> &out)
{
    if (!snap.set)
        return;
    for (const EdgeBasis &basis : snap.set->bases)
        out.push_back(DecompositionCache::contextHash(basis.gate,
                                                      synth));
}

} // namespace qbasis
