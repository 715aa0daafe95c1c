#include "core/selector.hpp"

#include "monodromy/regions.hpp"

namespace qbasis {

namespace {

/**
 * Entry faces whose first intersection with the sampled coordinate
 * polyline is the continuous crossing (Fig. 4 of the paper). Only
 * the SWAP-3 and CNOT-2 faces have closed forms.
 */
std::vector<Triangle>
entryFaces(SelectionCriterion criterion)
{
    std::vector<Triangle> faces;
    switch (criterion) {
      case SelectionCriterion::Criterion1:
        faces = swap3EntryFaces();
        break;
      case SelectionCriterion::Criterion2: {
        faces = swap3EntryFaces();
        const auto &cnot_faces = cnot2EntryFaces();
        faces.insert(faces.end(), cnot_faces.begin(),
                     cnot_faces.end());
        break;
      }
      default:
        break;
    }
    return faces;
}

} // namespace

BasisGateSelector::BasisGateSelector(SelectionCriterion criterion,
                                     const SelectorOptions &opts)
    : criterion_(criterion), opts_(opts), faces_(entryFaces(criterion))
{}

void
BasisGateSelector::push(const TrajectoryPoint &pt)
{
    if (!selected_ && pt.duration >= opts_.min_duration_ns
        && pt.leakage <= opts_.max_leakage
        && criterionSatisfied(criterion_, pt.coords)) {
        SelectedBasisGate sel;
        sel.index = pushed_;
        sel.duration_ns = pt.duration;
        sel.gate = pt.unitary;
        sel.coords = pt.coords;
        sel.leakage = pt.leakage;
        selected_ = sel;
    }
    if (pushed_ > 0 && !crossing_ns_) {
        for (const Triangle &f : faces_) {
            const auto s =
                segmentTriangleIntersection(last_coords_, pt.coords, f);
            if (s) {
                crossing_ns_ = last_duration_
                               + *s * (pt.duration - last_duration_);
                break;
            }
        }
    }
    last_coords_ = pt.coords;
    last_duration_ = pt.duration;
    ++pushed_;
}

bool
BasisGateSelector::done() const
{
    return selected_ && (crossing_ns_ || faces_.empty());
}

std::optional<SelectedBasisGate>
BasisGateSelector::selected() const
{
    std::optional<SelectedBasisGate> sel = selected_;
    if (sel)
        sel->continuous_crossing_ns = crossing_ns_.value_or(-1.0);
    return sel;
}

std::optional<SelectedBasisGate>
selectBasisGate(const Trajectory &traj, SelectionCriterion criterion,
                const SelectorOptions &opts)
{
    BasisGateSelector selector(criterion, opts);
    for (size_t i = 0; i < traj.size() && !selector.done(); ++i)
        selector.push(traj.at(i));
    return selector.selected();
}

} // namespace qbasis
