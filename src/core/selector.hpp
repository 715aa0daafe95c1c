#ifndef QBASIS_CORE_SELECTOR_HPP
#define QBASIS_CORE_SELECTOR_HPP

/**
 * @file
 * First-intersection basis-gate selection on sampled Cartan
 * trajectories (paper Section V-E): walk the trajectory at
 * controller resolution and return the first sample whose canonical
 * coordinates satisfy the criterion. The continuous crossing of the
 * paper's entry faces is also reported for comparison.
 *
 * BasisGateSelector does the walk one sample at a time, so a caller
 * that produces samples (calibrateEdge() streams them from the
 * integrator) can stop as soon as the answer is known.
 */

#include <optional>

#include "core/criteria.hpp"
#include "weyl/geometry.hpp"
#include "weyl/trajectory.hpp"

namespace qbasis {

/** A selected per-edge basis gate. */
struct SelectedBasisGate
{
    size_t index = 0;         ///< Sample index in the trajectory.
    double duration_ns = 0.0; ///< Pulse duration of the gate.
    Mat4 gate;                ///< Unitary (unitarized propagator).
    CartanCoords coords;      ///< Canonical coordinates.
    double leakage = 0.0;     ///< Leakage at this sample.
    /** Entry-face crossing time from segment intersection (-1 when
     *  not applicable for the criterion). */
    double continuous_crossing_ns = -1.0;
};

/** Options for selectBasisGate(). */
struct SelectorOptions
{
    double min_duration_ns = 1.0; ///< Skip the trivial t ~ 0 samples.
    double max_leakage = 1.0;     ///< Reject samples leaking more.
};

/**
 * Incremental first-intersection selection: push a trajectory's
 * samples in order; once done(), further samples change nothing, so
 * the selection equals selectBasisGate() over the whole trajectory.
 */
class BasisGateSelector
{
  public:
    explicit BasisGateSelector(SelectionCriterion criterion,
                               const SelectorOptions &opts = {});

    /** Feed the next sample (durations non-decreasing). */
    void push(const TrajectoryPoint &pt);

    /**
     * True once the first satisfying sample and the continuous
     * crossing are both known (the crossing is known at once for
     * criteria without entry faces): later samples change nothing.
     */
    bool done() const;

    /**
     * First pushed sample satisfying the criterion, with the first
     * crossing among the pushed segments (-1 when none yet), or
     * nullopt.
     */
    std::optional<SelectedBasisGate> selected() const;

  private:
    SelectionCriterion criterion_;
    SelectorOptions opts_;
    std::vector<Triangle> faces_; ///< Entry faces of the criterion.
    size_t pushed_ = 0;
    CartanCoords last_coords_; ///< Previous sample (segment start).
    double last_duration_ = 0.0;
    std::optional<SelectedBasisGate> selected_;
    std::optional<double> crossing_ns_;
};

/**
 * First trajectory sample satisfying the criterion, or nullopt when
 * the trajectory never enters the target region: a
 * BasisGateSelector over the trajectory's samples.
 */
std::optional<SelectedBasisGate>
selectBasisGate(const Trajectory &traj, SelectionCriterion criterion,
                const SelectorOptions &opts = {});

} // namespace qbasis

#endif // QBASIS_CORE_SELECTOR_HPP
