#ifndef QBENCH_SHAPES_HPP
#define QBENCH_SHAPES_HPP

/**
 * @file
 * The circuits the workloads compile, and the open-loop request
 * stream of the serving workloads.
 *
 * Stream shapes are ranked by Zipf(1.1). The ranks mix three kinds
 * of traffic, each served by a different tier of the compile path:
 *  - fixed circuits, whose repeats are exact (plan memo tier);
 *  - parametric ansatz shapes with a fresh angle per request; only
 *    one-qubit angles change, so the stored routing replays against
 *    published Weyl classes (plan replay tier);
 *  - fresh-seed random-circuit-sampling circuits: new structure
 *    (plan miss, full pipeline) built from the CZ entangler whose
 *    classes the warm-up already published, so no synthesis.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet.hpp"
#include "serve/api.hpp"
#include "util.hpp"

namespace qbench {

enum class ShapeKind
{
    Fixed,      ///< Exact repeats.
    Parametric, ///< Fresh one-qubit angle per request.
    FreshRcs,   ///< Fresh RCS seed per request.
};

struct StreamShape
{
    const char *name;
    ShapeKind kind;
};

/** Stream shapes in Zipf rank order. */
const std::vector<StreamShape> &streamShapes();

/** Circuit of stream rank `rank` (theta / rcs_seed used by the
 *  parametric and fresh-RCS ranks only). */
qbasis::Circuit streamCircuit(size_t rank, double theta,
                              uint64_t rcs_seed);

/** A request compiled with the fleet's options, exactly as
 *  CompileService pins them, so bench-issued and service-issued
 *  requests share plan keys and class contexts. */
qbasis::CompileRequest makeRequest(uint64_t id, int device,
                                   const std::string &name,
                                   qbasis::Circuit circuit,
                                   const qbasis::FleetOptions &fleet);

/** Every distinct stream shape once: fixed ranks, parametric ranks
 *  at a canonical angle, and `rcs_seeds` fixed RCS seeds. Warm-up
 *  and verification sets of the serving workloads. */
std::vector<qbasis::CompileRequest>
distinctShapeRequests(uint64_t first_id, int device, int rcs_seeds,
                      const qbasis::FleetOptions &fleet);

/** The lifecycle's workload-zoo pass, sized to the lattice. */
std::vector<qbasis::CompileRequest>
zooRequests(uint64_t first_id, int device, int qubits,
            const qbasis::FleetOptions &fleet);

/** Seeded request stream; requests are built one at a time so the
 *  generator holds no pre-built stream in memory. */
class RequestStream
{
  public:
    struct Item
    {
        uint64_t index = 0;
        double due_s = 0.0; ///< Offset from the stream start.
        size_t rank = 0;
        qbasis::CompileRequest request;
    };

    /** `fresh_tail` false drops the fresh-RCS rank, leaving only
     *  memo and replay traffic. */
    RequestStream(uint64_t seed, double rate_per_s, int device,
                  const qbasis::FleetOptions &fleet, bool fresh_tail = true);

    Item next();

  private:
    Rng64 rng_;
    ZipfTable zipf_;
    double rate_;
    int device_;
    const qbasis::FleetOptions &fleet_;
    uint64_t index_ = 0;
    double due_s_ = 0.0;
};

/** First request id of the stream (warm-up and checks use ids
 *  below it, so stream responses never collide with them). */
inline constexpr uint64_t kStreamFirstId = 1000000;

} // namespace qbench

#endif // QBENCH_SHAPES_HPP
