#ifndef QBENCH_LEDGER_HPP
#define QBENCH_LEDGER_HPP

/**
 * @file
 * Per-layer ledger of a traced run, built from the program's span
 * records (obs/trace.hpp): per span name, count, total, self and
 * blocked time, plus the wall time no span on the workload thread
 * accounts for.
 *
 * Self time is a span's duration minus the part its child spans on
 * the same thread cover. Spans that only wait (cache claims owned by
 * another client, recalibration drains, the open-loop client's
 * sleeps) count as blocked instead of self. Every phase of a workload
 * runs under the root span on the workload thread, so on that thread
 * the self and blocked times of all spans below the root plus the
 * root's own self time (the unattributed time) add up to the root's
 * wall time exactly. Work on pool and dispatcher threads is listed
 * in the same table but is concurrent with that wall.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace qbench {

/** Name of the root span every traced workload runs under. */
inline constexpr const char *kRootSpan = "bench.run";

/** True for spans whose time is waiting, not computing. */
bool isBlockedSpan(const std::string &name);

/** Module (layer) a span name belongs to. */
std::string spanModule(const std::string &name);

struct LedgerRow
{
    std::string name;
    std::string module;
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;    ///< Self time of computing spans.
    double blocked_ms = 0.0; ///< Self time of waiting spans.
    bool on_root_thread = false; ///< Seen on the workload thread.
};

struct Ledger
{
    std::vector<LedgerRow> rows; ///< Sorted by self + blocked, desc.
    double wall_ms = 0.0;        ///< Duration of the root span.
    /** Self + blocked time of the spans below the root, on the
     *  workload thread only. */
    double root_thread_ms = 0.0;
    double unattributed_ms = 0.0; ///< The root span's own self time.
    double other_threads_ms = 0.0; ///< Self + blocked elsewhere.
    size_t events = 0;
    bool has_root = false;
};

/** Build the ledger from a snapshot (see qbasis::traceSnapshot). */
Ledger buildLedger(const std::vector<qbasis::TraceEvent> &events);

/** Total time of every span named `name` (ms; 0 when none). */
double spanTotalMs(const Ledger &ledger, const std::string &name);

/** Print the per-span table, the per-module totals and the
 *  unattributed share. */
void printLedger(const Ledger &ledger);

} // namespace qbench

#endif // QBENCH_LEDGER_HPP
