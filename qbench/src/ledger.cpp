#include "ledger.hpp"

#include <algorithm>
#include <map>

#include "util.hpp"

namespace qbench {

namespace {

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
           && s.compare(s.size() - suffix.size(), suffix.size(), suffix)
                  == 0;
}

} // namespace

bool
isBlockedSpan(const std::string &name)
{
    return endsWith(name, ".wait") || endsWith(name, ".drain")
           || endsWith(name, ".idle");
}

std::string
spanModule(const std::string &raw)
{
    // Bench-owned spans are named "bench.<layer metric stem>"; they
    // belong to the layer whose public call they wrap.
    const std::string name =
        startsWith(raw, "bench.") ? raw.substr(6) : raw;
    static const std::pair<const char *, const char *> kPrefixes[] = {
        {"sim.", "calib+sim"},      {"core.select", "calib+sim"},
        {"recalib.", "calib/async"}, {"calib.", "calib+sim"},
        {"depth.", "monodromy"},    {"synth.", "synth"},
        {"cache_io.", "cache_io"},  {"cache.", "synth"},
        {"transpile.", "transpile"}, {"compile.plan", "plan"},
        {"compile.schedule", "score"}, {"score", "score"},
        {"compile.", "serve/api"},  {"serve.", "serve"},
        {"fleet.", "core/fleet"},   {"client.", "bench"},
        {"phase.", "bench"},        {"check.", "bench"},
        {"probe", "bench"},         {"run", "bench"},
    };
    for (const auto &[prefix, module] : kPrefixes)
        if (startsWith(name, prefix))
            return module;
    return "other";
}

Ledger
buildLedger(const std::vector<qbasis::TraceEvent> &events)
{
    Ledger ledger;
    ledger.events = events.size();

    uint32_t root_tid = 0;
    for (const qbasis::TraceEvent &e : events) {
        if (e.name != nullptr && std::string(e.name) == kRootSpan) {
            root_tid = e.tid;
            ledger.has_root = true;
            ledger.wall_ms = static_cast<double>(e.dur_ns) / 1e6;
        }
    }

    // Per-thread nesting: events come start-ordered; a stack of open
    // spans gives each event its parent, whose self time loses the
    // child's duration.
    std::map<uint32_t, std::vector<size_t>> by_thread;
    for (size_t i = 0; i < events.size(); ++i)
        by_thread[events[i].tid].push_back(i);
    std::vector<double> self_ns(events.size());
    for (auto &[tid, idx] : by_thread) {
        std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
            if (events[a].start_ns != events[b].start_ns)
                return events[a].start_ns < events[b].start_ns;
            return events[a].dur_ns > events[b].dur_ns;
        });
        std::vector<size_t> open;
        for (const size_t i : idx) {
            const qbasis::TraceEvent &e = events[i];
            self_ns[i] = static_cast<double>(e.dur_ns);
            while (!open.empty()
                   && events[open.back()].start_ns
                              + events[open.back()].dur_ns
                          <= e.start_ns)
                open.pop_back();
            if (!open.empty()) {
                const qbasis::TraceEvent &p = events[open.back()];
                const uint64_t end = std::min(e.start_ns + e.dur_ns,
                                              p.start_ns + p.dur_ns);
                self_ns[open.back()] -=
                    static_cast<double>(end - e.start_ns);
            }
            open.push_back(i);
        }
    }

    std::map<std::string, LedgerRow> rows;
    for (size_t i = 0; i < events.size(); ++i) {
        const qbasis::TraceEvent &e = events[i];
        const std::string name = e.name != nullptr ? e.name : "?";
        LedgerRow &row = rows[name];
        row.name = name;
        row.module = spanModule(name);
        row.count += 1;
        row.total_ms += static_cast<double>(e.dur_ns) / 1e6;
        const double self_ms = self_ns[i] / 1e6;
        (isBlockedSpan(name) ? row.blocked_ms : row.self_ms) += self_ms;
        const bool root_thread = ledger.has_root && e.tid == root_tid;
        row.on_root_thread = row.on_root_thread || root_thread;
        if (name == kRootSpan)
            ledger.unattributed_ms += self_ms;
        else if (root_thread)
            ledger.root_thread_ms += self_ms;
        else
            ledger.other_threads_ms += self_ms;
    }
    for (auto &[name, row] : rows)
        ledger.rows.push_back(row);
    std::sort(ledger.rows.begin(), ledger.rows.end(),
              [](const LedgerRow &a, const LedgerRow &b) {
                  return a.self_ms + a.blocked_ms
                         > b.self_ms + b.blocked_ms;
              });
    return ledger;
}

double
spanTotalMs(const Ledger &ledger, const std::string &name)
{
    for (const LedgerRow &r : ledger.rows)
        if (r.name == name)
            return r.total_ms;
    return 0.0;
}

void
printLedger(const Ledger &ledger)
{
    say("--- per-layer ledger (%zu spans; * = workload thread) ---",
        ledger.events);
    say("  %-30s %-12s %8s %12s %12s %12s", "span", "module", "count",
        "total_ms", "self_ms", "blocked_ms");
    std::map<std::string, LedgerRow> modules;
    for (const LedgerRow &r : ledger.rows) {
        say(" %c%-30s %-12s %8llu %12.3f %12.3f %12.3f",
            r.on_root_thread ? '*' : ' ', r.name.c_str(),
            r.module.c_str(), static_cast<unsigned long long>(r.count),
            r.total_ms, r.self_ms, r.blocked_ms);
        LedgerRow &m = modules[r.module];
        m.count += r.count;
        m.self_ms += r.self_ms;
        m.blocked_ms += r.blocked_ms;
    }
    say("--- per-module self / blocked time (all threads) ---");
    for (const auto &[module, m] : modules)
        say("  %-14s %8llu spans %12.3f ms self %12.3f ms blocked",
            module.c_str(), static_cast<unsigned long long>(m.count),
            m.self_ms, m.blocked_ms);
    const double share =
        ledger.wall_ms > 0 ? ledger.unattributed_ms / ledger.wall_ms : 0;
    say("wall %.3f ms = workload-thread spans %.3f ms + unattributed "
        "%.3f ms (%.2f%% of wall); other threads %.3f ms concurrent",
        ledger.wall_ms, ledger.root_thread_ms, ledger.unattributed_ms,
        100.0 * share, ledger.other_threads_ms);
}

} // namespace qbench
