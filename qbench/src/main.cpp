/**
 * @file
 * qbench: the repository benchmark. One invocation runs one workload
 * from a seed, checks its outputs, and prints every metric by name
 * and unit, ending with one JSON line:
 *
 *   qbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
 *   qbench --selftest
 *
 * Workloads: lifecycle_hh4x9, serve_zipf, serve_retune (see
 * qbench/README.md). --trace 0 prints the end-to-end metrics;
 * --trace 1 reruns the workload with span recording on and prints
 * the per-layer metrics, the per-layer ledger, and the tracing
 * overhead against the last untraced run recorded in DIR. Exit code
 * 0 only when every output check passed.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/trace.hpp"
#include "selftest.hpp"
#include "util/logging.hpp"
#include "workload.hpp"

using namespace qbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: qbench --workload lifecycle_hh4x9|serve_zipf|"
                 "serve_retune --seed N --seconds S --trace 0|1 "
                 "[--out DIR]\n       qbench --selftest\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    cfg.out_dir = ".bench_out";
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return runSelfTests(true) ? 0 : 1;
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        if (arg == "--workload")
            cfg.workload = value;
        else if (arg == "--seed")
            cfg.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            cfg.seconds = std::atoi(value);
        else if (arg == "--trace")
            trace = std::atoi(value);
        else if (arg == "--out")
            cfg.out_dir = value;
        else
            return usage();
    }
    const bool known = cfg.workload == "lifecycle_hh4x9"
                       || cfg.workload == "serve_zipf"
                       || cfg.workload == "serve_retune";
    if (!known || cfg.seconds < 1 || (trace != 0 && trace != 1))
        return usage();
    cfg.trace = trace == 1;
    if (!runSelfTests(false))
        return 3;
    std::filesystem::create_directories(cfg.out_dir);

    qbasis::setLogLevel(qbasis::LogLevel::Silent);
    if (cfg.trace) {
        // The serving streams record ~6 spans per request on the
        // dispatcher; size the rings so no span is overwritten.
        setenv("QBASIS_TRACE_CAPACITY", "262144", 0);
        qbasis::setTraceThreadName("workload");
        qbasis::setTraceEnabled(true);
    }
    say("qbench %s seed %llu seconds %d trace %d", cfg.workload.c_str(),
        static_cast<unsigned long long>(cfg.seed), cfg.seconds, trace);

    Report rep;
    LayerStats ls;
    EndToEnd e;
    {
        QBASIS_TRACE_SCOPE(kRootSpan);
        if (cfg.workload == "lifecycle_hh4x9")
            e = runLifecycle(cfg, rep, ls);
        else
            e = runServe(cfg, rep, ls, cfg.workload == "serve_retune");
    }
    if (cfg.trace) {
        qbasis::setTraceEnabled(false);
        const Ledger ledger = buildLedger(qbasis::traceSnapshot());
        printLedger(ledger);
        rep.check(qbasis::traceDroppedEvents() == 0,
                  "trace rings overwrote no span");
        const std::string path =
            cfg.out_dir + "/" + cfg.workload + ".trace.json";
        if (qbasis::writeChromeTrace(path))
            say("chrome trace written to %s", path.c_str());
        emitLayerMetrics(rep, ls, ledger, e);
    }
    emitEndToEnd(rep, e);
    say("--- timings%s ---", cfg.trace ? " (traced)" : "");
    for (const auto &[name, value] : timings(e))
        say("  %-16s %14.6f", name.c_str(), value);
    say("latency: median over %zu blocks of %zu requests (block p99 has "
        "%zu beyond it); whole-stream p99 %.4f ms over %zu requests, %zu "
        "beyond; goodput counts responses within %.0f ms",
        e.latency.blocks, e.latency.block, e.latency.beyond, e.whole.value,
        e.whole.samples, e.whole.beyond, e.limit_ms);
    say("verification digest 0x%016llx (repeats exactly at a fixed seed)",
        static_cast<unsigned long long>(e.verification.digest));
    say("host probe median %.3f ms", ls.probes.medianMs());
    if (cfg.trace)
        printTraceOverhead(cfg, e);
    else
        saveUntraced(cfg, e);
    rep.print(cfg.trace);
    return rep.correct() ? 0 : 1;
}
