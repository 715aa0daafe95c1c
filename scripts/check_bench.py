#!/usr/bin/env python3
"""CI bench-regression gate.

Reads BENCH_synth.json, BENCH_fleet.json, BENCH_recalib.json,
BENCH_persist.json, BENCH_serve.json, BENCH_mat4.json,
BENCH_obs.json, and BENCH_scale.json (produced by the corresponding
--quick bench runs) and gates on the floors committed in
bench/baselines.json:

  * every workload's engine/serial agreement (results_match),
  * fleet bit-determinism at 1 vs N shards,
  * cache speedup and hit-rate floors,
  * cross-device sharing floors for multi-device fleets,
  * recalibration: sync-vs-overlapped bit-determinism, end-to-end
    speedup, overlap ratio, and a zero-compile-path-stall ceiling,
  * persistence: warm-start speedup and hit rate, warm/cold
    bit-identical reports, corrupt-snapshot rejection, the
    retirement sweep shrinking the snapshot, and a snapshot format
    version equal to kCacheFormatVersion in src/synth/cache_io.hpp
    (so a committed BENCH_persist.json cannot go stale),
  * mat4 kernels: scalar-vs-SIMD bit-identity on every kernel, and
    speedup floors (per kernel and geomean) that apply only when the
    SIMD backend is available on the runner (simd_available),
  * serving: concurrent-vs-serial per-request bit-identity, the
    epoch-swap digest change, reject-with-status admission under
    saturation, and open-loop throughput/p99 sanity bounds,
  * plan cache: the Zipf sub-suite's plan-on vs plan-off digest
    bit-identity, the p50 compile-time speedup floor, and both tiers
    (memo and replay) actually serving,
  * fleet scale: 1-vs-N-shard bit-determinism on a 100+ qubit
    heavy-hex lattice with per-edge heterogeneous bases, cross-edge
    shared-cache dedupe and plan-memo floors at the top curve point,
    plan retirement after the drift cycle, a top-point wall-time
    ceiling, and nonzero settled-snapshot bytes on every point,
  * observability: a ceiling on the disabled-path span cost (the
    zero-perturbation budget: a few ns) and the enabled-path cost,
    a valid Chrome-trace export round trip, and byte-identical
    compile/health/fleet digests traced vs untraced,
  * fault injection (only when the recalib/serve JSON carries a
    "faults" section, i.e. it came from `bench_recalib --faults` /
    `bench_serve --faults`): the same-fault-seed replay must be
    bit-identical, every quarantined edge must have served its
    last-good basis, and the serve.admit shed pattern must replay
    identically.

A missing or unparseable BENCH file is reported as clear,
path-bearing FAIL rows -- one summary row plus one row per floor key
committed in its baselines section -- never a traceback or a silent
pass. A baselines section with no consuming bench check at all (a
renamed or dropped bench) also fails loudly.

Every committed floor is evaluated and printed as one row of a diff
table (key, observed, requirement, status), so a failing run shows
the complete picture instead of the first violation only. Exits
nonzero when any row fails. Pure stdlib.

Usage: scripts/check_bench.py [--synth PATH] [--fleet PATH]
                              [--recalib PATH] [--persist PATH]
                              [--serve PATH] [--mat4 PATH]
                              [--obs PATH] [--scale PATH]
                              [--baselines PATH]
"""

import argparse
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Gate:
    """Collects one diff-table row per evaluated floor."""

    def __init__(self):
        self.rows = []

    def check(self, key, observed, requirement, ok):
        self.rows.append((key, observed, requirement, bool(ok)))

    def floor(self, key, observed, floor):
        self.check(key, observed, f">= {floor}", observed >= floor)

    def ceiling(self, key, observed, ceiling):
        self.check(key, observed, f"<= {ceiling}", observed <= ceiling)

    def require(self, key, observed):
        self.check(key, observed, "== true", bool(observed))

    def missing(self, key, detail):
        self.check(key, f"missing ({detail})", "present", False)

    @property
    def failures(self):
        return [r for r in self.rows if not r[3]]

    def print_table(self):
        def fmt(v):
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        rows = [(k, fmt(o), str(r), "ok" if ok else "FAIL")
                for k, o, r, ok in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(
                ("key", "observed", "requirement", "status")
            )
        ]
        header = ("key", "observed", "requirement", "status")
        print(
            f"{header[0]:<{widths[0]}}  {header[1]:>{widths[1]}}  "
            f"{header[2]:>{widths[2]}}  {header[3]:>{widths[3]}}"
        )
        for k, o, r, s in rows:
            print(
                f"{k:<{widths[0]}}  {o:>{widths[1]}}  "
                f"{r:>{widths[2]}}  {s:>{widths[3]}}"
            )


def check_synth(bench, base, gate):
    floors = base.get("synth", {})
    workloads = bench.get("workloads", {})
    if floors.get("require_backend_reported"):
        gate.check(
            "synth.mat4_backend",
            bench.get("mat4_backend", ""),
            "in {scalar, avx2}",
            bench.get("mat4_backend") in ("scalar", "avx2"),
        )
    # Every workload with a committed floor must be present: a
    # renamed/dropped workload must not read as green.
    expected = set(floors.get("min_speedup", {})) | set(
        floors.get("min_hit_rate", {})
    )
    for name in sorted(expected - set(workloads)):
        gate.missing(f"synth[{name}]", "workload absent from output")
    for name, wl in sorted(workloads.items()):
        if floors.get("require_results_match"):
            gate.require(
                f"synth[{name}].results_match", wl.get("results_match")
            )
        if floors.get("require_report_digest"):
            gate.check(
                f"synth[{name}].report_digest",
                wl.get("report_digest", "(absent)"),
                "present",
                bool(wl.get("report_digest")),
            )
        floor = floors.get("min_speedup", {}).get(name)
        if floor is not None:
            gate.floor(
                f"synth[{name}].speedup", wl.get("speedup", 0.0), floor
            )
        floor = floors.get("min_hit_rate", {}).get(name)
        if floor is not None:
            gate.floor(
                f"synth[{name}].cache_hit_rate",
                wl.get("cache_hit_rate", 0.0),
                floor,
            )


def check_fleet(bench, base, gate):
    floors = base.get("fleet", {})
    det = bench.get("determinism", {})
    if floors.get("require_determinism"):
        gate.check(
            "fleet.determinism.results_match",
            bool(det.get("results_match")),
            f"{det.get('shards_a')} vs {det.get('shards_b')} shards "
            "bit-identical",
            det.get("results_match"),
        )
    multi = [
        f
        for f in bench.get("fleets", {}).values()
        if f.get("devices", 0) >= 2
    ]
    if not multi:
        gate.missing("fleet[multi-device]", "no fleet with >= 2 devices")
        return
    for f in multi:
        n = f.get("devices")
        floor = floors.get("min_cross_device_hit_rate")
        if floor is not None:
            gate.floor(
                f"fleet[{n}].cross_device_hit_rate",
                f.get("cross_device_hit_rate", 0.0),
                floor,
            )
        floor = floors.get("min_hit_rate")
        if floor is not None:
            gate.floor(
                f"fleet[{n}].hit_rate", f.get("hit_rate", 0.0), floor
            )
        floor = floors.get("min_multi_device_classes")
        if floor is not None:
            gate.floor(
                f"fleet[{n}].multi_device_classes",
                f.get("multi_device_classes", 0),
                floor,
            )


def check_recalib(bench, base, gate):
    floors = base.get("recalib", {})
    det = bench.get("determinism", {})
    if floors.get("require_determinism"):
        gate.check(
            "recalib.determinism.results_match",
            bool(det.get("results_match")),
            "sync vs overlapped bit-identical",
            det.get("results_match"),
        )
    async_side = bench.get("async", {})
    floor = floors.get("min_speedup")
    if floor is not None:
        gate.floor("recalib.speedup", bench.get("speedup", 0.0), floor)
    ceiling = floors.get("max_compile_stall_ms")
    if ceiling is not None:
        gate.ceiling(
            "recalib.async.compile_stall_ms",
            async_side.get("compile_stall_ms", 0.0),
            ceiling,
        )
    floor = floors.get("min_overlap_ratio")
    if floor is not None:
        gate.floor(
            "recalib.async.overlap_ratio",
            async_side.get("overlap_ratio", 0.0),
            floor,
        )
    floor = floors.get("min_recalibrated_edges")
    if floor is not None:
        gate.floor(
            "recalib.fleet.recalibrated_edges",
            bench.get("fleet", {}).get("recalibrated_edges", 0),
            floor,
        )
    # Degraded-mode contract: only present when the producing run was
    # `bench_recalib --faults` (the CI fault-sweep job); the regular
    # quick pass carries no faults section and skips these rows.
    faults = bench.get("faults")
    if faults is not None:
        gate.require(
            "recalib.faults.replay_identical",
            faults.get("replay_identical"),
        )
        gate.require(
            "recalib.faults.served_last_good",
            faults.get("served_last_good"),
        )


def cache_format_version():
    """kCacheFormatVersion as src/synth/cache_io.hpp defines it, read
    with the same pattern the CI persist job keys its artifact on."""
    header = REPO / "src" / "synth" / "cache_io.hpp"
    m = re.search(
        r"kCacheFormatVersion = ([0-9]+)",
        header.read_text(encoding="utf-8"),
    )
    return int(m.group(1)) if m else None


def check_persist(bench, base, gate):
    floors = base.get("persist", {})
    expected = cache_format_version()
    observed = bench.get("snapshot", {}).get("format_version")
    gate.check(
        "persist.snapshot.format_version",
        observed,
        f"== {expected} (kCacheFormatVersion)",
        expected is not None and observed == expected,
    )
    if floors.get("require_results_match"):
        gate.check(
            "persist.results_match",
            bool(bench.get("results_match")),
            "warm pass bit-identical to cold",
            bench.get("results_match"),
        )
    if floors.get("require_corrupt_rejected"):
        gate.require(
            "persist.corrupt_rejected", bench.get("corrupt_rejected")
        )
    floor = floors.get("min_warm_speedup")
    if floor is not None:
        gate.floor(
            "persist.warm_speedup", bench.get("speedup", 0.0), floor
        )
    floor = floors.get("min_warm_hit_rate")
    if floor is not None:
        gate.floor(
            "persist.warm.hit_rate",
            bench.get("warm", {}).get("hit_rate", 0.0),
            floor,
        )
    retire = bench.get("retirement", {})
    if floors.get("require_retirement_reduced"):
        gate.check(
            "persist.retirement.reduced",
            bool(retire.get("reduced")),
            f"{retire.get('bytes_before')} -> "
            f"{retire.get('bytes_after')} bytes after the sweep",
            retire.get("reduced"),
        )
    floor = floors.get("min_retired_classes")
    if floor is not None:
        gate.floor(
            "persist.retirement.retired", retire.get("retired", 0),
            floor,
        )


def check_serve(bench, base, gate):
    floors = base.get("serve", {})
    det = bench.get("determinism", {})
    if floors.get("require_determinism"):
        gate.check(
            "serve.determinism.bit_identical",
            bool(det.get("bit_identical")),
            f"{det.get('requests')} requests x "
            f"{det.get('interleavings')} interleavings bit-identical",
            det.get("bit_identical"),
        )
    swap = bench.get("epoch_swap", {})
    if floors.get("require_epoch_swap_digest_change"):
        gate.check(
            "serve.epoch_swap.digest_changed",
            bool(swap.get("digest_changed")),
            f"epoch {swap.get('old_epoch')} -> "
            f"{swap.get('new_epoch')} changes digests",
            swap.get("digest_changed"),
        )
    if floors.get("require_served_during_swap"):
        gate.require(
            "serve.epoch_swap.served_during_swap",
            swap.get("served_during_swap"),
        )
    adm = bench.get("admission", {})
    if floors.get("require_admission_rejects_with_status"):
        gate.check(
            "serve.admission.rejects_with_status",
            f"{adm.get('rejected', 0)} of {adm.get('burst', 0)}",
            "rejected >= 1, all futures resolved",
            adm.get("rejected", 0) >= 1 and adm.get("all_resolved"),
        )
    zipf = bench.get("zipf", {})
    if floors.get("require_zipf_digests_match"):
        gate.check(
            "serve.zipf.digests_match",
            bool(zipf.get("digests_match")),
            f"{zipf.get('requests', 0)} responses bit-identical "
            "plan-on vs plan-off",
            zipf.get("digests_match"),
        )
    floor = floors.get("min_zipf_compile_p50_speedup")
    if floor is not None:
        gate.floor(
            "serve.zipf.compile_p50_speedup",
            zipf.get("compile_p50_speedup", 0.0),
            floor,
        )
    floor = floors.get("min_zipf_memo_hits")
    if floor is not None:
        gate.floor(
            "serve.zipf.memo_hits", zipf.get("memo_hits", 0), floor
        )
    floor = floors.get("min_zipf_replay_hits")
    if floor is not None:
        gate.floor(
            "serve.zipf.replay_hits",
            zipf.get("replay_hits", 0),
            floor,
        )
    open_loop = bench.get("open_loop", {})
    floor = floors.get("min_requests")
    if floor is not None:
        gate.floor(
            "serve.open_loop.requests",
            open_loop.get("requests", 0),
            floor,
        )
    floor = floors.get("min_throughput_rps")
    if floor is not None:
        gate.floor(
            "serve.open_loop.throughput_rps",
            open_loop.get("throughput_rps", 0.0),
            floor,
        )
    ceiling = floors.get("max_p99_ms")
    if ceiling is not None:
        gate.ceiling(
            "serve.open_loop.p99_ms",
            open_loop.get("p99_ms", 0.0),
            ceiling,
        )
    # Degraded-mode contract, present only for `bench_serve --faults`
    # output (the CI fault-sweep job).
    faults = bench.get("faults")
    if faults is not None:
        gate.require(
            "serve.faults.replay_identical",
            faults.get("replay_identical"),
        )
        gate.require(
            "serve.faults.quarantined_served_ok",
            faults.get("quarantined_served_ok"),
        )


def check_mat4(bench, base, gate):
    floors = base.get("mat4", {})
    kernels = bench.get("kernels", {})
    if floors.get("require_kernels_match"):
        gate.check(
            "mat4.kernels_match",
            bool(bench.get("kernels_match")),
            "scalar and SIMD backends bit-identical",
            bench.get("kernels_match"),
        )
        for name, k in sorted(kernels.items()):
            gate.require(f"mat4[{name}].match", k.get("match"))
    # Speedup floors only bind when the SIMD backend actually ran on
    # this host (scalar-only builds/runners report simd_available
    # false and trivially-1.0 speedups).
    if not bench.get("simd_available"):
        gate.check(
            "mat4.simd_available",
            False,
            "speedup floors skipped (scalar-only host/build)",
            True,
        )
        return
    expected = set(floors.get("min_kernel_speedup", {}))
    for name in sorted(expected - set(kernels)):
        gate.missing(f"mat4[{name}]", "kernel absent from output")
    for name, k in sorted(kernels.items()):
        floor = floors.get("min_kernel_speedup", {}).get(name)
        if floor is not None:
            gate.floor(
                f"mat4[{name}].speedup", k.get("speedup", 0.0), floor
            )
    floor = floors.get("min_speedup_geomean")
    if floor is not None:
        gate.floor(
            "mat4.speedup_geomean",
            bench.get("speedup_geomean", 0.0),
            floor,
        )


def check_obs(bench, base, gate):
    floors = base.get("obs", {})
    spans = bench.get("spans", {})
    ceiling = floors.get("max_disabled_ns_per_span")
    if ceiling is not None:
        gate.ceiling(
            "obs.spans.disabled_ns_per_span",
            spans.get("disabled_ns_per_span", float("inf")),
            ceiling,
        )
    ceiling = floors.get("max_enabled_ns_per_span")
    if ceiling is not None:
        gate.ceiling(
            "obs.spans.enabled_ns_per_span",
            spans.get("enabled_ns_per_span", float("inf")),
            ceiling,
        )
    if floors.get("require_export_valid"):
        exp = bench.get("export", {})
        gate.check(
            "obs.export.valid",
            bool(exp.get("valid")),
            f"{exp.get('events', 0)} events round-trip Chrome JSON",
            exp.get("valid"),
        )
    # The zero-perturbation contract: tracing ON changes no committed
    # digest (only wall-clock fields may move).
    if floors.get("require_digest_neutral"):
        dig = bench.get("digests", {})
        gate.check(
            "obs.digests.compile_match",
            bool(dig.get("compile_match")),
            f"{dig.get('requests', 0)} responses byte-identical "
            "traced vs untraced",
            dig.get("compile_match"),
        )
        gate.require(
            "obs.digests.health_match", dig.get("health_match")
        )
        gate.require("obs.digests.fleet_match", dig.get("fleet_match"))


def check_scale(bench, base, gate):
    floors = base.get("scale", {})
    det = bench.get("determinism", {})
    if floors.get("require_determinism"):
        gate.check(
            "scale.determinism.results_match",
            bool(det.get("results_match")),
            f"{det.get('shards_a')} vs {det.get('shards_b')} shards "
            "bit-identical",
            det.get("results_match"),
        )
    floor = floors.get("min_determinism_qubits")
    if floor is not None:
        gate.floor(
            "scale.determinism.qubits", det.get("qubits", 0), floor
        )
    top = bench.get("top", {})
    floor = floors.get("min_top_edges")
    if floor is not None:
        gate.floor("scale.top.edges", top.get("edges", 0), floor)
    floor = floors.get("min_dedupe_ratio")
    if floor is not None:
        gate.floor(
            "scale.top.dedupe_ratio",
            top.get("dedupe_ratio", 0.0),
            floor,
        )
    floor = floors.get("min_plan_memo_hits")
    if floor is not None:
        gate.floor(
            "scale.top.plan_memo_hits",
            top.get("plan_memo_hits", 0),
            floor,
        )
    floor = floors.get("min_plans_retired")
    if floor is not None:
        gate.floor(
            "scale.top.plans_retired",
            top.get("plans_retired", 0),
            floor,
        )
    ceiling = floors.get("max_top_point_wall_ms")
    if ceiling is not None:
        gate.ceiling(
            "scale.top.point_wall_ms",
            top.get("point_wall_ms", float("inf")),
            ceiling,
        )
    # Snapshot accounting must be live on every curve point: a point
    # whose settled cache would serialize to zero bytes cached
    # nothing at all.
    if floors.get("require_snapshot_bytes"):
        for name, point in sorted(bench.get("points", {}).items()):
            gate.floor(
                f"scale[{name}].snapshot_bytes",
                point.get("snapshot_bytes", 0),
                1,
            )


def floor_keys(section):
    """Flattened floor keys of one baselines section (nested dicts
    like min_speedup.gate_sweep become dotted keys)."""
    keys = []
    for key, value in sorted(section.items()):
        if isinstance(value, dict):
            keys.extend(f"{key}.{sub}" for sub in sorted(value))
        else:
            keys.append(key)
    return keys


def report_missing(name, path, detail, base, gate):
    """A BENCH file a baselines section references was never emitted:
    one summary row plus one row per committed floor key, so the diff
    table shows exactly which gates silently stopped binding."""
    gate.missing(name, f"{path}: {detail}")
    for key in floor_keys(base.get(name, {})):
        gate.missing(f"{name}.{key}", "BENCH file absent")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--synth", default=REPO / "BENCH_synth.json")
    parser.add_argument("--fleet", default=REPO / "BENCH_fleet.json")
    parser.add_argument(
        "--recalib", default=REPO / "BENCH_recalib.json"
    )
    parser.add_argument(
        "--persist", default=REPO / "BENCH_persist.json"
    )
    parser.add_argument("--serve", default=REPO / "BENCH_serve.json")
    parser.add_argument("--mat4", default=REPO / "BENCH_mat4.json")
    parser.add_argument("--obs", default=REPO / "BENCH_obs.json")
    parser.add_argument("--scale", default=REPO / "BENCH_scale.json")
    parser.add_argument(
        "--baselines", default=REPO / "bench" / "baselines.json"
    )
    args = parser.parse_args()

    try:
        base = load(args.baselines)
    except (OSError, json.JSONDecodeError) as err:
        print(
            f"bench gate: cannot read baselines {args.baselines}: "
            f"{err}",
            file=sys.stderr,
        )
        return 1
    gate = Gate()
    consumers = (
        ("synth", args.synth, check_synth),
        ("fleet", args.fleet, check_fleet),
        ("recalib", args.recalib, check_recalib),
        ("persist", args.persist, check_persist),
        ("serve", args.serve, check_serve),
        ("mat4", args.mat4, check_mat4),
        ("obs", args.obs, check_obs),
        ("scale", args.scale, check_scale),
    )
    # Every baselines section must have a consumer above: a section
    # whose BENCH file is never emitted (renamed bench, dropped run)
    # must fail loudly instead of reading as green forever.
    known = {"_comment"} | {name for name, _, _ in consumers}
    for section in sorted(set(base) - known):
        gate.check(
            f"baselines[{section}]",
            "no BENCH consumer",
            "section consumed by a bench check",
            False,
        )
    for name, path, check in consumers:
        try:
            check(load(path), base, gate)
        except OSError as err:
            # Clear, path-bearing rows (the bench binary did not run
            # or wrote elsewhere), not a traceback -- one per floor
            # key, so nothing silently stops binding.
            report_missing(
                name, path, err.strerror or err, base, gate
            )
        except json.JSONDecodeError as err:
            report_missing(
                name, path, f"invalid JSON ({err})", base, gate
            )

    gate.print_table()
    failures = gate.failures
    if failures:
        print(
            f"bench gate: FAIL ({len(failures)} of {len(gate.rows)} "
            "checks)"
        )
        return 1
    print(
        f"bench gate: OK (all {len(gate.rows)} committed checks hold)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
