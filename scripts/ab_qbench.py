#!/usr/bin/env python3
"""Parent-vs-change A/B of one repository-benchmark workload.

    scripts/ab_qbench.py [--parent REV] [--workload NAME] [--seed N]
                         [--seconds S] [--pairs N] [--metric NAME]
                         [--trace 0|1] [--same-digest]
                         [--workdir DIR] [--parent-dir DIR]
    scripts/ab_qbench.py --selftest

The change is the working tree of this repository; the parent is
REV (default HEAD~1), checked out with `git worktree add` under the
work directory, outside the repository, and removed afterwards
(`--parent-dir` uses an existing checkout instead). Each side builds
qbench into its own CARGO_TARGET_DIR under the work directory (kept
between invocations, so later builds are incremental), then the
script runs N pairs of `python3 qbench/run.py` in alternating order:
the parent first in odd pairs, the change first in even ones, so
drift in host speed lands on both sides.

It prints, for every end-to-end metric of BENCHMARK.json, each
side's median and quartiles and the change of the medians against
the metric's bound; the pairs the change won on `--metric` (ties
count for neither); the gain verdict (a gain needs at least 10
pairs, wins in at least 9 of 10, and medians further apart than the
parent's interquartile range);
and the distinct `verification digest` lines with their counts.
It also prints each side's median and quartiles of the rows of the
`--- timings ---` block every run prints (compile_cold_s, retune_s,
p50_ms, p99_ms; setup_s is already among the metrics), for
information only: they get no bound and no verdict.
A traced run (`--trace 1`) prints per-layer metrics instead of the
end-to-end ones, so traced pairs compare those and each span's
self time in the per-layer ledger, and give no verdict. Every run's
log stays in the work directory.

Exit status: 0 when every run printed a correct result (and, with
`--same-digest`, every run printed one digest); 1 otherwise. The
verdict itself does not set the exit status. `--selftest` checks
the statistics and the verdict on canned numbers. Pure stdlib.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
DIGEST_PREFIX = "verification digest"


def quartiles(values):
    """(q1, median, q3) of a sample, with the `statistics` default
    (exclusive) method; a single value is its own quartiles."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, med, q3


def wins(parent, change, better):
    """Pairs (parent[i], change[i]) the change won; ties win none."""
    if better == "lower":
        return sum(1 for p, c in zip(parent, change) if c < p)
    return sum(1 for p, c in zip(parent, change) if c > p)


def verdict(parent, change, better):
    """Gain verdict on paired samples of the claimed metric.

    Returns (gain, reasons): a gain needs at least 10 pairs, wins in
    at least nine tenths of them, and medians that differ, in the
    better direction, by more than the parent's interquartile range.
    """
    n = len(parent)
    won = wins(parent, change, better)
    q1, med_p, q3 = quartiles(parent)
    med_c = quartiles(change)[1]
    gap = med_p - med_c if better == "lower" else med_c - med_p
    iqr = q3 - q1
    reasons = []
    if n < 10:
        reasons.append(f"only {n} pairs run, 10 needed")
    if won * 10 < 9 * n:
        reasons.append(f"won {won} of {n} pairs, 9 in 10 needed")
    if gap <= iqr:
        reasons.append(f"medians {gap:+.4g} apart in the better "
                       f"direction, parent IQR {iqr:.4g}")
    return not reasons, reasons


def benchmark_metrics():
    """[(name, unit, better, bound)] of BENCHMARK.json's end-to-end
    metrics (with their bounds), then its per-layer ones (bound
    None)."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]]
            + [(m["name"], m["unit"], m["better"], None)
               for m in spec["per_layer"]])


def ledger_self_ms(log_text):
    """{span: self_ms} from the per-layer ledger a traced run prints."""
    rows = {}
    in_ledger = False
    for line in log_text.splitlines():
        if line.startswith("--- "):
            in_ledger = line.startswith("--- per-layer ledger")
            continue
        fields = line.lstrip(" *").split()
        if in_ledger and len(fields) == 6 and fields[2].isdigit():
            rows[fields[0]] = float(fields[4])
    return rows


def timings_block(log_text):
    """{name: value} from the `--- timings ---` block a run prints
    (`--- timings (traced) ---` on a traced run); the block ends at
    the first line that is not one name and one number."""
    rows = {}
    in_block = False
    for line in log_text.splitlines():
        if line.startswith("--- "):
            in_block = line.startswith("--- timings")
            continue
        if not in_block:
            continue
        fields = line.split()
        try:
            if len(fields) != 2:
                raise ValueError
            rows[fields[0]] = float(fields[1])
        except ValueError:
            in_block = False
    return rows


def git(*args, cwd=REPO):
    subprocess.run(["git", *args], cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)


def run_side(src, target, args, log):
    """One qbench run in checkout `src`; returns (result, digest).
    The result carries the run's timings block as "timings", and its
    ledger as "ledger" when traced."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [sys.executable, "qbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    with open(log, "w") as out:
        proc = subprocess.run(cmd, cwd=src, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=out)
        out.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    digest = next((l.strip() for l in lines
                   if l.startswith(DIGEST_PREFIX)), None)
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is not None:
        result["timings"] = timings_block(proc.stdout)
        result["ledger"] = ledger_self_ms(proc.stdout)
    return result, digest


def build_side(src, target, log):
    """Build qbench for one side (its self-tests run as a check)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    with open(log, "w") as out:
        return subprocess.run(
            [sys.executable, "qbench/run.py", "--selftest"], cwd=src,
            env=env, stdout=out, stderr=subprocess.STDOUT).returncode == 0


def report(runs, digests, args):
    """Print the comparison; returns whether every run was correct."""
    ok = True
    for side in ("parent", "change"):
        bad = [i + 1 for i, r in enumerate(runs[side])
               if r is None or not r.get("correct")]
        if bad:
            ok = False
            print(f"{side}: runs {bad} printed no correct result")
    if not ok:
        return False

    print(f"\n{args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}, {args.pairs} pairs "
          "(medians [quartiles])")
    claimed = None
    every = runs["parent"] + runs["change"]
    printed = set()
    for name, unit, better, bound in benchmark_metrics():
        if not all(name in r["metrics"] for r in every):
            continue
        printed.add(name)
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in ("parent", "change")}
        qp, qc = quartiles(vals["parent"]), quartiles(vals["change"])
        rel = (qc[1] - qp[1]) / qp[1] if qp[1] else 0.0
        worse = rel if better == "lower" else -rel
        limit = "" if bound is None else f"bound {bound:.0%}, "
        flag = ("  WORSE THAN BOUND"
                if bound is not None and worse > bound else "")
        print(f"  {name:26s} parent {qp[1]:.4g} [{qp[0]:.4g}, "
              f"{qp[2]:.4g}]  change {qc[1]:.4g} [{qc[0]:.4g}, "
              f"{qc[2]:.4g}] {unit}  {rel:+.1%} ({limit}{better} is "
              f"better){flag}")
        if name == args.metric:
            claimed = (vals, better)

    names = [n for n in every[0]["timings"]
             if n not in printed
             and all(n in r["timings"] for r in every)]
    if names:
        print("\ntimings block, for information (median [quartiles]; "
              "no bound, no verdict)")
    for name in names:
        qp = quartiles([r["timings"][name] for r in runs["parent"]])
        qc = quartiles([r["timings"][name] for r in runs["change"]])
        rel = (qc[1] - qp[1]) / qp[1] if qp[1] else 0.0
        print(f"  {name:26s} parent {qp[1]:.4g} [{qp[0]:.4g}, "
              f"{qp[2]:.4g}]  change {qc[1]:.4g} [{qc[0]:.4g}, "
              f"{qc[2]:.4g}]  {rel:+.1%}")

    spans = sorted({s for r in every for s in r["ledger"]})
    if spans:
        print("\nledger self time, ms (median [quartiles]; spans in "
              "every run)")
        rows = []
        for span in spans:
            if not all(span in r["ledger"] for r in every):
                continue
            qp = quartiles([r["ledger"][span] for r in runs["parent"]])
            qc = quartiles([r["ledger"][span] for r in runs["change"]])
            rows.append((qp[1], span, qp, qc))
        for _, span, qp, qc in sorted(rows, reverse=True):
            print(f"  {span:30s} parent {qp[1]:10.3f} [{qp[0]:.3f}, "
                  f"{qp[2]:.3f}]  change {qc[1]:10.3f} [{qc[0]:.3f}, "
                  f"{qc[2]:.3f}]")

    if claimed is None:
        print(f"\nno verdict: the runs printed no {args.metric}")
    else:
        vals, better = claimed
        won = wins(vals["parent"], vals["change"], better)
        print(f"\n{args.metric}: the change won {won} of {args.pairs} "
              "pairs")
        gain, reasons = verdict(vals["parent"], vals["change"], better)
        print("verdict: " + ("gain" if gain else
                             "no gain (" + "; ".join(reasons) + ")"))

    print("\nverification digests:")
    for line, count in sorted(digests.items()):
        print(f"  {count:3d}x {line}")
    if args.same_digest and len(digests) != 1:
        print(f"--same-digest: {len(digests)} distinct digest lines")
        return False
    return True


def ab(args):
    workdir = pathlib.Path(args.workdir).resolve()
    if workdir == REPO or REPO in workdir.parents:
        print("ab_qbench: the work directory must be outside the "
              "repository")
        return 1
    workdir.mkdir(parents=True, exist_ok=True)
    worktree = None
    if args.parent_dir:
        parent_src = pathlib.Path(args.parent_dir).resolve()
    else:
        worktree = workdir / "parent"
        if worktree.exists():
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(worktree)], cwd=REPO)
            git("worktree", "prune")
        git("worktree", "add", "--detach", str(worktree), args.parent)
        parent_src = worktree
    sides = {"parent": (parent_src, workdir / "qb-parent"),
             "change": (REPO, workdir / "qb-change")}
    try:
        for side, (src, target) in sides.items():
            if not build_side(src, target, workdir / f"build-{side}.log"):
                print(f"ab_qbench: {side} build or self-test failed; see "
                      f"{workdir / f'build-{side}.log'}")
                return 1
        runs = {"parent": [], "change": []}
        digests = {}
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                src, target = sides[side]
                log = workdir / f"ab-{side}-{i}.log"
                result, digest = run_side(src, target, args, log)
                runs[side].append(result)
                if digest:
                    digests[digest] = digests.get(digest, 0) + 1
                value = (result or {}).get("metrics", {}).get(
                    args.metric, {}).get("value", "(not printed)")
                print(f"pair {i:2d} {side:6s} {args.metric} {value}",
                      flush=True)
        ok = report(runs, digests, args)
        print(f"\nlogs: {workdir}")
        return 0 if ok else 1
    finally:
        if worktree is not None:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(worktree)], cwd=REPO)


def selftest():
    checks = []

    def check(name, cond):
        checks.append((name, bool(cond)))

    check("quartiles of 1..5",
          quartiles([5, 1, 3, 2, 4]) == (1.5, 3, 4.5))
    check("one value is its own quartiles", quartiles([2.0]) == (2.0,) * 3)
    check("ties win for neither side",
          wins([1, 2, 3], [1, 1, 4], "lower") == 1)
    check("higher-is-better wins",
          wins([1, 2, 3], [2, 2, 2], "higher") == 1)

    parent = [0.40, 0.38, 0.41, 0.39, 0.42, 0.37, 0.40, 0.43, 0.39, 0.41]
    faster = [0.30, 0.31, 0.29, 0.32, 0.30, 0.28, 0.31, 0.30, 0.33, 0.29]
    check("a clear win over 10 pairs is a gain",
          verdict(parent, faster, "lower")[0])
    check("the same numbers read higher-is-better are no gain",
          not verdict(parent, faster, "higher")[0])
    check("9 pairs are too few",
          "only 9 pairs" in verdict(parent[:9], faster[:9], "lower")[1][0])
    one_loss = faster[:]
    one_loss[0] = 0.45
    check("9 wins of 10 is still a gain",
          verdict(parent, one_loss, "lower")[0])
    two_losses = one_loss[:]
    two_losses[1] = 0.45
    gain, reasons = verdict(parent, two_losses, "lower")
    check("8 wins of 10 is no gain",
          not gain and any("won 8 of 10" in r for r in reasons))
    # Every pair won by a hair: the medians sit inside the parent's
    # own spread, so the win is not told apart from noise.
    hair = [p - 0.001 for p in parent]
    gain, reasons = verdict(parent, hair, "lower")
    check("a win inside the parent's IQR is no gain",
          not gain and len(reasons) == 1 and "IQR" in reasons[0])
    check("a gain on a higher-is-better metric",
          verdict([100.0 + i for i in range(10)],
                  [120.0 + i for i in range(10)], "higher")[0])

    ledger = ("--- per-layer ledger (9 spans; * = workload thread) ---\n"
              "  span   module   count   total_ms   self_ms   blocked_ms\n"
              " *synth.batch      synth     49   4266.352   3056.937"
              "   0.000\n"
              "  sim.scan         calib+sim 260  1271.590   1271.590"
              "   0.000\n"
              "--- per-module self / blocked time (all threads) ---\n"
              "  synth   4701 spans   6509.680 ms self   0.000 ms blocked\n")
    check("ledger rows parse, other sections do not",
          ledger_self_ms(ledger) == {"synth.batch": 3056.937,
                                     "sim.scan": 1271.59})

    log = ("--- end-to-end metrics ---\n"
           "  setup_s                            0.182000 s\n"
           "--- timings ---\n"
           "  setup_s                0.182113\n"
           "  compile_cold_s         0.103456\n"
           "  retune_s               0.000000\n"
           "  p50_ms                 0.091250\n"
           "  p99_ms                 0.571000\n"
           "latency: median over 48 blocks of 1000 requests (block p99 "
           "has 10 beyond it)\n"
           "verification digest 0x0d74a2bcaf328453 (repeats exactly at "
           "a fixed seed)\n")
    check("the timings block parses and ends at the latency line",
          timings_block(log) == {"setup_s": 0.182113,
                                 "compile_cold_s": 0.103456,
                                 "retune_s": 0.0, "p50_ms": 0.09125,
                                 "p99_ms": 0.571})
    check("a traced run's timings block parses too",
          timings_block(log.replace("--- timings ---",
                                    "--- timings (traced) ---"))
          ["compile_cold_s"] == 0.103456)
    check("no timings block, no rows", timings_block(ledger) == {})

    for name, passed in checks:
        print(f"  {'ok  ' if passed else 'FAIL'} {name}")
    failed = sum(1 for _, passed in checks if not passed)
    print(f"ab_qbench selftest: {len(checks) - failed}/{len(checks)} "
          "passed")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", default="HEAD~1",
                    help="parent revision (default HEAD~1)")
    ap.add_argument("--parent-dir",
                    help="use this existing parent checkout instead of "
                         "a worktree of --parent")
    ap.add_argument("--workload", default="lifecycle_hh4x9")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--metric", default="setup_s",
                    help="end-to-end metric the verdict is about")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--same-digest", action="store_true",
                    help="fail unless every run printed one digest")
    ap.add_argument("--workdir",
                    default=os.path.join(tempfile.gettempdir(),
                                         "qbasis-ab"),
                    help="builds, logs and the parent worktree "
                         "(outside the repository)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seconds = int(args.seconds)
    if seconds == args.seconds:
        args.seconds = seconds
    return ab(args)


if __name__ == "__main__":
    sys.exit(main())
