#!/usr/bin/env bash
# Tier-1 verification plus bench smokes -- the single entry point CI
# calls.
#
#   scripts/verify.sh [--quick] [build-dir]
#
#   --quick    skip the bench pass (bench_synth + bench_fleet +
#              bench_recalib + bench_persist + bench_serve +
#              bench_mat4 + bench_obs + bench_scale +
#              scripts/check_bench.py); the docs gate, the qbench
#              build + self-tests, and the mat4, fleet, recalib,
#              persist, serve, obs, scale, and fault smokes still
#              run so every matrix job builds the repository
#              benchmark and exercises the SIMD
#              kernel bit-identity check, the sharded driver, the
#              async retune pipeline, the snapshot round trip, the
#              serving daemon's admission/determinism contracts, the
#              tracing zero-perturbation contract, and the
#              degraded-mode replay contract.
#
# Environment:
#   CMAKE_BUILD_TYPE   build configuration (default Release)
#   CMAKE_ARGS         extra -D flags for the configure step
#   CC / CXX           compiler selection (honored by cmake)
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    -*) echo "usage: scripts/verify.sh [--quick] [build-dir]" >&2
        exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}"
echo "=== verify: ${CXX:-c++} ($(${CXX:-c++} --version | head -n1)), " \
     "build type ${BUILD_TYPE}, mode $([ "$QUICK" = 1 ] && echo quick || echo full) ==="

# shellcheck disable=SC2086  # CMAKE_ARGS is intentionally word-split
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
      ${CMAKE_ARGS:-}
cmake --build "$BUILD_DIR" -j"$(nproc)"

# Dispatched Mat4 kernel backend of this build/host (scalar or
# avx2, plus the probed host ISA).
"$BUILD_DIR/bench_mat4" --backend

# --timeout turns a hung test (a deadlocked waiter, a quarantined
# edge never released) into a bounded failure instead of a stuck job.
ctest --test-dir "$BUILD_DIR" --output-on-failure --timeout 1200 \
      -j"$(nproc)"

# Mat4 kernel smoke: scalar-vs-SIMD bit-identity on every dispatched
# kernel is the exit code.
"$BUILD_DIR/bench_mat4" --smoke

# Fleet smoke: 2-device shard run with cross-device dedupe and
# bit-determinism asserts baked into the binary's exit code.
"$BUILD_DIR/bench_fleet" --smoke

# Recalib smoke: one overlapped drift cycle; sync-vs-async
# bit-determinism and the zero-stall assert are the exit code.
"$BUILD_DIR/bench_recalib" --smoke

# Persist smoke: snapshot save -> warm restart -> bit-identical
# compile, retirement sweep shrinkage, and corrupt-snapshot
# rejection are the exit code.
"$BUILD_DIR/bench_persist" --smoke

# Serve smoke: open-loop load on the CompileService; interleaving
# bit-identity, the epoch-swap digest change, and reject-with-status
# admission are the exit code.
"$BUILD_DIR/bench_serve" --smoke

# Obs smoke: span overhead, exporter round trip, and traced-vs-
# untraced digest neutrality (the zero-perturbation contract) are
# the exit code.
"$BUILD_DIR/bench_obs" --smoke

# Scale smoke: one heterogeneous heavy-hex lattice through the full
# serving lifecycle; sharded bit-determinism, cross-edge dedupe, and
# plan-tier traffic are the exit code.
"$BUILD_DIR/bench_scale" --smoke

# Docs gate: every intra-repo link and code path in docs/*.md and
# README.md, and every *.md file cited in the code, must resolve
# against the working tree.
python3 scripts/check_docs.py

# Repository benchmark: build qbench/ from source against the
# library's current API (into .bench_build) and run its helper
# self-tests.
python3 qbench/run.py --selftest

# Fault smokes: degraded-mode replays under pinned fault seeds (ones
# that retry, contain, and quarantine at smoke scale; for serve, shed
# at admission and serve through a fully quarantined fleet). Run
# BEFORE the --quick bench pass below so the BENCH_*.json files the
# bench gate reads are the non-faulted ones.
"$BUILD_DIR/bench_recalib" --faults 1 --smoke
"$BUILD_DIR/bench_serve" --faults 1 --smoke

if [ "$QUICK" = 0 ]; then
  "$BUILD_DIR/bench_synth" --quick
  "$BUILD_DIR/bench_fleet" --quick
  "$BUILD_DIR/bench_recalib" --quick
  "$BUILD_DIR/bench_persist" --quick
  "$BUILD_DIR/bench_serve" --quick
  "$BUILD_DIR/bench_mat4" --quick
  "$BUILD_DIR/bench_obs" --quick
  "$BUILD_DIR/bench_scale" --quick
  python3 scripts/check_bench.py
fi
echo "verify: OK"
