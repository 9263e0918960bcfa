#!/usr/bin/env bash
# Reproduces the committed BENCH_repro.json throughput record.
#
#   ./scripts/bench.sh            # the documented scale-600000 run
#   ./scripts/bench.sh --repeat 5 # extra repetitions on a noisy host
#
# The bench runs the full evaluation matrix (9 families x 29 configs =
# 261 simulations: the paper's 7 profiles plus serverasync and iotfsm)
# several times: pass 1 cold on one thread (generate +
# materialise + simulate), pass 2 warm on all cores (arena reused;
# skipped with a JSON note when the thread count is one), pass 3 warm
# in statistical-sampling mode with a sampled-vs-exact CPI error
# cross-check (per-profile table under "sampled".per_profile). A final
# trace-I/O pass exports every family to .espt files, clears the arena
# memo, re-imports them, and records the wall times under "trace_io"
# next to the
# generate/materialise phase seconds the import path replaces
# (docs/TRACE_FORMAT.md). Exact and sampled throughput both land in
# BENCH_repro.json, as sims/s and as MIPS (instructions simulated —
# retired plus speculative — per wall-second; the sampled block reports
# *effective* MIPS and is tagged with the scale its error was measured
# at, since sampling error shrinks as more periods fit the workload).
# Each pass is best-of-N (default 3) because the work
# is deterministic, so the minimum is the least-disturbed measurement;
# see docs/PERFORMANCE.md for the protocol. Extra arguments are
# forwarded to `repro` after the defaults, so they win.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p esp-bench
exec ./target/release/repro --scale 600000 --seed 42 --force "$@" bench
