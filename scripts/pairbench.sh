#!/usr/bin/env bash
# Concurrent pinned pairs: the working tree against a parent revision on
# the repository benchmark (docs/PERFORMANCE.md, "Protocol: concurrent
# pinned pairs").
#
#   ./scripts/pairbench.sh PARENT_REV WORKLOAD SEEDS...
#   ./scripts/pairbench.sh HEAD~1 sampled-matrix 51 52 53 54 55 56 57 58 59 60
#
# PARENT_REV is checked out as a detached `git worktree` in a temporary
# directory (removed on exit); if PARENT_REV names an existing directory,
# that tree is used as the parent instead. Both sides' perfbench binaries
# are built offline into separate temporary target directories, so
# nothing under perfbench/ is written. Then, per seed, the parent and the
# working tree run `perfbench --workload WORKLOAD --seed SEED --seconds
# RUN_SECONDS --trace 0` at the same time, each pinned to its own CPU
# with `taskset -c`; the two sides swap CPUs from one pair to the next.
# RUN_SECONDS is BENCHMARK.json's `run_seconds`, the benchmark's own run
# length. At the end the script prints every pair's deltas, each side's
# median and quartiles, and, for every end-to-end metric of
# BENCHMARK.json, how many pairs the working tree won and a
# no-regression verdict against the metric's `bound` (a fraction):
#   worse       the median per-pair delta is worse than the bound;
#   unresolved  otherwise, but the parent's interquartile range, relative
#               to its median, exceeds the bound and the working tree did
#               not win every pair, so these pairs cannot tell;
#   ok          neither.
#
# Needs two CPUs, taskset and python3.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_rev=$1
workload=$2
shift 2
root="$(cd "$(dirname "$0")/.." && pwd)"
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"
work="$(mktemp -d)"
worktree=""
cleanup() {
    if [ -n "$worktree" ]; then
        git -C "$root" worktree remove --force "$worktree" || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT

if [ -d "$parent_rev" ]; then
    parent_tree="$(cd "$parent_rev" && pwd)"
else
    worktree="$work/parent"
    git -C "$root" worktree add --detach --quiet "$worktree" "$parent_rev"
    parent_tree="$worktree"
fi

build() { # TREE TARGET_DIR
    echo "# building perfbench in $1" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" >&2
}
build "$parent_tree" "$work/target-parent"
build "$root" "$work/target-change"

mkdir -p "$work/results"
pair=0
for seed in "$@"; do
    cpu_parent=$((pair % 2))
    cpu_change=$((1 - cpu_parent))
    echo "# pair $((pair + 1)): seed $seed (parent on cpu $cpu_parent, change on cpu $cpu_change)" >&2
    (cd "$parent_tree" && taskset -c "$cpu_parent" "$work/target-parent/release/perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>"$work/results/parent-$seed.log" | tail -n 1 >"$work/results/parent-$seed.json") &
    (cd "$root" && taskset -c "$cpu_change" "$work/target-change/release/perfbench" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>"$work/results/change-$seed.log" | tail -n 1 >"$work/results/change-$seed.json") &
    wait
    pair=$((pair + 1))
done

python3 - "$root/BENCHMARK.json" "$work/results" "$workload" "$@" <<'PY'
import json, statistics, sys

bench, results, workload, seeds = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
metrics = json.load(open(bench))["end_to_end"]

def load(side, seed):
    try:
        run = json.load(open(f"{results}/{side}-{seed}.json"))
    except (OSError, ValueError):
        sys.exit(f"pairbench: no result from the {side} run of seed {seed} "
                 f"(see {results}/{side}-{seed}.log)")
    return run

pairs = [(seed, load("parent", seed), load("change", seed)) for seed in seeds]

def value(run, name):
    m = run["metrics"].get(name)
    return None if m is None else m["value"]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: {len(pairs)} concurrent pinned pairs, seeds {' '.join(seeds)}")
for seed, p, c in pairs:
    print(f"  seed {seed}: failed {p['failed']}/{p['attempted']} -> "
          f"{c['failed']}/{c['attempted']}")
print()
print(f"{'metric':<18} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} "
      f"{'median delta':>13} {'verdict':>10} {'wins':>6} {'ties':>4}")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    rows = [(value(p, name), value(c, name)) for _, p, c in pairs]
    rows = [(a, b) for a, b in rows if a is not None and b is not None]
    if not rows:
        continue
    before = [a for a, _ in rows]
    after = [b for _, b in rows]
    deltas = [100.0 * (b - a) / a if a else 0.0 for a, b in rows]
    wins = sum(1 for a, b in rows if (b > a if higher else b < a))
    ties = sum(1 for a, b in rows if a == b)
    pq, cq = quartiles(before), quartiles(after)
    delta = statistics.median(deltas)
    iqr = pq[2] - pq[0]
    spread = iqr / abs(pq[1]) if pq[1] else (0.0 if iqr == 0 else float("inf"))
    if (-delta if higher else delta) > 100.0 * m["bound"]:
        verdict = "worse"
    elif spread > m["bound"] and wins < len(rows):
        verdict = "unresolved"
    else:
        verdict = "ok"
    print(f"{name:<18} {pq[0]:>9.4g} {pq[1]:>9.4g} {pq[2]:>9.4g} "
          f"{cq[0]:>9.4g} {cq[1]:>9.4g} {cq[2]:>9.4g} "
          f"{delta:>+12.1f}% {verdict:>10} {wins:>3}/{len(rows)} {ties:>4}")
    print(f"{'':<18} per pair: " + "/".join(f"{d:+.1f}" for d in deltas) + "%")
    gain = statistics.median(after) - statistics.median(before)
    print(f"{'':<18} median change {gain:+.4g} vs parent interquartile range "
          f"{iqr:.4g} ({100.0 * spread:.1f}% of its median; bound {100.0 * m['bound']:.0f}%)")
PY
