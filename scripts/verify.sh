#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md) plus the parallel-runner
# determinism check. Run from anywhere inside the repository; the build
# is fully offline (no crates.io dependencies anywhere in the workspace).
#
#   ./scripts/verify.sh
#
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q (workspace) =="
cargo test -q --workspace

echo "== benchmark: perfbench unit tests (it compiles against the simulator's API) =="
# perfbench is a package of its own, outside the workspace, so the
# workspace build above does not compile it.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "== lint: cargo clippy --workspace --all-targets (warnings denied) =="
# Every workspace crate's targets (examples and tests included), not
# only the root package's; --keep-going reports every failing target.
cargo clippy --keep-going --workspace --all-targets --quiet -- -D warnings

echo "== correctness: oracle matrix + seeded fuzz smoke (esp-check) =="
# check also fuzzes the ESPT trace decoder (--fuzz-espt, default 500
# structural mutations; docs/TRACE_FORMAT.md).
cargo run --release -q -p esp-bench --bin repro -- --scale 30000 --fuzz 8 check

echo "== trace conformance: golden fixtures + import == generate (ESPT) =="
cargo test -q --release --test espt_conformance
cargo test -q --release -p esp-bench --test trace_import_equivalence

echo "== determinism: parallel runner == sequential simulation =="
cargo test -q --release -p esp-bench --test determinism

echo "== packed arena: PackedWorkload::pack == materialise, bit for bit =="
cargo test -q --release -p esp-bench --test packed_equivalence

echo "== hand-built workload: custom_workload packs, runs and round-trips through .espt =="
cargo run --release -q --example custom_workload

echo "== sampling: accuracy + thread-count determinism (esp-sample) =="
cargo test -q --release -p esp-bench --test sampling_error

echo "== learned fast-forward: accuracy + non-vacuous skipping (esp-learn) =="
cargo test -q --release -p esp-bench --test learned_ff_error

echo "== interval coverage: sampled + learned ci95 hold the exact CPI on >= 90% of the panel =="
cargo test -q --release -p esp-bench --test interval_coverage -- --nocapture

echo "== observability: conservation + thread-count invariance =="
cargo test -q --release -p esp-bench --test observability

echo "== docs: cargo doc --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== timing smoke (informational, non-gating) =="
# A small single-repetition bench so every verify run prints a
# throughput number next to the correctness results, compared against
# the committed BENCH_repro.json record. Small scale and a shared host
# make this noisy, hence non-gating; the committed record comes from
# ./scripts/bench.sh (see docs/PERFORMANCE.md). Runs in a scratch
# directory so the committed BENCH_repro.json is untouched. The scale
# gives every family at least two sampling periods (40 grains of 2000
# instructions); below that, sampled runs fall back to exact and their
# line would describe exact runs.
smoke_dir="$(mktemp -d)"
( cd "$smoke_dir" &&
  "$OLDPWD/target/release/repro" --scale 120000 --seed 42 --repeat 1 bench &&
  if command -v python3 >/dev/null; then
    python3 - "$OLDPWD/BENCH_repro.json" <<'PY'
import json, sys
d = json.load(open("BENCH_repro.json"))
nt = (f"{d['sims_per_sec_nt']:.1f} ({d['threads_nt']} threads, warm)"
      if "sims_per_sec_nt" in d else d.get("nt_note", "no N-thread pass"))
s = d["sampled"]
mips = f", {d['mips_1t']:.1f} MIPS" if "mips_1t" in d else ""
print(f"  sims/sec: {d['sims_per_sec_1t']:.1f} (1 thread, cold){mips} "
      f"at scale {d['scale']}")
peak = (f", peak resident set {d['peak_rss_mib']:.1f} MiB (every pass)"
        if "peak_rss_mib" in d else "")
print(f"  memory: packed arena {d['arena_bytes'] / 2**20:.1f} MiB{peak}")
t = d.get("dcu_triggers")
if t:
    print(f"  DCU trigger sidecars: {t['bytes'] / 1024:.1f} KiB, built in "
          f"{t['build_seconds'] * 1e3:.1f} ms (once per family, shared by every "
          f"next-line configuration)")
b = d.get("branch_outcomes")
if b:
    print(f"  branch outcome sidecars: {b['bytes'] / 1024:.1f} KiB, built in "
          f"{b['build_seconds'] * 1e3:.1f} ms (once per family, shared by the nine "
          f"configurations whose predictor sees only retired branches)")
print(f"  sampled: {s['sims_per_sec']:.1f} sims/sec, simulate speedup "
      f"{s['simulate_speedup_vs_exact']:.2f}x, max CPI error "
      f"{s['max_cpi_error_pct']:.1f}%, ci95 coverage {s.get('ci95_coverage', float('nan')):.2f} "
      f"(small scale -- error shrinks with scale; "
      f"the gated accuracy test runs at 2.4M)")
try:
    rec = json.load(open(sys.argv[1]))
except (OSError, ValueError):
    rec = None
if rec:
    rmips = f", {rec['mips_1t']:.1f} MIPS" if "mips_1t" in rec else ""
    print(f"  committed record: {rec['sims_per_sec_1t']:.1f} sims/sec "
          f"(1 thread, cold){rmips} at scale {rec['scale']}")
    # sims/s is not comparable across scales (smaller sims finish
    # faster); MIPS is the scale-portable metric, though per-sim fixed
    # costs still weigh more at the small smoke scale.
    if "mips_1t" in d and "mips_1t" in rec:
        drift = 100.0 * (d["mips_1t"] / rec["mips_1t"] - 1.0)
        print(f"  MIPS drift vs record: {drift:+.0f}% -- expect negative "
              f"at this smaller smoke scale and on slower/noisier hosts; "
              f"informational only, never gating. Regenerate the record "
              f"with ./scripts/bench.sh on a quiet host.")
else:
    print("  (no committed BENCH_repro.json record to compare against)")
PY
  else
    cat BENCH_repro.json
  fi ) || echo "  (timing smoke failed -- ignored)"
rm -rf "$smoke_dir"

echo "== size: Rust source lines in crates src tests examples =="
# One number a change that deletes code can quote its delta against.
find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l

echo "verify: OK"
