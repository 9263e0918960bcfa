//! Schema validation of the `esp-obs` JSONL run traces: every emitted
//! line must parse as standalone JSON and carry exactly the fields
//! documented in `docs/OBSERVABILITY.md`, with the right types.

use esp_check::Json;
use esp_core::{SimConfig, Simulator};
use esp_obs::TraceProbe;
use esp_workload::BenchmarkProfile;

const CPI_KEYS: [&str; 9] = [
    "base",
    "icache_l2",
    "icache_llc",
    "dcache_l2",
    "dcache_llc",
    "branch_mispredict",
    "branch_misfetch",
    "idle",
    "pre_exec_overlap",
];

const CACHE_KEYS: [&str; 5] = ["accesses", "misses", "partial_hits", "prefetch_fills", "prefetch_useful"];

fn require_u64(line: &Json, key: &str, ctx: &str) -> u64 {
    line.get(key)
        .unwrap_or_else(|| panic!("{ctx}: missing field {key:?}"))
        .as_u64()
        .unwrap_or_else(|| panic!("{ctx}: field {key:?} is not a non-negative integer"))
}

fn require_str<'a>(line: &'a Json, key: &str, ctx: &str) -> &'a str {
    line.get(key)
        .unwrap_or_else(|| panic!("{ctx}: missing field {key:?}"))
        .as_str()
        .unwrap_or_else(|| panic!("{ctx}: field {key:?} is not a string"))
}

fn check_cpi(line: &Json, ctx: &str) {
    let cpi = line.get("cpi").unwrap_or_else(|| panic!("{ctx}: missing cpi object"));
    let obj = cpi.as_obj().unwrap_or_else(|| panic!("{ctx}: cpi is not an object"));
    assert_eq!(obj.len(), CPI_KEYS.len(), "{ctx}: unexpected cpi key count");
    for key in CPI_KEYS {
        require_u64(cpi, key, &format!("{ctx} cpi"));
    }
}

fn check_cache(line: &Json, key: &str, ctx: &str) {
    let c = line.get(key).unwrap_or_else(|| panic!("{ctx}: missing {key} object"));
    let obj = c.as_obj().unwrap_or_else(|| panic!("{ctx}: {key} is not an object"));
    assert_eq!(obj.len(), CACHE_KEYS.len(), "{ctx}: unexpected {key} key count");
    for k in CACHE_KEYS {
        require_u64(c, k, &format!("{ctx} {key}"));
    }
}

/// Runs one simulation with a trace probe and validates every line.
/// Returns (event_lines, run_lines, window_lines).
fn validate_trace(config: SimConfig, with_windows: bool) -> (u64, u64, u64) {
    let w = BenchmarkProfile::amazon().scaled(20_000).build(42).materialise();
    let mut probe = TraceProbe::new("amazon", "test-config");
    if with_windows {
        probe = probe.with_windows();
    }
    let report = Simulator::new(config).run_probed(&w, &mut probe);
    let text = String::from_utf8(probe.into_bytes()).expect("trace must be UTF-8");

    let (mut events, mut runs, mut windows) = (0u64, 0u64, 0u64);
    let mut run_total_cycles = None;
    for (i, raw) in text.lines().enumerate() {
        let ctx = format!("line {}", i + 1);
        let line = Json::parse(raw).unwrap_or_else(|e| panic!("{ctx}: invalid JSON ({e}): {raw}"));
        assert_eq!(require_str(&line, "benchmark", &ctx), "amazon");
        assert_eq!(require_str(&line, "config", &ctx), "test-config");
        match require_str(&line, "type", &ctx) {
            "event" => {
                events += 1;
                for key in ["idx", "start", "end", "retired", "windows"] {
                    require_u64(&line, key, &ctx);
                }
                assert!(
                    require_u64(&line, "end", &ctx) >= require_u64(&line, "start", &ctx),
                    "{ctx}: event ends before it starts"
                );
                check_cpi(&line, &ctx);
            }
            "run" => {
                runs += 1;
                for key in [
                    "total_cycles",
                    "events",
                    "retired",
                    "branches",
                    "mispredicts",
                    "esp_branches",
                    "esp_mispredicts",
                ] {
                    require_u64(&line, key, &ctx);
                }
                check_cpi(&line, &ctx);
                for cache in ["l1i", "l1d", "l2"] {
                    check_cache(&line, cache, &ctx);
                }
                run_total_cycles = Some(require_u64(&line, "total_cycles", &ctx));
            }
            "window" => {
                windows += 1;
                for key in ["at", "offered_cycles", "utilized_cycles", "instrs"] {
                    require_u64(&line, key, &ctx);
                }
                require_str(&line, "stall_class", &ctx);
                require_str(&line, "spender", &ctx);
            }
            other => panic!("{ctx}: unknown line type {other:?}"),
        }
    }

    assert_eq!(runs, 1, "exactly one run line per simulation");
    assert_eq!(events, report.events_run, "one event line per event run");
    assert_eq!(
        run_total_cycles,
        Some(report.total_cycles),
        "run line must agree with the RunReport"
    );
    (events, runs, windows)
}

#[test]
fn baseline_trace_matches_schema() {
    let (events, _, windows) = validate_trace(SimConfig::base(), false);
    assert!(events > 0);
    assert_eq!(windows, 0, "window lines are opt-in");
}

#[test]
fn esp_trace_with_windows_matches_schema() {
    let (events, _, windows) = validate_trace(SimConfig::esp_nl(), true);
    assert!(events > 0);
    assert!(windows > 0, "ESP at this scale must spend at least one window");
}

#[test]
fn runahead_trace_with_windows_matches_schema() {
    let (_, runs, _) = validate_trace(SimConfig::runahead_nl(), true);
    assert_eq!(runs, 1);
}
