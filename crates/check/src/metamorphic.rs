//! Metamorphic invariants: whole-run relations that must hold without
//! knowing the "right" answer for any single run.
//!
//! Each check runs the simulator two or more times under related
//! configurations and asserts a relation between the results. All checks
//! return `Err(String)` instead of panicking so the fuzzer can catch,
//! shrink, and report violations.
//!
//! Two tiers of strictness:
//!
//! * **Provable** relations follow from the interval model's structure
//!   (e.g. a machine with every component idealised charges only base
//!   cycles, so it can never be slower; an LRU cache with doubled
//!   associativity and constant set count satisfies stack inclusion, so
//!   it can never miss more). These are safe to fuzz.
//! * **Empirical** relations hold on every realistic workload but are
//!   not theorems (e.g. perfect L1-I alone beating the baseline —
//!   partial-hit timing feedback could in principle flip it). These are
//!   asserted only from fixed-seed tests, never from the fuzzer.

use esp_core::{RunReport, SimConfig, Simulator};
use esp_obs::CpiObserver;
use esp_trace::{PackedWorkload, Workload};
use esp_types::Cycle;
use esp_uarch::PerfectFlags;

fn run(config: SimConfig, workload: &PackedWorkload) -> RunReport {
    Simulator::new(config).run(workload)
}

fn run_summary(config: SimConfig, workload: &PackedWorkload) -> esp_obs::RunSummary {
    let mut obs = CpiObserver::default();
    let _ = Simulator::new(config).run_probed(workload, &mut obs);
    obs.run.expect("run summary must be emitted")
}

// ---------------------------------------------------------------------
// Perfect-component ordering
// ---------------------------------------------------------------------

/// Idealising *every* component leaves only base issue cycles, so the
/// perfect-all machine can never be slower than any other baseline
/// variant, and must retire exactly the same instruction count.
///
/// With `include_empirical`, additionally asserts the intuitive middle
/// link `perfect-L1I <= base` — true on every realistic workload but not
/// a theorem, so the fuzzer passes `false` here.
///
/// # Errors
///
/// Describes the first violated ordering link.
pub fn perfect_ordering(workload: &PackedWorkload, include_empirical: bool) -> Result<(), String> {
    let base = run(SimConfig::base(), workload);
    let p_l1i = run(
        SimConfig::perfect(PerfectFlags { l1i: true, l1d: false, branch: false }),
        workload,
    );
    let p_all = run(
        SimConfig::perfect(PerfectFlags { l1i: true, l1d: true, branch: true }),
        workload,
    );

    if p_all.engine.retired != base.engine.retired || p_l1i.engine.retired != base.engine.retired {
        return Err(format!(
            "perfect variants changed retired count: base {} / perfect-l1i {} / perfect-all {}",
            base.engine.retired, p_l1i.engine.retired, p_all.engine.retired
        ));
    }
    if p_all.busy_cycles() > base.busy_cycles() {
        return Err(format!(
            "perfect-all is slower than base: {} > {} busy cycles",
            p_all.busy_cycles(),
            base.busy_cycles()
        ));
    }
    if p_all.busy_cycles() > p_l1i.busy_cycles() {
        return Err(format!(
            "perfect-all is slower than perfect-l1i: {} > {} busy cycles",
            p_all.busy_cycles(),
            p_l1i.busy_cycles()
        ));
    }
    if include_empirical && p_l1i.busy_cycles() > base.busy_cycles() {
        return Err(format!(
            "perfect-l1i is slower than base: {} > {} busy cycles",
            p_l1i.busy_cycles(),
            base.busy_cycles()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Cache-doubling (LRU stack inclusion)
// ---------------------------------------------------------------------

/// Doubling a cache's associativity (and size, keeping the set count
/// constant) can never increase its demand-miss count.
///
/// This is the classic LRU inclusion property, and it is *exact* here
/// because the caches stamp recency with a pure access-sequence counter:
/// in `Baseline` mode with both prefetchers off, the demand access
/// sequence is determined by the instruction stream alone, so the two
/// runs present identical reference strings and the wider cache's
/// resident set includes the narrower one's at every step. Only demand
/// misses (absence) are compared — partial hits are timing, not content.
///
/// # Errors
///
/// Describes which cache (L1-I or L1-D) violated inclusion.
pub fn cache_doubling(workload: &PackedWorkload) -> Result<(), String> {
    let base_cfg = SimConfig::base();
    let base = run_summary(base_cfg.clone(), workload);

    let mut wide_i = base_cfg.clone();
    wide_i.engine.machine.hierarchy.l1i.ways *= 2;
    wide_i.engine.machine.hierarchy.l1i.size_bytes *= 2;
    let with_wide_i = run_summary(wide_i, workload);
    if with_wide_i.l1i.misses > base.l1i.misses {
        return Err(format!(
            "doubling L1-I associativity increased misses: {} > {}",
            with_wide_i.l1i.misses, base.l1i.misses
        ));
    }

    let mut wide_d = base_cfg;
    wide_d.engine.machine.hierarchy.l1d.ways *= 2;
    wide_d.engine.machine.hierarchy.l1d.size_bytes *= 2;
    let with_wide_d = run_summary(wide_d, workload);
    if with_wide_d.l1d.misses > base.l1d.misses {
        return Err(format!(
            "doubling L1-D associativity increased misses: {} > {}",
            with_wide_d.l1d.misses, base.l1d.misses
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// ESP with nothing to peek == baseline
// ---------------------------------------------------------------------

/// Spacing between re-timed posts; far larger than any event's runtime
/// at fuzzable scales, so event `i+1` is always posted after event `i`
/// (and its trailing idle gap) completes.
const NO_PEEK_GAP: u64 = 1_000_000_000;

/// `inner` with its event posts re-timed `NO_PEEK_GAP` cycles apart, so
/// that no later event is ever in the queue while an earlier one runs —
/// ESP's sneak peek never finds a candidate, so every window degenerates
/// to a plain stall. The instruction arena is shared, not copied.
pub fn no_peek(inner: &PackedWorkload) -> PackedWorkload {
    let events = inner
        .events()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut e = *e;
            e.post_time = Cycle::new(NO_PEEK_GAP * (i as u64 + 1));
            e
        })
        .collect();
    PackedWorkload::new(events, inner.arena().clone(), inner.approx_total_instructions())
}

/// ESP that never finds a peekable event must behave exactly like the
/// baseline with the same engine configuration: identical busy cycles
/// and identical architectural event counts. Both runs use the
/// [`no_peek`] re-timing so absolute timestamps match too.
///
/// # Errors
///
/// Describes the first diverging statistic.
pub fn no_peek_esp_equals_baseline(workload: &PackedWorkload) -> Result<(), String> {
    let quiet = no_peek(workload);
    let esp = run(SimConfig::esp_nl(), &quiet);
    let base = run(SimConfig::next_line(), &quiet);

    if esp.busy_cycles() != base.busy_cycles() {
        return Err(format!(
            "no-peek ESP busy cycles diverged from baseline: {} != {}",
            esp.busy_cycles(),
            base.busy_cycles()
        ));
    }
    if esp.engine != base.engine {
        return Err(format!(
            "no-peek ESP engine stats diverged from baseline:\n  esp:  {:?}\n  base: {:?}",
            esp.engine, base.engine
        ));
    }
    if esp.events_run != base.events_run {
        return Err(format!(
            "no-peek ESP events_run diverged: {} != {}",
            esp.events_run, base.events_run
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Runahead architectural invariance
// ---------------------------------------------------------------------

/// Runahead is pure speculation on already-stalled cycles: it may warm
/// caches and change *timing*, but the architectural execution — events
/// run, instructions retired, branches retired — must be identical to
/// the baseline.
///
/// # Errors
///
/// Describes the first diverging architectural count.
pub fn runahead_arch_invariance(workload: &PackedWorkload) -> Result<(), String> {
    let base = run(SimConfig::base(), workload);
    let ra = run(SimConfig::runahead(), workload);

    if ra.engine.retired != base.engine.retired {
        return Err(format!(
            "runahead changed retired count: {} != {}",
            ra.engine.retired, base.engine.retired
        ));
    }
    if ra.engine.branches != base.engine.branches {
        return Err(format!(
            "runahead changed branch count: {} != {}",
            ra.engine.branches, base.engine.branches
        ));
    }
    if ra.events_run != base.events_run {
        return Err(format!(
            "runahead changed events_run: {} != {}",
            ra.events_run, base.events_run
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Scale stability
// ---------------------------------------------------------------------

/// Doubling a profile's instruction budget must never *worsen*
/// per-instruction rates. The generator scales a profile by lengthening
/// its events (the code image and footprints stay fixed), so locality
/// only improves with scale: per-event warm-up misses amortise over
/// more instructions. CPI and L1-I MPKI therefore decline monotonically
/// as the budget grows — the doubled run may be at most 5% worse than
/// the original on either rate.
///
/// # Errors
///
/// Describes which rate worsened under scale doubling.
pub fn scale_rate_stability(
    profile: &esp_workload::BenchmarkProfile,
    scale: u64,
    seed: u64,
) -> Result<(), String> {
    let small = run(SimConfig::base(), &profile.scaled(scale).build(seed).materialise());
    let large = run(SimConfig::base(), &profile.scaled(scale * 2).build(seed).materialise());

    let cpi = |r: &RunReport| r.busy_cycles() as f64 / r.engine.retired.max(1) as f64;
    let (cpi_s, cpi_l) = (cpi(&small), cpi(&large));
    if cpi_l > cpi_s * 1.05 {
        return Err(format!(
            "CPI worsened under scale doubling: {cpi_s:.4} -> {cpi_l:.4}"
        ));
    }

    let mpki = |r: &RunReport| r.engine.l1i_misses as f64 * 1000.0 / r.engine.retired.max(1) as f64;
    let (m_s, m_l) = (mpki(&small), mpki(&large));
    if m_l > m_s * 1.05 {
        return Err(format!(
            "L1-I MPKI worsened under scale doubling: {m_s:.3} -> {m_l:.3}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_workload::BenchmarkProfile;

    #[test]
    fn no_peek_retimes_posts_and_shares_the_arena() {
        let w = BenchmarkProfile::amazon().scaled(5_000).build(3).materialise();
        let quiet = no_peek(&w);
        assert!(std::sync::Arc::ptr_eq(quiet.arena(), w.arena()));
        assert_eq!(quiet.events().len(), w.events().len());
        for (i, e) in quiet.events().iter().enumerate() {
            assert_eq!(e.post_time, Cycle::new(NO_PEEK_GAP * (i as u64 + 1)));
        }
        assert_eq!(quiet.approx_total_instructions(), w.approx_total_instructions());
    }
}
