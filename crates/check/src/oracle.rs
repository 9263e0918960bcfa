//! The in-order reference timing oracle and differential replay checks.
//!
//! Three independent cross-checks of one real simulation run:
//!
//! 1. **Serial upper bound.** The oracle observes every retiring
//!    normal-mode instruction through [`esp_obs::Probe::on_step`] and
//!    charges it the *full* latency of each component it touched —
//!    fetch, branch re-steer, data — with zero overlap, exactly what a
//!    strictly in-order, blocking machine would pay. The interval engine
//!    hides latency (ROB overlap, exposed-fraction charging, store
//!    buffering) but never invents extra stall time, so on every run
//!    `serial_cycles >= busy_cycles` must hold. The base (issue)
//!    component is reproduced exactly, so the bound is tight on
//!    stall-free code.
//! 2. **Event-count recount.** The oracle independently recounts
//!    accesses, misses, branches, mispredictions, and misfetches from
//!    the per-step records; the totals must equal the engine's own
//!    [`EngineStats`] field for field.
//! 3. **Differential component replay.** The run is executed with
//!    side-effect recording on ([`Simulator::run_logged`]); the recorded
//!    [`MemOp`]/[`BpOp`] logs are then replayed against *fresh* memory
//!    and predictor instances of the same configuration. Every recorded
//!    per-op result (latency, serving level, prediction outcome) and the
//!    final counters must reproduce exactly — any hidden mutation path,
//!    ordering sensitivity, or nondeterminism in the components shows up
//!    as a divergence.

use esp_branch::{BpOp, BranchPredictor, SpeculativeCheckpoint};
use esp_core::{SideEffectLog, SimConfig, Simulator};
use esp_mem::{MemOp, MemoryHierarchy};
use esp_obs::{Probe, StepRecord};
use esp_trace::PackedWorkload;
use esp_uarch::EngineStats;

/// A [`Probe`] that accumulates the serial no-overlap cycle count and an
/// independent recount of every architectural event.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleProbe {
    /// Normal-mode instructions observed (one `on_step` each).
    pub retired: u64,
    /// Sum of full instruction-fetch latencies.
    pub fetch_cycles: u64,
    /// Sum of branch re-steer penalties.
    pub branch_cycles: u64,
    /// Sum of full data-access latencies (stores contribute zero).
    pub data_cycles: u64,
    /// Recounted L1-I demand lookups.
    pub l1i_accesses: u64,
    /// Recounted L1-I demand misses.
    pub l1i_misses: u64,
    /// Recounted L1-D demand lookups.
    pub l1d_accesses: u64,
    /// Recounted L1-D demand misses.
    pub l1d_misses: u64,
    /// Recounted branches.
    pub branches: u64,
    /// Recounted full mispredictions.
    pub mispredicts: u64,
    /// Recounted decode-stage misfetches.
    pub misfetches: u64,
}

impl Probe for OracleProbe {
    fn on_step(&mut self, r: &StepRecord) {
        self.retired += 1;
        self.fetch_cycles += r.fetch_latency;
        self.branch_cycles += r.branch_penalty;
        self.data_cycles += r.data_latency;
        self.l1i_accesses += r.fetched;
        self.l1i_misses += u64::from(r.l1i_miss);
        if r.data_access {
            self.l1d_accesses += 1;
            self.l1d_misses += u64::from(r.l1d_miss);
        }
        if r.is_branch {
            self.branches += 1;
            self.mispredicts += u64::from(r.mispredict);
            self.misfetches += u64::from(r.misfetch);
        }
    }
}

impl OracleProbe {
    /// The strictly sequential cycle count: exact base cycles (the
    /// engine's incremental milli-cycle carry makes the cumulative base
    /// charge equal `retired * base_millis / 1000` exactly) plus every
    /// component latency in full, with no overlap.
    pub fn serial_cycles(&self, base_millis_per_instr: u64) -> u64 {
        self.retired * base_millis_per_instr / 1000
            + self.fetch_cycles
            + self.branch_cycles
            + self.data_cycles
    }
}

/// What [`check_run`] verified, for reporting.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// The oracle's serial no-overlap cycle count.
    pub serial_cycles: u64,
    /// The engine's busy (non-idle) cycle count.
    pub busy_cycles: u64,
    /// Memory-hierarchy ops replayed.
    pub mem_ops: usize,
    /// Branch-predictor ops replayed.
    pub bp_ops: usize,
    /// The run report of the checked simulation.
    pub report: esp_core::RunReport,
}

/// Runs `workload` under `config` and applies all three oracle checks.
///
/// # Errors
///
/// Returns a human-readable description of the first violated check:
/// recount mismatch, serial bound violation, or replay divergence.
pub fn check_run(config: &SimConfig, workload: &PackedWorkload) -> Result<OracleReport, String> {
    let sim = Simulator::new(config.clone());
    let mut probe = OracleProbe::default();
    let (report, log) = sim.run_logged(workload, &mut probe);

    let expected = EngineStats {
        retired: probe.retired,
        l1i_accesses: probe.l1i_accesses,
        l1i_misses: probe.l1i_misses,
        l1d_accesses: probe.l1d_accesses,
        l1d_misses: probe.l1d_misses,
        branches: probe.branches,
        mispredicts: probe.mispredicts,
        misfetches: probe.misfetches,
        runahead_instrs: report.engine.runahead_instrs,
    };
    if expected != report.engine {
        return Err(format!(
            "event-count recount diverged from engine counters:\n  oracle: {expected:?}\n  engine: {:?}",
            report.engine
        ));
    }

    let base_millis = 1000 / u64::from(config.engine.machine.width)
        + config.engine.timing.issue_extra_millis;
    let serial = probe.serial_cycles(base_millis);
    let busy = report.busy_cycles();
    if serial < busy {
        return Err(format!(
            "serial oracle bound violated: in-order reference {serial} cycles < engine busy {busy} cycles"
        ));
    }

    replay_mem(config, &log)?;
    replay_bp(config, &log)?;

    Ok(OracleReport {
        serial_cycles: serial,
        busy_cycles: busy,
        mem_ops: log.mem_ops.len(),
        bp_ops: log.bp_ops.len(),
        report,
    })
}

/// Replays the memory op log on a fresh hierarchy, checking every
/// recorded access result and the final per-level counters.
fn replay_mem(config: &SimConfig, log: &SideEffectLog) -> Result<(), String> {
    let mut shadow = MemoryHierarchy::new(config.engine.machine.hierarchy.clone());
    for (i, op) in log.mem_ops.iter().enumerate() {
        match *op {
            MemOp::AccessInstr { line, now, served } => {
                let got = shadow.access_instr(line, now);
                if got != served {
                    return Err(format!(
                        "mem replay diverged at op {i}: access_instr({line:?}, {now:?}) returned {got:?}, run observed {served:?}"
                    ));
                }
            }
            MemOp::AccessData { line, now, store, served } => {
                let got = shadow.access_data(line, now, store);
                if got != served {
                    return Err(format!(
                        "mem replay diverged at op {i}: access_data({line:?}, {now:?}, store={store}) returned {got:?}, run observed {served:?}"
                    ));
                }
            }
            MemOp::PrefetchInstr { line, now, into_l1, issued } => {
                let got = shadow.prefetch_instr(line, now, into_l1);
                if got != issued {
                    return Err(format!(
                        "mem replay diverged at op {i}: prefetch_instr({line:?}) issued={got}, run observed {issued}"
                    ));
                }
            }
            MemOp::PrefetchData { line, now, into_l1, issued } => {
                let got = shadow.prefetch_data(line, now, into_l1);
                if got != issued {
                    return Err(format!(
                        "mem replay diverged at op {i}: prefetch_data({line:?}) issued={got}, run observed {issued}"
                    ));
                }
            }
            MemOp::PrefetchInstrInstant { line, now } => shadow.prefetch_instr_instant(line, now),
            MemOp::PrefetchDataInstant { line, now } => shadow.prefetch_data_instant(line, now),
            MemOp::ResetStats => shadow.reset_stats(),
        }
    }
    let got = shadow.snapshot();
    if got != log.mem_snapshot {
        return Err(format!(
            "mem replay final snapshot diverged:\n  replay: {got:?}\n  run:    {:?}",
            log.mem_snapshot
        ));
    }
    Ok(())
}

/// Replays the branch-predictor op log on a fresh predictor, checking
/// every recorded prediction outcome and the final per-context stats.
/// Checkpoints are positional: a LIFO stack mirrors the strictly nested
/// checkpoint/restore discipline of the runahead and ESP window paths.
fn replay_bp(config: &SimConfig, log: &SideEffectLog) -> Result<(), String> {
    let mut shadow = BranchPredictor::new(
        config.engine.machine.branch.clone(),
        config.engine.bp_policy,
    );
    let mut checkpoints: Vec<SpeculativeCheckpoint> = Vec::new();
    for (i, op) in log.bp_ops.iter().enumerate() {
        match *op {
            BpOp::Predict { ctx, instr, outcome } => {
                let got = shadow.predict_and_update(ctx, &instr);
                if got != outcome {
                    return Err(format!(
                        "bp replay diverged at op {i}: predict({ctx:?}, {instr:?}) returned {got:?}, run observed {outcome:?}"
                    ));
                }
            }
            BpOp::TrainAhead { instr } => shadow.train_ahead(&instr),
            BpOp::BeginReplay => shadow.begin_replay(),
            BpOp::ClearRas => shadow.clear_ras(),
            BpOp::Checkpoint => checkpoints.push(shadow.checkpoint_speculative()),
            BpOp::Restore => match checkpoints.pop() {
                Some(cp) => shadow.restore_speculative(cp),
                None => return Err(format!("bp replay diverged at op {i}: restore without checkpoint")),
            },
            BpOp::Promote => shadow.promote_event(),
            BpOp::ResetStats => shadow.reset_stats(),
        }
    }
    let got = shadow.stats_all();
    if got != log.bp_stats {
        return Err(format!(
            "bp replay final stats diverged:\n  replay: {got:?}\n  run:    {:?}",
            log.bp_stats
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_workload::BenchmarkProfile;

    #[test]
    fn oracle_passes_on_a_small_esp_run() {
        let w = BenchmarkProfile::amazon().scaled(20_000).build(11).materialise();
        let r = check_run(&SimConfig::esp_nl(), &w).expect("oracle must pass");
        assert!(r.serial_cycles >= r.busy_cycles);
        assert!(r.mem_ops > 0);
        assert!(r.bp_ops > 0);
    }

    #[test]
    fn serial_bound_is_meaningfully_above_busy() {
        // The interval engine hides latency; on a real workload the
        // serial machine must be strictly slower, not merely equal.
        let w = BenchmarkProfile::gmaps().scaled(20_000).build(5).materialise();
        let r = check_run(&SimConfig::base(), &w).unwrap();
        assert!(r.serial_cycles > r.busy_cycles, "{} !> {}", r.serial_cycles, r.busy_cycles);
    }
}
