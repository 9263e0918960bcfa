//! Bring-your-own workload: two ways to feed the simulator something
//! other than the seven built-in profiles.
//!
//! 1. Tune [`WorkloadParams`] — every knob of the synthetic generator is
//!    public (here: an IoT-style sensor hub with tiny, bursty events).
//! 2. Implement the [`Workload`] trait directly over hand-built traces,
//!    pack it once with [`PackedWorkload::pack`] (the form the simulator
//!    runs), and round-trip it through the `.espt` trace file format.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use event_sneak_peek::prelude::*;
use event_sneak_peek::trace::espt::{self, TraceMeta};
use event_sneak_peek::trace::{EventRecord, Instr};
use event_sneak_peek::types::EventKindId;
use event_sneak_peek::workload::WorkloadParams;

fn main() {
    tuned_generator();
    hand_built_workload();
}

/// Part 1: an "IoT sensor hub" profile — thousands of tiny events with a
/// small firmware image, posted in dense bursts.
fn tuned_generator() {
    let mut p = WorkloadParams::web_default();
    p.target_instructions = 200_000;
    p.mean_event_len = 900; // tiny handlers
    p.event_len_sigma = 0.8;
    p.event_kinds = 6;
    p.code_footprint_bytes = 192 * 1024; // small firmware
    p.heap_per_event = 2 * 1024;
    p.mean_burst = 10.0; // sensor readings arrive in volleys
    p.utilization = 0.95;
    let workload = event_sneak_peek::workload::GeneratedWorkload::generate(p, 2026).materialise();

    let base = Simulator::new(SimConfig::next_line()).run(&workload);
    let esp = Simulator::new(SimConfig::esp_nl()).run(&workload);
    println!(
        "sensor hub: {} events of ~{} instrs; ESP speedup over NL: {:.1}% \
         (pre-executed {:.1}%)",
        workload.events().len(),
        workload.approx_total_instructions() / workload.events().len() as u64,
        event_sneak_peek::stats::improvement_pct(base.busy_cycles(), esp.busy_cycles()),
        esp.extra_instr_pct(),
    );
}

/// Part 2: a hand-built two-event workload over explicit traces, packed
/// for the simulator and round-tripped through an in-memory `.espt` image.
fn hand_built_workload() {
    struct TinyWorkload {
        records: Vec<EventRecord>,
        traces: Vec<Vec<Instr>>,
        /// What a pre-execution of each event observes.
        speculative: Vec<Vec<Instr>>,
    }

    impl Workload for TinyWorkload {
        fn events(&self) -> &[EventRecord] {
            &self.records
        }
        fn actual_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
            Box::new(self.traces[id.index() as usize].clone().into_iter())
        }
        fn speculative_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
            Box::new(self.speculative[id.index() as usize].clone().into_iter())
        }
    }

    let make_trace = |base: u64| -> Vec<Instr> {
        let mut v = Vec::new();
        for i in 0..400u64 {
            let pc = Addr::new(base + i * 4);
            v.push(match i % 5 {
                1 => Instr::load(pc, Addr::new(0x9000_0000 + base + i * 64), false),
                3 => Instr::cond_branch(pc, false, Addr::new(base)),
                _ => Instr::alu(pc),
            });
        }
        v
    };
    let record = |idx: u64, pc: u64| EventRecord {
        id: EventId::new(idx),
        kind: EventKindId::new(0),
        handler_pc: Addr::new(pc),
        arg_addr: Addr::new(0x9000_0000),
        approx_len: 400,
        post_time: Cycle::ZERO,
        order_mispredicted: false,
    };
    let traces = vec![make_trace(0x40_0000), make_trace(0x80_0000)];
    // Event 0 is perfectly predictable; a pre-execution of event 1 takes
    // a different path after 250 instructions (an inter-event dependence).
    let mut veered = traces[1][..250].to_vec();
    veered.extend(make_trace(0xc0_0000).into_iter().take(150));
    let w = TinyWorkload {
        records: vec![record(0, 0x40_0000), record(1, 0x80_0000)],
        speculative: vec![traces[0].clone(), veered],
        traces,
    };

    // Packing drains every stream once and stores each speculative
    // stream as the shared actual prefix plus the tail past its first
    // differing instruction.
    let packed = PackedWorkload::pack(&w);
    let diverge = packed.arena().event(1).diverge_at().expect("event 1 diverges");
    let report = Simulator::new(SimConfig::esp_nl()).run(&packed);
    println!(
        "hand-built: {} events (event 1 pre-executes off-path from instruction {diverge}), \
         {} cycles, {} ESP windows",
        report.events_run, report.total_cycles, report.esp.windows
    );

    // Export the packed workload as `.espt` bytes, import them back and
    // rerun: the re-imported workload must simulate identically.
    let meta = TraceMeta { profile: "tiny".into(), scale: 800, seed: 0 };
    let mut bytes = Vec::new();
    espt::write(&mut bytes, &meta, &packed).expect("in-memory write cannot fail");
    let (meta_back, imported) = espt::read(bytes.as_slice()).expect("roundtrip");
    assert_eq!(meta_back, meta);
    let again = Simulator::new(SimConfig::esp_nl()).run(&imported);
    assert_eq!(format!("{again:?}"), format!("{report:?}"));
    println!("round-tripped through {} bytes of .espt: identical report", bytes.len());
}
