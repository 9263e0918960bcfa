//! Correctness harness for the ESP timing model.
//!
//! The paper's claims rest entirely on relative timing numbers, and the
//! CPI-stack conservation checks of `esp-obs` only prove that cycles are
//! *attributed* consistently — not that they are *right*. This crate is
//! the missing backstop, in four layers:
//!
//! * [`oracle`] — a deliberately simple **in-order reference oracle**. It
//!   shadows a real run through a [`esp_obs::Probe`], summing the *full*
//!   (unoverlapped) component latency of every retired instruction; the
//!   resulting strictly sequential cycle count is a provable upper bound
//!   on the interval engine's overlapped time, and the per-step recount
//!   of every memory/branch event must equal the engine's counters
//!   exactly. On top of that it **differentially replays** the run's
//!   component side-effect log ([`esp_core::SideEffectLog`]) against
//!   fresh `esp-mem` / `esp-branch` instances, asserting every recorded
//!   access result, prediction outcome, and final statistic reproduces.
//! * [`metamorphic`] — **whole-run invariants** that need no ground
//!   truth: idealising more components never slows the machine down,
//!   doubling a cache's associativity never increases its miss count
//!   (LRU inclusion), ESP that never finds a peekable event behaves
//!   byte-for-byte like the baseline, runahead never changes
//!   architectural event counts, and doubling the workload scale keeps
//!   per-instruction rates stable.
//! * [`fuzz`] — a **seeded configuration/workload fuzzer** (std-only,
//!   built on `esp_types::rng`) that samples random simulation points,
//!   runs the oracle and invariants over them, and greedily shrinks any
//!   failure to a minimal case rendered as a ready-to-paste test.
//! * [`espt_fuzz`] — the same discipline aimed at the **ESPT trace
//!   decoder** (`esp_trace::espt`): seeded structural mutations of a
//!   valid `.espt` image (truncation, bit flips, wrong magic, forged
//!   section lengths, trailing bytes, re-sealed checksums) that must all
//!   come back as structured errors — never a panic, never an
//!   allocation sized by attacker-controlled lengths.
//!
//! The [`json`] module is a dependency-free JSON reader used to validate
//! the `esp-obs` JSONL trace schema and `BENCH_repro.json` metadata.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod espt_fuzz;
pub mod fuzz;
pub mod json;
pub mod metamorphic;
pub mod oracle;

pub use espt_fuzz::{espt_fuzz_with, render_espt_reproducer, EsptFuzzFailure};
pub use fuzz::{fuzz_with, render_reproducer, shrink, FuzzCase, FuzzFailure, FuzzMode};
pub use json::Json;
pub use oracle::{check_run, OracleProbe, OracleReport};
