//! A Pentium-M-style branch predictor with ESP execution contexts.
//!
//! The paper's baseline models the Pentium M predictor (Fig. 7, after
//! Uzelac & Milenkovic's reverse engineering): a PIR-indexed tagged
//! global predictor, a bimodal local predictor, a loop predictor, a BTB
//! for direct-branch targets, a PIR-indexed indirect BTB, and a return
//! address stack. This crate implements all of those structures plus the
//! pieces ESP adds in §4.3:
//!
//! * replicated **Path Information Registers** (one per execution context:
//!   normal, ESP-1, ESP-2) — the design point the paper ships;
//! * optional **fully replicated predictor tables** per context, and an
//!   optional fully **shared** mode — the other two Fig. 12 design points;
//! * an **ahead-training** entry point used by the B-list replay during
//!   normal execution ("the training is kept loosely coupled with the
//!   actual branch execution, a preset number of branches ahead").
//!
//! [`Prediction::code`] and [`Prediction::from_code`] carry one run's
//! outcome sequence on a 2-bit `esp_types` tape, for runs whose predictor
//! only ever sees the same retired normal-context branches to play back.
//!
//! # Examples
//!
//! ```
//! use esp_branch::{BranchPredictor, BranchConfig, ContextPolicy, PredictorContext};
//! use esp_trace::Instr;
//! use esp_types::Addr;
//!
//! let mut bp = BranchPredictor::new(BranchConfig::pentium_m(), ContextPolicy::SeparatePir);
//! let b = Instr::cond_branch(Addr::new(0x100), true, Addr::new(0x40));
//! // First encounter may or may not predict; after training it will.
//! for _ in 0..4 {
//!     bp.predict_and_update(PredictorContext::Normal, &b);
//! }
//! assert!(bp.predict_and_update(PredictorContext::Normal, &b).is_correct());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod components;
mod config;
mod pir;
mod predictor;

pub use components::{Btb, GlobalPredictor, IndirectBtb, LocalPredictor, LoopPredictor, ReturnStack};
pub use config::BranchConfig;
pub use pir::PathInfoRegister;
pub use predictor::{
    BpOp, BranchPredictor, ContextPolicy, Prediction, PredictorContext, SpeculativeCheckpoint,
};
