//! Learned fast-forwarding for the SMARTS-style sampled mode.
//!
//! PR 5 measured why sampling plateaus here at ~1.4×: functional warming
//! is only ~1.5–2.5× cheaper than detailed simulation (not the ~60× of
//! SMARTS-class simulators), so the warm walk — not the estimator —
//! dominates a sampled run. This crate removes most of that walk, in the
//! spirit of CAPSim's predictor-accelerated simulation:
//!
//! * [`FeatureExtractor`] — an allocation-free [`esp_trace::WarmSink`]
//!   that summarises a functionally-warmed *stretch* (the `period − 2`
//!   warm grains between a measured grain and the next detailed-warmup
//!   grain) as a small fixed feature vector: instruction-mix fractions,
//!   branch-taken entropy, fetch-line locality, I/D footprint signatures,
//!   events spanned, replay-list occupancy, and the previous measured
//!   grain's CPI.
//! * [`Model`] — an online, deterministic ridge regression (no RNG, no
//!   allocation after construction) trained prequentially during each
//!   run: stretch features in, the next measured grain's
//!   per-instruction cycle metrics out.
//! * [`FastForward`] — the controller: after a training prefix it lets
//!   the sampling loop *skip* the engine-warming walk for the interior
//!   of each stretch — skipped grains advance the cursor through a
//!   decode-free fast-forward whose memory-touch hooks feed the
//!   [`Footprint`] sink, so the interior's distinct lines can be
//!   reinstalled as stat-free warm fills when skipping ends, and the last
//!   [`LearnParams::warm_suffix_grains`] grains are always fully warmed
//!   to rebuild short-term cache and predictor state (and are the only
//!   region features are extracted from). It falls back to full warming
//!   — and ultimately disables skipping — when predicted-vs-actual
//!   residuals exceed the configured bound.
//!
//! The residual series also widens the ratio-estimator confidence
//! intervals (`esp_stats::ResidualAccum::inflate`), and the model's
//! rolling confidence is reported ([`LearnedStats::confidence`]). See
//! `docs/PERFORMANCE.md` ("Learned fast-forwarding").

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The ridge fitting code is dense fixed-dimension linear algebra
// over `[f64; N]` arrays; index loops mirror the maths (row/column
// subscripts) better than iterator chains there.
#![allow(clippy::needless_range_loop)]

mod control;
mod features;
mod model;

pub use control::{FastForward, LearnParams, LearnedStats, Phase};
pub use features::{FeatureExtractor, Footprint, FEATURE_DIM};
pub use model::{Model, ModelKind, TARGETS};
