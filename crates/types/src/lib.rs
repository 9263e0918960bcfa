//! Shared foundation types for the Event Sneak Peek (ESP) simulator.
//!
//! This crate holds the small vocabulary types that every other crate in the
//! workspace speaks: byte/line addresses, cycle counts, event identities, a
//! deterministic pseudo-random number generator, the workspace error
//! type, and the decision tapes ([`TapeWriter`], [`TapeReader`]) that
//! record a decision stream once for many runs to replay.
//!
//! The types here are deliberately tiny newtypes ([`Addr`], [`LineAddr`],
//! [`Cycle`], [`EventId`]) so that, for example, a byte address can never be
//! passed where a cache-line address is expected — a classic source of
//! off-by-`log2(line)` bugs in cache simulators.
//!
//! # Examples
//!
//! ```
//! use esp_types::{Addr, LineAddr, Cycle};
//!
//! let a = Addr::new(0x1234_5678);
//! let line = a.line(64);
//! assert_eq!(line, LineAddr::new(0x1234_5678 / 64));
//! assert_eq!(line.base(64), Addr::new(0x1234_5640));
//!
//! let t = Cycle::ZERO + 100;
//! assert_eq!(t.as_u64(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cycle;
mod error;
mod ids;
mod rng;
mod tape;

pub use addr::{Addr, LineAddr};
pub use cycle::Cycle;
pub use error::{Error, Result};
pub use ids::{EventId, EventKindId};
pub use rng::{Rng, SplitMix64, Xoshiro256pp};
pub use tape::{TapeReader, TapeWriter};
