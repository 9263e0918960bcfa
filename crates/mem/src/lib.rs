//! Cache hierarchy, prefetchers, and ESP cachelets.
//!
//! This crate is the memory-system substrate of the ESP reproduction. It
//! models the paper's Fig. 7 configuration — 32 KB 2-way L1-I and L1-D,
//! a 2 MB 16-way L2 as the last-level cache (LLC), and a 101-cycle DRAM —
//! plus all the structures the evaluation compares:
//!
//! * [`SetAssocCache`] — a generic set-associative LRU cache whose lines
//!   carry a *ready cycle*, so fills have latency and a demand access that
//!   arrives before the fill completes is a **partial hit** charged only
//!   the remaining latency. This is what makes "too early" prefetches
//!   (naive ESP, Fig. 10) and "timely" list-driven prefetches behave
//!   differently.
//! * [`MemoryHierarchy`] — the three-level demand path with prefetch entry
//!   points at each level and non-updating probes for the ESP bypass path.
//!   Every operation takes the [`Port`] it goes through (instruction or
//!   data), so each is written once for both L1s.
//! * [`prefetch`] — the baseline prefetchers: a next-line instruction
//!   prefetcher, an Intel-DCU-style next-line data prefetcher (waits for
//!   four consecutive accesses to a line), and a 256-entry PC-indexed
//!   stride prefetcher.
//! * [`Cachelet`] — the 6 KB, 12-way L0 structures used exclusively during
//!   ESP pre-execution, with the way-partitioning/rotation scheme of §4.2
//!   (one way reserved for ESP-2, alternating ends on event completion).
//!
//! # Examples
//!
//! ```
//! use esp_mem::{HierarchyConfig, MemoryHierarchy, Port};
//! use esp_types::{Addr, Cycle};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::exynos5250());
//! let line = Addr::new(0x4_0000).line(64);
//! let first = mem.access(Port::Data, line, Cycle::ZERO, false);
//! assert!(first.llc_miss); // cold
//! let again = mem.access(Port::Data, line, Cycle::new(500), false);
//! assert!(!again.llc_miss);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cachelet;
mod config;
mod hierarchy;
pub mod prefetch;

pub use cache::{AccessResult, SetAssocCache};
pub use cachelet::{Cachelet, CacheletSlot};
pub use config::{CacheConfig, HierarchyConfig};
pub use hierarchy::{HierarchySnapshot, MemLevel, MemOp, MemoryHierarchy, Port, ServedAccess};
