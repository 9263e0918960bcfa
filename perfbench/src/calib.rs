//! Host-speed calibration.
//!
//! On a shared host the speed of the benchmark's one thread swings by
//! ±25% within seconds (a fixed simulation loop read 104–200 runs/s in
//! one-second windows), far more than the regressions the benchmark
//! must catch.
//! So every timed call is followed by a short, fixed calibration loop,
//! and host times are scaled to a host that runs that loop at
//! [`NOMINAL_OPS_PER_S`]: a time measured while the loop runs at speed
//! `r` is reported as `time × r / NOMINAL_OPS_PER_S`. Interleaved this
//! way, the ratio of simulator speed to loop speed held within ±5% over
//! two-second windows in which raw simulator speed moved by ±20%.
//!
//! The loop is the benchmark's own code, so no change to the simulator
//! moves it; a change to build settings (`.cargo/config.toml`, the
//! release profile) moves both and is partly hidden by the scaling.

use std::hint::black_box;
use std::time::Instant;

/// Loop iterations per calibration chunk (about 1 ms at nominal speed).
const CHUNK_OPS: u32 = 200_000;

/// The loop speed host times are scaled to. The 2.1 GHz Xeon vCPU the
/// benchmark was tuned on ran the loop at 170–230 M iterations/s.
const NOMINAL_OPS_PER_S: f64 = 200e6;

/// The calibration loop: an 8-way LRU cache of 256 sets probed by a
/// xorshift address stream — integer, branchy, cache-resident work like
/// the simulator's own. Returns the hit count so it cannot be elided.
fn kernel(n: u32) -> u64 {
    let mut tags = [u64::MAX; 256 * 8];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut hits = 0u64;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = (x % (1 << 22)) >> 6;
        let set = (line % 256) as usize * 8;
        let ways = &mut tags[set..set + 8];
        match ways.iter().position(|&t| t == line) {
            Some(i) => {
                hits += 1;
                ways[..=i].rotate_right(1);
            }
            None => {
                ways.rotate_right(1);
                ways[0] = line;
            }
        }
    }
    hits
}

/// A window of calibration chunks.
#[derive(Default)]
pub struct HostSpeed {
    ops: u64,
    seconds: f64,
}

impl HostSpeed {
    /// Runs `chunks` calibration chunks into the window.
    pub fn sample(&mut self, chunks: u32) {
        for _ in 0..chunks {
            let t = Instant::now();
            black_box(kernel(black_box(CHUNK_OPS)));
            self.seconds += t.elapsed().as_secs_f64();
            self.ops += u64::from(CHUNK_OPS);
        }
    }

    /// The window's loop speed relative to [`NOMINAL_OPS_PER_S`]: the
    /// factor that turns a host time measured in the window into a
    /// nominal-host time.
    pub fn relative(&self) -> f64 {
        self.ops as f64 / self.seconds / NOMINAL_OPS_PER_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_hits() {
        assert_eq!(kernel(10_000), kernel(10_000));
        assert!(kernel(10_000) > 0);
    }

    #[test]
    fn speed_is_positive_and_finite() {
        let mut h = HostSpeed::default();
        h.sample(2);
        assert!(h.relative().is_finite() && h.relative() > 0.0);
    }
}
