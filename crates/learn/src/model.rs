//! The online, deterministic predictor: ridge regression.
//!
//! The model maps a stretch feature vector ([`crate::FEATURE_DIM`] dims)
//! to the next measured grain's per-instruction cycle metrics
//! ([`TARGETS`] targets: busy, i-cache, d-cache, and branch CPI). It is
//! trained prequentially — predict first, observe the measurement,
//! update — and contains no randomness whatsoever: a Gram-matrix
//! accumulation solved by Gaussian elimination with partial pivoting.
//! Identical inputs therefore produce bit-identical predictions in any
//! thread count and any OS process.

use crate::features::FEATURE_DIM;

/// Predicted metrics per grain: busy CPI, i-cache stall CPI, d-cache
/// stall CPI, branch penalty CPI (cycles per instruction each).
pub const TARGETS: usize = 4;

/// Baseline ridge regularisation weight, scaled by the centred Gram
/// trace for unit invariance.
const RIDGE_LAMBDA: f64 = 1e-3;

/// Sample-count-scaled shrinkage adder: the effective weight is
/// `RIDGE_LAMBDA + RIDGE_SHRINK / n`, so a model fit on a handful of
/// stretches is pulled hard toward the running-mean predictor (its
/// centred weights toward zero) instead of extrapolating a wildly
/// underdetermined 14-dimensional fit, and relaxes as evidence
/// accumulates.
const RIDGE_SHRINK: f64 = 2.0;

/// Which predictor the learned mode trains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ModelKind {
    /// Online ridge regression.
    #[default]
    Ridge,
}

impl ModelKind {
    /// Stable lower-case name (the `BENCH_repro.json` field).
    pub fn as_str(self) -> &'static str {
        match self {
            ModelKind::Ridge => "ridge",
        }
    }
}

/// Online ridge regression over all targets at once.
///
/// Accumulates the Gram matrix `XᵀX`, the moment matrix `XᵀY`, and the
/// feature/target sums, and refits on demand in *mean-centred* form:
/// `(XᵀX − n·x̄x̄ᵀ + λI)·W = XᵀY − n·x̄ȳᵀ`, predicting
/// `ȳ + Wᵀ(x − x̄)`. Centring makes the heavily-shrunk small-sample
/// regime degrade to the running-mean predictor — the statistically
/// safe fallback — rather than to zero. Fixed-size arrays throughout —
/// no allocation after construction, no iteration-order
/// nondeterminism.
#[derive(Clone, Debug)]
pub struct Model {
    xtx: [[f64; FEATURE_DIM]; FEATURE_DIM],
    xty: [[f64; TARGETS]; FEATURE_DIM],
    sum_x: [f64; FEATURE_DIM],
    sum_y: [f64; TARGETS],
    w: [[f64; TARGETS]; FEATURE_DIM],
    mean_x: [f64; FEATURE_DIM],
    mean_y: [f64; TARGETS],
    n: u64,
    fitted: bool,
}

impl Model {
    /// Creates an empty model of the given kind.
    pub fn new(kind: ModelKind) -> Model {
        let ModelKind::Ridge = kind;
        Model {
            xtx: [[0.0; FEATURE_DIM]; FEATURE_DIM],
            xty: [[0.0; TARGETS]; FEATURE_DIM],
            sum_x: [0.0; FEATURE_DIM],
            sum_y: [0.0; TARGETS],
            w: [[0.0; TARGETS]; FEATURE_DIM],
            mean_x: [0.0; FEATURE_DIM],
            mean_y: [0.0; TARGETS],
            n: 0,
            fitted: false,
        }
    }

    /// Adds one `(features, targets)` observation and refits.
    pub fn observe(&mut self, x: &[f64; FEATURE_DIM], y: &[f64; TARGETS]) {
        for i in 0..FEATURE_DIM {
            for j in 0..FEATURE_DIM {
                self.xtx[i][j] += x[i] * x[j];
            }
            for t in 0..TARGETS {
                self.xty[i][t] += x[i] * y[t];
            }
            self.sum_x[i] += x[i];
        }
        for t in 0..TARGETS {
            self.sum_y[t] += y[t];
        }
        self.n += 1;
        self.fit();
    }

    /// Observations accumulated.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Whether a weight matrix is available.
    pub fn fitted(&self) -> bool {
        self.fitted
    }

    fn fit(&mut self) {
        let nf = self.n as f64;
        for i in 0..FEATURE_DIM {
            self.mean_x[i] = self.sum_x[i] / nf;
        }
        for t in 0..TARGETS {
            self.mean_y[t] = self.sum_y[t] / nf;
        }
        // Centred Gram and moment matrices.
        let mut a = self.xtx;
        let mut b = self.xty;
        for i in 0..FEATURE_DIM {
            for j in 0..FEATURE_DIM {
                a[i][j] -= nf * self.mean_x[i] * self.mean_x[j];
            }
            for t in 0..TARGETS {
                b[i][t] -= nf * self.mean_x[i] * self.mean_y[t];
            }
        }
        let trace: f64 = (0..FEATURE_DIM).map(|i| a[i][i]).sum();
        let lambda = (RIDGE_LAMBDA + RIDGE_SHRINK / nf)
            * (trace / FEATURE_DIM as f64).max(1e-12);
        for (i, row) in a.iter_mut().enumerate() {
            row[i] += lambda;
        }
        // Gaussian elimination with partial pivoting, all columns of B
        // eliminated together.
        for col in 0..FEATURE_DIM {
            let mut piv = col;
            for r in col + 1..FEATURE_DIM {
                if a[r][col].abs() > a[piv][col].abs() {
                    piv = r;
                }
            }
            if a[piv][col].abs() < 1e-12 {
                return; // singular despite the ridge: keep previous weights
            }
            a.swap(col, piv);
            b.swap(col, piv);
            for r in col + 1..FEATURE_DIM {
                let f = a[r][col] / a[col][col];
                if f == 0.0 {
                    continue;
                }
                for c in col..FEATURE_DIM {
                    a[r][c] -= f * a[col][c];
                }
                for t in 0..TARGETS {
                    b[r][t] -= f * b[col][t];
                }
            }
        }
        for col in (0..FEATURE_DIM).rev() {
            for t in 0..TARGETS {
                let mut v = b[col][t];
                for c in col + 1..FEATURE_DIM {
                    v -= a[col][c] * self.w[c][t];
                }
                self.w[col][t] = v / a[col][col];
            }
        }
        self.fitted = true;
    }

    /// Predicts all targets for `x`. Targets are cycle counts per
    /// instruction, so predictions are clamped at zero.
    pub fn predict(&self, x: &[f64; FEATURE_DIM]) -> [f64; TARGETS] {
        let mut y = [0.0; TARGETS];
        for (t, out) in y.iter_mut().enumerate() {
            let mut v = self.mean_y[t];
            for i in 0..FEATURE_DIM {
                v += self.w[i][t] * (x[i] - self.mean_x[i]);
            }
            *out = v.max(0.0);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(i: u64) -> ([f64; FEATURE_DIM], [f64; TARGETS]) {
        // A deterministic synthetic stream: targets are noiseless linear
        // functions of a few features.
        let mut x = [0.0; FEATURE_DIM];
        x[0] = 1.0;
        for (d, v) in x.iter_mut().enumerate().skip(1) {
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(d as u32);
            *v = (h % 1000) as f64 / 1000.0;
        }
        let y = [
            0.5 + 2.0 * x[2] + 0.7 * x[6],
            0.1 + 0.3 * x[8],
            0.2 + 1.1 * x[10] / 1000.0 + 0.4 * x[2],
            0.05 + 0.6 * x[4],
        ];
        (x, y)
    }

    #[test]
    fn ridge_recovers_linear_targets() {
        let mut m = Model::new(ModelKind::Ridge);
        // Enough samples for the 2/n small-sample shrinkage to decay:
        // the test is about asymptotic recovery of the linear structure.
        for i in 0..400 {
            let (x, y) = synth(i);
            m.observe(&x, &y);
        }
        assert!(m.fitted());
        for i in 400..404 {
            let (x, y) = synth(i);
            let p = m.predict(&x);
            for t in 0..TARGETS {
                assert!(
                    (p[t] - y[t]).abs() < 0.02,
                    "target {t}: predicted {} want {}",
                    p[t],
                    y[t]
                );
            }
        }
    }

    #[test]
    fn models_are_bitwise_deterministic() {
        let mut a = Model::new(ModelKind::Ridge);
        let mut b = Model::new(ModelKind::Ridge);
        for i in 0..30 {
            let (x, y) = synth(i);
            a.observe(&x, &y);
            b.observe(&x, &y);
        }
        let (probe, _) = synth(99);
        let pa = a.predict(&probe);
        let pb = b.predict(&probe);
        for t in 0..TARGETS {
            assert_eq!(pa[t].to_bits(), pb[t].to_bits(), "target {t}");
        }
    }

    #[test]
    fn predictions_are_zero_clamped() {
        let mut m = Model::new(ModelKind::Ridge);
        let mut x = [0.0; FEATURE_DIM];
        x[0] = 1.0;
        x[1] = 1.0;
        m.observe(&x, &[0.0; TARGETS]);
        let mut far = [0.0; FEATURE_DIM];
        far[0] = 1.0;
        far[1] = -100.0;
        let p = m.predict(&far);
        for t in 0..TARGETS {
            assert!(p[t] >= 0.0);
        }
    }
}
