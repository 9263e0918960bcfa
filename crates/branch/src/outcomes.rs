//! Branch outcomes recorded once and played back in place of the
//! predictor.
//!
//! A run whose predictor is trained only by its retired normal-context
//! branches sees one outcome sequence, fixed by the branch stream and the
//! table sizes alone. [`OutcomeBuilder`] records that sequence from one
//! predictor run; [`OutcomeReplay`] plays it back at one shift and mask
//! per branch instead of a table walk, for every configuration that
//! would have run the same predictor over the same stream.

use crate::Prediction;
use std::sync::Arc;

/// Outcomes per format word: two bits each.
const PER_WORD: u64 = 32;

/// Records a stream of [`Prediction`]s, two bits each, for an
/// [`OutcomeReplay`] to play back.
///
/// Format: `words[0]` is the outcome count `n`; bits `2 (k % 32)` and up
/// of `words[1 + k / 32]` hold outcome `k`: 0 for
/// [`Prediction::Correct`], 1 for [`Prediction::Misfetch`], 2 for
/// [`Prediction::Mispredict`].
///
/// # Examples
///
/// ```
/// use esp_branch::{OutcomeBuilder, OutcomeReplay, Prediction};
///
/// let outcomes = [Prediction::Mispredict, Prediction::Correct, Prediction::Misfetch];
/// let mut b = OutcomeBuilder::new();
/// for p in outcomes {
///     b.push(p);
/// }
/// let mut replay = OutcomeReplay::new(b.finish().into());
/// let played: Vec<_> = (0..3).map(|_| replay.next_outcome()).collect();
/// assert_eq!(played, outcomes);
/// assert!(replay.is_finished());
/// ```
#[derive(Clone, Debug)]
pub struct OutcomeBuilder {
    /// The format's words: the count slot, then the outcomes so far.
    words: Vec<u64>,
    len: u64,
}

impl Default for OutcomeBuilder {
    fn default() -> Self {
        OutcomeBuilder { words: vec![0], len: 0 }
    }
}

impl OutcomeBuilder {
    /// Starts an empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the next branch's outcome.
    #[inline]
    pub fn push(&mut self, p: Prediction) {
        let code = match p {
            Prediction::Correct => 0u64,
            Prediction::Misfetch => 1,
            Prediction::Mispredict => 2,
        };
        let k = self.len % PER_WORD;
        if k == 0 {
            self.words.push(0);
        }
        *self.words.last_mut().expect("an outcome word was just ensured") |= code << (2 * k);
        self.len += 1;
    }

    /// The finished outcome words (see the type docs for the format).
    pub fn finish(mut self) -> Vec<u64> {
        self.words[0] = self.len;
        self.words
    }
}

/// Plays back outcome words built by [`OutcomeBuilder`]: the outcomes a
/// predictor fed the same branch stream would produce, in order.
///
/// The replay trusts its caller to present the built stream in order; it
/// only counts branches. [`OutcomeReplay::is_finished`] tells whether
/// exactly the built outcomes were consumed, which callers check at the
/// end of a run.
#[derive(Clone)]
pub struct OutcomeReplay {
    words: Arc<[u64]>,
    next: u64,
}

impl OutcomeReplay {
    /// Replays `words` (an [`OutcomeBuilder::finish`] result) from the
    /// first branch.
    ///
    /// # Panics
    ///
    /// Panics if `words` is too short for the outcome count it declares.
    pub fn new(words: Arc<[u64]>) -> Self {
        let len = words.first().copied().unwrap_or(u64::MAX);
        assert!(
            len.div_ceil(PER_WORD) + 1 == words.len() as u64,
            "malformed branch outcome words: {len} outcomes in {} words",
            words.len()
        );
        OutcomeReplay { words, next: 0 }
    }

    /// The outcome of the next branch.
    ///
    /// # Panics
    ///
    /// Panics once the branches run past the last outcome word. Branches
    /// past the built stream but inside that word read as
    /// [`Prediction::Correct`]; only [`OutcomeReplay::is_finished`]
    /// reveals them.
    #[inline(always)]
    pub fn next_outcome(&mut self) -> Prediction {
        let k = self.next;
        self.next += 1;
        let word = self.words[1 + (k / PER_WORD) as usize];
        match (word >> (2 * (k % PER_WORD))) & 3 {
            0 => Prediction::Correct,
            1 => Prediction::Misfetch,
            _ => Prediction::Mispredict,
        }
    }

    /// Whether every built outcome has been consumed, and no more.
    pub fn is_finished(&self) -> bool {
        self.next == self.words[0]
    }
}

impl std::fmt::Debug for OutcomeReplay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OutcomeReplay")
            .field("branches", &self.words[0])
            .field("next", &self.next)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchConfig, BranchPredictor, ContextPolicy, PredictorContext};
    use esp_trace::Instr;
    use esp_types::{Addr, Rng, SplitMix64};

    /// A branch stream mixing every branch kind over a small code region,
    /// so each outcome class occurs.
    fn branches(seed: u64, n: usize) -> Vec<Instr> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let r = rng.next_u64();
                let pc = Addr::new(0x40_0000 + (r % 512) * 4);
                let target = Addr::new(0x40_0000 + ((r >> 16) % 512) * 4);
                match (r >> 32) % 5 {
                    0 | 1 => Instr::cond_branch(pc, (r >> 40) % 3 != 0, target),
                    2 => Instr::call(pc, target),
                    3 => Instr::ret(pc, target),
                    _ => Instr::indirect(pc, target),
                }
            })
            .collect()
    }

    #[test]
    fn replay_matches_the_live_predictor() {
        // Word boundaries (0, 31, 32, 33 branches) and long streams.
        for (seed, n) in [(1, 0), (2, 31), (3, 32), (4, 33), (5, 5_000), (6, 20_000)] {
            let stream = branches(seed, n);
            let mut live = BranchPredictor::new(BranchConfig::pentium_m(), ContextPolicy::SeparatePir);
            let mut b = OutcomeBuilder::new();
            let outcomes: Vec<_> = stream
                .iter()
                .map(|i| live.predict_and_update(PredictorContext::Normal, i))
                .collect();
            for &p in &outcomes {
                b.push(p);
            }
            let mut replay = OutcomeReplay::new(b.finish().into());
            for (k, &p) in outcomes.iter().enumerate() {
                assert!(!replay.is_finished());
                assert_eq!(replay.next_outcome(), p, "seed {seed}: branch {k}");
            }
            assert!(replay.is_finished());
            if n >= 5_000 {
                for class in [Prediction::Correct, Prediction::Misfetch, Prediction::Mispredict] {
                    assert!(outcomes.contains(&class), "seed {seed}: no {class:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn replay_past_the_built_stream_panics() {
        let mut b = OutcomeBuilder::new();
        for _ in 0..32 {
            b.push(Prediction::Misfetch);
        }
        let mut replay = OutcomeReplay::new(b.finish().into());
        for _ in 0..33 {
            replay.next_outcome();
        }
    }

    #[test]
    #[should_panic(expected = "malformed branch outcome words")]
    fn replay_rejects_truncated_words() {
        let mut b = OutcomeBuilder::new();
        for _ in 0..40 {
            b.push(Prediction::Correct);
        }
        let mut words = b.finish();
        words.pop();
        let _ = OutcomeReplay::new(words.into());
    }
}
