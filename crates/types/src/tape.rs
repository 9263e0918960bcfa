//! Decision tapes: a stream of small codes recorded once and played back
//! in order.
//!
//! A run that would compute the same decision sequence as every other
//! run over the same input (a prefetcher's triggers, a predictor's
//! outcomes) can record it once on a [`TapeWriter`] and replay it with a
//! [`TapeReader`]: one shift and mask per decision instead of the
//! structure that made it.

use std::sync::Arc;

/// Records a stream of `BITS`-bit codes.
///
/// Format: `words[0]` is the code count `n`; bits `BITS * (k % (64 /
/// BITS))` and up of `words[1 + k / (64 / BITS)]` hold code `k`, so codes
/// pack LSB-first and never straddle a word. `BITS` must divide 64.
///
/// # Examples
///
/// ```
/// use esp_types::{TapeReader, TapeWriter};
///
/// let mut w = TapeWriter::<2>::new();
/// for code in [2, 0, 1] {
///     w.push(code);
/// }
/// let words = w.finish();
/// assert_eq!(words, [3, 0b01_00_10]);
/// let mut r = TapeReader::<2>::new(words.into());
/// let played: Vec<_> = (0..3).map(|_| r.next_code()).collect();
/// assert_eq!(played, [2, 0, 1]);
/// assert!(r.is_finished());
/// ```
#[derive(Clone, Debug)]
pub struct TapeWriter<const BITS: u32> {
    /// The format's words: the count slot, then the codes so far.
    words: Vec<u64>,
    len: u64,
}

/// Codes per word and the code mask of a `BITS`-bit tape.
const fn layout(bits: u32) -> (u64, u64) {
    assert!(bits > 0 && bits < 64 && 64 % bits == 0, "tape code width must divide 64");
    ((64 / bits) as u64, (1 << bits) - 1)
}

impl<const BITS: u32> Default for TapeWriter<BITS> {
    fn default() -> Self {
        TapeWriter { words: vec![0], len: 0 }
    }
}

impl<const BITS: u32> TapeWriter<BITS> {
    const PER_WORD: u64 = layout(BITS).0;
    const MASK: u64 = layout(BITS).1;

    /// Starts an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the next code.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `code` does not fit in `BITS` bits.
    #[inline]
    pub fn push(&mut self, code: u64) {
        debug_assert!(code <= Self::MASK, "code {code} wider than {BITS} bits");
        let k = self.len % Self::PER_WORD;
        if k == 0 {
            self.words.push(0);
        }
        let word = self.words.last_mut().expect("a code word was just ensured");
        *word |= code << (u64::from(BITS) * k);
        self.len += 1;
    }

    /// The finished words (see the type docs for the format).
    pub fn finish(mut self) -> Vec<u64> {
        self.words[0] = self.len;
        self.words
    }
}

/// Plays back a tape built by [`TapeWriter`], code by code.
///
/// The reader trusts its caller to consume the recorded stream in order;
/// it only counts codes. [`TapeReader::is_finished`] tells whether exactly
/// the recorded codes were consumed, which callers check at the end of a
/// run.
#[derive(Clone)]
pub struct TapeReader<const BITS: u32> {
    words: Arc<[u64]>,
    next: u64,
}

impl<const BITS: u32> TapeReader<BITS> {
    const PER_WORD: u64 = layout(BITS).0;
    const MASK: u64 = layout(BITS).1;

    /// Plays `words` (a [`TapeWriter::finish`] result) from the first
    /// code.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold exactly the words its code count
    /// declares.
    pub fn new(words: Arc<[u64]>) -> Self {
        let len = words.first().copied().unwrap_or(u64::MAX);
        assert!(
            len.div_ceil(Self::PER_WORD) + 1 == words.len() as u64,
            "malformed {BITS}-bit tape: {len} codes in {} words",
            words.len()
        );
        TapeReader { words, next: 0 }
    }

    /// The next code.
    ///
    /// # Panics
    ///
    /// Panics once the reads run past the last word. Reads past the
    /// recorded stream but inside that word return 0; only
    /// [`TapeReader::is_finished`] reveals them.
    #[inline(always)]
    pub fn next_code(&mut self) -> u64 {
        let k = self.next;
        self.next += 1;
        let word = self.words[1 + (k / Self::PER_WORD) as usize];
        word >> (u64::from(BITS) * (k % Self::PER_WORD)) & Self::MASK
    }

    /// Whether every recorded code has been consumed, and no more.
    pub fn is_finished(&self) -> bool {
        self.next == self.words[0]
    }
}

impl<const BITS: u32> std::fmt::Debug for TapeReader<BITS> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapeReader")
            .field("bits", &BITS)
            .field("codes", &self.words[0])
            .field("next", &self.next)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record<const BITS: u32>(n: u64, code: impl Fn(u64) -> u64) -> Vec<u64> {
        let mut w = TapeWriter::<BITS>::new();
        for k in 0..n {
            w.push(code(k));
        }
        w.finish()
    }

    /// Writes `n` codes, compares the words with `want`, and reads the
    /// codes back from `want`.
    fn assert_pinned<const BITS: u32>(n: u64, code: impl Fn(u64) -> u64, want: &[u64]) {
        assert_eq!(record::<BITS>(n, &code), want, "{BITS}-bit tape of {n} codes");
        let mut r = TapeReader::<BITS>::new(want.into());
        for k in 0..n {
            assert!(!r.is_finished());
            assert_eq!(r.next_code(), code(k), "{BITS}-bit tape of {n} codes: code {k}");
        }
        assert!(r.is_finished());
    }

    /// The words of both sidecar widths, pinned: 1-bit DCU triggers at
    /// the 4th access of alternating 5-, 4- and 4-access streaks, and
    /// 2-bit branch outcomes cycling through correct, misfetch and
    /// mispredict, across the word boundaries of each width.
    #[test]
    fn tape_words_are_pinned() {
        let trigger = |k: u64| u64::from(matches!(k % 13, 3 | 8 | 12));
        assert_pinned::<1>(0, trigger, &[0]);
        assert_pinned::<1>(63, trigger, &[63, 0x1088_8444_2221_1108]);
        assert_pinned::<1>(64, trigger, &[64, 0x1088_8444_2221_1108]);
        assert_pinned::<1>(65, trigger, &[65, 0x1088_8444_2221_1108, 0x1]);
        let outcome = |k: u64| k % 3;
        assert_pinned::<2>(31, outcome, &[31, 0x0924_9249_2492_4924]);
        assert_pinned::<2>(32, outcome, &[32, 0x4924_9249_2492_4924]);
        assert_pinned::<2>(33, outcome, &[33, 0x4924_9249_2492_4924, 0x2]);
    }

    #[test]
    fn every_width_round_trips() {
        fn round_trip<const BITS: u32>() {
            let mask = (1u64 << BITS) - 1;
            let code = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & mask;
            for n in [0, 1, 63, 64, 65, 1000] {
                let words = record::<BITS>(n, code);
                assert_eq!(words.len() as u64, 1 + n.div_ceil(64 / u64::from(BITS)));
                let mut r = TapeReader::<BITS>::new(words.into());
                assert!((0..n).all(|k| r.next_code() == code(k)), "{BITS}-bit tape of {n} codes");
                assert!(r.is_finished());
            }
        }
        round_trip::<1>();
        round_trip::<2>();
        round_trip::<4>();
        round_trip::<8>();
        round_trip::<32>();
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn one_bit_reads_past_the_last_word_panic() {
        let mut r = TapeReader::<1>::new(record::<1>(64, |k| k & 1).into());
        for _ in 0..65 {
            r.next_code();
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn two_bit_reads_past_the_last_word_panic() {
        let mut r = TapeReader::<2>::new(record::<2>(32, |_| 1).into());
        for _ in 0..33 {
            r.next_code();
        }
    }

    #[test]
    #[should_panic(expected = "malformed 1-bit tape: 100 codes in 2 words")]
    fn one_bit_rejects_truncated_words() {
        let mut words = record::<1>(100, |k| k % 2);
        words.pop();
        let _ = TapeReader::<1>::new(words.into());
    }

    #[test]
    #[should_panic(expected = "malformed 2-bit tape: 40 codes in 2 words")]
    fn two_bit_rejects_truncated_words() {
        let mut words = record::<2>(40, |_| 0);
        words.pop();
        let _ = TapeReader::<2>::new(words.into());
    }

    #[test]
    #[should_panic(expected = "malformed 2-bit tape")]
    fn empty_words_are_rejected() {
        let _ = TapeReader::<2>::new(Vec::new().into());
    }
}
