//! Host-time spans recorded around calls into the simulator's layers.
//!
//! Every timed call goes through [`Spans::enter`] / [`Spans::exit`], so
//! the untimed and traced passes share one code path: with recording
//! off a span is just a pair of clock reads; with recording on it is
//! also kept in memory (name, start, end, parent) and written out as
//! JSON lines when the benchmark ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was made.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A span recorder with a stack of open spans.
pub struct Spans {
    origin: Instant,
    record: bool,
    spans: Vec<Span>,
    /// Open spans: index into `spans` (when recorded) and start time.
    open: Vec<(Option<usize>, u64)>,
}

impl Spans {
    /// A recorder; `record` chooses whether spans are kept.
    pub fn new(record: bool) -> Self {
        Spans {
            origin: Instant::now(),
            record,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns keeping spans on or off for spans opened from now on.
    pub fn set_record(&mut self, record: bool) {
        self.record = record;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `layer.what`; its parent is the innermost
    /// recorded span still open.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now_ns();
        let id = self.record.then(|| {
            let parent = self.open.iter().rev().find_map(|&(id, _)| id);
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent,
            });
            self.spans.len() - 1
        });
        self.open.push((id, start));
    }

    /// Closes the innermost open span and returns its length in seconds.
    pub fn exit(&mut self) -> f64 {
        let end = self.now_ns();
        let (id, start) = self.open.pop().expect("exit without a matching enter");
        if let Some(id) = id {
            self.spans[id].end_ns = end;
        }
        (end - start) as f64 * 1e-9
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer in seconds: for every span, its length minus
    /// the part its child spans cover, summed by the name's prefix
    /// before the first `.`.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every recorded span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_layer() {
        let mut s = Spans::new(true);
        s.enter("core.outer");
        s.enter("uarch.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = s.exit();
        let outer = s.exit();
        let by_layer = s.self_seconds();
        assert!((by_layer["uarch"] - inner).abs() < 1e-6);
        assert!((by_layer["core"] - (outer - inner)).abs() < 1e-6);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn unrecorded_spans_still_time_but_are_not_kept() {
        let mut s = Spans::new(false);
        s.enter("core.run");
        assert!(s.exit() >= 0.0);
        assert_eq!(s.len(), 0);
    }
}
