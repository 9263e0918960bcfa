//! Materialisation of generated workloads into packed trace arenas, and
//! a process-wide memoised cache so each (profile, scale, seed) is
//! decoded exactly once.
//!
//! A [`GeneratedWorkload`] regenerates instruction streams from seeds —
//! cheap to hold, expensive to replay. [`GeneratedWorkload::materialise_par`]
//! walks every event once (actual stream, plus the speculative tail past
//! the recorded divergence point) and packs the result into a shared
//! [`TraceArena`]; the returned [`PackedWorkload`] replays it with
//! allocation-free cursors. The cache in this module memoises both the
//! generation and the materialisation per `(profile name, scale, seed)`,
//! so the evaluation matrix, `repro dump`, `repro explain`, and `repro
//! check` all share one arena per workload instead of regenerating per
//! invocation. A generator is held only until its arena is packed: no
//! simulation reads it afterwards, and the generators of the nine
//! benchmark families hold more memory than their packed arenas.
//!
//! # Examples
//!
//! ```
//! use esp_workload::{arena, BenchmarkProfile};
//! use esp_trace::Workload;
//!
//! let profile = BenchmarkProfile::pixlr().scaled(40_000);
//! let packed = arena::packed_for(&profile, 7, 1);
//! let again = arena::packed_for(&profile, 7, 1);
//! assert!(std::sync::Arc::ptr_eq(&packed, &again), "second call is warm");
//! assert!(!packed.events().is_empty());
//! ```

use crate::{BenchmarkProfile, EventWalk, GeneratedWorkload};
use esp_trace::{PackedEvent, PackedTrace, PackedWorkload, TraceArena, Workload};
use esp_types::EventId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

impl GeneratedWorkload {
    /// Materialises every event's streams into a packed arena, fanning
    /// the per-event decode out over up to `threads` workers.
    ///
    /// The result replays bit-identically: the packed actual stream is
    /// the full regenerative walk, and the speculative view shares the
    /// actual arrays up to the event's recorded divergence point, then
    /// continues in a tail recorded from the speculative walk, forked
    /// from the actual one at that point (`EventWalk::diverge_here`).
    /// The walks emit raw steps straight into the packed arrays, whose
    /// kind bytes are reserved once from the walk's exact length.
    /// Decoding is seed-deterministic, so the arena contents are
    /// independent of `threads`.
    pub fn materialise_par(&self, threads: usize) -> PackedWorkload {
        let details = self.schedule().details();
        let events = esp_par::parallel_map(threads, details, |_, d| {
            let mut walk = self.walk_actual(EventId::new(d.index));
            let mut actual = PackedTrace::with_capacity(walk.len());
            // A divergence point past the event's budget never triggers;
            // such an event is stored as non-diverging.
            let diverge_at = d.diverge_at.filter(|&at| at < d.len);
            let mut tail = PackedTrace::new();
            if let Some(at) = diverge_at {
                pack(&mut walk, &mut actual, at);
                let mut spec = walk.diverge_here();
                tail = PackedTrace::with_capacity(spec.len());
                pack(&mut spec, &mut tail, u64::MAX);
                tail.shrink_to_fit();
            }
            pack(&mut walk, &mut actual, u64::MAX);
            actual.shrink_to_fit();
            PackedEvent::new(actual, diverge_at, tail)
        });
        PackedWorkload::new(
            self.events().to_vec(),
            Arc::new(TraceArena::new(events)),
            self.approx_total_instructions(),
        )
    }

    /// Sequential [`GeneratedWorkload::materialise_par`].
    pub fn materialise(&self) -> PackedWorkload {
        self.materialise_par(1)
    }
}

/// Packs the walk's next `n` steps (fewer if it ends first) onto `trace`.
fn pack(walk: &mut EventWalk<'_>, trace: &mut PackedTrace, n: u64) {
    for _ in 0..n {
        let Some(step) = walk.next_raw() else { break };
        trace.push_raw(step);
    }
}

/// Cache key: profile (or imported-trace) name, target instruction
/// scale, generation seed — everything [`BenchmarkProfile::scaled`] +
/// [`BenchmarkProfile::build`] depend on, and exactly the provenance
/// triple an ESPT file's META section carries.
type Key = (String, u64, u64);

struct Entry {
    /// The generated workload, held from generation until its arena is
    /// packed; `None` afterwards, and for arenas seated from an imported
    /// trace file.
    generated: Option<Arc<GeneratedWorkload>>,
    packed: Option<Arc<PackedWorkload>>,
}

fn cache() -> &'static Mutex<HashMap<Key, Entry>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Entry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn key_of(profile: &BenchmarkProfile, seed: u64) -> Key {
    (profile.name().to_string(), profile.params().target_instructions, seed)
}

/// Returns the memoised generated workload for `profile` (already
/// scaled) and `seed`, generating it on first use.
///
/// Generation happens outside the cache lock; under a race both callers
/// build the same deterministic workload and the first insert wins. Once
/// the key's arena is packed the memo no longer holds a generator, so a
/// later call generates afresh and hands the result over unmemoised.
pub fn generated(profile: &BenchmarkProfile, seed: u64) -> Arc<GeneratedWorkload> {
    let key = key_of(profile, seed);
    if let Some(g) = cache()
        .lock()
        .expect("arena cache poisoned")
        .get(&key)
        .and_then(|e| e.generated.clone())
    {
        return g;
    }
    #[cfg(test)]
    tests::GENERATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let built = Arc::new(profile.build(seed));
    let mut map = cache().lock().expect("arena cache poisoned");
    let entry = map
        .entry(key)
        .or_insert(Entry { generated: None, packed: None });
    if entry.packed.is_some() {
        return built;
    }
    entry.generated.get_or_insert(built).clone()
}

/// Hands an already-built workload to the cache and returns its memoised
/// packed form, materialising on first use (fanned over `threads`).
///
/// Callers that hold the generator themselves (the bench runner and
/// perfbench, which time generation and materialisation apart) use
/// this to avoid a second generation; everyone else can call
/// [`packed_for`]. Seating the arena releases the memo's hold on the
/// generator, so once the caller drops its `Arc` the generator is freed.
pub fn packed(
    profile: &BenchmarkProfile,
    workload: &Arc<GeneratedWorkload>,
    seed: u64,
    threads: usize,
) -> Arc<PackedWorkload> {
    let key = key_of(profile, seed);
    if let Some(p) = cache()
        .lock()
        .expect("arena cache poisoned")
        .get(&key)
        .and_then(|e| e.packed.clone())
    {
        return p;
    }
    let built = Arc::new(workload.materialise_par(threads));
    let mut map = cache().lock().expect("arena cache poisoned");
    let entry = map
        .entry(key)
        .or_insert(Entry { generated: None, packed: None });
    entry.generated = None;
    entry.packed.get_or_insert(built).clone()
}

/// The packed workload resident in the memo for `profile` (already
/// scaled) and `seed`, if any — generated and packed earlier, or
/// imported — without generating anything.
pub fn resident(profile: &BenchmarkProfile, seed: u64) -> Option<Arc<PackedWorkload>> {
    cache()
        .lock()
        .expect("arena cache poisoned")
        .get(&key_of(profile, seed))
        .and_then(|e| e.packed.clone())
}

/// The memoised packed workload for `profile` (already scaled) and
/// `seed`: generates and materialises on first use, warm afterwards.
/// If an imported trace was seated under the same (name, scale, seed)
/// triple, the import substitutes for generation and is returned
/// directly.
pub fn packed_for(profile: &BenchmarkProfile, seed: u64, threads: usize) -> Arc<PackedWorkload> {
    if let Some(p) = resident(profile, seed) {
        return p;
    }
    let w = generated(profile, seed);
    packed(profile, &w, seed, threads)
}

/// Seats an already-deserialised imported workload in the memo under
/// its provenance triple, without generating anything. The first arena
/// seated for a key wins: if the key is already occupied (by an earlier
/// import *or* a materialised generation), that resident arena is
/// returned instead — "import replaces generation" therefore requires
/// importing before the first simulation touches the key, which the
/// `--trace-in` flow does.
pub fn insert_imported(
    meta: &esp_trace::espt::TraceMeta,
    workload: Arc<PackedWorkload>,
) -> Arc<PackedWorkload> {
    let key = (meta.profile.clone(), meta.scale, meta.seed);
    let mut map = cache().lock().expect("arena cache poisoned");
    let entry = map
        .entry(key)
        .or_insert(Entry { generated: None, packed: None });
    entry.packed.get_or_insert(workload).clone()
}

/// Reads an ESPT trace file and seats its workload in the memo (see
/// [`insert_imported`]). Returns the file's provenance and the resident
/// (seated or pre-existing) arena.
///
/// # Errors
///
/// Any [`esp_trace::espt::EsptError`] from decoding the file.
pub fn import<P: AsRef<std::path::Path>>(
    path: P,
) -> Result<(esp_trace::espt::TraceMeta, Arc<PackedWorkload>), esp_trace::espt::EsptError> {
    let (meta, workload) = esp_trace::espt::read_path(path)?;
    let seated = insert_imported(&meta, Arc::new(workload));
    Ok((meta, seated))
}

/// Drops every cached workload and arena (tests and memory-pressure
/// escape hatch).
pub fn reset() {
    cache().lock().expect("arena cache poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_trace::Workload;

    /// The memo is process-wide and the test harness runs tests in
    /// parallel: the tests that reset it or assert on what it holds take
    /// this lock, so one cannot clear another's entries mid-test.
    static MEMO: Mutex<()> = Mutex::new(());

    /// Generations [`generated`] has run; read under the memo lock.
    pub(super) static GENERATIONS: std::sync::atomic::AtomicUsize =
        std::sync::atomic::AtomicUsize::new(0);

    fn generations() -> usize {
        GENERATIONS.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn memo_lock() -> std::sync::MutexGuard<'static, ()> {
        MEMO.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn profile() -> BenchmarkProfile {
        // Small but non-trivial: enough events for diverging ones to
        // exist at the default 2 % rate... not guaranteed, so tests that
        // need divergence pick a profile/seed checked to contain one.
        BenchmarkProfile::amazon().scaled(60_000)
    }

    #[test]
    fn packed_streams_match_walk_streams() {
        let w = profile().build(42);
        let p = w.materialise();
        assert_eq!(p.events(), w.events());
        assert_eq!(p.approx_total_instructions(), w.approx_total_instructions());
        for r in w.events() {
            let a = w.actual_stream(r.id).collect::<Vec<_>>();
            let pa = p.actual_stream(r.id).collect::<Vec<_>>();
            assert_eq!(a, pa, "actual stream of {} differs", r.id);
            let s = w.speculative_stream(r.id).collect::<Vec<_>>();
            let ps = p.speculative_stream(r.id).collect::<Vec<_>>();
            assert_eq!(s, ps, "speculative stream of {} differs", r.id);
        }
    }

    #[test]
    fn packed_covers_a_diverging_event() {
        // Hunt a seed whose schedule contains an in-budget divergence so
        // the tail path is genuinely exercised.
        for seed in 0..40 {
            let w = profile().build(seed);
            let diverging: Vec<u64> = w
                .schedule()
                .details()
                .iter()
                .filter(|d| d.diverge_at.is_some_and(|at| at < d.len))
                .map(|d| d.index)
                .collect();
            if diverging.is_empty() {
                continue;
            }
            let p = w.materialise();
            for idx in diverging {
                let id = EventId::new(idx);
                let s = w.speculative_stream(id).collect::<Vec<_>>();
                let ps = p.speculative_stream(id).collect::<Vec<_>>();
                assert_eq!(s, ps, "diverging event {id} differs");
                let a = w.actual_stream(id).collect::<Vec<_>>();
                assert_ne!(a, s, "event {id} was supposed to diverge");
            }
            return;
        }
        panic!("no diverging event found in 40 seeds");
    }

    #[test]
    fn materialise_is_thread_invariant() {
        let w = profile().build(9);
        let a = w.materialise_par(1);
        let b = w.materialise_par(4);
        assert_eq!(a.arena().len(), b.arena().len());
        for i in 0..a.arena().len() {
            assert_eq!(a.arena().event(i), b.arena().event(i), "event {i}");
        }
    }

    #[test]
    fn cache_returns_shared_arcs() {
        let _memo = memo_lock();
        reset();
        let pr = BenchmarkProfile::gdocs().scaled(30_000);
        let before = generations();
        let g1 = generated(&pr, 5);
        let g2 = generated(&pr, 5);
        assert!(Arc::ptr_eq(&g1, &g2));
        assert_eq!(generations() - before, 1, "generated memoises until packed");
        let p1 = packed(&pr, &g1, 5, 2);
        let p2 = packed_for(&pr, 5, 2);
        assert!(Arc::ptr_eq(&p1, &p2));
        drop(g2);
        assert_eq!(Arc::strong_count(&g1), 1, "packing releases the memo's generator");
        // Different seed or scale miss the cache.
        let g3 = generated(&pr, 6);
        assert!(!Arc::ptr_eq(&g1, &g3));
        reset();
        let g4 = generated(&pr, 5);
        assert!(!Arc::ptr_eq(&g1, &g4), "reset must drop entries");
    }

    #[test]
    fn packed_for_generates_once_and_keeps_no_generator() {
        let _memo = memo_lock();
        reset();
        let pr = BenchmarkProfile::cnn().scaled(20_000);
        let before = generations();
        assert!(resident(&pr, 4).is_none());
        let p1 = packed_for(&pr, 4, 1);
        assert!(Arc::ptr_eq(&p1, &resident(&pr, 4).expect("packed")));
        let held = |map: &HashMap<Key, Entry>| map.values().filter(|e| e.generated.is_some()).count();
        assert_eq!(held(&cache().lock().unwrap()), 0);
        // Warm: the memoised arena, not a second generation.
        assert!(Arc::ptr_eq(&p1, &packed_for(&pr, 4, 1)));
        assert_eq!(generations() - before, 1, "packed_for generates once");
        // A generator asked for after packing is built afresh and not
        // memoised.
        let g = generated(&pr, 4);
        assert_eq!(generations() - before, 2);
        assert_eq!(Arc::strong_count(&g), 1);
        assert_eq!(held(&cache().lock().unwrap()), 0);
        reset();
    }

    #[test]
    fn imported_arena_substitutes_for_generation() {
        let _memo = memo_lock();
        reset();
        let pr = BenchmarkProfile::iot_fsm().scaled(20_000);
        let built = packed_for(&pr, 3, 1);
        let meta = esp_trace::espt::TraceMeta {
            profile: pr.name().to_string(),
            scale: 20_000,
            seed: 3,
        };
        let mut bytes = Vec::new();
        esp_trace::espt::write(&mut bytes, &meta, &built).unwrap();

        // In a fresh memo, the seated import must be what packed_for
        // hands out — generation bypassed entirely.
        reset();
        let (m2, decoded) = esp_trace::espt::read(&bytes[..]).unwrap();
        assert_eq!(m2, meta);
        let seated = insert_imported(&m2, Arc::new(decoded));
        let served = packed_for(&pr, 3, 1);
        assert!(Arc::ptr_eq(&seated, &served), "import must replace generation");
        assert_eq!(served.events(), built.events());
        for i in 0..built.arena().len() {
            assert_eq!(served.arena().event(i), built.arena().event(i), "event {i}");
        }

        // First seat wins: a second import of the same triple returns
        // the resident arena.
        let (m3, decoded3) = esp_trace::espt::read(&bytes[..]).unwrap();
        let seated3 = insert_imported(&m3, Arc::new(decoded3));
        assert!(Arc::ptr_eq(&seated, &seated3));
        reset();
    }

    #[test]
    fn import_reads_and_seats_from_a_file() {
        let _memo = memo_lock();
        reset();
        let pr = BenchmarkProfile::server_async().scaled(15_000);
        let built = packed_for(&pr, 8, 1);
        let meta = esp_trace::espt::TraceMeta {
            profile: pr.name().to_string(),
            scale: 15_000,
            seed: 8,
        };
        let path = std::env::temp_dir().join("esp_arena_import_test.espt");
        esp_trace::espt::write_path(&path, &meta, &built).unwrap();
        reset();
        let (m, seated) = import(&path).unwrap();
        assert_eq!(m, meta);
        assert_eq!(seated.events(), built.events());
        assert!(Arc::ptr_eq(&seated, &packed_for(&pr, 8, 1)));
        std::fs::remove_file(&path).ok();
        reset();
    }

    #[test]
    fn arena_reports_resident_bytes() {
        let w = BenchmarkProfile::pixlr().scaled(20_000).build(3);
        let p = w.materialise();
        let bytes = p.resident_bytes();
        assert!(bytes > 0);
        // SoA packing beats Vec<Instr> (32 B/instr) by a wide margin.
        let fat = p.approx_total_instructions() * std::mem::size_of::<esp_trace::Instr>() as u64;
        assert!(bytes * 2 < fat, "packed {bytes} vs fat {fat}");
    }
}
