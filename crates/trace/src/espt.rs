//! ESPT v1: the versioned on-disk interchange form of a packed workload.
//!
//! The simulator is trace driven, but until this module traces only ever
//! existed in memory: `esp-workload` regenerates them from seeds on every
//! process start. ESPT (`.espt` files) makes the materialised
//! [`PackedWorkload`] a first-class, durable input — a captured or
//! generated trace can be exported once and replayed anywhere, byte for
//! byte, without the generator. The layout serialises the packed
//! struct-of-arrays arena directly (kind bytes and operand words are
//! written verbatim), so export→import→replay is lossless by
//! construction; `docs/TRACE_FORMAT.md` documents the byte layout and the
//! versioning policy in full.
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! magic "ESPT" · version u32 · endian tag u32 · section count u32
//! section table: (id u32, byte length u64) per section, in file order
//! sections: META(1) EVENTS(2) KINDS(3) OPS(4)
//! footer: FNV-1a 64 checksum of every preceding byte, as u64
//! ```
//!
//! * **META** — provenance: profile name (u16 length + UTF-8 bytes),
//!   scale, seed, event count, total instructions.
//! * **EVENTS** — one fixed 96-byte record per event: the
//!   [`EventRecord`] fields plus the shapes (start pc, kind-byte count,
//!   operand count) of the event's actual stream and speculative tail.
//! * **KINDS** — every stream's kind bytes, concatenated in event order
//!   (actual stream then tail, per event).
//! * **OPS** — every stream's operand words, same order.
//!
//! # Validation
//!
//! The reader is total over arbitrary bytes: any input either decodes to
//! a replayable workload or returns a structured [`EsptError`] — never a
//! panic, and never an allocation larger than the input itself (declared
//! section lengths are read incrementally, so a forged multi-terabyte
//! length faults as [`EsptError::Truncated`] once the real bytes run
//! out). The checksum is verified before the payload is interpreted, so
//! random corruption surfaces as [`EsptError::ChecksumMismatch`];
//! deliberately crafted payloads then face the structural checks
//! (section ids and lengths, count cross-sums, per-stream
//! [`PackedTrace::from_raw_parts`] validation).
//!
//! # Examples
//!
//! ```
//! use esp_trace::{espt, EventRecord, PackedEvent, PackedTrace, PackedWorkload, TraceArena};
//! use esp_trace::{Instr, Workload};
//! use esp_types::{Addr, Cycle, EventId, EventKindId};
//! use std::sync::Arc;
//!
//! let instrs = vec![Instr::alu(Addr::new(0x100)), Instr::ret(Addr::new(0x104), Addr::new(0x42))];
//! let event = PackedEvent::new(PackedTrace::from_instrs(&instrs), None, PackedTrace::new());
//! let record = EventRecord {
//!     id: EventId::new(0),
//!     kind: EventKindId::new(0),
//!     handler_pc: Addr::new(0x100),
//!     arg_addr: Addr::new(0x8000),
//!     approx_len: 2,
//!     post_time: Cycle::ZERO,
//!     order_mispredicted: false,
//! };
//! let w = PackedWorkload::new(vec![record], Arc::new(TraceArena::new(vec![event])), 2);
//! let meta = espt::TraceMeta { profile: "doc".into(), scale: 2, seed: 7 };
//!
//! let mut bytes = Vec::new();
//! espt::write(&mut bytes, &meta, &w).unwrap();
//! let (meta2, w2) = espt::read(&bytes[..]).unwrap();
//! assert_eq!(meta2.profile, "doc");
//! assert_eq!(w2.events(), w.events());
//! ```

use crate::packed::RawTraceError;
use crate::{EventRecord, PackedEvent, PackedTrace, PackedWorkload, TraceArena, Workload};
use esp_types::{Addr, Cycle, EventId, EventKindId};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The four magic bytes opening every `.espt` file.
pub const MAGIC: [u8; 4] = *b"ESPT";
/// The format version this module writes and accepts.
pub const VERSION: u32 = 1;
/// Endianness sentinel: an asymmetric constant whose byte order flips if
/// a writer ever emits native big-endian integers, turning the mistake
/// into a structured [`EsptError::BadEndianTag`] instead of garbage.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;
/// Longest accepted profile name, in bytes.
pub const MAX_NAME_BYTES: usize = 4096;

/// Section id of the provenance metadata section.
pub const SECTION_META: u32 = 1;
/// Section id of the fixed-size event index.
pub const SECTION_EVENTS: u32 = 2;
/// Section id of the concatenated kind bytes.
pub const SECTION_KINDS: u32 = 3;
/// Section id of the concatenated operand words.
pub const SECTION_OPS: u32 = 4;

/// Bytes of one EVENTS-section record.
const EVENT_RECORD_BYTES: u64 = 96;
/// Fixed META bytes besides the variable-length name.
const META_FIXED_BYTES: u64 = 2 + 8 * 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Event-record flag: the runtime's order prediction was wrong.
const FLAG_ORDER_MISPREDICTED: u8 = 0b01;
/// Event-record flag: the event carries a divergence point and tail.
const FLAG_HAS_DIVERGE: u8 = 0b10;

/// Provenance carried in a trace file's META section: which profile the
/// trace came from, at what instruction scale, from which generator (or
/// capture) seed. Imports key the process-wide arena memo with exactly
/// this triple, so an imported trace substitutes for the generated one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceMeta {
    /// The profile or capture name (lowercase by convention).
    pub profile: String,
    /// Target dynamic instructions the trace was built for.
    pub scale: u64,
    /// Generation (or capture) seed.
    pub seed: u64,
}

/// A structured decode (or encode) failure. Every variant names what was
/// violated; none of them ever panics or over-allocates, which the
/// corrupt-input fuzzer in `esp-check` asserts over thousands of mutated
/// files.
#[derive(Debug)]
#[non_exhaustive]
pub enum EsptError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is not the one this reader speaks.
    UnsupportedVersion {
        /// The version this reader expects.
        expected: u32,
        /// The version the file declares.
        found: u32,
    },
    /// The endianness sentinel is wrong (a byte-swapped writer).
    BadEndianTag {
        /// The value actually found.
        found: u32,
    },
    /// The section table is malformed (wrong count, id, or order).
    BadSectionTable {
        /// What exactly is wrong.
        detail: String,
    },
    /// The input ended before a declared structure was complete.
    Truncated {
        /// The structure being read.
        what: &'static str,
        /// Bytes the structure needs.
        needed: u64,
        /// Bytes actually available.
        got: u64,
    },
    /// The META section is malformed.
    BadMeta {
        /// What exactly is wrong.
        detail: String,
    },
    /// An event record violates a per-event invariant.
    BadEventRecord {
        /// The offending event index.
        event: u64,
        /// What exactly is wrong.
        detail: String,
    },
    /// A stream's raw arrays fail [`PackedTrace::from_raw_parts`]
    /// validation.
    BadTrace {
        /// The owning event index.
        event: u64,
        /// `"actual"` or `"spec_tail"`.
        stream: &'static str,
        /// The structural defect.
        source: RawTraceError,
    },
    /// Two declared quantities that must agree do not.
    CountMismatch {
        /// The quantity being cross-checked.
        what: &'static str,
        /// The value the header or index declares.
        declared: u64,
        /// The value implied by the payload.
        found: u64,
    },
    /// The footer checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum computed over the bytes read.
        computed: u64,
        /// Checksum stored in the footer.
        stored: u64,
    },
    /// Bytes follow the footer.
    TrailingBytes {
        /// How many extra bytes were found.
        extra: u64,
    },
    /// A size field exceeds the format's sanity limit.
    Oversized {
        /// The field being limited.
        what: &'static str,
        /// The limit.
        limit: u64,
        /// The declared value.
        found: u64,
    },
}

impl std::fmt::Display for EsptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EsptError::Io(e) => write!(f, "i/o error: {e}"),
            EsptError::BadMagic { found } => {
                write!(f, "not an ESPT file: magic {found:02x?} != {MAGIC:02x?}")
            }
            EsptError::UnsupportedVersion { expected, found } => {
                write!(f, "unsupported ESPT version: expected {expected}, found {found}")
            }
            EsptError::BadEndianTag { found } => write!(
                f,
                "bad endianness tag {found:#010x} (expected {ENDIAN_TAG:#010x}; \
                 file written with non-little-endian integers?)"
            ),
            EsptError::BadSectionTable { detail } => write!(f, "bad section table: {detail}"),
            EsptError::Truncated { what, needed, got } => {
                write!(f, "truncated {what}: needed {needed} bytes, got {got}")
            }
            EsptError::BadMeta { detail } => write!(f, "bad META section: {detail}"),
            EsptError::BadEventRecord { event, detail } => {
                write!(f, "bad event record {event}: {detail}")
            }
            EsptError::BadTrace { event, stream, source } => {
                write!(f, "bad {stream} trace of event {event}: {source}")
            }
            EsptError::CountMismatch { what, declared, found } => {
                write!(f, "{what} mismatch: declared {declared}, found {found}")
            }
            EsptError::ChecksumMismatch { computed, stored } => write!(
                f,
                "checksum mismatch: computed {computed:#018x}, stored {stored:#018x}"
            ),
            EsptError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the checksum footer")
            }
            EsptError::Oversized { what, limit, found } => {
                write!(f, "{what} too large: {found} exceeds the limit of {limit}")
            }
        }
    }
}

impl std::error::Error for EsptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EsptError::Io(e) => Some(e),
            EsptError::BadTrace { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for EsptError {
    fn from(e: io::Error) -> Self {
        EsptError::Io(e)
    }
}

/// FNV-1a-64 of `bytes` — the container's checksum function, also the
/// hash of the repository's golden digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

#[inline]
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// ---------------------------------------------------------------- writer

struct HashWriter<W: Write> {
    inner: W,
    hash: u64,
    written: u64,
}

impl<W: Write> HashWriter<W> {
    fn new(inner: W) -> Self {
        HashWriter { inner, hash: FNV_OFFSET, written: 0 }
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), EsptError> {
        self.inner.write_all(bytes)?;
        self.hash = fnv1a(self.hash, bytes);
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn put_u16(&mut self, v: u16) -> Result<(), EsptError> {
        self.put(&v.to_le_bytes())
    }

    fn put_u32(&mut self, v: u32) -> Result<(), EsptError> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> Result<(), EsptError> {
        self.put(&v.to_le_bytes())
    }
}

/// Serialises `workload` (with its provenance `meta`) to `w` in ESPT v1,
/// streaming section by section. Returns the total bytes written,
/// footer included.
///
/// # Errors
///
/// Returns [`EsptError::Io`] on write failure, [`EsptError::Oversized`]
/// for an over-long profile name, and [`EsptError::BadEventRecord`] if
/// the workload's event ids are not the dense `0..n` sequence the format
/// (and the simulator's event queue) requires.
pub fn write<W: Write>(w: W, meta: &TraceMeta, workload: &PackedWorkload) -> Result<u64, EsptError> {
    let name = meta.profile.as_bytes();
    if name.len() > MAX_NAME_BYTES {
        return Err(EsptError::Oversized {
            what: "profile name",
            limit: MAX_NAME_BYTES as u64,
            found: name.len() as u64,
        });
    }
    let records = workload.events();
    let arena = workload.arena();
    for (i, r) in records.iter().enumerate() {
        if r.id.index() != i as u64 {
            return Err(EsptError::BadEventRecord {
                event: i as u64,
                detail: format!("id {} is not its schedule position {i}", r.id.index()),
            });
        }
    }

    let n = records.len() as u64;
    let mut kinds_len: u64 = 0;
    let mut ops_words: u64 = 0;
    for i in 0..arena.len() {
        let ev = arena.event(i);
        kinds_len += (ev.actual().kind_bytes().len() + ev.spec_tail().kind_bytes().len()) as u64;
        ops_words += (ev.actual().op_words().count() + ev.spec_tail().op_words().count()) as u64;
    }

    let mut hw = HashWriter::new(w);
    hw.put(&MAGIC)?;
    hw.put_u32(VERSION)?;
    hw.put_u32(ENDIAN_TAG)?;
    hw.put_u32(4)?; // section count
    for (id, len) in [
        (SECTION_META, META_FIXED_BYTES + name.len() as u64),
        (SECTION_EVENTS, n * EVENT_RECORD_BYTES),
        (SECTION_KINDS, kinds_len),
        (SECTION_OPS, ops_words * 8),
    ] {
        hw.put_u32(id)?;
        hw.put_u64(len)?;
    }

    // META
    hw.put_u16(name.len() as u16)?;
    hw.put(name)?;
    hw.put_u64(meta.scale)?;
    hw.put_u64(meta.seed)?;
    hw.put_u64(n)?;
    hw.put_u64(workload.approx_total_instructions())?;

    // EVENTS
    for (i, r) in records.iter().enumerate() {
        let ev = arena.event(i);
        let mut flags = 0u8;
        if r.order_mispredicted {
            flags |= FLAG_ORDER_MISPREDICTED;
        }
        if ev.diverge_at().is_some() {
            flags |= FLAG_HAS_DIVERGE;
        }
        hw.put_u32(r.kind.index())?;
        hw.put(&[flags, 0, 0, 0])?;
        hw.put_u64(r.handler_pc.as_u64())?;
        hw.put_u64(r.arg_addr.as_u64())?;
        hw.put_u64(r.approx_len)?;
        hw.put_u64(r.post_time.as_u64())?;
        hw.put_u64(ev.diverge_at().unwrap_or(0))?;
        for t in [ev.actual(), ev.spec_tail()] {
            hw.put_u64(t.start_pc())?;
            hw.put_u64(t.kind_bytes().len() as u64)?;
            hw.put_u64(t.op_words().count() as u64)?;
        }
    }

    // KINDS
    for i in 0..arena.len() {
        let ev = arena.event(i);
        hw.put(ev.actual().kind_bytes())?;
        hw.put(ev.spec_tail().kind_bytes())?;
    }

    // OPS
    let mut buf = Vec::with_capacity(64 * 1024);
    for i in 0..arena.len() {
        let ev = arena.event(i);
        for t in [ev.actual(), ev.spec_tail()] {
            for op in t.op_words() {
                buf.extend_from_slice(&op.to_le_bytes());
                if buf.len() >= 64 * 1024 {
                    hw.put(&buf)?;
                    buf.clear();
                }
            }
        }
    }
    if !buf.is_empty() {
        hw.put(&buf)?;
    }

    // Footer: the checksum of everything before it.
    let checksum = hw.hash;
    hw.put_u64(checksum)?;
    hw.inner.flush()?;
    Ok(hw.written)
}

/// [`write()`] to a freshly created (truncated) file at `path`, buffered.
///
/// # Errors
///
/// As [`write()`], plus [`EsptError::Io`] from file creation.
pub fn write_path<P: AsRef<Path>>(
    path: P,
    meta: &TraceMeta,
    workload: &PackedWorkload,
) -> Result<u64, EsptError> {
    let file = std::fs::File::create(path)?;
    write(io::BufWriter::new(file), meta, workload)
}

// ---------------------------------------------------------------- reader

struct HashReader<R: Read> {
    inner: R,
    hash: u64,
}

impl<R: Read> HashReader<R> {
    fn new(inner: R) -> Self {
        HashReader { inner, hash: FNV_OFFSET }
    }

    /// Fills `buf` exactly, hashing what was read; reports a structured
    /// [`EsptError::Truncated`] carrying how far it got.
    fn fill(&mut self, buf: &mut [u8], what: &'static str) -> Result<(), EsptError> {
        let got = self.fill_raw(buf)?;
        if got < buf.len() {
            return Err(EsptError::Truncated {
                what,
                needed: buf.len() as u64,
                got: got as u64,
            });
        }
        self.hash = fnv1a(self.hash, buf);
        Ok(())
    }

    /// Reads as much of `buf` as the input holds, without hashing.
    fn fill_raw(&mut self, buf: &mut [u8]) -> Result<usize, EsptError> {
        let mut done = 0;
        while done < buf.len() {
            match self.inner.read(&mut buf[done..]) {
                Ok(0) => break,
                Ok(k) => done += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(EsptError::Io(e)),
            }
        }
        Ok(done)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, EsptError> {
        let mut b = [0u8; 4];
        self.fill(&mut b, what)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, EsptError> {
        let mut b = [0u8; 8];
        self.fill(&mut b, what)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `len`-byte blob incrementally: allocation grows in bounded
    /// chunks as bytes actually arrive, so a forged astronomical length
    /// costs at most one chunk of memory beyond the real input size.
    fn blob(&mut self, len: u64, what: &'static str) -> Result<Vec<u8>, EsptError> {
        const CHUNK: u64 = 1 << 20;
        let mut v = Vec::new();
        let mut remaining = len;
        while remaining > 0 {
            let n = remaining.min(CHUNK) as usize;
            let old = v.len();
            v.resize(old + n, 0);
            let got = self.fill_raw(&mut v[old..])?;
            self.hash = fnv1a(self.hash, &v[old..old + got]);
            if got < n {
                return Err(EsptError::Truncated {
                    what,
                    needed: len,
                    got: old as u64 + got as u64,
                });
            }
            remaining -= n as u64;
        }
        Ok(v)
    }
}

fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("8-byte slice"))
}

/// The per-event stream shapes parsed from an EVENTS record.
struct EventShape {
    diverge_at: Option<u64>,
    actual: (u64, u64, u64),
    tail: (u64, u64, u64),
}

/// Deserialises an ESPT v1 stream into its provenance and a replayable
/// [`PackedWorkload`]. Total over arbitrary input: returns a structured
/// [`EsptError`] for anything malformed, verifying the footer checksum
/// before interpreting the payload.
///
/// # Errors
///
/// Every [`EsptError`] variant is reachable; see the module docs for the
/// validation order.
pub fn read<R: Read>(r: R) -> Result<(TraceMeta, PackedWorkload), EsptError> {
    let mut hr = HashReader::new(r);

    let mut magic = [0u8; 4];
    hr.fill(&mut magic, "magic")?;
    if magic != MAGIC {
        return Err(EsptError::BadMagic { found: magic });
    }
    let version = hr.u32("version")?;
    if version != VERSION {
        return Err(EsptError::UnsupportedVersion { expected: VERSION, found: version });
    }
    let endian = hr.u32("endian tag")?;
    if endian != ENDIAN_TAG {
        return Err(EsptError::BadEndianTag { found: endian });
    }
    let n_sections = hr.u32("section count")?;
    if n_sections != 4 {
        return Err(EsptError::BadSectionTable {
            detail: format!("v1 has exactly 4 sections, table declares {n_sections}"),
        });
    }
    let mut lens = [0u64; 4];
    for (slot, want_id) in [SECTION_META, SECTION_EVENTS, SECTION_KINDS, SECTION_OPS]
        .into_iter()
        .enumerate()
    {
        let id = hr.u32("section id")?;
        if id != want_id {
            return Err(EsptError::BadSectionTable {
                detail: format!("section {slot}: id {id}, v1 requires {want_id} here"),
            });
        }
        lens[slot] = hr.u64("section length")?;
    }
    let [meta_len, events_len, kinds_len, ops_len] = lens;
    if meta_len > META_FIXED_BYTES + MAX_NAME_BYTES as u64 {
        return Err(EsptError::Oversized {
            what: "META section",
            limit: META_FIXED_BYTES + MAX_NAME_BYTES as u64,
            found: meta_len,
        });
    }

    // Pull the payload through the hasher, checksum first: random
    // corruption must surface as ChecksumMismatch, not as whichever
    // structural check the flipped bit happens to land in.
    let meta_blob = hr.blob(meta_len, "META section")?;
    let events_blob = hr.blob(events_len, "EVENTS section")?;
    let kinds_blob = hr.blob(kinds_len, "KINDS section")?;
    let ops_blob = hr.blob(ops_len, "OPS section")?;
    let computed = hr.hash;
    let mut footer = [0u8; 8];
    let got = hr.fill_raw(&mut footer)?;
    if got < 8 {
        return Err(EsptError::Truncated { what: "checksum footer", needed: 8, got: got as u64 });
    }
    let stored = u64::from_le_bytes(footer);
    if stored != computed {
        return Err(EsptError::ChecksumMismatch { computed, stored });
    }
    let mut extra = 0u64;
    let mut drain = [0u8; 4096];
    loop {
        let k = hr.fill_raw(&mut drain)?;
        extra += k as u64;
        if k < drain.len() {
            break;
        }
    }
    if extra > 0 {
        return Err(EsptError::TrailingBytes { extra });
    }

    // META
    if meta_blob.len() < 2 {
        return Err(EsptError::BadMeta { detail: "shorter than its name-length field".into() });
    }
    let name_len = u16::from_le_bytes([meta_blob[0], meta_blob[1]]) as usize;
    if meta_blob.len() as u64 != META_FIXED_BYTES + name_len as u64 {
        return Err(EsptError::BadMeta {
            detail: format!(
                "section length {} does not match name length {name_len}",
                meta_blob.len()
            ),
        });
    }
    let profile = std::str::from_utf8(&meta_blob[2..2 + name_len])
        .map_err(|e| EsptError::BadMeta { detail: format!("profile name is not UTF-8: {e}") })?
        .to_string();
    let fixed = &meta_blob[2 + name_len..];
    let scale = le_u64(fixed, 0);
    let seed = le_u64(fixed, 8);
    let event_count = le_u64(fixed, 16);
    let total_instructions = le_u64(fixed, 24);

    // EVENTS
    let declared_events_len = event_count
        .checked_mul(EVENT_RECORD_BYTES)
        .ok_or(EsptError::Oversized { what: "event count", limit: u64::MAX / EVENT_RECORD_BYTES, found: event_count })?;
    if events_len != declared_events_len {
        return Err(EsptError::CountMismatch {
            what: "EVENTS section length",
            declared: declared_events_len,
            found: events_len,
        });
    }
    let n = event_count as usize;
    let mut records = Vec::with_capacity(n.min(1 << 20));
    let mut shapes = Vec::with_capacity(n.min(1 << 20));
    let mut sum_kinds = 0u64;
    let mut sum_ops = 0u64;
    let mut sum_approx = 0u64;
    for i in 0..n {
        let b = &events_blob[i * EVENT_RECORD_BYTES as usize..(i + 1) * EVENT_RECORD_BYTES as usize];
        let kind = u32::from_le_bytes(b[0..4].try_into().expect("4-byte slice"));
        let flags = b[4];
        if b[5] != 0 || b[6] != 0 || b[7] != 0 {
            return Err(EsptError::BadEventRecord {
                event: i as u64,
                detail: "non-zero padding bytes".into(),
            });
        }
        if flags & !(FLAG_ORDER_MISPREDICTED | FLAG_HAS_DIVERGE) != 0 {
            return Err(EsptError::BadEventRecord {
                event: i as u64,
                detail: format!("unknown flag bits in {flags:#04x}"),
            });
        }
        let handler_pc = le_u64(b, 8);
        let arg_addr = le_u64(b, 16);
        let approx_len = le_u64(b, 24);
        let post_time = le_u64(b, 32);
        let diverge_raw = le_u64(b, 40);
        let actual = (le_u64(b, 48), le_u64(b, 56), le_u64(b, 64));
        let tail = (le_u64(b, 72), le_u64(b, 80), le_u64(b, 88));
        let has_diverge = flags & FLAG_HAS_DIVERGE != 0;
        if !has_diverge && (diverge_raw != 0 || tail != (0, 0, 0)) {
            return Err(EsptError::BadEventRecord {
                event: i as u64,
                detail: "non-diverging event carries a divergence point or tail".into(),
            });
        }
        if has_diverge && diverge_raw > actual.1 {
            return Err(EsptError::BadEventRecord {
                event: i as u64,
                detail: format!(
                    "divergence point {diverge_raw} beyond the actual stream's {} instructions",
                    actual.1
                ),
            });
        }
        for (what, v) in [("kind bytes", actual.1), ("operand words", actual.2), ("tail kind bytes", tail.1), ("tail operand words", tail.2)] {
            if v > u64::MAX / 8 {
                return Err(EsptError::Oversized { what, limit: u64::MAX / 8, found: v });
            }
        }
        sum_kinds = sum_kinds
            .checked_add(actual.1)
            .and_then(|s| s.checked_add(tail.1))
            .ok_or(EsptError::Oversized { what: "total kind bytes", limit: u64::MAX, found: u64::MAX })?;
        sum_ops = sum_ops
            .checked_add(actual.2)
            .and_then(|s| s.checked_add(tail.2))
            .ok_or(EsptError::Oversized { what: "total operand words", limit: u64::MAX, found: u64::MAX })?;
        sum_approx = sum_approx
            .checked_add(approx_len)
            .ok_or(EsptError::Oversized { what: "total instructions", limit: u64::MAX, found: u64::MAX })?;
        records.push(EventRecord {
            id: EventId::new(i as u64),
            kind: EventKindId::new(kind),
            handler_pc: Addr::new(handler_pc),
            arg_addr: Addr::new(arg_addr),
            approx_len,
            post_time: Cycle::new(post_time),
            order_mispredicted: flags & FLAG_ORDER_MISPREDICTED != 0,
        });
        shapes.push(EventShape {
            diverge_at: has_diverge.then_some(diverge_raw),
            actual,
            tail,
        });
    }
    if sum_kinds != kinds_len {
        return Err(EsptError::CountMismatch {
            what: "KINDS section length",
            declared: kinds_len,
            found: sum_kinds,
        });
    }
    let ops_bytes = sum_ops
        .checked_mul(8)
        .ok_or(EsptError::Oversized { what: "total operand words", limit: u64::MAX / 8, found: sum_ops })?;
    if ops_bytes != ops_len {
        return Err(EsptError::CountMismatch {
            what: "OPS section length",
            declared: ops_len,
            found: ops_bytes,
        });
    }
    if total_instructions != sum_approx {
        return Err(EsptError::CountMismatch {
            what: "total instructions",
            declared: total_instructions,
            found: sum_approx,
        });
    }

    // KINDS + OPS: carve each event's streams out of the blobs and
    // validate them into packed traces.
    let mut events = Vec::with_capacity(n.min(1 << 20));
    let mut koff = 0usize;
    let mut ooff = 0usize;
    let build = |event: u64,
                 stream: &'static str,
                 (start_pc, n_kinds, n_ops): (u64, u64, u64),
                 koff: &mut usize,
                 ooff: &mut usize|
     -> Result<PackedTrace, EsptError> {
        let kinds = kinds_blob[*koff..*koff + n_kinds as usize].to_vec();
        *koff += n_kinds as usize;
        let mut ops = Vec::with_capacity(n_ops as usize);
        for w in 0..n_ops as usize {
            ops.push(le_u64(&ops_blob, *ooff + w * 8));
        }
        *ooff += n_ops as usize * 8;
        PackedTrace::from_raw_parts(start_pc, kinds, ops)
            .map_err(|source| EsptError::BadTrace { event, stream, source })
    };
    for (i, shape) in shapes.iter().enumerate() {
        let actual = build(i as u64, "actual", shape.actual, &mut koff, &mut ooff)?;
        let tail = build(i as u64, "spec_tail", shape.tail, &mut koff, &mut ooff)?;
        events.push(PackedEvent::new(actual, shape.diverge_at, tail));
    }

    let meta = TraceMeta { profile, scale, seed };
    let workload = PackedWorkload::new(records, Arc::new(TraceArena::new(events)), total_instructions);
    Ok((meta, workload))
}

/// [`read`] from the file at `path`, buffered.
///
/// # Errors
///
/// As [`read`], plus [`EsptError::Io`] from opening the file.
pub fn read_path<P: AsRef<Path>>(path: P) -> Result<(TraceMeta, PackedWorkload), EsptError> {
    let file = std::fs::File::open(path)?;
    read(io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instr;

    fn a(v: u64) -> Addr {
        Addr::new(v)
    }

    /// A two-event hand-built workload: one plain event, one diverging.
    fn sample() -> PackedWorkload {
        let plain = vec![
            Instr::alu(a(0x1000)),
            Instr::load(a(0x1004), a(0x8000_0000), true),
            Instr::cond_branch(a(0x1008), true, a(0x1000)),
        ];
        let actual = vec![
            Instr::alu(a(0x2000)),
            Instr::store(a(0x2004), a(0x9000)),
            Instr::call(a(0x2008), a(0x3000)),
            Instr::ret(a(0x3000), a(0x200c)),
        ];
        let mut spec = actual[..2].to_vec();
        spec.push(Instr::alu(a(0x4444)));
        let records = vec![
            EventRecord {
                id: EventId::new(0),
                kind: EventKindId::new(3),
                handler_pc: a(0x1000),
                arg_addr: a(0x8000_0000),
                approx_len: 3,
                post_time: Cycle::ZERO,
                order_mispredicted: false,
            },
            EventRecord {
                id: EventId::new(1),
                kind: EventKindId::new(1),
                handler_pc: a(0x2000),
                arg_addr: a(0x9000),
                approx_len: 4,
                post_time: Cycle::new(17),
                order_mispredicted: true,
            },
        ];
        let events = vec![
            PackedEvent::new(PackedTrace::from_instrs(&plain), None, PackedTrace::new()),
            PackedEvent::new(
                PackedTrace::from_instrs(&actual),
                Some(2),
                PackedTrace::from_instrs(&spec[2..]),
            ),
        ];
        PackedWorkload::new(records, Arc::new(TraceArena::new(events)), 7)
    }

    fn meta() -> TraceMeta {
        TraceMeta { profile: "sample".into(), scale: 7, seed: 99 }
    }

    fn encode(w: &PackedWorkload) -> Vec<u8> {
        let mut bytes = Vec::new();
        let n = write(&mut bytes, &meta(), w).unwrap();
        assert_eq!(n, bytes.len() as u64);
        bytes
    }

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let w = sample();
        let bytes = encode(&w);
        let (m, w2) = read(&bytes[..]).unwrap();
        assert_eq!(m, meta());
        assert_eq!(w2.events(), w.events());
        assert_eq!(w2.approx_total_instructions(), w.approx_total_instructions());
        for i in 0..w.arena().len() {
            assert_eq!(w2.arena().event(i), w.arena().event(i), "event {i}");
        }
    }

    #[test]
    fn reencode_is_byte_identical() {
        let w = sample();
        let bytes = encode(&w);
        let (m, w2) = read(&bytes[..]).unwrap();
        let mut again = Vec::new();
        write(&mut again, &m, &w2).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert!(matches!(read(&bytes[..]), Err(EsptError::BadMagic { found }) if found[0] == b'X'));
    }

    #[test]
    fn rejects_future_version_naming_both() {
        let mut bytes = encode(&sample());
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let err = read(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, EsptError::UnsupportedVersion { expected: 1, found: 2 }),
            "got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("expected 1") && msg.contains("found 2"), "{msg}");
    }

    #[test]
    fn rejects_byte_swapped_endian_tag() {
        let mut bytes = encode(&sample());
        bytes[8..12].copy_from_slice(&ENDIAN_TAG.to_be_bytes());
        assert!(matches!(read(&bytes[..]), Err(EsptError::BadEndianTag { .. })));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let err = read(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, EsptError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_flipped_payload_bits_via_checksum() {
        let bytes = encode(&sample());
        // Flip one bit in each section's territory (past the 64-byte
        // header+table, whose fields have their own structured errors).
        for &pos in &[70usize, bytes.len() / 2, bytes.len() - 12] {
            let mut b = bytes.clone();
            b[pos] ^= 0x40;
            let err = read(&b[..]).unwrap_err();
            assert!(
                matches!(err, EsptError::ChecksumMismatch { .. }),
                "flip at {pos}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode(&sample());
        bytes.extend_from_slice(b"junk");
        assert!(matches!(read(&bytes[..]), Err(EsptError::TrailingBytes { extra: 4 })));
    }

    #[test]
    fn rejects_oversized_declared_section_without_allocating() {
        let bytes = encode(&sample());
        // Forge the KINDS section length to 1 TiB and leave the rest
        // untouched: the reader must fault on truncation after the real
        // bytes run out, not attempt the allocation up front.
        let mut b = bytes.clone();
        let kinds_len_off = 4 + 4 + 4 + 4 + 2 * 12 + 4; // header + 2 entries + id
        b[kinds_len_off..kinds_len_off + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = read(&b[..]).unwrap_err();
        assert!(matches!(err, EsptError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn rejects_length_hints_whose_sum_overflows() {
        // Hints of `u64::MAX` and 4 wrap to a total of 3, which the
        // header declares: only the checked sum notices.
        let w = sample();
        let mut records = w.events().to_vec();
        records[0].approx_len = u64::MAX;
        let forged = PackedWorkload::new(records, w.arena().clone(), 3);
        let err = read(&encode(&forged)[..]).unwrap_err();
        assert!(
            matches!(err, EsptError::Oversized { what: "total instructions", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn empty_workload_roundtrips() {
        let w = PackedWorkload::new(Vec::new(), Arc::new(TraceArena::new(Vec::new())), 0);
        let mut bytes = Vec::new();
        write(&mut bytes, &meta(), &w).unwrap();
        let (m, w2) = read(&bytes[..]).unwrap();
        assert_eq!(m, meta());
        assert!(w2.events().is_empty());
    }

    #[test]
    fn writer_rejects_non_dense_ids() {
        let w = sample();
        let mut records = w.events().to_vec();
        records[1].id = EventId::new(5);
        let bad = PackedWorkload::new(records, w.arena().clone(), 7);
        let err = write(&mut Vec::new(), &meta(), &bad).unwrap_err();
        assert!(matches!(err, EsptError::BadEventRecord { event: 1, .. }), "{err:?}");
    }

    #[test]
    fn display_is_informative() {
        let e = EsptError::UnsupportedVersion { expected: 1, found: 9 };
        assert_eq!(e.to_string(), "unsupported ESPT version: expected 1, found 9");
        let e = EsptError::Truncated { what: "magic", needed: 4, got: 1 };
        assert!(e.to_string().contains("magic"));
    }
}
