//! The exact-mode reference digests: one FNV-1a-64 hash of each
//! `RunReport`'s `Debug` text per matrix cell, for one (scale, seed).
//!
//! File format (`reference/exact_digests.txt`):
//!
//! ```text
//! # comment lines
//! scale 600000
//! seed 42
//! gdocs Base 5c0f3a1e9d2b7c44
//! ...
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a, 64-bit (the hash the ESPT container also uses).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digests for every cell of one (scale, seed) exact matrix.
pub struct Reference {
    pub scale: u64,
    pub seed: u64,
    /// `(family, config)` → digest.
    pub digests: BTreeMap<(String, String), u64>,
}

impl Reference {
    /// Reads and validates a digest file.
    pub fn read(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (mut scale, mut seed) = (None, None);
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("{}:{}: malformed line {line:?}", path.display(), n + 1);
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                [] => {}
                [first, ..] if first.starts_with('#') => {}
                ["scale", v] => scale = Some(v.parse().map_err(|_| bad())?),
                ["seed", v] => seed = Some(v.parse().map_err(|_| bad())?),
                [family, config, hex] => {
                    let d = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
                    digests.insert((family.to_string(), config.to_string()), d);
                }
                _ => return Err(bad()),
            }
        }
        match (scale, seed) {
            (Some(scale), Some(seed)) => Ok(Reference {
                scale,
                seed,
                digests,
            }),
            _ => Err(format!(
                "{}: missing `scale` or `seed` line",
                path.display()
            )),
        }
    }

    /// Writes the file, cells in the order given.
    pub fn write(&self, path: &Path, cells: &[(String, String)]) -> std::io::Result<()> {
        let mut out = String::from(
            "# FNV-1a-64 of each exact-mode RunReport's Debug text, per matrix cell\n\
             # (family, config). Regenerate: python3 perfbench/run.py --bless\n",
        );
        let _ = writeln!(out, "scale {}\nseed {}", self.scale, self.seed);
        for cell in cells {
            let _ = writeln!(out, "{} {} {:016x}", cell.0, cell.1, self.digests[cell]);
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = std::env::temp_dir().join(format!("perfbench-ref-{}.txt", std::process::id()));
        let cell = ("gdocs".to_string(), "Base".to_string());
        let mut digests = BTreeMap::new();
        digests.insert(cell.clone(), 0x0123_4567_89ab_cdef);
        Reference {
            scale: 1000,
            seed: 7,
            digests,
        }
        .write(&path, std::slice::from_ref(&cell))
        .unwrap();
        let back = Reference::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!((back.scale, back.seed), (1000, 7));
        assert_eq!(back.digests[&cell], 0x0123_4567_89ab_cdef);
    }
}
