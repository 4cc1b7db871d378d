//! Arena-interned vocabularies for the compiled scoring plane.
//!
//! The interpreted [`crate::Vocabulary`] stores one heap `String` per
//! feature behind a `HashMap<String, u32>`: every lookup SipHashes the
//! query and then chases a pointer per probed bucket. On the scoring hot
//! path — a handful of token/trigram lookups per URL, millions of URLs —
//! that layout dominates the cost of classification.
//!
//! [`InternedVocabulary`] is the runtime representation the compiled
//! plane uses instead: every feature string lives in **one contiguous
//! byte arena** (`bounds[i]..bounds[i + 1]` is feature `i`), and lookups
//! go through an open-addressing table whose entries carry the
//! **precomputed 64-bit hash** of their feature, so a probe is one
//! integer compare before any byte comparison happens. Lookups take
//! `&[u8]` straight from the tokenizer's borrowed-token handoff — no
//! `String`, no `&str` round-trip, no allocation.
//!
//! Interning never changes an index: `interned.get(name.as_bytes()) ==
//! vocabulary.get(name)` for every string, which is what makes the
//! compiled plane bit-identical to the interpreted one.
//!
//! All four arrays live in [`Lane`]s, so an interned vocabulary can
//! either own its storage (built by [`InternedVocabulary::from_vocabulary`]
//! at compile time) or borrow it zero-copy from a `.urlm` mapping
//! (rebuilt by [`InternedVocabulary::from_lanes`] at load time — the
//! on-disk sections *are* these arrays, byte for byte).

use crate::vocabulary::Vocabulary;
use urlid_mapped::Lane;

/// FNV-1a 64-bit: tiny, allocation-free, and fast for the short keys
/// (tokens, trigrams) vocabularies hold.
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A read-only vocabulary interned into a byte arena with an
/// open-addressing, precomputed-hash lookup table.
#[derive(Debug, Clone, Default)]
pub struct InternedVocabulary {
    /// All feature strings, concatenated.
    arena: Lane<u8>,
    /// `len + 1` offsets into the arena; feature `i` is
    /// `arena[bounds[i]..bounds[i + 1]]`.
    bounds: Lane<u32>,
    /// Precomputed hash of every feature, indexed by feature id.
    hashes: Lane<u64>,
    /// Open-addressing slots holding `feature_id + 1` (0 = empty). The
    /// length is a power of two at most half full, so linear probing
    /// terminates.
    table: Lane<u32>,
    /// `table.len() - 1`, for masking.
    mask: usize,
}

/// Borrowed views of the four interned arrays, in the exact layout the
/// `.urlm` sections persist. Handed to the format writer by
/// [`InternedVocabulary::parts`].
#[derive(Debug, Clone, Copy)]
pub struct InternParts<'a> {
    /// Concatenated feature bytes.
    pub arena: &'a [u8],
    /// `len + 1` arena offsets.
    pub bounds: &'a [u32],
    /// Precomputed per-feature FNV-1a hashes.
    pub hashes: &'a [u64],
    /// Open-addressing slots (`feature_id + 1`, 0 = empty).
    pub table: &'a [u32],
}

impl InternedVocabulary {
    /// Intern a frozen [`Vocabulary`]. Indices are preserved exactly.
    pub fn from_vocabulary(vocabulary: &Vocabulary) -> Self {
        // `Vocabulary::iter` yields (index, name) in ascending dense
        // index order by construction, so interning in iteration order
        // preserves every index (the debug_assert guards the
        // assumption).
        Self::from_names(vocabulary.iter().enumerate().map(|(position, (i, name))| {
            debug_assert_eq!(i as usize, position, "dense index order");
            name
        }))
    }

    /// Intern distinct names; the `i`-th name gets index `i`.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut arena = Vec::new();
        let mut bounds = vec![0u32];
        let mut hashes = Vec::new();
        for name in names {
            arena.extend_from_slice(name.as_bytes());
            bounds.push(arena.len() as u32);
            hashes.push(hash_bytes(name.as_bytes()));
        }
        let len = hashes.len();
        if len == 0 {
            return Self::default();
        }
        // ≤ 50% load factor keeps probe chains short.
        let capacity = (len * 2).next_power_of_two().max(8);
        let mask = capacity - 1;
        let mut table = vec![0u32; capacity];
        for (i, &h) in hashes.iter().enumerate() {
            let mut slot = (h as usize) & mask;
            while table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            table[slot] = i as u32 + 1;
        }
        Self {
            arena: Lane::from_vec(arena),
            bounds: Lane::from_vec(bounds),
            hashes: Lane::from_vec(hashes),
            table: Lane::from_vec(table),
            mask,
        }
    }

    /// Borrowed views of the four arrays, for the `.urlm` writer.
    pub fn parts(&self) -> InternParts<'_> {
        InternParts {
            arena: &self.arena,
            bounds: &self.bounds,
            hashes: &self.hashes,
            table: &self.table,
        }
    }

    /// Rebuild an interned vocabulary over (usually mapped) lanes —
    /// the zero-copy load path of the `.urlm` format.
    ///
    /// The caller has already verified section checksums; this
    /// validates every *structural* invariant later accesses rely on
    /// (bounds monotone and inside the arena, table a power of two
    /// with in-range entries and at least one empty slot so probing
    /// terminates), so a corrupt-but-checksum-valid file fails closed
    /// here instead of panicking on the hot path.
    pub fn from_lanes(
        arena: Lane<u8>,
        bounds: Lane<u32>,
        hashes: Lane<u64>,
        table: Lane<u32>,
    ) -> Result<Self, String> {
        if hashes.is_empty() {
            if !arena.is_empty() || bounds.len() > 1 || !table.is_empty() {
                return Err("empty vocabulary with non-empty companion sections".into());
            }
            return Ok(Self::default());
        }
        let len = hashes.len();
        if bounds.len() != len + 1 {
            return Err(format!(
                "bounds has {} entries for {} features (want {})",
                bounds.len(),
                len,
                len + 1
            ));
        }
        if bounds[0] != 0 {
            return Err(format!("bounds[0] is {}, want 0", bounds[0]));
        }
        for w in bounds.as_slice().windows(2) {
            if w[1] < w[0] {
                return Err(format!("bounds not monotone: {} then {}", w[0], w[1]));
            }
        }
        if bounds[len] as usize != arena.len() {
            return Err(format!(
                "last bound {} does not close the {}-byte arena",
                bounds[len],
                arena.len()
            ));
        }
        let expected_capacity = (len * 2).next_power_of_two().max(8);
        if table.len() != expected_capacity {
            return Err(format!(
                "table capacity {} for {} features (want {})",
                table.len(),
                len,
                expected_capacity
            ));
        }
        let mut empties = 0usize;
        for &entry in table.iter() {
            if entry == 0 {
                empties += 1;
            } else if entry as usize > len {
                return Err(format!("table entry {entry} exceeds {len} features"));
            }
        }
        if empties == 0 {
            return Err("lookup table has no empty slot; probing would not terminate".into());
        }
        let mask = table.len() - 1;
        Ok(Self {
            arena,
            bounds,
            hashes,
            table,
            mask,
        })
    }

    /// Number of interned features.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Is the vocabulary empty?
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The bytes of feature `index`.
    #[inline]
    fn bytes_of(&self, index: u32) -> &[u8] {
        let start = self.bounds[index as usize] as usize;
        let end = self.bounds[index as usize + 1] as usize;
        &self.arena[start..end]
    }

    /// The feature string at an index (features are always valid UTF-8:
    /// they were interned from `&str`s).
    pub fn name(&self, index: u32) -> Option<&str> {
        if (index as usize) < self.len() {
            std::str::from_utf8(self.bytes_of(index)).ok()
        } else {
            None
        }
    }

    /// Look up a feature by its raw bytes — the zero-allocation hot-path
    /// entry point fed straight from the tokenizer.
    #[inline]
    pub fn get(&self, feature: &[u8]) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let h = hash_bytes(feature);
        let mut slot = (h as usize) & self.mask;
        loop {
            match self.table[slot] {
                0 => return None,
                entry => {
                    let index = entry - 1;
                    // Precomputed hash first: a 64-bit compare rejects
                    // almost every non-match before the byte compare.
                    if self.hashes[index as usize] == h && self.bytes_of(index) == feature {
                        return Some(index);
                    }
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// [`InternedVocabulary::get`] for `&str` callers.
    #[inline]
    pub fn get_str(&self, feature: &str) -> Option<u32> {
        self.get(feature.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab_of(names: &[&str]) -> Vocabulary {
        let mut v = Vocabulary::new();
        for n in names {
            v.get_or_insert(n);
        }
        v
    }

    #[test]
    fn interning_preserves_every_index() {
        let names = ["wetter", "bericht", "de", "com", "weather", "a", ""];
        let v = vocab_of(&names);
        let interned = InternedVocabulary::from_vocabulary(&v);
        assert_eq!(interned.len(), v.len());
        for name in names {
            assert_eq!(
                interned.get(name.as_bytes()),
                v.get(name),
                "{name:?} diverges"
            );
            assert_eq!(interned.get_str(name), v.get(name));
        }
        for (i, name) in v.iter() {
            assert_eq!(interned.name(i), Some(name));
        }
        assert_eq!(interned.name(names.len() as u32), None);
    }

    #[test]
    fn misses_are_misses() {
        let v = vocab_of(&["alpha", "beta"]);
        let interned = InternedVocabulary::from_vocabulary(&v);
        for miss in ["gamma", "alph", "alphaa", "", "ALPHA"] {
            assert_eq!(interned.get(miss.as_bytes()), None, "{miss:?}");
        }
    }

    #[test]
    fn empty_vocabulary_answers_none() {
        let interned = InternedVocabulary::from_vocabulary(&Vocabulary::new());
        assert!(interned.is_empty());
        assert_eq!(interned.len(), 0);
        assert_eq!(interned.get(b"anything"), None);
        assert_eq!(interned.name(0), None);
    }

    #[test]
    fn dense_vocabulary_survives_probing_pressure() {
        // Enough keys that the open-addressing table sees real collisions.
        let names: Vec<String> = (0..2000).map(|i| format!("tok{i:04}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let v = vocab_of(&refs);
        let interned = InternedVocabulary::from_vocabulary(&v);
        for name in &refs {
            assert_eq!(interned.get(name.as_bytes()), v.get(name), "{name}");
        }
        for miss in ["tok2000", "tok", "x"] {
            assert_eq!(interned.get(miss.as_bytes()), None);
        }
    }

    #[test]
    fn from_lanes_round_trips_parts_and_preserves_lookups() {
        let names: Vec<String> = (0..300).map(|i| format!("feat{i:03}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let v = vocab_of(&refs);
        let interned = InternedVocabulary::from_vocabulary(&v);
        let parts = interned.parts();
        let rebuilt = InternedVocabulary::from_lanes(
            Lane::from_vec(parts.arena.to_vec()),
            Lane::from_vec(parts.bounds.to_vec()),
            Lane::from_vec(parts.hashes.to_vec()),
            Lane::from_vec(parts.table.to_vec()),
        )
        .unwrap();
        for name in &refs {
            assert_eq!(rebuilt.get(name.as_bytes()), interned.get(name.as_bytes()));
        }
        assert_eq!(rebuilt.name(5), interned.name(5));
        // Empty round trip.
        let empty = InternedVocabulary::from_lanes(
            Lane::default(),
            Lane::default(),
            Lane::default(),
            Lane::default(),
        )
        .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn from_lanes_rejects_structural_corruption() {
        let v = vocab_of(&["alpha", "beta", "gamma"]);
        let interned = InternedVocabulary::from_vocabulary(&v);
        let p = interned.parts();
        let lanes = |arena: Vec<u8>, bounds: Vec<u32>, hashes: Vec<u64>, table: Vec<u32>| {
            InternedVocabulary::from_lanes(
                Lane::from_vec(arena),
                Lane::from_vec(bounds),
                Lane::from_vec(hashes),
                Lane::from_vec(table),
            )
        };
        // Truncated bounds.
        assert!(lanes(
            p.arena.to_vec(),
            p.bounds[..p.bounds.len() - 1].to_vec(),
            p.hashes.to_vec(),
            p.table.to_vec()
        )
        .is_err());
        // Non-monotone bounds.
        let mut bad_bounds = p.bounds.to_vec();
        bad_bounds[1] = u32::MAX;
        assert!(lanes(
            p.arena.to_vec(),
            bad_bounds,
            p.hashes.to_vec(),
            p.table.to_vec()
        )
        .is_err());
        // Last bound does not close the arena.
        let mut open_bounds = p.bounds.to_vec();
        *open_bounds.last_mut().unwrap() -= 1;
        assert!(lanes(
            p.arena.to_vec(),
            open_bounds,
            p.hashes.to_vec(),
            p.table.to_vec()
        )
        .is_err());
        // Out-of-range table entry.
        let mut bad_table = p.table.to_vec();
        bad_table[0] = 99;
        assert!(lanes(
            p.arena.to_vec(),
            p.bounds.to_vec(),
            p.hashes.to_vec(),
            bad_table
        )
        .is_err());
        // Wrong table capacity.
        assert!(lanes(
            p.arena.to_vec(),
            p.bounds.to_vec(),
            p.hashes.to_vec(),
            vec![0u32; 4]
        )
        .is_err());
        // A table with no empty slot would loop forever on a miss.
        assert!(lanes(
            p.arena.to_vec(),
            p.bounds.to_vec(),
            p.hashes.to_vec(),
            vec![1u32; p.table.len()]
        )
        .is_err());
    }

    #[test]
    fn non_ascii_features_intern_byte_exactly() {
        let v = vocab_of(&["münchen", "straße", "東京"]);
        let interned = InternedVocabulary::from_vocabulary(&v);
        assert_eq!(interned.get("münchen".as_bytes()), v.get("münchen"));
        assert_eq!(interned.name(v.get("東京").unwrap()), Some("東京"));
    }
}
