//! The `.urlm` container: a page-aligned, checksummed binary model
//! format whose sections *are* the runtime structures.
//!
//! A `.urlm` load is `mmap(2)` + header validation + typed casts of the
//! dense sections, with no plane compilation: the interned vocabulary arena, the
//! open-addressing probe table and the dense weight matrices are stored
//! exactly as the compiled plane keeps them in memory, each section
//! page-aligned so a [`Lane`] view over the mapping satisfies every
//! alignment requirement for free.
//!
//! This module is the *container* layer — magic, header, section table,
//! checksums, atomic writes, validated section access. What the
//! sections mean (vocabulary, plane, models) is the business of
//! [`crate::persistence`].
//!
//! ## Layout
//!
//! ```text
//! offset 0      magic            8 bytes  89 55 52 4C 4D 0D 0A 1A
//!        8      endian tag       u32      0x01020304, written native
//!        12     format version   u32      1
//!        16     page size        u32      4096
//!        20     section count    u32
//!        24     section entries  32 bytes each:
//!                 id u32 · pad u32 · offset u64 · len u64 · xxh64 u64
//! page 1..     sections, each starting on a page boundary
//! ```
//!
//! All header integers are written in native byte order; the endian
//! tag reads as `0x04030201` on a foreign-endian machine, so such a
//! file is rejected before any multi-byte field is trusted. Dense
//! sections are likewise native-order — they must be, to be castable —
//! which makes a `.urlm` file a *host* format, not an interchange
//! format: a file from a machine of the other endianness is refused,
//! and the portable artifact is the training corpus, from which a model
//! retrains bit-deterministically.
//!
//! ## Validation order
//!
//! [`UrlmFile::open`] checks magic → endianness → version → page size /
//! section count sanity → per-entry alignment and bounds → per-section
//! checksums, and fails closed with a typed
//! [`PersistenceError`] at the
//! first violation. The section table itself carries no checksum: a
//! tampered offset is caught by the alignment/bounds checks (or by the
//! section checksum the mangled window no longer matches), and keeping
//! the table un-hashed means the checksum of every section is
//! independent of where the packer placed it.
//!
//! Writes go to a sibling temporary file unique to the write and are
//! published with an atomic rename, so a torn write — or two writers
//! racing for one path — leaves a whole model from one of them, never a
//! half-written `.urlm`.

use crate::persistence::PersistenceError;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use urlid_mapped::{Lane, Mapping, Pod};

/// The 8-byte file signature. PNG-style: a high bit to trip ASCII
/// transports, the format name, and a CR LF SUB tail that catches
/// newline translation and `type`-style truncation.
pub const URLM_MAGIC: [u8; 8] = [0x89, b'U', b'R', b'L', b'M', 0x0D, 0x0A, 0x1A];

/// Current format version.
pub const URLM_VERSION: u32 = 1;

/// Section alignment: every section starts on a 4096-byte boundary.
pub const URLM_PAGE: u32 = 4096;

/// The endianness sentinel: reads back as `0x04030201` when the file
/// was written on a machine of the other endianness.
const ENDIAN_TAG: u32 = 0x0102_0304;

/// Fixed header bytes before the section entries.
const HEADER_FIXED: usize = 8 + 4 + 4 + 4 + 4;

/// Bytes per section-table entry.
const ENTRY_BYTES: usize = 32;

/// An implausible section count — the format has seven live section
/// kinds; the cap only bounds the table scan on hostile headers.
const MAX_SECTIONS: u32 = 64;

/// Identifiers of the known sections, in canonical file order.
///
/// Ids 7 and 8 are retired and must never be reused: files packed
/// before the quantised `f32` weight lane was removed carry id 7 as
/// `MATRIX32`, and id 8 was the `MARKOV` section of a fused character
/// Markov plane that no trainer ever wrote. [`UrlmFile::open`] still
/// bounds-checks and checksums a retired section like every section;
/// the loader never reads it. New ids start at 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// JSON metadata: training config, extractor/plane meta, counts.
    Meta = 1,
    /// Interned vocabulary: concatenated feature-name bytes.
    Arena = 2,
    /// Interned vocabulary: per-feature arena bounds (`u32`).
    Bounds = 3,
    /// Interned vocabulary: precomputed FNV-1a hashes (`u64`).
    Hashes = 4,
    /// Interned vocabulary: open-addressing probe table (`u32`).
    Table = 5,
    /// Dense language-major weight matrix (`f64`).
    Matrix = 6,
    /// The five per-language training-time models (tagged codec bytes).
    Models = 9,
}

impl SectionId {
    /// Human-readable section name for diagnostics and `urlid inspect`.
    pub fn name(id: u32) -> &'static str {
        match id {
            1 => "META",
            2 => "ARENA",
            3 => "BOUNDS",
            4 => "HASHES",
            5 => "TABLE",
            6 => "MATRIX",
            7 => "MATRIX32", // retired; see `SectionId`
            8 => "MARKOV",   // retired; see `SectionId`
            9 => "MODELS",
            _ => "UNKNOWN",
        }
    }
}

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline]
fn xxh_merge(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

#[inline]
fn read_u64_le(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte window"))
}

/// XXH64 (Collet's xxHash, 64-bit variant), implemented from the
/// published spec — the container's per-section checksum. Matches the
/// reference test vectors (see this module's tests); no external crate
/// involved.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut h: u64;
    let mut rem: &[u8] = data;
    if data.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2);
        let mut v2 = seed.wrapping_add(PRIME_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME_1);
        let mut chunks = rem.chunks_exact(32);
        for chunk in &mut chunks {
            v1 = xxh_round(v1, read_u64_le(&chunk[0..8]));
            v2 = xxh_round(v2, read_u64_le(&chunk[8..16]));
            v3 = xxh_round(v3, read_u64_le(&chunk[16..24]));
            v4 = xxh_round(v4, read_u64_le(&chunk[24..32]));
        }
        rem = chunks.remainder();
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xxh_merge(h, v1);
        h = xxh_merge(h, v2);
        h = xxh_merge(h, v3);
        h = xxh_merge(h, v4);
    } else {
        h = seed.wrapping_add(PRIME_5);
    }
    h = h.wrapping_add(data.len() as u64);
    while rem.len() >= 8 {
        h ^= xxh_round(0, read_u64_le(rem));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
        rem = &rem[8..];
    }
    if rem.len() >= 4 {
        let lane = u32::from_le_bytes(rem[..4].try_into().expect("4-byte window")) as u64;
        h ^= lane.wrapping_mul(PRIME_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        rem = &rem[4..];
    }
    for &byte in rem {
        h ^= (byte as u64).wrapping_mul(PRIME_5);
        h = h.rotate_left(11).wrapping_mul(PRIME_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME_3);
    h ^= h >> 32;
    h
}

/// One row of the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// Section identifier (see [`SectionId`]).
    pub id: u32,
    /// Byte offset of the section start (page-aligned).
    pub offset: u64,
    /// Unpadded section length in bytes.
    pub len: u64,
    /// XXH64 of the section bytes (seed 0).
    pub checksum: u64,
}

/// Builder that lays sections out on page boundaries and publishes the
/// file with a write-to-temporary + atomic-rename dance.
#[derive(Debug, Default)]
pub struct UrlmWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl UrlmWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a section. Sections land in the file in push order.
    pub fn push(&mut self, id: SectionId, bytes: Vec<u8>) {
        self.sections.push((id as u32, bytes));
    }

    /// Serialise header + sections into one page-aligned byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let page = URLM_PAGE as usize;
        let table_len = HEADER_FIXED + self.sections.len() * ENTRY_BYTES;
        let mut out = Vec::with_capacity(table_len.next_multiple_of(page));
        out.extend_from_slice(&URLM_MAGIC);
        out.extend_from_slice(&ENDIAN_TAG.to_ne_bytes());
        out.extend_from_slice(&URLM_VERSION.to_ne_bytes());
        out.extend_from_slice(&URLM_PAGE.to_ne_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_ne_bytes());
        // Lay the sections out after the header page(s), then come back
        // and fill in the table.
        let mut offset = table_len.next_multiple_of(page);
        let mut entries = Vec::with_capacity(self.sections.len());
        for (id, bytes) in &self.sections {
            entries.push(Section {
                id: *id,
                offset: offset as u64,
                len: bytes.len() as u64,
                checksum: xxh64(bytes, 0),
            });
            offset = (offset + bytes.len()).next_multiple_of(page);
        }
        for e in &entries {
            out.extend_from_slice(&e.id.to_ne_bytes());
            out.extend_from_slice(&0u32.to_ne_bytes());
            out.extend_from_slice(&e.offset.to_ne_bytes());
            out.extend_from_slice(&e.len.to_ne_bytes());
            out.extend_from_slice(&e.checksum.to_ne_bytes());
        }
        for (e, (_, bytes)) in entries.iter().zip(&self.sections) {
            out.resize(e.offset as usize, 0);
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Write the container to `path` atomically: the bytes go to a
    /// sibling temporary file of this write's own (`<path>.<pid>.<n>.tmp`),
    /// are synced, and only then renamed over the destination, whose
    /// directory is synced last — a crash mid-write can never leave a
    /// torn `.urlm` behind, and concurrent writers to one path never
    /// share a staging file. Returns the file size in bytes.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<u64> {
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
        tmp.push(format!(".{}.{n}.tmp", std::process::id()));
        let tmp = PathBuf::from(tmp);
        let mut f = std::fs::File::create_new(&tmp)?;
        let published = f
            .write_all(&bytes)
            .and_then(|()| f.sync_all())
            .and_then(|()| std::fs::rename(&tmp, path));
        if published.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        published?;
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(bytes.len() as u64)
    }
}

/// Sniff whether `bytes` begin with the `.urlm` magic.
pub fn looks_binary(bytes: &[u8]) -> bool {
    bytes.len() >= URLM_MAGIC.len() && bytes[..URLM_MAGIC.len()] == URLM_MAGIC
}

fn header_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_ne_bytes(bytes[at..at + 4].try_into().expect("4-byte window"))
}

fn header_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(bytes[at..at + 8].try_into().expect("8-byte window"))
}

/// A validated, mapped `.urlm` file: the header has been checked, every
/// section bounds/alignment-verified and checksummed. Section accessors
/// hand out zero-copy [`Lane`] views that keep the mapping alive.
#[derive(Debug)]
pub struct UrlmFile {
    map: Arc<Mapping>,
    sections: Vec<Section>,
    version: u32,
    page: u32,
}

impl UrlmFile {
    /// Map and validate a `.urlm` file.
    pub fn open(path: impl AsRef<Path>) -> Result<UrlmFile, PersistenceError> {
        let map = Mapping::open(path.as_ref())?;
        Self::from_mapping(Arc::new(map))
    }

    /// Validate an already-acquired mapping (the in-memory test path).
    pub fn from_mapping(map: Arc<Mapping>) -> Result<UrlmFile, PersistenceError> {
        let bytes = map.bytes();
        if bytes.len() < HEADER_FIXED {
            return Err(PersistenceError::Truncated(format!(
                "file is {} bytes, smaller than the {HEADER_FIXED}-byte header",
                bytes.len()
            )));
        }
        if !looks_binary(bytes) {
            return Err(PersistenceError::BadMagic);
        }
        if header_u32(bytes, 8) != ENDIAN_TAG {
            return Err(PersistenceError::Endianness);
        }
        let version = header_u32(bytes, 12);
        if version != URLM_VERSION {
            return Err(PersistenceError::UnsupportedVersion(version));
        }
        let page = header_u32(bytes, 16);
        if page == 0 || !page.is_power_of_two() {
            return Err(PersistenceError::Corrupt(format!(
                "page size {page} is not a power of two"
            )));
        }
        let count = header_u32(bytes, 20);
        if count > MAX_SECTIONS {
            return Err(PersistenceError::Corrupt(format!(
                "section count {count} exceeds the format maximum {MAX_SECTIONS}"
            )));
        }
        let table_len = HEADER_FIXED + count as usize * ENTRY_BYTES;
        if bytes.len() < table_len {
            return Err(PersistenceError::Truncated(format!(
                "file is {} bytes but the section table needs {table_len}",
                bytes.len()
            )));
        }
        let mut sections = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let at = HEADER_FIXED + i * ENTRY_BYTES;
            let section = Section {
                id: header_u32(bytes, at),
                offset: header_u64(bytes, at + 8),
                len: header_u64(bytes, at + 16),
                checksum: header_u64(bytes, at + 24),
            };
            let name = SectionId::name(section.id);
            if !section.offset.is_multiple_of(page as u64) {
                return Err(PersistenceError::Misaligned(format!(
                    "section {name} starts at {} which is not {page}-byte aligned",
                    section.offset
                )));
            }
            let end = section
                .offset
                .checked_add(section.len)
                .filter(|&end| end <= bytes.len() as u64)
                .ok_or_else(|| {
                    PersistenceError::Truncated(format!(
                        "section {name} [{}, +{}) exceeds the {}-byte file",
                        section.offset,
                        section.len,
                        bytes.len()
                    ))
                })?;
            let window = &bytes[section.offset as usize..end as usize];
            let actual = xxh64(window, 0);
            if actual != section.checksum {
                return Err(PersistenceError::ChecksumMismatch(format!(
                    "section {name}: stored {:016x}, computed {actual:016x}",
                    section.checksum
                )));
            }
            sections.push(section);
        }
        Ok(UrlmFile {
            map,
            sections,
            version,
            page,
        })
    }

    /// The section table, in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Look up a section by id.
    pub fn section(&self, id: SectionId) -> Option<&Section> {
        self.sections.iter().find(|s| s.id == id as u32)
    }

    /// Borrow a section's bytes.
    pub fn section_bytes(&self, id: SectionId) -> Option<&[u8]> {
        self.section(id)
            .map(|s| &self.map.bytes()[s.offset as usize..(s.offset + s.len) as usize])
    }

    /// A zero-copy typed view of a section that must be present.
    pub fn lane<T: Pod>(&self, id: SectionId) -> Result<Lane<T>, PersistenceError> {
        let section = self.section(id).ok_or_else(|| {
            PersistenceError::Corrupt(format!(
                "required section {} is missing",
                SectionId::name(id as u32)
            ))
        })?;
        Lane::view(&self.map, section.offset as usize, section.len as usize).map_err(|e| {
            PersistenceError::Misaligned(format!("section {}: {e}", SectionId::name(id as u32)))
        })
    }

    /// Format version of the file.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Page size the sections are aligned to.
    pub fn page(&self) -> u32 {
        self.page
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    /// `"mmap"` or `"heap"` — how the bytes are held.
    pub fn backend(&self) -> &'static str {
        self.map.backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_matches_the_reference_vectors() {
        // Published xxHash test vectors (seed 0 and a non-zero seed).
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(xxh64(b"", 1), 0xD5AF_BA13_36A3_BE4B);
    }

    fn sample_writer() -> UrlmWriter {
        let mut w = UrlmWriter::new();
        w.push(SectionId::Meta, b"{\"hello\":1}".to_vec());
        w.push(SectionId::Arena, (0u8..=255).cycle().take(5000).collect());
        w.push(SectionId::Models, vec![9, 9, 9]);
        w
    }

    #[test]
    fn container_round_trips_and_aligns_sections() {
        let bytes = sample_writer().to_bytes();
        let file = UrlmFile::from_mapping(Arc::new(Mapping::from_bytes(&bytes))).unwrap();
        assert_eq!(file.version(), URLM_VERSION);
        assert_eq!(file.page(), URLM_PAGE);
        assert_eq!(file.sections().len(), 3);
        for s in file.sections() {
            assert_eq!(s.offset % URLM_PAGE as u64, 0, "{}", SectionId::name(s.id));
        }
        assert_eq!(
            file.section_bytes(SectionId::Meta).unwrap(),
            b"{\"hello\":1}"
        );
        assert_eq!(file.section_bytes(SectionId::Models).unwrap(), &[9, 9, 9]);
        assert_eq!(file.section_bytes(SectionId::Arena).unwrap().len(), 5000);
        assert!(file.section(SectionId::Matrix).is_none());
        let arena: Lane<u8> = file.lane(SectionId::Arena).unwrap();
        assert!(arena.is_mapped());
        assert_eq!(arena.len(), 5000);
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let good = sample_writer().to_bytes();

        let open = |bytes: &[u8]| UrlmFile::from_mapping(Arc::new(Mapping::from_bytes(bytes)));

        // Truncated to a partial header.
        assert!(matches!(
            open(&good[..10]),
            Err(PersistenceError::Truncated(_))
        ));
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(open(&bad), Err(PersistenceError::BadMagic)));
        // Foreign endianness.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&ENDIAN_TAG.swap_bytes().to_ne_bytes());
        assert!(matches!(open(&bad), Err(PersistenceError::Endianness)));
        // Future version.
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&99u32.to_ne_bytes());
        assert!(matches!(
            open(&bad),
            Err(PersistenceError::UnsupportedVersion(99))
        ));
        // A flipped payload byte fails the section checksum.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(matches!(
            open(&bad),
            Err(PersistenceError::ChecksumMismatch(_))
        ));
        // A misaligned section offset in the table.
        let mut bad = good.clone();
        let entry = HEADER_FIXED + 8;
        let off = header_u64(&bad, entry) + 1;
        bad[entry..entry + 8].copy_from_slice(&off.to_ne_bytes());
        assert!(matches!(open(&bad), Err(PersistenceError::Misaligned(_))));
        // An out-of-file section offset (page-aligned so it passes the
        // alignment check and dies on bounds).
        let mut bad = good.clone();
        let off = (bad.len() as u64).next_multiple_of(URLM_PAGE as u64) + URLM_PAGE as u64;
        bad[entry..entry + 8].copy_from_slice(&off.to_ne_bytes());
        assert!(matches!(open(&bad), Err(PersistenceError::Truncated(_))));
        // Truncated mid-payload: the last section's bounds now overrun.
        assert!(matches!(
            open(&good[..good.len() - 2]),
            Err(PersistenceError::Truncated(_))
        ));
    }

    /// Siblings of `path` left in its directory: any file whose name
    /// extends `path`'s (a staging file of any naming scheme).
    fn leftover_siblings(path: &Path) -> Vec<String> {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&name) && *n != name)
            .collect()
    }

    #[test]
    fn atomic_write_publishes_no_tmp_file() {
        let dir = std::env::temp_dir().join("urlid-format-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.urlm");
        let written = sample_writer().write_to(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        assert_eq!(leftover_siblings(&path), Vec::<String>::new());
        let file = UrlmFile::open(&path).unwrap();
        assert_eq!(file.sections().len(), 3);
        #[cfg(target_os = "linux")]
        if std::env::var_os("URLID_NO_MMAP").is_none() {
            assert_eq!(file.backend(), "mmap");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_writes_to_one_path_all_publish_a_whole_file() {
        let dir = std::env::temp_dir().join("urlid-format-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.urlm");
        // Differently sized files, so a file torn between two writers
        // cannot pass validation.
        let writers: Vec<UrlmWriter> = (0..8)
            .map(|i| {
                let mut w = sample_writer();
                w.push(SectionId::Table, vec![i as u8; 1000 + 5000 * i]);
                w
            })
            .collect();
        for _ in 0..10 {
            let start = std::sync::Barrier::new(writers.len());
            std::thread::scope(|s| {
                for w in &writers {
                    let (path, start) = (&path, &start);
                    s.spawn(move || {
                        start.wait();
                        w.write_to(path).expect("every write publishes")
                    });
                }
            });
            let published = std::fs::read(&path).unwrap();
            assert!(writers.iter().any(|w| w.to_bytes() == published));
            UrlmFile::open(&path).expect("the published file validates");
            assert_eq!(leftover_siblings(&path), Vec::<String>::new());
        }
        std::fs::remove_file(&path).ok();
    }
}
