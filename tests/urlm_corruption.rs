//! Corruption suite for the `.urlm` binary model format.
//!
//! Every way a model file can rot on disk — truncation, a flipped
//! payload byte, the wrong magic, a foreign endianness, an unsupported
//! version, a misaligned section offset, a torn write — must surface as
//! the matching typed [`PersistenceError`], never as a panic, a hang,
//! or (worst) a model that loads and scores garbage.
//!
//! Byte surgery below relies on the container layout (fixed by the
//! format): magic `[0..8]`, endian tag `[8..12]`, version `[12..16]`,
//! page `[16..20]`, section count `[20..24]`, then 32-byte section
//! entries (`id`, pad, `offset` at `+8`, `len`, `xxh64`).

use std::path::{Path, PathBuf};
use urlid::prelude::*;

const HEADER_FIXED: usize = 24;

/// One packed NB/Words model shared by every corruption.
fn packed_model() -> (PathBuf, LanguageIdentifier) {
    let mut generator = UrlGenerator::new(4009);
    let training = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    let config = TrainingConfig::new(FeatureSetKind::Words, Algorithm::NaiveBayes);
    let bundle = ModelBundle::train(&training, &config).expect("train");
    let dir = std::env::temp_dir().join(format!("urlid-urlm-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.urlm");
    bundle.pack(&path).expect("pack");
    let reference = ModelSource::detect(&path)
        .and_then(|s| s.load_identifier())
        .expect("pristine load");
    (path, reference)
}

/// Write a mutated copy next to `path` and try to load it.
fn load_mutated(
    path: &Path,
    name: &str,
    mutate: impl FnOnce(&mut Vec<u8>),
) -> Result<(), PersistenceError> {
    let mut bytes = std::fs::read(path).unwrap();
    mutate(&mut bytes);
    let mutated = path.with_file_name(name);
    std::fs::write(&mutated, &bytes).unwrap();
    ModelSource::detect(&mutated)
        .and_then(|s| s.load_identifier())
        .map(|_| ())
}

#[test]
fn every_corruption_is_a_typed_error_and_never_a_panic() {
    let (path, _reference) = packed_model();

    let truncated_header = load_mutated(&path, "header.urlm", |b| b.truncate(10));
    assert!(
        matches!(truncated_header, Err(PersistenceError::Truncated(_))),
        "10-byte file: {truncated_header:?}"
    );

    let bad_magic = load_mutated(&path, "magic.urlm", |b| b[0] = b'P');
    assert!(
        matches!(bad_magic, Err(PersistenceError::BadMagic)),
        "wrong magic: {bad_magic:?}"
    );

    let foreign_endian = load_mutated(&path, "endian.urlm", |b| b[8..12].reverse());
    assert!(
        matches!(foreign_endian, Err(PersistenceError::Endianness)),
        "swapped endian tag: {foreign_endian:?}"
    );

    let future_version = load_mutated(&path, "version.urlm", |b| {
        b[12..16].copy_from_slice(&99u32.to_ne_bytes());
    });
    assert!(
        matches!(
            future_version,
            Err(PersistenceError::UnsupportedVersion(99))
        ),
        "version 99: {future_version:?}"
    );

    let flipped_payload = load_mutated(&path, "flip.urlm", |b| {
        let last = b.len() - 1;
        b[last] ^= 0x01;
    });
    assert!(
        matches!(flipped_payload, Err(PersistenceError::ChecksumMismatch(_))),
        "flipped payload byte: {flipped_payload:?}"
    );

    // Nudge the first section's offset off its page boundary: the
    // entry itself is intact, so this must be caught by the alignment
    // validation, not by a checksum of the table (there is none).
    let misaligned = load_mutated(&path, "misaligned.urlm", |b| {
        let at = HEADER_FIXED + 8;
        let mut offset = u64::from_ne_bytes(b[at..at + 8].try_into().unwrap());
        offset += 1;
        b[at..at + 8].copy_from_slice(&offset.to_ne_bytes());
    });
    assert!(
        matches!(misaligned, Err(PersistenceError::Misaligned(_))),
        "off-page section offset: {misaligned:?}"
    );

    // A torn write (the classic power-cut half-file). The atomic
    // tmp-then-rename publish makes this unreachable through `pack`,
    // but the reader must still reject one cleanly.
    let torn = load_mutated(&path, "torn.urlm", |b| {
        let half = b.len() * 3 / 5;
        b.truncate(half);
    });
    assert!(
        matches!(
            torn,
            Err(PersistenceError::Truncated(_)) | Err(PersistenceError::ChecksumMismatch(_))
        ),
        "torn write: {torn:?}"
    );
}

#[test]
fn json_bytes_behind_a_urlm_extension_are_rejected() {
    let (path, _reference) = packed_model();
    let fake = path.with_file_name("fake.urlm");
    std::fs::write(&fake, b"{\"config\": {}}").unwrap();
    let err = ModelSource::detect(&fake);
    assert!(
        matches!(err, Err(PersistenceError::BadMagic)),
        ".urlm extension without magic: {err:?}"
    );
}

#[test]
fn heap_fallback_scores_identically_to_the_mapped_path() {
    let (path, reference) = packed_model();
    // `URLID_NO_MMAP=1` forces the aligned-heap fallback the non-unix
    // targets use; it must decode the same file to the same scores.
    std::env::set_var("URLID_NO_MMAP", "1");
    let heap_loaded = ModelSource::detect(&path).and_then(|s| s.load_identifier());
    std::env::remove_var("URLID_NO_MMAP");
    let heap_loaded = heap_loaded.expect("heap-fallback load");
    let mut generator = UrlGenerator::new(5005);
    let profile = urlid::corpus::DatasetProfile::web_crawl();
    for lang in ALL_LANGUAGES {
        for url in generator.generate_many(lang, &profile, 5) {
            assert_eq!(
                reference.classifier_set().score_all(&url),
                heap_loaded.classifier_set().score_all(&url),
                "heap fallback diverges on {url}"
            );
        }
    }
}
