//! Model persistence: the `.urlm` zero-copy binary format, the one
//! on-disk form of a trained model.
//!
//! The paper's crawler scenario trains once on hundreds of thousands of
//! labelled URLs and then classifies billions of frontier URLs; retraining
//! at every crawler start-up would be wasteful. [`ModelBundle`] is a
//! trained identifier before it is persisted: the fitted feature
//! extractor plus the five per-language models and the training
//! configuration.
//!
//! [`ModelBundle::pack`] writes it as a `.urlm` file ([`crate::format`]):
//! the compiled plane's runtime arrays laid out page-aligned, so loading
//! is mmap + validate + cast, plus a MODELS section that carries the
//! training-time models bit-exactly for the interpreted oracle.
//! [`ModelSource`] loads it back. The `binary_differential` suite
//! asserts bit-identical scores between the in-memory bundle and its
//! `.urlm` load for every recipe, through the compiled plane and the
//! interpreted oracle alike.
//!
//! `.urlm` is a native-endian host format; the portable artifact is
//! the training corpus, from which `urlid train` rebuilds a model
//! bit-deterministically.
//!
//! Only single-configuration models are persistable (the ccTLD baselines
//! need no persistence, and the Section 5.6 combinations can be rebuilt
//! from two bundles).

use crate::format::{looks_binary, SectionId, UrlmFile, UrlmWriter, URLM_MAGIC};
use crate::identifier::LanguageIdentifier;
use crate::trainer::{
    train_pipeline, train_pipeline_traced, AnyExtractor, AnyModel, TrainOptions, TrainTrace,
    TrainingConfig,
};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use urlid_classifiers::{
    Algorithm, ByteReader, ByteWriter, CodecError, LanguageClassifierSet, PlaneMeta, PlanePayload,
    VectorClassifier,
};
use urlid_features::{
    CompiledTransform, CustomFeatureExtractor, Dataset, FeatureExtractor, InternedVocabulary,
    RestoredExtractor, TransformMeta,
};
use urlid_lexicon::ALL_LANGUAGES;

/// Errors that can occur when saving or loading a model: I/O problems,
/// the META section's JSON, and the `.urlm` container's corruption
/// taxonomy — every way a binary file can fail validation is
/// a distinct variant, so callers (and tests) can tell a truncated
/// download from a bit-flipped sector from a version skew.
#[derive(Debug)]
pub enum PersistenceError {
    /// Filesystem error.
    Io(io::Error),
    /// (De)serialisation error of the META section's JSON document.
    Serde(serde_json::Error),
    /// The configuration is not persistable (ccTLD baselines).
    NotPersistable(Algorithm),
    /// The file does not start with the `.urlm` magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The file was written on a machine of the other endianness.
    Endianness,
    /// The file ends before a declared structure does.
    Truncated(String),
    /// A section's checksum does not match its bytes.
    ChecksumMismatch(String),
    /// A section offset violates the format's alignment guarantees.
    Misaligned(String),
    /// Structurally invalid content in an otherwise well-formed
    /// container (bad cross-references, impossible cardinalities, …).
    Corrupt(String),
}

impl std::fmt::Display for PersistenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistenceError::Io(e) => write!(f, "i/o error: {e}"),
            PersistenceError::Serde(e) => write!(f, "serialisation error: {e}"),
            PersistenceError::NotPersistable(a) => {
                write!(f, "{a} needs no trained model and cannot be persisted")
            }
            PersistenceError::BadMagic => write!(f, "not a .urlm model file (bad magic)"),
            PersistenceError::UnsupportedVersion(v) => {
                write!(f, "unsupported .urlm format version {v}")
            }
            PersistenceError::Endianness => {
                write!(
                    f,
                    ".urlm file was written on a machine of the other endianness"
                )
            }
            PersistenceError::Truncated(what) => write!(f, "truncated .urlm file: {what}"),
            PersistenceError::ChecksumMismatch(what) => {
                write!(f, ".urlm checksum mismatch: {what}")
            }
            PersistenceError::Misaligned(what) => write!(f, ".urlm misalignment: {what}"),
            PersistenceError::Corrupt(what) => write!(f, "corrupt model: {what}"),
        }
    }
}

impl std::error::Error for PersistenceError {}

impl From<io::Error> for PersistenceError {
    fn from(e: io::Error) -> Self {
        PersistenceError::Io(e)
    }
}

impl From<serde_json::Error> for PersistenceError {
    fn from(e: serde_json::Error) -> Self {
        PersistenceError::Serde(e)
    }
}

impl From<CodecError> for PersistenceError {
    fn from(e: CodecError) -> Self {
        PersistenceError::Corrupt(e.to_string())
    }
}

/// A trained model: one fitted extractor + five binary models.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    config: TrainingConfig,
    extractor: AnyExtractor,
    models: Vec<AnyModel>,
}

impl ModelBundle {
    /// Train a bundle (same pipeline as [`crate::trainer::train_classifier_set`],
    /// but keeping the concrete models so they can be serialised).
    pub fn train(training: &Dataset, config: &TrainingConfig) -> Result<Self, PersistenceError> {
        Self::train_with(training, config, TrainOptions::serial())
    }

    /// [`ModelBundle::train`] with explicit parallelism options: the
    /// map-reduce pipeline of [`crate::trainer`]. The packed `.urlm`
    /// bytes are identical at any job and shard count.
    pub fn train_with(
        training: &Dataset,
        config: &TrainingConfig,
        opts: TrainOptions,
    ) -> Result<Self, PersistenceError> {
        if matches!(config.algorithm, Algorithm::CcTld | Algorithm::CcTldPlus) {
            return Err(PersistenceError::NotPersistable(config.algorithm));
        }
        let (extractor, models) = train_pipeline(training, config, opts);
        Ok(Self {
            config: *config,
            extractor,
            models,
        })
    }

    /// [`ModelBundle::train_with`] plus the training observability
    /// trace: per-shard map timings of the fit and vectorize phases,
    /// per-language model timings, and — for Maximum Entropy — the
    /// per-iteration GIS convergence deltas. The instrumentation is
    /// purely observational; the bundle is bit-identical to the one
    /// [`ModelBundle::train_with`] returns.
    pub fn train_traced(
        training: &Dataset,
        config: &TrainingConfig,
        opts: TrainOptions,
    ) -> Result<(Self, TrainTrace), PersistenceError> {
        if matches!(config.algorithm, Algorithm::CcTld | Algorithm::CcTldPlus) {
            return Err(PersistenceError::NotPersistable(config.algorithm));
        }
        let (extractor, models, trace) = train_pipeline_traced(training, config, opts);
        Ok((
            Self {
                config: *config,
                extractor,
                models,
            },
            trace,
        ))
    }

    /// The training configuration stored in the bundle.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Convert into a ready-to-use [`LanguageIdentifier`] on the
    /// single-pass scoring pipeline (one shared extractor, five vector
    /// models).
    ///
    /// The identifier's classifier set is **compiled** on the way out,
    /// exactly as [`ModelBundle::pack`] compiles it, while the
    /// training-time models stay behind it as the interpreted oracle.
    pub fn into_identifier(self) -> LanguageIdentifier {
        let extractor = Arc::new(self.extractor);
        let mut per_lang: Vec<Option<AnyModel>> = self.models.into_iter().map(Some).collect();
        let mut set = LanguageClassifierSet::build_vector(Arc::clone(&extractor) as _, |lang| {
            let model = per_lang[lang.index()]
                .take()
                .expect("bundle has one model per language");
            Box::new(model) as Box<dyn VectorClassifier>
        });
        set.compile();
        LanguageIdentifier::from_classifier_set(set, self.config)
    }

    /// Pack the bundle into the `.urlm` zero-copy binary format at
    /// `path` (written atomically: temporary file + rename). Returns the
    /// file size in bytes.
    ///
    /// The file's dense sections are the *compiled* representation —
    /// the same interned vocabulary and weight matrices
    /// [`ModelBundle::into_identifier`] builds — so a load skips plane
    /// compilation. The training-time models are carried along in a
    /// compact tagged codec (the MODELS section), keeping the
    /// interpreted oracle scoring path available on loaded sets.
    pub fn pack(&self, path: impl AsRef<Path>) -> Result<u64, PersistenceError> {
        Ok(self.urlm_writer()?.write_to(path)?)
    }

    /// The exact `.urlm` image [`ModelBundle::pack`] writes, in memory.
    /// Packing is deterministic, so two bundles trained alike compare
    /// equal here byte for byte.
    pub fn to_urlm_bytes(&self) -> Result<Vec<u8>, PersistenceError> {
        Ok(self.urlm_writer()?.to_bytes())
    }

    /// Lay the bundle out as `.urlm` sections.
    fn urlm_writer(&self) -> Result<UrlmWriter, PersistenceError> {
        // Serialise the training-time models first, from the bundle
        // itself (into_identifier consumes a clone).
        let mut models = ByteWriter::new();
        models.write_u32(self.models.len() as u32);
        for model in &self.models {
            model.write_binary(&mut models);
        }

        // Compile the plane exactly as the load path would.
        let identifier = self.clone().into_identifier();
        let set = identifier.classifier_set();
        let plane = set.plane().ok_or_else(|| {
            PersistenceError::Corrupt("trained set did not produce a compiled plane".into())
        })?;
        let mut payload = PlanePayload::default();
        plane.serialize_into(&mut payload);

        let extractor = match &self.extractor {
            // The custom extractor travels whole; its compiled table is
            // rebuilt at load.
            AnyExtractor::Custom(c) => ExtractorMeta::Custom(c.clone()),
            _ => match plane.transform().and_then(TransformMeta::of) {
                Some(tm) => ExtractorMeta::Compiled(tm),
                None => {
                    return Err(PersistenceError::Corrupt(
                        "word/trigram extractor failed to compile its transform".into(),
                    ))
                }
            },
        };
        let vocab = plane
            .transform()
            .and_then(CompiledTransform::feature_vocabulary);
        let vocab_len = vocab.map_or(0, InternedVocabulary::len);
        let meta = MetaDoc {
            config: self.config,
            extractor,
            plane: payload.meta.clone(),
            vocab_len,
        };

        let mut writer = UrlmWriter::new();
        writer.push(SectionId::Meta, serde_json::to_string(&meta)?.into_bytes());
        if let Some(vocab) = vocab {
            let parts = vocab.parts();
            writer.push(SectionId::Arena, parts.arena.to_vec());
            writer.push(SectionId::Bounds, u32_bytes(parts.bounds));
            writer.push(SectionId::Hashes, u64_bytes(parts.hashes));
            writer.push(SectionId::Table, u32_bytes(parts.table));
        }
        writer.push(SectionId::Matrix, payload.matrix);
        writer.push(SectionId::Models, models.into_bytes());
        Ok(writer)
    }
}

/// Native-endian byte image of a `u32` section body. (Mapped lanes
/// reinterpret file bytes natively; the endian tag in the header keeps
/// foreign-endian files out.)
fn u32_bytes(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_ne_bytes());
    }
    out
}

/// Native-endian byte image of a `u64` section body.
fn u64_bytes(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_ne_bytes());
    }
    out
}

/// The META section document: everything about a packed model that is
/// *not* a dense array — training config, the extractor's serialisable
/// half, the plane's scalar metadata, and the cardinalities `urlid
/// inspect` reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MetaDoc {
    config: TrainingConfig,
    extractor: ExtractorMeta,
    plane: PlaneMeta,
    vocab_len: usize,
}

/// The serialisable half of the extractor. Word/trigram extractors
/// persist only their [`TransformMeta`] — the vocabulary itself lives
/// in the mapped sections; the custom extractor (its trained
/// dictionaries) travels whole, and its compiled table is rebuilt from
/// it at load.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum ExtractorMeta {
    Compiled(TransformMeta),
    Custom(CustomFeatureExtractor),
}

/// A `.urlm` model file — the one way every load path (CLI boot,
/// `/admin/reload`, tools) resolves "some path the operator gave us"
/// into a servable identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSource {
    path: PathBuf,
}

impl ModelSource {
    /// Check that the file at `path` starts with the `.urlm` magic.
    ///
    /// A file without it is [`PersistenceError::BadMagic`], whatever its
    /// extension — a JSON model written before `.urlm` became the only
    /// model file included.
    pub fn detect(path: impl Into<PathBuf>) -> Result<Self, PersistenceError> {
        use std::io::Read as _;
        let path = path.into();
        let mut prefix = Vec::with_capacity(URLM_MAGIC.len());
        std::fs::File::open(&path)?
            .take(URLM_MAGIC.len() as u64)
            .read_to_end(&mut prefix)?;
        if !looks_binary(&prefix) {
            return Err(PersistenceError::BadMagic);
        }
        Ok(Self { path })
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Load a ready-to-serve identifier: map and validate the file,
    /// rebuild the vocabulary and plane over zero-copy views of its
    /// sections, and decode the five training-time models. The result
    /// scores bit-identically to the bundle that was packed (the
    /// `binary_differential` suite's contract).
    pub fn load_identifier(&self) -> Result<LanguageIdentifier, PersistenceError> {
        load_binary(&self.path)
    }
}

/// Parse the META section's JSON document.
fn meta_from_bytes(bytes: &[u8]) -> Result<MetaDoc, PersistenceError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| PersistenceError::Corrupt(format!("META section is not UTF-8: {e}")))?;
    Ok(serde_json::from_str(text)?)
}

/// Load a `.urlm` file into a serving identifier: map, validate,
/// rebuild the vocabulary and plane over zero-copy views, decode the
/// five training-time models.
fn load_binary(path: &Path) -> Result<LanguageIdentifier, PersistenceError> {
    let file = UrlmFile::open(path)?;
    let meta_bytes = file
        .section_bytes(SectionId::Meta)
        .ok_or_else(|| PersistenceError::Corrupt("META section is missing".into()))?;
    let meta = meta_from_bytes(meta_bytes)?;

    // Extractor + compiled transform.
    let (extractor, transform): (Arc<dyn FeatureExtractor>, Option<CompiledTransform>) =
        match meta.extractor {
            ExtractorMeta::Compiled(tm) => {
                let vocab = InternedVocabulary::from_lanes(
                    file.lane(SectionId::Arena)?,
                    file.lane(SectionId::Bounds)?,
                    file.lane(SectionId::Hashes)?,
                    file.lane(SectionId::Table)?,
                )
                .map_err(PersistenceError::Corrupt)?;
                if vocab.len() != meta.vocab_len {
                    return Err(PersistenceError::Corrupt(format!(
                        "vocabulary has {} features but META declares {}",
                        vocab.len(),
                        meta.vocab_len
                    )));
                }
                let transform = tm.into_transform(vocab);
                (
                    Arc::new(RestoredExtractor::new(transform.clone())),
                    Some(transform),
                )
            }
            ExtractorMeta::Custom(custom) => {
                let transform = custom.compile_transform();
                (Arc::new(custom), transform)
            }
        };

    // The scoring plane, over a zero-copy view of the mapped matrix.
    let matrix = file.lane(SectionId::Matrix)?;
    let plane = urlid_classifiers::CompiledPlane::from_bytes(transform, meta.plane, matrix)
        .map_err(PersistenceError::Corrupt)?;

    // The training-time models (the interpreted oracle path).
    let model_bytes = file
        .section_bytes(SectionId::Models)
        .ok_or_else(|| PersistenceError::Corrupt("MODELS section is missing".into()))?;
    let mut r = ByteReader::new(model_bytes);
    let count = r.read_u32("model count")? as usize;
    if count != ALL_LANGUAGES.len() {
        return Err(PersistenceError::Corrupt(format!(
            "MODELS section has {count} models, want {}",
            ALL_LANGUAGES.len()
        )));
    }
    let mut set = LanguageClassifierSet::with_extractor(extractor);
    for lang in ALL_LANGUAGES {
        let model = AnyModel::read_binary(&mut r)?;
        set.insert_model(lang, Box::new(model) as Box<dyn VectorClassifier>);
    }
    if !r.is_exhausted() {
        return Err(PersistenceError::Corrupt(format!(
            "MODELS section has {} trailing bytes",
            r.remaining()
        )));
    }
    set.install_plane(plane);
    Ok(LanguageIdentifier::from_classifier_set(set, meta.config))
}

/// Render a human-readable dump of a `.urlm` file: header, section
/// table with checksums, and the model cardinalities — the body of
/// `urlid inspect`.
pub fn inspect_model(path: impl AsRef<Path>) -> Result<String, PersistenceError> {
    use std::fmt::Write as _;
    let path = path.as_ref();
    let file = UrlmFile::open(path)?;
    let mut out = String::new();
    let _ = writeln!(out, "{}: urlm v{}", path.display(), file.version());
    let _ = writeln!(
        out,
        "  {} bytes, page {} bytes, {} sections, backend {}",
        file.file_len(),
        file.page(),
        file.sections().len(),
        file.backend()
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>10} {:>12}  xxh64",
        "section", "offset", "bytes"
    );
    for s in file.sections() {
        let _ = writeln!(
            out,
            "  {:<10} {:>10} {:>12}  {:016x}",
            SectionId::name(s.id),
            s.offset,
            s.len,
            s.checksum
        );
    }
    if let Some(meta_bytes) = file.section_bytes(SectionId::Meta) {
        let meta = meta_from_bytes(meta_bytes)?;
        let _ = writeln!(
            out,
            "  model: {:?} features × {:?}, dim {} (vocabulary {}), stride {}",
            meta.config.feature_set,
            meta.config.algorithm,
            meta.plane.dim,
            meta.vocab_len,
            meta.plane.stride,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use urlid_corpus::{odp_dataset, CorpusScale, UrlGenerator};
    use urlid_features::FeatureSetKind;
    use urlid_lexicon::ALL_LANGUAGES;

    fn tiny_training() -> Dataset {
        let mut g = UrlGenerator::new(21);
        odp_dataset(&mut g, CorpusScale::tiny()).train
    }

    #[test]
    fn bundle_agrees_with_directly_trained_identifier() {
        let training = tiny_training();
        let config = TrainingConfig::paper_best();
        let bundle = ModelBundle::train(&training, &config).unwrap();
        let direct = LanguageIdentifier::train(&training, &config);
        let from_bundle = bundle.clone().into_identifier();
        let mut g = UrlGenerator::new(23);
        let profile = urlid_corpus::DatasetProfile::odp();
        for lang in ALL_LANGUAGES {
            for url in g.generate_many(lang, &profile, 15) {
                assert_eq!(
                    direct.languages_of(&url),
                    from_bundle.languages_of(&url),
                    "{url}"
                );
            }
        }
    }

    #[test]
    fn cctld_is_not_persistable() {
        let training = tiny_training();
        let err = ModelBundle::train(
            &training,
            &TrainingConfig::new(FeatureSetKind::Words, Algorithm::CcTld),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PersistenceError::NotPersistable(Algorithm::CcTld)
        ));
        assert!(err.to_string().contains("ccTLD"));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("urlid-persistence-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn model_source_resolution_rules() {
        // A file without the magic is rejected whatever its extension:
        // JSON text, a JSON model's name, or nothing at all.
        let json: &[u8] = b"{\"this\": \"is json\"}";
        for (name, text) in [
            ("fake.urlm", json),
            ("model.json", json),
            ("empty.urlm", b""),
        ] {
            let path = temp_path(name);
            std::fs::write(&path, text).unwrap();
            let err = ModelSource::detect(&path).unwrap_err();
            assert!(matches!(err, PersistenceError::BadMagic), "{name}: {err}");
            assert_eq!(err.to_string(), "not a .urlm model file (bad magic)");
            std::fs::remove_file(&path).ok();
        }
        // `pack` writes exactly the in-memory image and reports its size.
        let path = temp_path("real.urlm");
        let bundle = ModelBundle::train(&tiny_training(), &TrainingConfig::paper_best()).unwrap();
        let bytes = bundle.pack(&path).unwrap();
        let image = bundle.to_urlm_bytes().unwrap();
        assert_eq!(bytes, image.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), image);
        let source = ModelSource::detect(&path).unwrap();
        assert_eq!(source.path(), path.as_path());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_reports_sections_and_cardinalities() {
        let path = temp_path("inspect.urlm");
        let bundle = ModelBundle::train(&tiny_training(), &TrainingConfig::paper_best()).unwrap();
        bundle.pack(&path).unwrap();
        let report = inspect_model(&path).unwrap();
        for section in [
            "META", "ARENA", "BOUNDS", "HASHES", "TABLE", "MATRIX", "MODELS",
        ] {
            assert!(report.contains(section), "missing {section} in:\n{report}");
        }
        assert!(
            !report.contains("MATRIX32"),
            "retired section packed:\n{report}"
        );
        assert!(report.contains("urlm v1"), "{report}");
        assert!(report.contains("NaiveBayes"), "{report}");
        std::fs::remove_file(&path).ok();
    }
}
