//! The compiled scoring plane: fused dense-weight inference.
//!
//! Training produces per-language, per-classifier structures optimised
//! for *fitting* — hash maps, per-model `Vec`s, trait objects. Scoring a
//! URL through them walks five independent models, each probing its own
//! storage per feature. This module is the runtime representation the
//! hot path uses instead (the Polynesia lesson from PAPERS.md: lay the
//! runtime out for the access pattern it serves):
//!
//! * the algorithms whose score is a function of dense per-feature data
//!   lower themselves through the [`CompileScorer`] trait into a
//!   [`Lowering`] — Naive Bayes and MaxEnt contribute one weight lane per
//!   feature, Relative Entropy two (the smoothed class distributions);
//! * `CompiledPlane` (crate-internal; reached through
//!   [`crate::LanguageClassifierSet::compile`]) interleaves the lowered
//!   languages' lanes into **one contiguous language-major matrix**
//!   (`matrix[j * stride ..]` is feature `j`'s row holding every
//!   language's lanes side by side), so scoring is a single pass over
//!   the URL's sparse vector with one cache-friendly row fetch per
//!   feature instead of five independent probes;
//! * the plane runs one of two kernels, picked by the trained algorithm:
//!   the *linear* kernel over NB/ME lanes (one chunked `acc += x · row`
//!   per feature) or the *entropy* kernel over RE lane pairs. The first
//!   language that lowers picks it. A `.urlm` model holds one algorithm
//!   for all five languages, so a trained model lowers whole.
//!
//! ## The correctness contract
//!
//! Lowering never re-derives a model — it copies the trained numbers
//! into the fused layout — and the fused pass replays **exactly the same
//! floating-point operations in exactly the same order** as the
//! interpreted scorers (each language's accumulator is its own chain, so
//! interleaving languages does not reassociate anything). Compiled
//! scores are therefore bit-identical to interpreted scores, which is
//! stronger than the 1e-12 the differential suite demands and is what
//! makes compiled *decisions* exactly equal to interpreted ones.
//!
//! Every other scorer stays interpreted inside a compiled set: decision
//! trees, k-NN, the Section 5.6 combination classifiers, the rank-order
//! and character Markov models of the paper's preliminary comparison,
//! ad-hoc test scorers, and any language whose algorithm needs the
//! kernel the plane did not pick. The set scores those through their
//! boxed scorers — the interpreted oracle itself, so their scores are
//! bit-identical by construction — while still extracting once through
//! the plane's arena-interned vocabulary.

use crate::lanes;
use crate::set::LanguageScorer;
use serde::{Deserialize, Serialize};
use urlid_features::{CompiledTransform, FeatureExtractor, SparseVector};
use urlid_mapped::Lane;

/// Lowering a trained model into the compiled plane's dense form.
///
/// Implemented by the algorithms whose score is a function of dense
/// per-feature data: Naive Bayes, Relative Entropy and MaxEnt. The plane
/// reaches implementations through
/// [`crate::VectorClassifier::as_compile`].
pub trait CompileScorer {
    /// Lower the trained model for a feature space of `dim` dimensions.
    /// Implementations pad their dense arrays to `dim` with the exact
    /// out-of-vocabulary defaults their interpreted `score` uses, so the
    /// fused pass needs no per-algorithm special cases.
    fn lower(&self, dim: usize) -> Lowering;
}

/// The dense form of one language's trained model.
#[derive(Debug, Clone)]
pub enum Lowering {
    /// `score = bias + Σ_j x_j · weights[j]` (Naive Bayes: per-feature
    /// log-likelihood ratios, `bias` the log prior ratio, `default` the
    /// pure-smoothing ratio of features outside the trained dimension).
    NaiveBayes {
        /// Per-feature log-ratio lane, padded to `dim` with `default`.
        weights: Vec<f64>,
        /// The log prior ratio the accumulator starts from.
        bias: f64,
        /// Log ratio of features beyond the lane length.
        default: f64,
    },
    /// `score = Σ_j x_j · weights[j] + slack_diff · max(c − Σ_j x_j, 0)`
    /// (MaxEnt/GIS: weight differences plus the slack-feature term).
    MaxEnt {
        /// Per-feature weight-difference lane (λ⁺ − λ⁻), padded with 0.
        weights: Vec<f64>,
        /// Slack-feature weight difference.
        slack_diff: f64,
        /// The GIS constant C.
        c: f64,
    },
    /// `score = D(p‖q_neg) − D(p‖q_pos)` over `p = x / ‖x‖₁` (Relative
    /// Entropy: the two smoothed class distributions, pre-clamped to
    /// `f64::MIN_POSITIVE` exactly as the interpreted lookup clamps).
    RelativeEntropy {
        /// Positive-class distribution lane, padded with `default_pos`.
        q_pos: Vec<f64>,
        /// Negative-class distribution lane, padded with `default_neg`.
        q_neg: Vec<f64>,
        /// Clamped default for features beyond the lane length.
        default_pos: f64,
        /// Clamped default for features beyond the lane length.
        default_neg: f64,
    },
}

impl Lowering {
    /// Split into the plan scalars and the dense lanes, in the order
    /// they sit within a feature row.
    fn into_parts(self) -> (PlanMeta, Vec<Vec<f64>>) {
        match self {
            Lowering::NaiveBayes {
                weights,
                bias,
                default,
            } => (PlanMeta::NaiveBayes { bias, default }, vec![weights]),
            Lowering::MaxEnt {
                weights,
                slack_diff,
                c,
            } => (PlanMeta::MaxEnt { slack_diff, c }, vec![weights]),
            Lowering::RelativeEntropy {
                q_pos,
                q_neg,
                default_pos,
                default_neg,
            } => (
                PlanMeta::RelativeEntropy {
                    default_pos,
                    default_neg,
                },
                vec![q_pos, q_neg],
            ),
        }
    }
}

/// The plane's accumulation kernel, picked by the trained algorithm.
#[derive(Debug, Clone)]
enum Kernel {
    /// No language lowered: the plane only extracts.
    None,
    /// Every lowered language is Naive Bayes or MaxEnt — one linear lane
    /// each, so the whole row accumulates as a single chunked
    /// `acc[k] += x · row[k]`. `defaults` is the out-of-vocabulary row
    /// (the NB pure-smoothing ratio per NB lane; `0.0` per ME lane,
    /// which leaves the accumulator bit-unchanged exactly like the
    /// interpreted skip, since `x` is finite and the chain never
    /// produces `-0.0`).
    Linear {
        /// Out-of-vocabulary weight row, one entry per lane.
        defaults: Vec<f64>,
    },
    /// Every lowered language is Relative Entropy — the per-feature
    /// `(q_pos, q_neg)` pair walk.
    Entropy {
        /// Out-of-vocabulary `(default_pos, default_neg)` row.
        defaults: Vec<f64>,
    },
}

impl Kernel {
    /// The one kernel `plans` run through, with its out-of-vocabulary
    /// row. Plans mixing linear and entropy lanes are refused: `build`
    /// never lowers both, so no trainer can write them.
    fn of(plans: &[PlanMeta; 5], offsets: &[usize; 5], stride: usize) -> Result<Kernel, String> {
        let mut defaults = vec![0.0f64; stride];
        let (mut linear, mut entropy) = (false, false);
        for (plan, &offset) in plans.iter().zip(offsets) {
            match *plan {
                PlanMeta::None => {}
                PlanMeta::NaiveBayes { default, .. } => {
                    linear = true;
                    defaults[offset] = default;
                }
                PlanMeta::MaxEnt { .. } => linear = true,
                PlanMeta::RelativeEntropy {
                    default_pos,
                    default_neg,
                } => {
                    entropy = true;
                    defaults[offset] = default_pos;
                    defaults[offset + 1] = default_neg;
                }
            }
        }
        match (linear, entropy) {
            (false, false) => Ok(Kernel::None),
            (true, false) => Ok(Kernel::Linear { defaults }),
            (false, true) => Ok(Kernel::Entropy { defaults }),
            (true, true) => {
                Err("plans mix the linear (NB/ME) and entropy (RE) kernels".to_string())
            }
        }
    }
}

/// Lane offsets of `plans` within a feature row — assigned sequentially
/// in language order — and the total lane count (the stride).
fn lane_offsets(plans: &[PlanMeta; 5]) -> ([usize; 5], usize) {
    let mut offsets = [0usize; 5];
    let mut next = 0usize;
    for (offset, plan) in offsets.iter_mut().zip(plans) {
        *offset = next;
        next += plan.lanes();
    }
    (offsets, next)
}

/// The compiled runtime representation of a trained
/// [`crate::LanguageClassifierSet`]. Built by
/// [`crate::LanguageClassifierSet::compile`] from a trained set, or
/// reconstructed without recompilation from the mapped sections of a
/// `.urlm` model file via [`CompiledPlane::from_bytes`]; the set routes
/// its scoring entry points through it.
#[derive(Debug, Clone)]
pub struct CompiledPlane {
    /// The arena-interned extraction, when the shared extractor lowers.
    transform: Option<CompiledTransform>,
    /// Feature-space dimensionality (rows of the fused matrix).
    dim: usize,
    /// Lanes per feature row.
    stride: usize,
    /// `dim × stride` language-major matrix. A [`Lane`] so a
    /// `.urlm`-loaded plane scores straight out of the mapped file;
    /// compiled-in-process planes own their `Vec`.
    matrix: Lane<f64>,
    /// Per-language plan scalars (`PlanMeta::None` = interpreted).
    plans: [PlanMeta; 5],
    /// Each language's first lane within a feature row.
    offsets: [usize; 5],
    /// The kernel the lowered languages accumulate through.
    kernel: Kernel,
}

impl CompiledPlane {
    /// Lower a classifier set's scorers into the fused plane.
    pub(crate) fn build(
        extractor: Option<&dyn FeatureExtractor>,
        scorers: &[Option<LanguageScorer>; 5],
    ) -> CompiledPlane {
        let dim = extractor.map(|e| e.dim()).unwrap_or(0);
        let transform = extractor.and_then(|e| e.compile_transform());
        debug_assert!(
            transform.as_ref().map(|t| t.dim() == dim).unwrap_or(true),
            "compiled transform must preserve the feature dimensionality"
        );

        // The first language that lowers picks the kernel; a language
        // whose algorithm needs the other kernel stays interpreted.
        let mut plans: [PlanMeta; 5] = Default::default();
        let mut lanes: [Vec<Vec<f64>>; 5] = Default::default();
        let mut linear = None;
        for (i, scorer) in scorers.iter().enumerate() {
            let Some(LanguageScorer::Vector(model)) = scorer else {
                continue;
            };
            let Some(compile) = model.as_compile() else {
                continue;
            };
            let (plan, plan_lanes) = compile.lower(dim).into_parts();
            let is_linear = !matches!(plan, PlanMeta::RelativeEntropy { .. });
            if *linear.get_or_insert(is_linear) == is_linear {
                plans[i] = plan;
                lanes[i] = plan_lanes;
            }
        }

        // Interleave the lanes into the language-major matrix (every
        // lane is padded to at least `dim`).
        let (offsets, stride) = lane_offsets(&plans);
        let mut matrix = vec![0.0f64; dim * stride];
        for (plan_lanes, &offset) in lanes.iter().zip(&offsets) {
            for (k, lane) in plan_lanes.iter().enumerate() {
                for (j, &w) in lane[..dim].iter().enumerate() {
                    matrix[j * stride + offset + k] = w;
                }
            }
        }
        let kernel =
            Kernel::of(&plans, &offsets, stride).expect("build lowers one kernel's plans only");
        CompiledPlane {
            transform,
            dim,
            stride,
            matrix: Lane::from_vec(matrix),
            plans,
            offsets,
            kernel,
        }
    }

    /// The compiled extraction, when the shared extractor lowered.
    pub fn transform(&self) -> Option<&CompiledTransform> {
        self.transform.as_ref()
    }

    /// Feature-space dimensionality (rows of the fused matrix).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Lanes per feature row of the fused matrix (0 when no language
    /// lowered and the plane only extracts).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Does the plane's matrix read out of a mapped model file (as
    /// opposed to process-owned memory)?
    pub fn is_mapped(&self) -> bool {
        self.matrix.is_mapped()
    }

    /// The fused vector pass: one walk over the sparse vector fills every
    /// lowered language's score into `out`.
    pub(crate) fn score_vectors(&self, vector: &SparseVector, out: &mut [Option<f64>; 5]) {
        let matrix = self.matrix.as_slice();
        match &self.kernel {
            Kernel::None => {}
            Kernel::Linear { defaults } => self.score_linear(matrix, defaults, vector, out),
            Kernel::Entropy { defaults } => self.score_entropy(matrix, defaults, vector, out),
        }
    }

    /// The linear kernel: per feature, one chunked `acc[k] += x · row[k]`
    /// over the whole row — no per-language dispatch, and a shape rustc
    /// autovectorizes (see [`crate::lanes::axpy`]). Bit-identical to the
    /// interpreted scorers: each lane is its own chain, NB lanes read the
    /// same in/out-of-range weights, and ME lanes add `x · 0.0 = +0.0`
    /// where the interpreted scorer skips (a bit-level no-op on an
    /// accumulator that is never `-0.0`).
    fn score_linear(
        &self,
        matrix: &[f64],
        defaults: &[f64],
        vector: &SparseVector,
        out: &mut [Option<f64>; 5],
    ) {
        let mut lane_acc = [0.0f64; 5];
        let mut needs_sum = false;
        for (plan, &offset) in self.plans.iter().zip(&self.offsets) {
            match *plan {
                PlanMeta::NaiveBayes { bias, .. } => lane_acc[offset] = bias,
                PlanMeta::MaxEnt { .. } => needs_sum = true,
                _ => {}
            }
        }
        let sum = if needs_sum { vector.sum() } else { 0.0 };
        let acc = &mut lane_acc[..self.stride];
        for (j, x) in vector.iter() {
            let j = j as usize;
            if j < self.dim {
                let start = j * self.stride;
                lanes::axpy(acc, x, &matrix[start..start + self.stride]);
            } else {
                lanes::axpy(acc, x, defaults);
            }
        }
        for (i, (plan, &offset)) in self.plans.iter().zip(&self.offsets).enumerate() {
            match *plan {
                PlanMeta::NaiveBayes { .. } => out[i] = Some(lane_acc[offset]),
                PlanMeta::MaxEnt { slack_diff, c } => {
                    let slack = (c - sum).max(0.0);
                    out[i] = Some(lane_acc[offset] + slack_diff * slack);
                }
                _ => {}
            }
        }
    }

    /// The entropy kernel: the per-feature `(q_pos, q_neg)` walk, in the
    /// interpreted scorer's order. The `ln` calls dominate, so this is
    /// about dropping per-language dispatch, not SIMD.
    fn score_entropy(
        &self,
        matrix: &[f64],
        defaults: &[f64],
        vector: &SparseVector,
        out: &mut [Option<f64>; 5],
    ) {
        let mut d = [0.0f64; 10];
        let pairs = self.stride / 2;
        let norm = vector.l1_norm();
        for (j, x) in vector.iter() {
            let p = x / norm;
            if p > 0.0 {
                let j = j as usize;
                if j < self.dim {
                    let row = &matrix[j * self.stride..(j + 1) * self.stride];
                    for k in 0..pairs {
                        d[2 * k] += p * (p / row[2 * k]).ln();
                        d[2 * k + 1] += p * (p / row[2 * k + 1]).ln();
                    }
                } else {
                    for k in 0..pairs {
                        d[2 * k] += p * (p / defaults[2 * k]).ln();
                        d[2 * k + 1] += p * (p / defaults[2 * k + 1]).ln();
                    }
                }
            }
        }
        for (i, (plan, &offset)) in self.plans.iter().zip(&self.offsets).enumerate() {
            if let PlanMeta::RelativeEntropy { .. } = plan {
                out[i] = Some(if vector.is_empty() {
                    // An empty URL gives no information; the
                    // conservative high-precision RE behaviour.
                    -f64::MIN_POSITIVE
                } else {
                    d[offset + 1] - d[offset]
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// `.urlm` (de)serialisation: the plane's dense matrix becomes a raw
// section of the binary model format, and the plan scalars become the
// JSON `PlaneMeta` in the format's META section. Lane *offsets* are
// deliberately not persisted: they are a pure function of the plan
// kinds, so the loader re-derives them instead of trusting the file.
// ---------------------------------------------------------------------

/// One language's participation in the fused vector pass: the scalar
/// half of its lowering, as the plane runs it and as a `.urlm` model's
/// META section persists it (lane offsets are re-derived at load).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum PlanMeta {
    /// Not lowered: the language scores through its boxed scorer.
    #[default]
    None,
    /// Naive Bayes lane.
    NaiveBayes {
        /// The log prior ratio the accumulator starts from.
        bias: f64,
        /// Log ratio of features beyond the lane length.
        default: f64,
    },
    /// MaxEnt lane.
    MaxEnt {
        /// Slack-feature weight difference.
        slack_diff: f64,
        /// The GIS constant C.
        c: f64,
    },
    /// Relative-entropy lane pair.
    RelativeEntropy {
        /// Clamped default for features beyond the lane length.
        default_pos: f64,
        /// Clamped default for features beyond the lane length.
        default_neg: f64,
    },
}

impl PlanMeta {
    /// Lanes the plan occupies in each feature row.
    fn lanes(&self) -> usize {
        match self {
            PlanMeta::None => 0,
            PlanMeta::NaiveBayes { .. } | PlanMeta::MaxEnt { .. } => 1,
            PlanMeta::RelativeEntropy { .. } => 2,
        }
    }
}

/// Everything a [`CompiledPlane`] is made of *except* its dense
/// matrix: the JSON half of the `.urlm` format's plane encoding.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlaneMeta {
    /// Feature-space dimensionality (rows of the fused matrix).
    pub dim: usize,
    /// Lanes per feature row (validated against the re-derived plans).
    pub stride: usize,
    /// Per-language plan scalars in canonical language order.
    pub plans: [PlanMeta; 5],
}

/// The serialised plane — what [`CompiledPlane::serialize_into`]
/// produces and the `.urlm` writer turns into the META scalars and the
/// checksummed, page-aligned MATRIX section.
#[derive(Debug, Clone, Default)]
pub struct PlanePayload {
    /// The JSON half (scalars); see [`PlaneMeta`].
    pub meta: PlaneMeta,
    /// The `f64` weight matrix, native-endian bytes.
    pub matrix: Vec<u8>,
}

impl CompiledPlane {
    /// Serialise the plane for packing into a `.urlm` file: scalars
    /// into `out.meta`, the matrix into raw native-endian bytes.
    pub fn serialize_into(&self, out: &mut PlanePayload) {
        out.meta = PlaneMeta {
            dim: self.dim,
            stride: self.stride,
            plans: self.plans,
        };
        out.matrix = self.matrix.iter().flat_map(|v| v.to_ne_bytes()).collect();
    }

    /// Reconstruct a plane from a `.urlm` file's META scalars and its
    /// validated MATRIX view — the mmap-and-serve load path. No
    /// recompilation happens: the matrix is used as stored (typically a
    /// view into the mapped file), lane offsets and the kernel are
    /// re-derived from the plan kinds, and every size relation is
    /// checked so a structurally corrupt file fails closed here rather
    /// than panicking in the score hot path.
    pub fn from_bytes(
        transform: Option<CompiledTransform>,
        meta: PlaneMeta,
        matrix: Lane<f64>,
    ) -> Result<CompiledPlane, String> {
        if let Some(t) = &transform {
            if t.dim() != meta.dim {
                return Err(format!(
                    "transform dimensionality {} does not match plane dim {}",
                    t.dim(),
                    meta.dim
                ));
            }
        }
        let (offsets, stride) = lane_offsets(&meta.plans);
        if stride != meta.stride {
            return Err(format!(
                "declared stride {} does not match the {} lanes of the plans",
                meta.stride, stride
            ));
        }
        let expected = meta
            .dim
            .checked_mul(stride)
            .ok_or_else(|| "matrix size overflows".to_string())?;
        if matrix.len() != expected {
            return Err(format!(
                "matrix section holds {} weights, expected dim {} × stride {} = {}",
                matrix.len(),
                meta.dim,
                stride,
                expected
            ));
        }
        let kernel = Kernel::of(&meta.plans, &offsets, stride)?;
        Ok(CompiledPlane {
            transform,
            dim: meta.dim,
            stride,
            matrix,
            plans: meta.plans,
            offsets,
            kernel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{CompiledPlane, PlanMeta, PlaneMeta, PlanePayload};
    use crate::markov::{MarkovClassifier, MarkovConfig};
    use crate::maxent::{MaxEnt, MaxEntConfig};
    use crate::model::VectorClassifier;
    use crate::naive_bayes::{NaiveBayes, NaiveBayesConfig};
    use crate::rank_order::{RankOrder, RankOrderConfig};
    use crate::relative_entropy::{RelativeEntropy, RelativeEntropyConfig};
    use crate::set::LanguageClassifierSet;
    use std::sync::Arc;
    use urlid_features::{FeatureExtractor, LabeledUrl, SparseVector, WordFeatureExtractor};
    use urlid_lexicon::{Language, ALL_LANGUAGES};

    fn training() -> Vec<LabeledUrl> {
        vec![
            LabeledUrl::new(
                "http://www.wetter-bericht.de/berlin/nachrichten",
                Language::German,
            ),
            LabeledUrl::new(
                "http://www.weather-report.co.uk/london/news",
                Language::English,
            ),
            LabeledUrl::new(
                "http://www.meteo-prevision.fr/paris/infos",
                Language::French,
            ),
            LabeledUrl::new(
                "http://www.tiempo-noticias.es/madrid/hoy",
                Language::Spanish,
            ),
            LabeledUrl::new(
                "http://www.previsioni-meteo.it/roma/oggi",
                Language::Italian,
            ),
            LabeledUrl::new("http://www.nachrichten-heute.de/wetter", Language::German),
            LabeledUrl::new("http://www.daily-news.co.uk/weather", Language::English),
        ]
    }

    fn probe_urls() -> Vec<String> {
        let mut urls: Vec<String> = training().iter().map(|u| u.url.clone()).collect();
        urls.extend(
            [
                "http://unseen.example.xyz/nothing",
                "http://192.168.0.1/index.html",
                "http://xn--mnchen-3ya.de/",
                "",
                "http://wetter.de/wetter/wetter/berlin",
                "https://example.co.uk/weather/report?q=1",
            ]
            .map(str::to_owned),
        );
        urls
    }

    /// Per-language (positives, negatives) training vectors.
    type ClassVectors = Vec<(Vec<SparseVector>, Vec<SparseVector>)>;

    /// Fit a shared word extractor and the per-language vectors the toy
    /// models train on.
    fn fitted() -> (Arc<WordFeatureExtractor>, ClassVectors) {
        let data = training();
        let mut extractor = WordFeatureExtractor::default();
        extractor.fit(&data);
        let per_lang = ALL_LANGUAGES
            .iter()
            .map(|&lang| {
                let pos: Vec<SparseVector> = data
                    .iter()
                    .filter(|u| u.language == lang)
                    .map(|u| extractor.transform(&u.url))
                    .collect();
                let neg: Vec<SparseVector> = data
                    .iter()
                    .filter(|u| u.language != lang)
                    .map(|u| extractor.transform(&u.url))
                    .collect();
                (pos, neg)
            })
            .collect();
        (Arc::new(extractor), per_lang)
    }

    fn assert_compiled_matches_interpreted(set: &mut LanguageClassifierSet) {
        set.compile();
        assert!(set.is_compiled());
        for url in probe_urls() {
            let compiled_scores = set.score_all(&url);
            let interpreted_scores = set.score_all_interpreted(&url);
            assert_eq!(
                compiled_scores, interpreted_scores,
                "scores diverge on {url:?}"
            );
            assert_eq!(
                set.classify_all(&url),
                set.classify_all_interpreted(&url),
                "decisions diverge on {url:?}"
            );
        }
    }

    #[test]
    fn naive_bayes_plane_is_bit_identical() {
        let (extractor, per_lang) = fitted();
        let dim = extractor.dim();
        let mut set = LanguageClassifierSet::build_vector(extractor, |lang| {
            let (pos, neg) = &per_lang[lang.index()];
            Box::new(NaiveBayes::train(pos, neg, NaiveBayesConfig::for_dim(dim)))
        });
        assert_compiled_matches_interpreted(&mut set);
    }

    #[test]
    fn relative_entropy_plane_is_bit_identical() {
        let (extractor, per_lang) = fitted();
        let dim = extractor.dim();
        let mut set = LanguageClassifierSet::build_vector(extractor, |lang| {
            let (pos, neg) = &per_lang[lang.index()];
            Box::new(RelativeEntropy::train(
                pos,
                neg,
                RelativeEntropyConfig::for_dim(dim),
            ))
        });
        assert_compiled_matches_interpreted(&mut set);
    }

    #[test]
    fn maxent_plane_is_bit_identical() {
        let (extractor, per_lang) = fitted();
        let dim = extractor.dim();
        let mut set = LanguageClassifierSet::build_vector(extractor, |lang| {
            let (pos, neg) = &per_lang[lang.index()];
            Box::new(MaxEnt::train(
                pos,
                neg,
                MaxEntConfig::with_iterations(dim, 5),
            ))
        });
        assert_compiled_matches_interpreted(&mut set);
    }

    /// A rank-order set: vector scorers that do not lower.
    fn rank_order_set() -> LanguageClassifierSet {
        let (extractor, per_lang) = fitted();
        LanguageClassifierSet::build_vector(extractor, |lang| {
            let (pos, neg) = &per_lang[lang.index()];
            Box::new(RankOrder::train(pos, neg, RankOrderConfig::default()))
        })
    }

    #[test]
    fn rank_order_plane_is_bit_identical() {
        let mut set = rank_order_set();
        assert_compiled_matches_interpreted(&mut set);
        let plane = set.plane().unwrap();
        assert_eq!(plane.stride(), 0, "rank-order stays interpreted");
        assert!(
            plane.transform().is_some(),
            "but extracts through the plane"
        );
    }

    #[test]
    fn markov_plane_is_bit_identical() {
        let data = training();
        let mut set = LanguageClassifierSet::build(|lang| {
            let pos: Vec<String> = data
                .iter()
                .filter(|u| u.language == lang)
                .map(|u| u.url.clone())
                .collect();
            let neg: Vec<String> = data
                .iter()
                .filter(|u| u.language != lang)
                .map(|u| u.url.clone())
                .collect();
            Box::new(MarkovClassifier::train(&pos, &neg, MarkovConfig::default()))
        });
        assert_compiled_matches_interpreted(&mut set);
        assert_eq!(set.plane().unwrap().stride(), 0, "Markov stays interpreted");
    }

    /// Non-lowerable scorers, and a language whose algorithm needs the
    /// kernel the plane did not pick, fall back to interpreted inside a
    /// compiled set.
    #[test]
    fn mixed_plane_with_fallback_scorers_matches_interpreted() {
        struct Threshold(f64);
        impl VectorClassifier for Threshold {
            fn score(&self, features: &SparseVector) -> f64 {
                features.sum() - self.0
            }
        }
        let (extractor, per_lang) = fitted();
        let dim = extractor.dim();
        let mut set = LanguageClassifierSet::with_extractor(extractor);
        let (pos, neg) = &per_lang[Language::German.index()];
        set.insert_model(
            Language::German,
            Box::new(NaiveBayes::train(pos, neg, NaiveBayesConfig::for_dim(dim))),
        );
        let (pos, neg) = &per_lang[Language::French.index()];
        set.insert_model(
            Language::French,
            Box::new(RelativeEntropy::train(
                pos,
                neg,
                RelativeEntropyConfig::for_dim(dim),
            )),
        );
        // A scorer with no lowering: stays interpreted in the plane.
        set.insert_model(Language::English, Box::new(Threshold(0.5)));
        set.insert(
            Language::Italian,
            Box::new(crate::cctld::CcTldClassifier::cctld(Language::Italian)),
        );
        assert_compiled_matches_interpreted(&mut set);
        // German (the first language that lowers) picks the linear
        // kernel, so French's RE lane pair stays interpreted.
        let plane = set.plane().unwrap();
        assert!(matches!(
            plane.plans[Language::German.index()],
            PlanMeta::NaiveBayes { .. }
        ));
        assert_eq!(plane.plans[Language::French.index()], PlanMeta::None);
        assert_eq!(plane.stride(), 1);
    }

    #[test]
    fn inserting_a_scorer_discards_the_plane() {
        let (extractor, per_lang) = fitted();
        let dim = extractor.dim();
        let mut set = LanguageClassifierSet::build_vector(extractor, |lang| {
            let (pos, neg) = &per_lang[lang.index()];
            Box::new(NaiveBayes::train(pos, neg, NaiveBayesConfig::for_dim(dim)))
        });
        set.compile();
        assert!(set.is_compiled());
        let (pos, neg) = &per_lang[0];
        set.insert_model(
            Language::English,
            Box::new(NaiveBayes::train(pos, neg, NaiveBayesConfig::for_dim(dim))),
        );
        assert!(!set.is_compiled(), "stale plane must be discarded");
        set.compile();
        assert!(set.is_compiled());
        set.clear_compiled();
        assert!(!set.is_compiled());
    }

    #[test]
    fn compiling_an_empty_set_is_harmless() {
        let mut set = LanguageClassifierSet::new();
        set.compile();
        assert!(set.is_compiled());
        assert_eq!(set.score_all("http://a.de/"), [None; 5]);
        assert_eq!(set.classify_all("http://a.de/"), [false; 5]);
    }

    use urlid_mapped::{Lane, Mapping};

    /// A mapped view of a serialised matrix, as a `.urlm` load hands it
    /// to [`CompiledPlane::from_bytes`].
    fn mapped(matrix: &[u8]) -> Lane<f64> {
        Lane::view(&Arc::new(Mapping::from_bytes(matrix)), 0, matrix.len()).unwrap()
    }

    fn nb_set() -> LanguageClassifierSet {
        let (extractor, per_lang) = fitted();
        let dim = extractor.dim();
        let mut set = LanguageClassifierSet::build_vector(extractor, |lang| {
            let (pos, neg) = &per_lang[lang.index()];
            Box::new(NaiveBayes::train(pos, neg, NaiveBayesConfig::for_dim(dim)))
        });
        set.compile();
        set
    }

    fn payload_of(set: &LanguageClassifierSet) -> PlanePayload {
        let mut payload = PlanePayload::default();
        set.plane()
            .expect("set is compiled")
            .serialize_into(&mut payload);
        payload
    }

    /// Serialise `set`'s plane and rebuild it through a mapped view —
    /// the in-memory equivalent of a `.urlm` pack/load cycle.
    fn round_trip_plane(set: &LanguageClassifierSet) -> CompiledPlane {
        let payload = payload_of(set);
        // META scalars go through JSON exactly as the `.urlm` format
        // stores them.
        let meta: PlaneMeta =
            serde_json::from_str(&serde_json::to_string(&payload.meta).unwrap()).unwrap();
        let transform = set.plane().unwrap().transform().cloned();
        CompiledPlane::from_bytes(transform, meta, mapped(&payload.matrix))
            .expect("round trip must validate")
    }

    #[test]
    fn serialized_plane_round_trips_bit_identically() {
        let mut set = nb_set();
        let before: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        let rebuilt = round_trip_plane(&set);
        set.install_plane(rebuilt);
        let after: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        assert_eq!(before, after, "f64 scores must survive the round trip");
    }

    #[test]
    fn extraction_only_plane_round_trips_through_the_binary_payload() {
        let mut set = rank_order_set();
        set.compile();
        let before: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        let rebuilt = round_trip_plane(&set);
        assert_eq!(rebuilt.stride(), 0);
        assert_eq!(rebuilt.dim(), set.plane().unwrap().dim());
        set.install_plane(rebuilt);
        let after: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn from_bytes_rejects_structural_corruption() {
        let set = nb_set();
        let payload = payload_of(&set);
        let load = |meta: PlaneMeta, matrix: &[u8]| {
            let transform = set.plane().unwrap().transform().cloned();
            CompiledPlane::from_bytes(transform, meta, mapped(matrix))
        };

        // Truncated matrix section.
        let err = load(
            payload.meta.clone(),
            &payload.matrix[..payload.matrix.len() - 8],
        )
        .unwrap_err();
        assert!(err.contains("matrix section"), "{err}");

        // Declared stride disagreeing with the plans.
        let mut meta = payload.meta.clone();
        meta.stride += 1;
        let err = load(meta, &payload.matrix).unwrap_err();
        assert!(err.contains("stride"), "{err}");

        // NB and RE plans in one plane: sizes agree, kernels do not.
        let mut meta = payload.meta.clone();
        meta.plans[Language::French.index()] = PlanMeta::RelativeEntropy {
            default_pos: 0.5,
            default_neg: 0.5,
        };
        meta.stride += 1;
        let matrix = vec![0u8; meta.dim * meta.stride * 8];
        let err = load(meta, &matrix).unwrap_err();
        assert!(err.contains("linear") && err.contains("entropy"), "{err}");

        // A META naming a plan kind the plane no longer lowers is a
        // deserialisation error, not a panic.
        let json = r#"{"dim":3,"stride":2,"plans":[{"RankOrder":{"max_penalty":300}},"None","None","None","None"]}"#;
        let err = serde_json::from_str::<PlaneMeta>(json).unwrap_err();
        assert!(err.to_string().contains("RankOrder"), "{err}");
    }

    /// Files packed while the plane still had a Markov half carry
    /// `"markov":null` in their plane META; they still load.
    #[test]
    fn plane_meta_with_the_retired_markov_field_still_loads() {
        let mut set = nb_set();
        let payload = payload_of(&set);
        let json = serde_json::to_string(&payload.meta).unwrap();
        let old = format!("{},\"markov\":null}}", json.strip_suffix('}').unwrap());
        let meta: PlaneMeta = serde_json::from_str(&old).unwrap();
        assert_eq!(meta, payload.meta);
        let before: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        let transform = set.plane().unwrap().transform().cloned();
        set.install_plane(
            CompiledPlane::from_bytes(transform, meta, mapped(&payload.matrix)).unwrap(),
        );
        let after: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        assert_eq!(before, after);
    }
}
