//! The compiled scoring plane: fused dense-weight inference.
//!
//! Training produces per-language, per-classifier structures optimised
//! for *fitting* — hash maps, per-model `Vec`s, trait objects. Scoring a
//! URL through them walks five independent models, each probing its own
//! storage per feature. This module is the runtime representation the
//! hot path uses instead (the Polynesia lesson from PAPERS.md: co-design
//! the runtime layout with the access pattern):
//!
//! * every algorithm that is a function of dense per-feature data lowers
//!   itself through the [`CompileScorer`] trait into a [`Lowering`] —
//!   Naive Bayes and MaxEnt contribute one weight lane per feature,
//!   Relative Entropy two (the smoothed class distributions), rank-order
//!   two (dense rank tables), the character Markov model dense
//!   transition log-prob tables;
//! * `CompiledPlane` (crate-internal; reached through
//!   [`crate::LanguageClassifierSet::compile`]) interleaves all
//!   languages' lanes into **one
//!   contiguous language-major matrix** (`matrix[j * stride ..]` is
//!   feature `j`'s row holding every language's lanes side by side), so
//!   scoring is a single pass over the URL's sparse vector with one
//!   cache-friendly row fetch per feature instead of five independent
//!   probes.
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
//! Scorers that do not lower (decision trees, k-NN, the Section 5.6
//! combination classifiers, ad-hoc test scorers) stay interpreted inside
//! a compiled set: the plane scores what it can in the fused pass and
//! the set falls back to the boxed scorer for the rest — still
//! benefiting from the arena-interned extraction.

use crate::lanes;
use crate::markov::{markov_encode, markov_transition_index, MARKOV_TRANSITIONS};
use crate::set::LanguageScorer;
use serde::{Deserialize, Serialize};
use urlid_features::{CompiledTransform, ExtractScratch, FeatureExtractor, SparseVector};
use urlid_mapped::Lane;
use urlid_tokenize::Tokenizer;

/// Lowering a trained model into the compiled plane's dense form.
///
/// Implemented by every algorithm whose score is a function of dense
/// per-feature (or per-transition) data: Naive Bayes, Relative Entropy,
/// MaxEnt, rank-order and the character Markov model. The plane reaches
/// implementations through [`crate::VectorClassifier::as_compile`] /
/// [`crate::UrlClassifier::as_compile`].
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
    /// Cavnar–Trenkle out-of-place distance over dense rank tables
    /// (−1.0 marks a feature absent from a profile).
    RankOrder {
        /// Positive-profile rank per feature (−1.0 = not in profile).
        rank_pos: Vec<f64>,
        /// Negative-profile rank per feature (−1.0 = not in profile).
        rank_neg: Vec<f64>,
        /// Penalty for features missing from a profile.
        max_penalty: usize,
    },
    /// Character Markov model: dense per-transition log-probability
    /// tables (one entry per `(context, next)` pair) for both classes.
    Markov {
        /// `log P(next | context)` of the positive class, indexed by
        /// the dense `(context, next)` transition index.
        log_pos: Vec<f64>,
        /// Same for the negative class.
        log_neg: Vec<f64>,
        /// The tokenizer the classifier scores through.
        tokenizer: Tokenizer,
    },
}

/// How one language participates in the fused vector pass.
#[derive(Debug, Clone)]
enum VectorPlan {
    /// Not lowered: the set scores this language through its boxed
    /// interpreted scorer.
    None,
    /// Naive Bayes lanes at `offset` within each feature row.
    NaiveBayes {
        offset: usize,
        bias: f64,
        default: f64,
    },
    /// MaxEnt lane at `offset`.
    MaxEnt {
        offset: usize,
        slack_diff: f64,
        c: f64,
    },
    /// Relative-entropy lanes `[q_pos, q_neg]` at `offset`.
    RelativeEntropy {
        offset: usize,
        default_pos: f64,
        default_neg: f64,
    },
    /// Rank-order lanes `[rank_pos, rank_neg]` at `offset`.
    RankOrder { offset: usize, max_penalty: usize },
}

impl VectorPlan {
    fn lanes(&self) -> usize {
        match self {
            VectorPlan::None => 0,
            VectorPlan::NaiveBayes { .. } | VectorPlan::MaxEnt { .. } => 1,
            VectorPlan::RelativeEntropy { .. } | VectorPlan::RankOrder { .. } => 2,
        }
    }
}

/// The fused Markov half of the plane: every Markov language's two
/// log-prob lanes interleaved per transition, so one row fetch per
/// character transition feeds all languages.
#[derive(Debug, Clone)]
struct MarkovPlane {
    tokenizer: Tokenizer,
    /// Lanes per transition row (2 × number of fused languages).
    stride: usize,
    /// `MARKOV_TRANSITIONS` rows × `stride`: `[lp_lang, ln_lang, ...]`.
    /// A [`Lane`] so a `.urlm`-loaded plane reads the tables straight
    /// out of the mapped file.
    matrix: Lane<f64>,
    /// Lane offset per language (`None` = not a fused Markov language).
    lanes: [Option<usize>; 5],
}

/// Uniform-algorithm shape of the vector pass, detected at build time.
/// When every lowered plan shares an accumulation kernel, the per-feature
/// loop drops the per-language plan dispatch and runs the fixed-width
/// chunked lanes of [`crate::lanes`] instead.
#[derive(Debug, Clone)]
enum FastPath {
    /// Heterogeneous plans (or rank-order lanes): the general loop.
    General,
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
    /// `(q_pos, q_neg)` pair loop runs without plan dispatch.
    Entropy {
        /// Out-of-vocabulary `(default_pos, default_neg)` row.
        defaults: Vec<f64>,
    },
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
    /// Per-language participation in the fused vector pass.
    plans: [VectorPlan; 5],
    /// Detected uniform-algorithm kernel for the vector pass.
    fast: FastPath,
    markov: Option<MarkovPlane>,
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

        /// One Markov language's lowering: (log_pos, log_neg, tokenizer).
        type MarkovLowering = (Vec<f64>, Vec<f64>, Tokenizer);
        let mut vector_lowerings: [Option<Lowering>; 5] = Default::default();
        let mut markov_lowerings: [Option<MarkovLowering>; 5] = Default::default();
        for (i, scorer) in scorers.iter().enumerate() {
            match scorer {
                Some(LanguageScorer::Vector(model)) => {
                    if let Some(compile) = model.as_compile() {
                        match compile.lower(dim) {
                            // A Markov lowering out of a vector scorer
                            // would be a bug in the implementation; stay
                            // interpreted rather than mis-score.
                            Lowering::Markov { .. } => {}
                            lowering => vector_lowerings[i] = Some(lowering),
                        }
                    }
                }
                Some(LanguageScorer::Url(classifier)) => {
                    if let Some(compile) = classifier.as_compile() {
                        if let Lowering::Markov {
                            log_pos,
                            log_neg,
                            tokenizer,
                        } = compile.lower(dim)
                        {
                            markov_lowerings[i] = Some((log_pos, log_neg, tokenizer));
                        }
                    }
                }
                // Hybrid scorers mix a URL-side constituent with the
                // shared vector; they stay interpreted (and still reuse
                // the plane's compiled extraction).
                Some(LanguageScorer::Hybrid(_)) | None => {}
            }
        }

        // Assign lane offsets and interleave the vector matrix.
        let mut plans: [VectorPlan; 5] = [
            VectorPlan::None,
            VectorPlan::None,
            VectorPlan::None,
            VectorPlan::None,
            VectorPlan::None,
        ];
        let mut offset = 0usize;
        for (i, lowering) in vector_lowerings.iter().enumerate() {
            let plan = match lowering {
                None => VectorPlan::None,
                Some(Lowering::NaiveBayes { bias, default, .. }) => VectorPlan::NaiveBayes {
                    offset,
                    bias: *bias,
                    default: *default,
                },
                Some(Lowering::MaxEnt { slack_diff, c, .. }) => VectorPlan::MaxEnt {
                    offset,
                    slack_diff: *slack_diff,
                    c: *c,
                },
                Some(Lowering::RelativeEntropy {
                    default_pos,
                    default_neg,
                    ..
                }) => VectorPlan::RelativeEntropy {
                    offset,
                    default_pos: *default_pos,
                    default_neg: *default_neg,
                },
                Some(Lowering::RankOrder { max_penalty, .. }) => VectorPlan::RankOrder {
                    offset,
                    max_penalty: *max_penalty,
                },
                Some(Lowering::Markov { .. }) => unreachable!("filtered above"),
            };
            offset += plan.lanes();
            plans[i] = plan;
        }
        let stride = offset;
        let mut matrix = vec![0.0f64; dim * stride];
        for j in 0..dim {
            let row = &mut matrix[j * stride..(j + 1) * stride];
            for (i, lowering) in vector_lowerings.iter().enumerate() {
                match (lowering, &plans[i]) {
                    (
                        Some(Lowering::NaiveBayes { weights, .. }),
                        VectorPlan::NaiveBayes {
                            offset, default, ..
                        },
                    ) => {
                        row[*offset] = weights.get(j).copied().unwrap_or(*default);
                    }
                    (Some(Lowering::MaxEnt { weights, .. }), VectorPlan::MaxEnt { offset, .. }) => {
                        row[*offset] = weights.get(j).copied().unwrap_or(0.0);
                    }
                    (
                        Some(Lowering::RelativeEntropy { q_pos, q_neg, .. }),
                        VectorPlan::RelativeEntropy {
                            offset,
                            default_pos,
                            default_neg,
                        },
                    ) => {
                        row[*offset] = q_pos.get(j).copied().unwrap_or(*default_pos);
                        row[*offset + 1] = q_neg.get(j).copied().unwrap_or(*default_neg);
                    }
                    (
                        Some(Lowering::RankOrder {
                            rank_pos, rank_neg, ..
                        }),
                        VectorPlan::RankOrder { offset, .. },
                    ) => {
                        row[*offset] = rank_pos.get(j).copied().unwrap_or(-1.0);
                        row[*offset + 1] = rank_neg.get(j).copied().unwrap_or(-1.0);
                    }
                    _ => {}
                }
            }
        }

        // Fuse the Markov languages that share a tokenizer configuration
        // (they always do in practice — `MarkovClassifier::train` uses
        // the default — but a mismatched one must stay interpreted
        // rather than be scored through the wrong tokenizer).
        let reference_tokenizer = markov_lowerings
            .iter()
            .flatten()
            .map(|(_, _, t)| t.clone())
            .next();
        let markov = reference_tokenizer.map(|tokenizer| {
            let mut lanes = [None; 5];
            let mut lane = 0usize;
            for (i, lowering) in markov_lowerings.iter().enumerate() {
                if let Some((_, _, t)) = lowering {
                    if *t == tokenizer {
                        lanes[i] = Some(lane);
                        lane += 2;
                    }
                }
            }
            let stride = lane;
            let mut matrix = vec![0.0f64; MARKOV_TRANSITIONS * stride];
            for (i, lowering) in markov_lowerings.iter().enumerate() {
                let (Some((log_pos, log_neg, _)), Some(off)) = (lowering, lanes[i]) else {
                    continue;
                };
                for t in 0..MARKOV_TRANSITIONS {
                    matrix[t * stride + off] = log_pos[t];
                    matrix[t * stride + off + 1] = log_neg[t];
                }
            }
            MarkovPlane {
                tokenizer,
                stride,
                matrix: Lane::from_vec(matrix),
                lanes,
            }
        });

        let fast = detect_fast_path(&plans, stride);
        CompiledPlane {
            transform,
            dim,
            stride,
            matrix: Lane::from_vec(matrix),
            plans,
            fast,
            markov,
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

    /// Lanes per feature row of the fused matrix.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Does the plane's matrix (or Markov table) read out of a mapped
    /// model file (as opposed to process-owned memory)?
    pub fn is_mapped(&self) -> bool {
        self.matrix.is_mapped() || self.markov.as_ref().is_some_and(|m| m.matrix.is_mapped())
    }

    /// The fused vector pass: one walk over the sparse vector fills every
    /// lowered language's score into `out`. `ranked` is the caller's
    /// reusable rank-order scratch (untouched unless the plane holds
    /// rank lanes).
    pub(crate) fn score_vectors(
        &self,
        vector: &SparseVector,
        ranked: &mut Vec<(u32, f64)>,
        out: &mut [Option<f64>; 5],
    ) {
        if self.stride == 0 {
            return;
        }
        let matrix = self.matrix.as_slice();
        match &self.fast {
            FastPath::Linear { defaults } => self.score_linear(matrix, defaults, vector, out),
            FastPath::Entropy { defaults } => self.score_entropy(matrix, defaults, vector, out),
            FastPath::General => self.score_general(matrix, vector, ranked, out),
        }
    }

    /// Uniform NB/ME fast path: per feature, one chunked
    /// `acc[k] += x · row[k]` over the whole row — no per-language
    /// dispatch, and a shape rustc autovectorizes (see
    /// [`crate::lanes::axpy`]). Bit-identical to the general loop: each
    /// lane is its own chain, NB lanes read the same in/out-of-range
    /// weights, and ME lanes add `x · 0.0 = +0.0` where the interpreted
    /// scorer skips (a bit-level no-op on an accumulator that is never
    /// `-0.0`).
    fn score_linear(
        &self,
        matrix: &[f64],
        defaults: &[f64],
        vector: &SparseVector,
        out: &mut [Option<f64>; 5],
    ) {
        let mut lane_acc = [0.0f64; 5];
        let mut needs_sum = false;
        for plan in &self.plans {
            match plan {
                VectorPlan::NaiveBayes { offset, bias, .. } => lane_acc[*offset] = *bias,
                VectorPlan::MaxEnt { .. } => needs_sum = true,
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
        for (i, plan) in self.plans.iter().enumerate() {
            match plan {
                VectorPlan::NaiveBayes { offset, .. } => out[i] = Some(lane_acc[*offset]),
                VectorPlan::MaxEnt {
                    offset,
                    slack_diff,
                    c,
                } => {
                    let slack = (c - sum).max(0.0);
                    out[i] = Some(lane_acc[*offset] + slack_diff * slack);
                }
                _ => {}
            }
        }
    }

    /// Uniform Relative-Entropy fast path: the per-feature
    /// `(q_pos, q_neg)` walk without plan dispatch. The `ln` calls
    /// dominate, so this is about dropping the match, not SIMD.
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
        for (i, plan) in self.plans.iter().enumerate() {
            if let VectorPlan::RelativeEntropy { offset, .. } = plan {
                out[i] = Some(if vector.is_empty() {
                    -f64::MIN_POSITIVE
                } else {
                    d[*offset + 1] - d[*offset]
                });
            }
        }
    }

    /// The general (heterogeneous-plan) vector pass.
    fn score_general(
        &self,
        matrix: &[f64],
        vector: &SparseVector,
        ranked: &mut Vec<(u32, f64)>,
        out: &mut [Option<f64>; 5],
    ) {
        // One accumulator chain per language, exactly as interpreted:
        // NB starts from its prior, everything else from zero.
        let mut acc = [0.0f64; 5];
        let mut d_pos = [0.0f64; 5];
        let mut d_neg = [0.0f64; 5];
        let mut needs_norm = false;
        let mut needs_sum = false;
        let mut needs_rank = false;
        for (i, plan) in self.plans.iter().enumerate() {
            match plan {
                VectorPlan::NaiveBayes { bias, .. } => acc[i] = *bias,
                VectorPlan::MaxEnt { .. } => needs_sum = true,
                VectorPlan::RelativeEntropy { .. } => needs_norm = true,
                VectorPlan::RankOrder { .. } => needs_rank = true,
                VectorPlan::None => {}
            }
        }
        // Independent reductions in the same order the interpreted
        // scorers run them (`SparseVector::l1_norm` / `sum`).
        let norm = if needs_norm { vector.l1_norm() } else { 0.0 };
        let sum = if needs_sum { vector.sum() } else { 0.0 };

        for (j, x) in vector.iter() {
            let start = j as usize * self.stride;
            let row = if (j as usize) < self.dim {
                Some(&matrix[start..start + self.stride])
            } else {
                None // out-of-range feature: per-plan defaults below
            };
            for (i, plan) in self.plans.iter().enumerate() {
                match plan {
                    VectorPlan::NaiveBayes {
                        offset, default, ..
                    } => {
                        let w = row.map(|r| r[*offset]).unwrap_or(*default);
                        acc[i] += x * w;
                    }
                    VectorPlan::MaxEnt { offset, .. } => {
                        // Interpreted `dot_dense` skips out-of-range
                        // indices entirely.
                        if let Some(r) = row {
                            acc[i] += x * r[*offset];
                        }
                    }
                    VectorPlan::RelativeEntropy {
                        offset,
                        default_pos,
                        default_neg,
                    } => {
                        let p = x / norm;
                        if p > 0.0 {
                            let (qp, qn) = match row {
                                Some(r) => (r[*offset], r[*offset + 1]),
                                None => (*default_pos, *default_neg),
                            };
                            d_pos[i] += p * (p / qp).ln();
                            d_neg[i] += p * (p / qn).ln();
                        }
                    }
                    VectorPlan::RankOrder { .. } | VectorPlan::None => {}
                }
            }
        }

        for (i, plan) in self.plans.iter().enumerate() {
            match plan {
                VectorPlan::NaiveBayes { .. } => out[i] = Some(acc[i]),
                VectorPlan::MaxEnt { slack_diff, c, .. } => {
                    let slack = (c - sum).max(0.0);
                    out[i] = Some(acc[i] + slack_diff * slack);
                }
                VectorPlan::RelativeEntropy { .. } => {
                    out[i] = Some(if vector.is_empty() {
                        // An empty URL gives no information; the
                        // conservative high-precision RE behaviour.
                        -f64::MIN_POSITIVE
                    } else {
                        d_neg[i] - d_pos[i]
                    });
                }
                VectorPlan::RankOrder { .. } | VectorPlan::None => {}
            }
        }

        if needs_rank {
            self.score_rank_order(matrix, vector, ranked, out);
        }
    }

    /// The rank-order leg of the vector pass: rank the test features
    /// once (they are shared by every rank-order language) and walk the
    /// ranked list against the dense rank lanes. `ranked` is reused
    /// scratch — a warm call allocates nothing.
    fn score_rank_order(
        &self,
        matrix: &[f64],
        vector: &SparseVector,
        ranked: &mut Vec<(u32, f64)>,
        out: &mut [Option<f64>; 5],
    ) {
        if vector.is_empty() {
            for (i, plan) in self.plans.iter().enumerate() {
                if let VectorPlan::RankOrder { .. } = plan {
                    out[i] = Some(-1.0);
                }
            }
            return;
        }
        // Exactly `RankOrder::rank_test`: descending value, ties by
        // ascending feature index.
        ranked.clear();
        ranked.extend(vector.iter());
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut d_pos = [0.0f64; 5];
        let mut d_neg = [0.0f64; 5];
        for (test_rank, (j, _)) in ranked.iter().enumerate() {
            let start = *j as usize * self.stride;
            let row = if (*j as usize) < self.dim {
                Some(&matrix[start..start + self.stride])
            } else {
                None
            };
            for (i, plan) in self.plans.iter().enumerate() {
                if let VectorPlan::RankOrder {
                    offset,
                    max_penalty,
                } = plan
                {
                    let (rp, rn) = match row {
                        Some(r) => (r[*offset], r[*offset + 1]),
                        None => (-1.0, -1.0),
                    };
                    let t = test_rank as f64;
                    d_pos[i] += if rp >= 0.0 {
                        (rp - t).abs()
                    } else {
                        *max_penalty as f64
                    };
                    d_neg[i] += if rn >= 0.0 {
                        (rn - t).abs()
                    } else {
                        *max_penalty as f64
                    };
                }
            }
        }
        for (i, plan) in self.plans.iter().enumerate() {
            if let VectorPlan::RankOrder { .. } = plan {
                out[i] = Some((d_neg[i] - d_pos[i]) / ranked.len() as f64);
            }
        }
    }

    /// The fused Markov pass: tokenize once, walk every token's padded
    /// character windows once, and accumulate every Markov language's
    /// log-likelihood ratio from the shared transition rows. The token
    /// and character buffers come from the caller's scratch, so a warm
    /// call allocates nothing.
    pub(crate) fn score_markov(
        &self,
        url: &str,
        scratch: &mut ExtractScratch,
        out: &mut [Option<f64>; 5],
    ) {
        let Some(plane) = &self.markov else {
            return;
        };
        if plane.stride == 0 {
            return;
        }
        let ExtractScratch {
            token: token_buf,
            bytes: chars,
            ..
        } = scratch;
        let mut ratios = [0.0f64; 5];
        let mut transitions = 0usize;
        plane.tokenizer.for_each_token(url, token_buf, |token| {
            chars.clear();
            chars.push(0);
            chars.push(0);
            chars.extend(token.chars().map(markov_encode));
            chars.push(0);
            // Per-token accumulators, mirroring the interpreted
            // `token_log_likelihood` call pair per class.
            let mut lp = [0.0f64; 5];
            let mut ln = [0.0f64; 5];
            let mut n = 0usize;
            for w in chars.windows(3) {
                let t = markov_transition_index(w[0], w[1], w[2]);
                let row = &plane.matrix[t * plane.stride..(t + 1) * plane.stride];
                for (i, lane) in plane.lanes.iter().enumerate() {
                    if let Some(off) = lane {
                        lp[i] += row[*off];
                        ln[i] += row[*off + 1];
                    }
                }
                n += 1;
            }
            for (i, lane) in plane.lanes.iter().enumerate() {
                if lane.is_some() {
                    ratios[i] += lp[i] - ln[i];
                }
            }
            transitions += n;
        });
        for (i, lane) in plane.lanes.iter().enumerate() {
            if lane.is_some() {
                out[i] = Some(if transitions == 0 {
                    -1.0
                } else {
                    ratios[i] / transitions as f64
                });
            }
        }
    }
}

/// Detect a uniform-algorithm kernel for the vector pass (see
/// [`FastPath`]). Rank-order lanes and hybrid plan mixes keep the
/// general loop.
fn detect_fast_path(plans: &[VectorPlan; 5], stride: usize) -> FastPath {
    let mut any = false;
    let mut linear = true;
    let mut entropy = true;
    for plan in plans {
        match plan {
            VectorPlan::None => {}
            VectorPlan::NaiveBayes { .. } | VectorPlan::MaxEnt { .. } => {
                any = true;
                entropy = false;
            }
            VectorPlan::RelativeEntropy { .. } => {
                any = true;
                linear = false;
            }
            VectorPlan::RankOrder { .. } => {
                any = true;
                linear = false;
                entropy = false;
            }
        }
    }
    if !any {
        return FastPath::General;
    }
    let mut defaults = vec![0.0f64; stride];
    for plan in plans {
        match plan {
            VectorPlan::NaiveBayes {
                offset, default, ..
            } => defaults[*offset] = *default,
            VectorPlan::RelativeEntropy {
                offset,
                default_pos,
                default_neg,
            } => {
                defaults[*offset] = *default_pos;
                defaults[*offset + 1] = *default_neg;
            }
            _ => {}
        }
    }
    if linear {
        FastPath::Linear { defaults }
    } else if entropy {
        FastPath::Entropy { defaults }
    } else {
        FastPath::General
    }
}

// ---------------------------------------------------------------------
// `.urlm` (de)serialisation: the plane's dense matrices become raw
// sections of the binary model format, and everything else — the lane
// scalars below — becomes the JSON `PlaneMeta` in the format's META
// section. Lane *offsets* are deliberately not persisted: they are a
// pure function of the per-language plan kinds (assigned sequentially
// in language order, exactly as `build` assigns them), so the loader
// re-derives them instead of trusting the file.
// ---------------------------------------------------------------------

/// One language's participation in the fused vector pass, as persisted
/// in a `.urlm` model's META section (the scalar half of
/// [`CompiledPlane`]'s `VectorPlan`; offsets are re-derived at load).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    /// Rank-order lane pair.
    RankOrder {
        /// Penalty for features missing from a profile.
        max_penalty: usize,
    },
}

/// The persisted form of the fused Markov plane's scalars (the dense
/// transition matrix is a raw section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovMeta {
    /// The tokenizer the fused Markov languages score through.
    pub tokenizer: Tokenizer,
    /// Lanes per transition row (2 × number of fused languages).
    pub stride: usize,
    /// Lane offset per language (`None` = not a fused Markov language).
    pub lanes: [Option<usize>; 5],
}

/// Everything a [`CompiledPlane`] is made of *except* its dense
/// matrices: the JSON half of the `.urlm` format's plane encoding.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlaneMeta {
    /// Feature-space dimensionality (rows of the fused matrix).
    pub dim: usize,
    /// Lanes per feature row (validated against the re-derived plans).
    pub stride: usize,
    /// Per-language plan scalars in canonical language order.
    pub plans: [PlanMeta; 5],
    /// The fused Markov plane's scalars, when one exists.
    pub markov: Option<MarkovMeta>,
}

/// The raw section payloads of a serialised plane, plus their META
/// scalars — what [`CompiledPlane::serialize_into`] produces and the
/// `.urlm` writer turns into checksummed, page-aligned sections.
#[derive(Debug, Clone, Default)]
pub struct PlanePayload {
    /// The JSON half (scalars); see [`PlaneMeta`].
    pub meta: PlaneMeta,
    /// The `f64` weight matrix, native-endian bytes.
    pub matrix: Vec<u8>,
    /// The fused Markov transition tables (`f64`), empty when the plane
    /// has no Markov half.
    pub markov: Vec<u8>,
}

/// Validated slices of a mapped (or heap-fallback) `.urlm` file that
/// [`CompiledPlane::from_bytes`] reconstructs a plane from — the safe
/// view layer between raw file bytes and typed matrices.
#[derive(Debug, Clone, Default)]
pub struct PlaneViews {
    /// The `f64` weight matrix.
    pub matrix: Lane<f64>,
    /// The fused Markov transition tables, if the META says one exists.
    pub markov: Option<Lane<f64>>,
}

fn f64_section_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_ne_bytes());
    }
    out
}

/// Re-derive the runtime plans (with lane offsets) from persisted plan
/// scalars — the same sequential assignment `build` performs.
fn plans_from_meta(meta: &[PlanMeta; 5]) -> ([VectorPlan; 5], usize) {
    let mut plans = [
        VectorPlan::None,
        VectorPlan::None,
        VectorPlan::None,
        VectorPlan::None,
        VectorPlan::None,
    ];
    let mut offset = 0usize;
    for (i, m) in meta.iter().enumerate() {
        let plan = match *m {
            PlanMeta::None => VectorPlan::None,
            PlanMeta::NaiveBayes { bias, default } => VectorPlan::NaiveBayes {
                offset,
                bias,
                default,
            },
            PlanMeta::MaxEnt { slack_diff, c } => VectorPlan::MaxEnt {
                offset,
                slack_diff,
                c,
            },
            PlanMeta::RelativeEntropy {
                default_pos,
                default_neg,
            } => VectorPlan::RelativeEntropy {
                offset,
                default_pos,
                default_neg,
            },
            PlanMeta::RankOrder { max_penalty } => VectorPlan::RankOrder {
                offset,
                max_penalty,
            },
        };
        offset += plan.lanes();
        plans[i] = plan;
    }
    (plans, offset)
}

impl CompiledPlane {
    /// Serialise the plane for packing into a `.urlm` file: scalars
    /// into `out.meta`, dense matrices into raw native-endian byte
    /// sections.
    pub fn serialize_into(&self, out: &mut PlanePayload) {
        let mut plans = [
            PlanMeta::None,
            PlanMeta::None,
            PlanMeta::None,
            PlanMeta::None,
            PlanMeta::None,
        ];
        for (i, plan) in self.plans.iter().enumerate() {
            plans[i] = match *plan {
                VectorPlan::None => PlanMeta::None,
                VectorPlan::NaiveBayes { bias, default, .. } => {
                    PlanMeta::NaiveBayes { bias, default }
                }
                VectorPlan::MaxEnt { slack_diff, c, .. } => PlanMeta::MaxEnt { slack_diff, c },
                VectorPlan::RelativeEntropy {
                    default_pos,
                    default_neg,
                    ..
                } => PlanMeta::RelativeEntropy {
                    default_pos,
                    default_neg,
                },
                VectorPlan::RankOrder { max_penalty, .. } => PlanMeta::RankOrder { max_penalty },
            };
        }
        out.meta = PlaneMeta {
            dim: self.dim,
            stride: self.stride,
            plans,
            markov: self.markov.as_ref().map(|m| MarkovMeta {
                tokenizer: m.tokenizer.clone(),
                stride: m.stride,
                lanes: m.lanes,
            }),
        };
        out.matrix = f64_section_bytes(&self.matrix);
        out.markov = match &self.markov {
            Some(m) => f64_section_bytes(&m.matrix),
            None => Vec::new(),
        };
    }

    /// Reconstruct a plane from the validated views of a `.urlm` file —
    /// the mmap-and-serve load path. No recompilation happens: the
    /// matrices are used as stored (typically views into the mapped
    /// file), lane offsets and the fast-path kernel are re-derived from
    /// the plan kinds, and every cross-section size relation is checked
    /// so a structurally corrupt file fails closed here rather than
    /// panicking in the score hot path.
    pub fn from_bytes(
        transform: Option<CompiledTransform>,
        meta: PlaneMeta,
        views: PlaneViews,
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
        let (plans, stride) = plans_from_meta(&meta.plans);
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
        if views.matrix.len() != expected {
            return Err(format!(
                "matrix section holds {} weights, expected dim {} × stride {} = {}",
                views.matrix.len(),
                meta.dim,
                stride,
                expected
            ));
        }
        let markov = match (meta.markov, views.markov) {
            (None, None) => None,
            (None, Some(_)) => {
                return Err("markov section present but META declares none".to_string())
            }
            (Some(_), None) => {
                return Err("META declares a markov plane but the section is missing".to_string())
            }
            (Some(mm), Some(matrix)) => {
                // Lane offsets are assigned sequentially (0, 2, 4, …) in
                // language order by `build`; require exactly that.
                let mut next = 0usize;
                for lane in mm.lanes.iter().flatten() {
                    if *lane != next {
                        return Err(format!(
                            "markov lane offset {lane} out of sequential order (expected {next})"
                        ));
                    }
                    next += 2;
                }
                if next != mm.stride {
                    return Err(format!(
                        "markov stride {} does not match the {} lanes declared",
                        mm.stride, next
                    ));
                }
                if matrix.len() != MARKOV_TRANSITIONS * mm.stride {
                    return Err(format!(
                        "markov section holds {} entries, expected {} × {}",
                        matrix.len(),
                        MARKOV_TRANSITIONS,
                        mm.stride
                    ));
                }
                Some(MarkovPlane {
                    tokenizer: mm.tokenizer,
                    stride: mm.stride,
                    matrix,
                    lanes: mm.lanes,
                })
            }
        };
        let fast = detect_fast_path(&plans, stride);
        Ok(CompiledPlane {
            transform,
            dim: meta.dim,
            stride,
            matrix: views.matrix,
            plans,
            fast,
            markov,
        })
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn rank_order_plane_is_bit_identical() {
        let (extractor, per_lang) = fitted();
        let mut set = LanguageClassifierSet::build_vector(extractor, |lang| {
            let (pos, neg) = &per_lang[lang.index()];
            Box::new(RankOrder::train(pos, neg, RankOrderConfig::default()))
        });
        assert_compiled_matches_interpreted(&mut set);
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
    }

    /// Non-lowerable scorers fall back to interpreted inside a compiled
    /// set and heterogeneous planes stay consistent.
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

    use super::{PlanePayload, PlaneViews};
    use std::sync::Arc as StdArc;
    use urlid_mapped::{Lane, Mapping};

    /// Serialise `set`'s plane and rebuild it through mapped views —
    /// the in-memory equivalent of a `.urlm` pack/load cycle.
    fn round_trip_plane(set: &LanguageClassifierSet) -> super::CompiledPlane {
        let plane = set.plane().expect("set is compiled");
        let mut payload = PlanePayload::default();
        plane.serialize_into(&mut payload);
        // META scalars go through JSON exactly as the `.urlm` format
        // stores them.
        let meta: super::PlaneMeta =
            serde_json::from_str(&serde_json::to_string(&payload.meta).unwrap()).unwrap();
        let matrix_map = StdArc::new(Mapping::from_bytes(&payload.matrix));
        let markov_map = StdArc::new(Mapping::from_bytes(&payload.markov));
        let views = PlaneViews {
            matrix: Lane::view(&matrix_map, 0, payload.matrix.len()).unwrap(),
            markov: meta
                .markov
                .is_some()
                .then(|| Lane::view(&markov_map, 0, payload.markov.len()).unwrap()),
        };
        super::CompiledPlane::from_bytes(plane.transform().cloned(), meta, views)
            .expect("round trip must validate")
    }

    #[test]
    fn serialized_plane_round_trips_bit_identically() {
        let (extractor, per_lang) = fitted();
        let dim = extractor.dim();
        let mut set = LanguageClassifierSet::build_vector(extractor, |lang| {
            let (pos, neg) = &per_lang[lang.index()];
            Box::new(NaiveBayes::train(pos, neg, NaiveBayesConfig::for_dim(dim)))
        });
        set.compile();
        let before: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        let rebuilt = round_trip_plane(&set);
        set.install_plane(rebuilt);
        let after: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        assert_eq!(before, after, "f64 scores must survive the round trip");
    }

    #[test]
    fn markov_plane_round_trips_through_the_binary_payload() {
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
        set.compile();
        let before: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        let rebuilt = round_trip_plane(&set);
        set.install_plane(rebuilt);
        let after: Vec<_> = probe_urls().iter().map(|u| set.score_all(u)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn from_bytes_rejects_structural_corruption() {
        let (extractor, per_lang) = fitted();
        let dim = extractor.dim();
        let mut set = LanguageClassifierSet::build_vector(extractor, |lang| {
            let (pos, neg) = &per_lang[lang.index()];
            Box::new(NaiveBayes::train(pos, neg, NaiveBayesConfig::for_dim(dim)))
        });
        set.compile();
        let plane = set.plane().unwrap();
        let mut payload = PlanePayload::default();
        plane.serialize_into(&mut payload);
        let views = |matrix: &[u8]| {
            let m = StdArc::new(Mapping::from_bytes(matrix));
            PlaneViews {
                matrix: Lane::view(&m, 0, matrix.len()).unwrap(),
                markov: None,
            }
        };

        // Truncated matrix section.
        let err = super::CompiledPlane::from_bytes(
            plane.transform().cloned(),
            payload.meta.clone(),
            views(&payload.matrix[..payload.matrix.len() - 8]),
        )
        .unwrap_err();
        assert!(err.contains("matrix section"), "{err}");

        // Declared stride disagreeing with the plans.
        let mut meta = payload.meta.clone();
        meta.stride += 1;
        let err = super::CompiledPlane::from_bytes(
            plane.transform().cloned(),
            meta,
            views(&payload.matrix),
        )
        .unwrap_err();
        assert!(err.contains("stride"), "{err}");

        // META claiming a markov plane with no section behind it.
        let mut meta = payload.meta.clone();
        meta.markov = Some(super::MarkovMeta {
            tokenizer: urlid_tokenize::Tokenizer::default(),
            stride: 2,
            lanes: [Some(0), None, None, None, None],
        });
        let err = super::CompiledPlane::from_bytes(
            plane.transform().cloned(),
            meta,
            views(&payload.matrix),
        )
        .unwrap_err();
        assert!(err.contains("markov"), "{err}");
    }
}
