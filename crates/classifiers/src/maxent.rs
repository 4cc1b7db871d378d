//! Maximum Entropy classifier trained by iterative scaling.
//!
//! Section 3.2: "The idea behind this approach is to find a distribution
//! over the observed features which explains the observed data but which
//! also tries to maximize the entropy, or 'uncertainty', in this
//! distribution. This results in a constrained optimization problem which
//! is then solved using an iterative scaling approach."
//!
//! The paper uses the Bow toolkit's Improved Iterative Scaling (Nigam,
//! Lafferty, McCallum 1999). This implementation uses **Generalised
//! Iterative Scaling** (GIS) with a slack feature, which optimises exactly
//! the same maximum-entropy / conditional log-likelihood objective; the
//! difference is only in the update rule and convergence speed. The number
//! of scaling iterations is configurable because Section 7 of the paper
//! deliberately compares 40 iterations (URL training) against 2 iterations
//! (content training).
//!
//! The binary model is
//!
//! ```text
//! P(y | x) ∝ exp( Σ_j λ_{y,j} · x_j + λ_{y,slack} · (C − Σ_j x_j) )
//! ```
//!
//! with `C` the maximum feature sum observed in training, and the GIS
//! update `λ_{y,j} += (1/C) · ln(E_emp[f_j·1_y] / E_model[f_j·1_y])`.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::compile::{CompileScorer, Lowering};
use crate::lanes;
use crate::model::VectorClassifier;
use serde::Serialize;
use urlid_features::parallel::par_map;
use urlid_features::SparseVector;

/// Interior expectation shards per GIS iteration. A **constant** (never
/// derived from the job count), so the shard structure — and therefore
/// the exact floating-point fold — is a pure function of the training
/// data: `train_jobs` is bit-identical at any `jobs`.
const EXPECTATION_SHARDS: usize = 16;

/// One shard's zero-initialised slice of an iteration's model
/// expectations (the map half of the expectation map-reduce).
struct ExpectationPartial {
    mod_pos: Vec<f64>,
    mod_neg: Vec<f64>,
    slack_pos: f64,
    slack_neg: f64,
}

/// One GIS iteration's convergence observation: the magnitude of the
/// weight updates applied in that iteration, measured on the effective
/// weights the model actually scores with (λ⁺ − λ⁻ per feature, plus
/// the slack difference).
///
/// Reported through the optional observer of
/// [`MaxEnt::train_jobs_observed`]; purely observational — the trained
/// model is bit-identical whether or not anyone is watching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GisIteration {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// Largest |Δ(λ⁺ − λ⁻)| over all features (incl. the slack feature).
    pub max_abs_delta: f64,
    /// Mean |Δ(λ⁺ − λ⁻)| over all features (incl. the slack feature).
    pub mean_abs_delta: f64,
}

/// Configuration for Maximum Entropy training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MaxEntConfig {
    /// Number of iterative-scaling iterations (paper: 40 for URL training,
    /// 2 for the content-training experiment).
    pub iterations: usize,
    /// Dimensionality of the feature space (the extractor's `dim()`).
    pub dim: usize,
    /// Small count added to empirical feature expectations so that a
    /// feature never seen with one of the classes does not drive its
    /// weight to −∞.
    pub smoothing: f64,
}

impl MaxEntConfig {
    /// Default configuration for a feature space of the given size.
    pub fn for_dim(dim: usize) -> Self {
        Self {
            iterations: 40,
            dim,
            smoothing: 0.1,
        }
    }

    /// Same, but with an explicit iteration count.
    pub fn with_iterations(dim: usize, iterations: usize) -> Self {
        Self {
            iterations,
            ..Self::for_dim(dim)
        }
    }
}

/// A trained Maximum Entropy binary classifier.
#[derive(Debug, Clone, Serialize)]
pub struct MaxEnt {
    /// λ_{+,j} − λ_{−,j} for real features, plus the slack feature last.
    /// Scoring only needs the difference of the two classes' weights.
    weight_diff: Vec<f64>,
    /// Slack weight difference.
    slack_diff: f64,
    /// The GIS constant C (maximum feature sum seen in training).
    c: f64,
    config: MaxEntConfig,
}

impl MaxEnt {
    /// Train from positive and negative example feature vectors.
    ///
    /// Each GIS iteration's model-expectation pass runs as a
    /// deterministic map-reduce over `EXPECTATION_SHARDS` fixed
    /// shards, folded in ascending shard order — `train` is exactly
    /// [`MaxEnt::train_jobs`] with one worker, and both produce the
    /// same bits at any job count.
    pub fn train(
        positives: &[SparseVector],
        negatives: &[SparseVector],
        config: MaxEntConfig,
    ) -> Self {
        Self::train_jobs(positives, negatives, config, 1)
    }

    /// [`MaxEnt::train`] with up to `jobs` worker threads executing the
    /// per-iteration expectation shards. The shard structure and fold
    /// order are fixed, so the trained model is **bit-identical** at
    /// any `jobs` value (proven by `tests/training_parity.rs`).
    pub fn train_jobs(
        positives: &[SparseVector],
        negatives: &[SparseVector],
        config: MaxEntConfig,
        jobs: usize,
    ) -> Self {
        Self::train_jobs_observed(positives, negatives, config, jobs, None)
    }

    /// [`MaxEnt::train_jobs`] with an optional per-iteration convergence
    /// observer. The observer only *reads* the updates the iteration
    /// applied (as [`GisIteration`]); the arithmetic that produces the
    /// weights is byte-for-byte the same code path with or without it,
    /// so observed training returns the same bits as unobserved
    /// training (asserted by `observer_does_not_change_the_model`).
    pub fn train_jobs_observed(
        positives: &[SparseVector],
        negatives: &[SparseVector],
        config: MaxEntConfig,
        jobs: usize,
        mut observer: Option<&mut dyn FnMut(GisIteration)>,
    ) -> Self {
        assert!(
            !positives.is_empty() && !negatives.is_empty(),
            "Maximum Entropy needs at least one example of each class"
        );
        let dim = config.dim.max(
            positives
                .iter()
                .chain(negatives.iter())
                .map(|v| v.min_dim())
                .max()
                .unwrap_or(0),
        );
        let n = (positives.len() + negatives.len()) as f64;

        // GIS constant: maximum total feature mass of any example
        // (including at least 1 so the slack feature is well-defined).
        let c = positives
            .iter()
            .chain(negatives.iter())
            .map(|v| v.sum())
            .fold(1.0_f64, f64::max);

        // Empirical expectations E_emp[f_j · 1_{y}] for y = +, −.
        let mut emp_pos = vec![config.smoothing; dim];
        let mut emp_neg = vec![config.smoothing; dim];
        let mut emp_slack_pos = config.smoothing;
        let mut emp_slack_neg = config.smoothing;
        for v in positives {
            v.add_to_dense(&mut emp_pos, 1.0);
            emp_slack_pos += c - v.sum();
        }
        for v in negatives {
            v.add_to_dense(&mut emp_neg, 1.0);
            emp_slack_neg += c - v.sum();
        }
        emp_pos.resize(dim, config.smoothing);
        emp_neg.resize(dim, config.smoothing);

        // Model weights per class.
        let mut w_pos = vec![0.0; dim];
        let mut w_neg = vec![0.0; dim];
        let mut w_slack_pos = 0.0;
        let mut w_slack_neg = 0.0;

        let all: Vec<(&SparseVector, bool)> = positives
            .iter()
            .map(|v| (v, true))
            .chain(negatives.iter().map(|v| (v, false)))
            .collect();
        // Fixed interior shard structure: a function of the example
        // count alone, so `jobs` only decides who runs a shard, never
        // what a shard contains.
        let shard_len = all.len().div_ceil(EXPECTATION_SHARDS).max(1);
        let shards: Vec<&[(&SparseVector, bool)]> = all.chunks(shard_len).collect();

        for iteration in 0..config.iterations {
            // Map: each shard accumulates its examples' contributions
            // into zero-initialised partials, serially within the shard.
            let partials = par_map(jobs, &shards, |shard| {
                let mut partial = ExpectationPartial {
                    mod_pos: vec![0.0; dim],
                    mod_neg: vec![0.0; dim],
                    slack_pos: 0.0,
                    slack_neg: 0.0,
                };
                for (v, _) in *shard {
                    let slack = c - v.sum();
                    let s_pos = v.dot_dense(&w_pos) + w_slack_pos * slack;
                    let s_neg = v.dot_dense(&w_neg) + w_slack_neg * slack;
                    let max = s_pos.max(s_neg);
                    let e_pos = (s_pos - max).exp();
                    let e_neg = (s_neg - max).exp();
                    let z = e_pos + e_neg;
                    let p_pos = e_pos / z;
                    let p_neg = e_neg / z;
                    v.add_to_dense(&mut partial.mod_pos, p_pos);
                    v.add_to_dense(&mut partial.mod_neg, p_neg);
                    partial.slack_pos += p_pos * slack;
                    partial.slack_neg += p_neg * slack;
                }
                partial
            });

            // Reduce: fold the partials onto the smoothing-initialised
            // totals in ascending shard order (the chunked elementwise
            // add is bit-identical to the scalar loop; see
            // `crate::lanes`).
            let mut mod_pos = vec![config.smoothing; dim];
            let mut mod_neg = vec![config.smoothing; dim];
            let mut mod_slack_pos = config.smoothing;
            let mut mod_slack_neg = config.smoothing;
            for partial in &partials {
                lanes::add_assign(&mut mod_pos, &partial.mod_pos);
                lanes::add_assign(&mut mod_neg, &partial.mod_neg);
                mod_slack_pos += partial.slack_pos;
                mod_slack_neg += partial.slack_neg;
            }

            // GIS updates. (Binding each update to a local before the
            // `+=` is the same float-op sequence as adding the
            // expression in place — the locals exist so the observer
            // can watch convergence without touching the arithmetic.)
            let mut max_abs = 0.0_f64;
            let mut sum_abs = 0.0_f64;
            for j in 0..dim {
                let dp = (emp_pos[j] / mod_pos[j]).ln() / c;
                let dn = (emp_neg[j] / mod_neg[j]).ln() / c;
                w_pos[j] += dp;
                w_neg[j] += dn;
                if observer.is_some() {
                    let a = (dp - dn).abs();
                    max_abs = max_abs.max(a);
                    sum_abs += a;
                }
            }
            let dsp = (emp_slack_pos / mod_slack_pos).ln() / c;
            let dsn = (emp_slack_neg / mod_slack_neg).ln() / c;
            w_slack_pos += dsp;
            w_slack_neg += dsn;
            if let Some(observe) = observer.as_deref_mut() {
                let a = (dsp - dsn).abs();
                max_abs = max_abs.max(a);
                sum_abs += a;
                observe(GisIteration {
                    iteration,
                    max_abs_delta: max_abs,
                    mean_abs_delta: sum_abs / (dim as f64 + 1.0),
                });
            }
            let _ = n;
        }

        let weight_diff: Vec<f64> = (0..dim).map(|j| w_pos[j] - w_neg[j]).collect();
        Self {
            weight_diff,
            slack_diff: w_slack_pos - w_slack_neg,
            c,
            config: MaxEntConfig { dim, ..config },
        }
    }

    /// The learnt per-feature weight differences λ⁺ − λ⁻.
    pub fn weights(&self) -> &[f64] {
        &self.weight_diff
    }

    /// The configuration used for training.
    pub fn config(&self) -> MaxEntConfig {
        self.config
    }
}

impl VectorClassifier for MaxEnt {
    fn score(&self, features: &SparseVector) -> f64 {
        let slack = (self.c - features.sum()).max(0.0);
        features.dot_dense(&self.weight_diff) + self.slack_diff * slack
    }

    fn as_compile(&self) -> Option<&dyn CompileScorer> {
        Some(self)
    }
}

impl CompileScorer for MaxEnt {
    /// The weight-difference vector is the lane; the slack term is a
    /// per-language finisher over the shared feature sum. Padding with
    /// 0.0 reproduces `dot_dense`'s skip of out-of-range indices (adding
    /// `x · 0.0` is an exact no-op for the finite accumulator).
    fn lower(&self, dim: usize) -> Lowering {
        let mut weights = self.weight_diff.clone();
        if weights.len() < dim {
            weights.resize(dim, 0.0);
        }
        Lowering::MaxEnt {
            weights,
            slack_diff: self.slack_diff,
            c: self.c,
        }
    }
}

impl MaxEnt {
    /// Append the trained model to the `.urlm` `MODELS` codec stream
    /// (see [`crate::codec`]). Floats are written bit-exactly.
    pub fn write_binary(&self, w: &mut ByteWriter) {
        w.write_usize(self.config.iterations);
        w.write_usize(self.config.dim);
        w.write_f64(self.config.smoothing);
        w.write_f64(self.slack_diff);
        w.write_f64(self.c);
        w.write_f64_slice(&self.weight_diff);
    }

    /// Decode a model previously written by [`MaxEnt::write_binary`].
    pub fn read_binary(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            config: MaxEntConfig {
                iterations: r.read_usize("me.iterations")?,
                dim: r.read_usize("me.dim")?,
                smoothing: r.read_f64("me.smoothing")?,
            },
            slack_diff: r.read_f64("me.slack_diff")?,
            c: r.read_f64("me.c")?,
            weight_diff: r.read_f64_vec("me.weight_diff")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(indices: &[u32]) -> SparseVector {
        SparseVector::from_counts(indices.iter().copied())
    }

    fn toy_training() -> (Vec<SparseVector>, Vec<SparseVector>) {
        let positives = vec![
            vec_of(&[0, 1]),
            vec_of(&[0, 2]),
            vec_of(&[1, 2, 3]),
            vec_of(&[0, 3]),
        ];
        let negatives = vec![
            vec_of(&[4, 5]),
            vec_of(&[5, 6]),
            vec_of(&[4, 6, 7]),
            vec_of(&[5, 7]),
        ];
        (positives, negatives)
    }

    #[test]
    fn separable_data_is_classified_correctly() {
        let (pos, neg) = toy_training();
        let me = MaxEnt::train(&pos, &neg, MaxEntConfig::for_dim(8));
        assert!(me.classify(&vec_of(&[0, 1])));
        assert!(!me.classify(&vec_of(&[4, 5])));
        assert!(me.score(&vec_of(&[2, 3])) > 0.0);
        assert!(me.score(&vec_of(&[6, 7])) < 0.0);
    }

    #[test]
    fn more_iterations_fit_the_training_data_at_least_as_well() {
        let (pos, neg) = toy_training();
        let short = MaxEnt::train(&pos, &neg, MaxEntConfig::with_iterations(8, 2));
        let long = MaxEnt::train(&pos, &neg, MaxEntConfig::with_iterations(8, 60));
        let training_accuracy = |m: &MaxEnt| {
            let mut correct = 0;
            for v in &pos {
                if m.classify(v) {
                    correct += 1;
                }
            }
            for v in &neg {
                if !m.classify(v) {
                    correct += 1;
                }
            }
            correct
        };
        assert!(training_accuracy(&long) >= training_accuracy(&short));
        assert_eq!(training_accuracy(&long), 8);
    }

    #[test]
    fn weights_have_interpretable_signs() {
        let (pos, neg) = toy_training();
        let me = MaxEnt::train(&pos, &neg, MaxEntConfig::for_dim(8));
        let w = me.weights();
        assert!(w[0] > 0.0, "feature 0 is positive-class evidence");
        assert!(w[5] < 0.0, "feature 5 is negative-class evidence");
    }

    #[test]
    fn mixed_evidence_follows_the_majority() {
        let (pos, neg) = toy_training();
        let me = MaxEnt::train(&pos, &neg, MaxEntConfig::for_dim(8));
        assert!(me.classify(&vec_of(&[0, 1, 4])));
        assert!(!me.classify(&vec_of(&[0, 4, 5])));
    }

    #[test]
    fn empty_vector_scores_finite() {
        let (pos, neg) = toy_training();
        let me = MaxEnt::train(&pos, &neg, MaxEntConfig::for_dim(8));
        assert!(me.score(&SparseVector::new()).is_finite());
    }

    #[test]
    fn unseen_feature_indices_are_ignored() {
        let (pos, neg) = toy_training();
        let me = MaxEnt::train(&pos, &neg, MaxEntConfig::for_dim(8));
        let s1 = me.score(&vec_of(&[0]));
        let s2 = me.score(&vec_of(&[0, 1000]));
        // The extra unseen feature contributes no weight but does change
        // the slack; both must stay finite and positive here.
        assert!(s1.is_finite() && s2.is_finite());
        assert!(s2 > 0.0);
    }

    #[test]
    #[should_panic]
    fn one_sided_training_panics() {
        let _ = MaxEnt::train(&[], &[vec_of(&[0])], MaxEntConfig::for_dim(2));
    }

    #[test]
    fn zero_iterations_gives_a_neutral_model() {
        let (pos, neg) = toy_training();
        let me = MaxEnt::train(&pos, &neg, MaxEntConfig::with_iterations(8, 0));
        assert_eq!(me.score(&vec_of(&[0, 1])), 0.0);
    }

    #[test]
    fn interior_sharding_is_bit_identical_at_any_job_count() {
        // Enough examples that the fixed shard structure has several
        // multi-example shards (40 examples over 16 shards).
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for k in 0..20u32 {
            pos.push(vec_of(&[k % 4, (k + 1) % 4, 8 + k % 3]));
            neg.push(vec_of(&[4 + k % 4, 11 + k % 5]));
        }
        let config = MaxEntConfig::with_iterations(16, 7);
        let base = MaxEnt::train_jobs(&pos, &neg, config, 1);
        let base_json = serde_json::to_string(&base).unwrap();
        for jobs in [2, 3, 5, 16] {
            let other = MaxEnt::train_jobs(&pos, &neg, config, jobs);
            assert_eq!(
                base_json,
                serde_json::to_string(&other).unwrap(),
                "jobs={jobs} diverges from jobs=1"
            );
        }
        // And the plain entry point is the one-worker schedule.
        let plain = MaxEnt::train(&pos, &neg, config);
        assert_eq!(base_json, serde_json::to_string(&plain).unwrap());
    }

    #[test]
    fn observer_does_not_change_the_model() {
        let (pos, neg) = toy_training();
        let config = MaxEntConfig::with_iterations(8, 9);
        let plain = MaxEnt::train_jobs(&pos, &neg, config, 2);
        let mut seen = Vec::new();
        let mut push = |it: GisIteration| seen.push(it);
        let observed = MaxEnt::train_jobs_observed(&pos, &neg, config, 2, Some(&mut push));
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&observed).unwrap(),
            "observing convergence must not change the trained bits"
        );
        assert_eq!(seen.len(), 9, "one observation per iteration");
        for (i, it) in seen.iter().enumerate() {
            assert_eq!(it.iteration, i);
            assert!(it.max_abs_delta.is_finite() && it.max_abs_delta > 0.0);
            assert!(it.mean_abs_delta <= it.max_abs_delta + 1e-15);
        }
    }

    #[test]
    fn observed_deltas_shrink_as_gis_converges() {
        let (pos, neg) = toy_training();
        let mut seen = Vec::new();
        let mut push = |it: GisIteration| seen.push(it);
        let _ = MaxEnt::train_jobs_observed(
            &pos,
            &neg,
            MaxEntConfig::with_iterations(8, 40),
            1,
            Some(&mut push),
        );
        let first = seen.first().unwrap().max_abs_delta;
        let last = seen.last().unwrap().max_abs_delta;
        assert!(
            last < first / 2.0,
            "GIS updates should shrink markedly over 40 iterations: {first} -> {last}"
        );
    }

    #[test]
    fn serde_round_trip() {
        let (pos, neg) = toy_training();
        let me = MaxEnt::train(&pos, &neg, MaxEntConfig::for_dim(8));
        let back = crate::codec::round_trip(&me, MaxEnt::write_binary, MaxEnt::read_binary);
        let x = vec_of(&[1, 6]);
        assert_eq!(me.score(&x).to_bits(), back.score(&x).to_bits());
    }
}
