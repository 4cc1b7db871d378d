//! # urlid-classifiers
//!
//! The classification algorithms of Section 3.2 and the classifier
//! combination schemes of Section 3.3 of Baykan, Henzinger, Weber
//! (VLDB 2008), implemented from scratch:
//!
//! * [`naive_bayes::NaiveBayes`] — multinomial Naive Bayes (the paper's
//!   best performer with word features);
//! * [`decision_tree::DecisionTree`] — a greedy CART-style binary decision
//!   tree, used with the custom feature set and renderable as text
//!   (Figure 1);
//! * [`relative_entropy::RelativeEntropy`] — the Sibun–Reynar relative
//!   entropy (KL divergence) classifier;
//! * [`maxent::MaxEnt`] — a maximum-entropy classifier trained by
//!   iterative scaling (the paper used the Bow toolkit's Improved
//!   Iterative Scaling; we implement Generalised Iterative Scaling, which
//!   optimises the same maximum-entropy objective);
//! * [`knn::KNearestNeighbors`] — the k-NN classifier the paper evaluated
//!   in preliminary experiments and dropped (kept for the ablation);
//! * [`cctld::CcTldClassifier`] — the ccTLD and ccTLD+ baselines that
//!   need no training data;
//! * [`combine`] — the recall-boosting (OR) and precision-boosting (AND)
//!   pairwise combinations.
//!
//! All learning algorithms are *binary* ("is it language X or not?"),
//! matching the paper's one-vs-rest setup; [`set::LanguageClassifierSet`]
//! bundles five of them into the multi-label classifier evaluated in the
//! paper's tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cctld;
pub mod codec;
pub mod combine;
pub mod compile;
pub mod decision_tree;
pub mod knn;
pub mod lanes;
pub mod markov;
pub mod maxent;
pub mod model;
pub mod naive_bayes;
pub mod rank_order;
pub mod relative_entropy;
pub mod set;
pub mod stats;

pub use cctld::CcTldClassifier;
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use combine::{
    CombinationStrategy, CombinedClassifier, CombinedHybridClassifier, CombinedVectorClassifier,
};
pub use compile::{CompileScorer, CompiledPlane, Lowering, PlanMeta, PlaneMeta, PlanePayload};
pub use decision_tree::{DecisionTree, DecisionTreeConfig};
pub use knn::{KNearestNeighbors, KnnConfig};
pub use markov::{MarkovClassifier, MarkovConfig};
pub use maxent::{GisIteration, MaxEnt, MaxEntConfig};
pub use model::{
    Algorithm, FeatureUrlClassifier, HybridClassifier, UrlClassifier, VectorClassifier,
};
pub use naive_bayes::{NaiveBayes, NaiveBayesConfig};
pub use rank_order::{RankOrder, RankOrderConfig};
pub use relative_entropy::{RelativeEntropy, RelativeEntropyConfig};
pub use set::{LanguageClassifierSet, LanguageScorer, ScoreSplit};
pub use stats::{PartialCounts, PartialDistributions, StatsTrainer};
