//! Greedy binary decision tree (CART-style).
//!
//! Section 3.2: "This algorithm builds a binary tree where the inner nodes
//! correspond to tests on a single feature ('Is the count of tokens in the
//! French dictionary bigger than 2?') and each leaf corresponds to a
//! classification. The tree is constructed greedily, where at each step
//! the feature which reduces the misclassification the most is added as a
//! node. Decision trees have the desirable property of being easy to
//! interpret."
//!
//! The paper only trains decision trees on the custom feature set (a tree
//! over hundreds of thousands of word/trigram dimensions would be
//! gigantic); the implementation accepts any feature space but the
//! intended use is with [`urlid_features::CustomFeatureExtractor`].
//!
//! [`DecisionTree::render`] produces a textual version of the tree in the
//! spirit of Figure 1 (the pruned German tree), including the per-leaf
//! success ratio `s`.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::model::VectorClassifier;
use serde::Serialize;
use urlid_features::SparseVector;

/// Configuration for decision-tree training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples a node must have to be split further.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Dimensionality of the feature space (the extractor's `dim()`).
    pub dim: usize,
}

impl DecisionTreeConfig {
    /// Default configuration for a feature space of the given size.
    pub fn for_dim(dim: usize) -> Self {
        Self {
            max_depth: 10,
            min_samples_split: 8,
            min_samples_leaf: 2,
            dim,
        }
    }
}

/// A node of the trained tree, stored in an arena.
#[derive(Debug, Clone, PartialEq, Serialize)]
enum Node {
    /// A leaf with its majority decision and statistics.
    Leaf {
        positive: bool,
        n_pos: usize,
        n_neg: usize,
    },
    /// An inner node testing `feature >= threshold`; `low` is followed
    /// when the test fails, `high` when it succeeds.
    Split {
        feature: usize,
        threshold: f64,
        low: usize,
        high: usize,
    },
}

/// A trained binary decision tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    root: usize,
    config: DecisionTreeConfig,
}

impl DecisionTree {
    /// Train a tree from positive and negative feature vectors.
    pub fn train(
        positives: &[SparseVector],
        negatives: &[SparseVector],
        config: DecisionTreeConfig,
    ) -> Self {
        assert!(
            !positives.is_empty() || !negatives.is_empty(),
            "cannot train a decision tree on an empty training set"
        );
        let dim = config.dim.max(
            positives
                .iter()
                .chain(negatives.iter())
                .map(|v| v.min_dim())
                .max()
                .unwrap_or(1),
        );
        let mut rows: Vec<(Vec<f64>, bool)> = Vec::with_capacity(positives.len() + negatives.len());
        for v in positives {
            rows.push((v.to_dense(dim), true));
        }
        for v in negatives {
            rows.push((v.to_dense(dim), false));
        }
        let mut tree = Self {
            nodes: Vec::new(),
            root: 0,
            config: DecisionTreeConfig { dim, ..config },
        };
        let indices: Vec<usize> = (0..rows.len()).collect();
        tree.root = tree.build(&rows, &indices, 0);
        tree
    }

    fn gini(n_pos: usize, n_neg: usize) -> f64 {
        let n = (n_pos + n_neg) as f64;
        if n == 0.0 {
            return 0.0;
        }
        let p = n_pos as f64 / n;
        2.0 * p * (1.0 - p)
    }

    fn leaf(&mut self, n_pos: usize, n_neg: usize) -> usize {
        self.nodes.push(Node::Leaf {
            positive: n_pos >= n_neg && n_pos > 0,
            n_pos,
            n_neg,
        });
        self.nodes.len() - 1
    }

    fn build(&mut self, rows: &[(Vec<f64>, bool)], indices: &[usize], depth: usize) -> usize {
        let n_pos = indices.iter().filter(|&&i| rows[i].1).count();
        let n_neg = indices.len() - n_pos;

        let pure = n_pos == 0 || n_neg == 0;
        if pure || depth >= self.config.max_depth || indices.len() < self.config.min_samples_split {
            return self.leaf(n_pos, n_neg);
        }

        // Find the split minimising weighted Gini impurity.
        let parent_gini = Self::gini(n_pos, n_neg);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        let dim = self.config.dim;
        for feature in 0..dim {
            // Collect distinct values for this feature among the samples.
            let mut values: Vec<f64> = indices.iter().map(|&i| rows[i].0[feature]).collect();
            values.sort_by(f64::total_cmp);
            values.dedup();
            if values.len() < 2 {
                continue;
            }
            for w in values.windows(2) {
                let threshold = (w[0] + w[1]) / 2.0;
                let mut lo = (0usize, 0usize);
                let mut hi = (0usize, 0usize);
                for &i in indices {
                    let (row, label) = &rows[i];
                    let bucket = if row[feature] >= threshold {
                        &mut hi
                    } else {
                        &mut lo
                    };
                    if *label {
                        bucket.0 += 1;
                    } else {
                        bucket.1 += 1;
                    }
                }
                let n_lo = lo.0 + lo.1;
                let n_hi = hi.0 + hi.1;
                if n_lo < self.config.min_samples_leaf || n_hi < self.config.min_samples_leaf {
                    continue;
                }
                let weighted = (n_lo as f64 * Self::gini(lo.0, lo.1)
                    + n_hi as f64 * Self::gini(hi.0, hi.1))
                    / indices.len() as f64;
                let gain = parent_gini - weighted;
                if gain > 1e-12 && best.map(|(_, _, g)| gain > g).unwrap_or(true) {
                    best = Some((feature, threshold, gain));
                }
            }
        }

        let Some((feature, threshold, _)) = best else {
            return self.leaf(n_pos, n_neg);
        };

        let (lo_idx, hi_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| rows[i].0[feature] < threshold);
        let low = self.build(rows, &lo_idx, depth + 1);
        let high = self.build(rows, &hi_idx, depth + 1);
        self.nodes.push(Node::Split {
            feature,
            threshold,
            low,
            high,
        });
        self.nodes.len() - 1
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { low, high, .. } => 1 + rec(nodes, *low).max(rec(nodes, *high)),
            }
        }
        rec(&self.nodes, self.root)
    }

    /// Render the tree as indented text in the spirit of the paper's
    /// Figure 1. `feature_name` maps feature indices to display names
    /// (e.g. "German dict. count"); leaves show the decision and the
    /// success ratio `s` (fraction of training samples at the leaf whose
    /// label matches the leaf's decision).
    pub fn render(&self, feature_name: &dyn Fn(usize) -> String) -> String {
        let mut out = String::new();
        self.render_node(self.root, 0, feature_name, &mut out);
        out
    }

    fn render_node(
        &self,
        idx: usize,
        depth: usize,
        feature_name: &dyn Fn(usize) -> String,
        out: &mut String,
    ) {
        let pad = "  ".repeat(depth);
        match &self.nodes[idx] {
            Node::Leaf {
                positive,
                n_pos,
                n_neg,
            } => {
                let total = (n_pos + n_neg).max(1);
                let s = if *positive {
                    *n_pos as f64 / total as f64
                } else {
                    *n_neg as f64 / total as f64
                };
                out.push_str(&format!(
                    "{pad}-> {} (s={:.2}, +{} / -{})\n",
                    if *positive { "POSITIVE" } else { "NEGATIVE" },
                    s,
                    n_pos,
                    n_neg
                ));
            }
            Node::Split {
                feature,
                threshold,
                low,
                high,
            } => {
                out.push_str(&format!(
                    "{pad}[{} >= {:.2}?]\n",
                    feature_name(*feature),
                    threshold
                ));
                out.push_str(&format!("{pad} yes:\n"));
                self.render_node(*high, depth + 1, feature_name, out);
                out.push_str(&format!("{pad} no:\n"));
                self.render_node(*low, depth + 1, feature_name, out);
            }
        }
    }
}

impl VectorClassifier for DecisionTree {
    fn score(&self, features: &SparseVector) -> f64 {
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Leaf {
                    positive,
                    n_pos,
                    n_neg,
                } => {
                    // Score is the signed confidence: fraction of the
                    // majority class at the leaf, in (−1, 1].
                    let total = (n_pos + n_neg).max(1) as f64;
                    let p = *n_pos as f64 / total;
                    return if *positive {
                        p.max(1e-9)
                    } else {
                        -(1.0 - p).max(1e-9)
                    };
                }
                Node::Split {
                    feature,
                    threshold,
                    low,
                    high,
                } => {
                    idx = if features.get(*feature as u32) >= *threshold {
                        *high
                    } else {
                        *low
                    };
                }
            }
        }
    }
}

impl DecisionTree {
    /// Append the trained tree to the `.urlm` `MODELS` codec stream
    /// (see [`crate::codec`]).
    pub fn write_binary(&self, w: &mut ByteWriter) {
        w.write_usize(self.config.max_depth);
        w.write_usize(self.config.min_samples_split);
        w.write_usize(self.config.min_samples_leaf);
        w.write_usize(self.config.dim);
        w.write_usize(self.root);
        w.write_usize(self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Leaf {
                    positive,
                    n_pos,
                    n_neg,
                } => {
                    w.write_u8(0);
                    w.write_bool(*positive);
                    w.write_usize(*n_pos);
                    w.write_usize(*n_neg);
                }
                Node::Split {
                    feature,
                    threshold,
                    low,
                    high,
                } => {
                    w.write_u8(1);
                    w.write_usize(*feature);
                    w.write_f64(*threshold);
                    w.write_usize(*low);
                    w.write_usize(*high);
                }
            }
        }
    }

    /// Decode a tree previously written by
    /// [`DecisionTree::write_binary`], validating the arena so a
    /// corrupted file cannot make traversal panic or loop: the trainer
    /// builds post-order (children pushed before their parent), so
    /// every split's child indices must be strictly below its own —
    /// which also guarantees traversal from any node terminates.
    pub fn read_binary(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let config = DecisionTreeConfig {
            max_depth: r.read_usize("dt.max_depth")?,
            min_samples_split: r.read_usize("dt.min_samples_split")?,
            min_samples_leaf: r.read_usize("dt.min_samples_leaf")?,
            dim: r.read_usize("dt.dim")?,
        };
        let root = r.read_usize("dt.root")?;
        let len = r.read_len("dt.nodes")?;
        let mut nodes = Vec::with_capacity(len);
        for idx in 0..len {
            let node = match r.read_u8("dt.node.tag")? {
                0 => Node::Leaf {
                    positive: r.read_bool("dt.node.positive")?,
                    n_pos: r.read_usize("dt.node.n_pos")?,
                    n_neg: r.read_usize("dt.node.n_neg")?,
                },
                1 => {
                    let feature = r.read_usize("dt.node.feature")?;
                    let threshold = r.read_f64("dt.node.threshold")?;
                    let low = r.read_usize("dt.node.low")?;
                    let high = r.read_usize("dt.node.high")?;
                    if low >= idx || high >= idx {
                        return Err(CodecError::Invalid {
                            what: "dt split child out of post-order",
                        });
                    }
                    Node::Split {
                        feature,
                        threshold,
                        low,
                        high,
                    }
                }
                _ => {
                    return Err(CodecError::Invalid {
                        what: "dt.node.tag",
                    })
                }
            };
            nodes.push(node);
        }
        if nodes.is_empty() || root >= nodes.len() {
            return Err(CodecError::Invalid {
                what: "dt root out of range",
            });
        }
        Ok(Self {
            nodes,
            root,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(values: &[f64]) -> SparseVector {
        SparseVector::from_pairs(values.iter().enumerate().map(|(i, v)| (i as u32, *v)))
    }

    /// Feature 0 is a binary "German TLD" flag, feature 1 a dictionary
    /// count; positives have the flag or a count >= 2.
    fn toy_training() -> (Vec<SparseVector>, Vec<SparseVector>) {
        let positives = vec![
            dense(&[1.0, 0.0]),
            dense(&[1.0, 1.0]),
            dense(&[0.0, 2.0]),
            dense(&[0.0, 3.0]),
            dense(&[1.0, 2.0]),
            dense(&[1.0, 3.0]),
        ];
        let negatives = vec![
            dense(&[0.0, 0.0]),
            dense(&[0.0, 1.0]),
            dense(&[0.0, 0.0]),
            dense(&[0.0, 1.0]),
            dense(&[0.0, 0.0]),
            dense(&[0.0, 1.0]),
        ];
        (positives, negatives)
    }

    fn config() -> DecisionTreeConfig {
        DecisionTreeConfig {
            max_depth: 4,
            min_samples_split: 2,
            min_samples_leaf: 1,
            dim: 2,
        }
    }

    #[test]
    fn learns_a_perfectly_separating_tree() {
        let (pos, neg) = toy_training();
        let dt = DecisionTree::train(&pos, &neg, config());
        for v in &pos {
            assert!(dt.classify(v), "positive misclassified: {v:?}");
        }
        for v in &neg {
            assert!(!dt.classify(v), "negative misclassified: {v:?}");
        }
    }

    #[test]
    fn generalizes_the_two_rules() {
        let (pos, neg) = toy_training();
        let dt = DecisionTree::train(&pos, &neg, config());
        // German TLD, no dictionary hits -> positive.
        assert!(dt.classify(&dense(&[1.0, 0.0])));
        // No TLD but many dictionary hits -> positive.
        assert!(dt.classify(&dense(&[0.0, 5.0])));
        // Neither -> negative.
        assert!(!dt.classify(&dense(&[0.0, 0.0])));
    }

    #[test]
    fn depth_and_node_count_are_bounded() {
        let (pos, neg) = toy_training();
        let dt = DecisionTree::train(&pos, &neg, config());
        assert!(dt.depth() <= 4);
        assert!(dt.node_count() >= 3);
        let shallow = DecisionTree::train(
            &pos,
            &neg,
            DecisionTreeConfig {
                max_depth: 0,
                ..config()
            },
        );
        assert_eq!(shallow.depth(), 0);
        assert_eq!(shallow.node_count(), 1);
    }

    #[test]
    fn pure_training_set_is_a_single_leaf() {
        let pos = vec![dense(&[1.0, 1.0]), dense(&[1.0, 0.0])];
        let dt = DecisionTree::train(&pos, &[], config());
        assert_eq!(dt.node_count(), 1);
        assert!(dt.classify(&dense(&[0.0, 0.0])));
    }

    #[test]
    fn all_negative_training_set_always_rejects() {
        let neg = vec![dense(&[1.0, 1.0]), dense(&[0.0, 0.0])];
        let dt = DecisionTree::train(&[], &neg, config());
        assert!(!dt.classify(&dense(&[1.0, 1.0])));
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_splits() {
        let (pos, neg) = toy_training();
        let dt = DecisionTree::train(
            &pos,
            &neg,
            DecisionTreeConfig {
                min_samples_leaf: 100,
                ..config()
            },
        );
        // No split satisfies the leaf-size constraint -> single leaf.
        assert_eq!(dt.node_count(), 1);
    }

    #[test]
    fn render_mentions_features_and_success_ratios() {
        let (pos, neg) = toy_training();
        let dt = DecisionTree::train(&pos, &neg, config());
        let text = dt.render(&|f| match f {
            0 => "German TLD".to_owned(),
            1 => "German dict. count".to_owned(),
            _ => format!("f{f}"),
        });
        assert!(text.contains("German TLD") || text.contains("German dict. count"));
        assert!(text.contains("s="));
        assert!(text.contains("POSITIVE"));
        assert!(text.contains("NEGATIVE"));
    }

    #[test]
    fn scores_are_confidence_weighted() {
        let (pos, neg) = toy_training();
        let dt = DecisionTree::train(&pos, &neg, config());
        let s_pos = dt.score(&dense(&[1.0, 3.0]));
        let s_neg = dt.score(&dense(&[0.0, 0.0]));
        assert!(s_pos > 0.0 && s_pos <= 1.0);
        assert!((-1.0..0.0).contains(&s_neg));
    }

    #[test]
    #[should_panic]
    fn empty_training_panics() {
        let _ = DecisionTree::train(&[], &[], config());
    }

    #[test]
    fn serde_round_trip() {
        let (pos, neg) = toy_training();
        let dt = DecisionTree::train(&pos, &neg, config());
        let back =
            crate::codec::round_trip(&dt, DecisionTree::write_binary, DecisionTree::read_binary);
        assert_eq!(dt, back);
        for x in [dense(&[1.0, 2.0]), dense(&[0.0, 1.0])] {
            assert_eq!(dt.score(&x).to_bits(), back.score(&x).to_bits());
        }
    }
}
