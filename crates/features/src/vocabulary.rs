//! A string-to-index vocabulary with frequency-based pruning.
//!
//! For word and trigram features "the dimensionality of the feature
//! vectors depends on the training set" (Section 3.1). The [`Vocabulary`]
//! maps each distinct feature string observed during fitting to a dense
//! `u32` index; unseen strings at transform time are simply dropped
//! (out-of-vocabulary tokens carry no signal).
//!
//! The n-gram literature usually prunes rare features ("all n-grams which
//! occur more than k times in the training set", Section 2); the
//! vocabulary supports an optional minimum document frequency for that
//! purpose.

use serde::Serialize;
use std::collections::HashMap;

/// A frozen mapping from feature strings to indices `0..len`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Vocabulary {
    index: HashMap<String, u32>,
    names: Vec<String>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of known features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the vocabulary empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Look up the index of a feature string.
    pub fn get(&self, feature: &str) -> Option<u32> {
        self.index.get(feature).copied()
    }

    /// The feature string at an index.
    pub fn name(&self, index: u32) -> Option<&str> {
        self.names.get(index as usize).map(|s| s.as_str())
    }

    /// Insert a feature string, returning its (new or existing) index.
    pub fn get_or_insert(&mut self, feature: &str) -> u32 {
        if let Some(&i) = self.index.get(feature) {
            return i;
        }
        let i = self.names.len() as u32;
        self.index.insert(feature.to_owned(), i);
        self.names.push(feature.to_owned());
        i
    }

    /// Iterate over `(index, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }
}

/// Builder that counts document frequencies and freezes a [`Vocabulary`]
/// containing only features above a minimum count.
///
/// The builder is the *mergeable* half of the two-pass parallel
/// vocabulary build: every corpus shard counts into its own builder
/// ([`VocabularyBuilder::observe`]), the per-shard builders are combined
/// with [`VocabularyBuilder::merge`], and only the merged builder is
/// frozen. Counting is a sum of `u64`s and min-count pruning happens at
/// freeze time only, so observe/merge are order-independent: any shard
/// order (and any shard count) freezes the identical [`Vocabulary`].
#[derive(Debug, Clone, Default)]
pub struct VocabularyBuilder {
    counts: HashMap<String, u64>,
    min_count: u64,
}

impl VocabularyBuilder {
    /// Create a builder; `min_count` of 0 or 1 keeps every observed feature.
    pub fn new(min_count: u64) -> Self {
        Self {
            counts: HashMap::new(),
            min_count,
        }
    }

    /// Record one occurrence of a feature.
    pub fn observe(&mut self, feature: &str) {
        match self.counts.get_mut(feature) {
            Some(c) => *c += 1,
            None => {
                self.counts.insert(feature.to_owned(), 1);
            }
        }
    }

    /// Record many occurrences.
    pub fn observe_all<I, S>(&mut self, features: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for f in features {
            self.observe(f.as_ref());
        }
    }

    /// Number of distinct features observed so far (before pruning).
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Absorb another builder's counts (the reduce step of a sharded
    /// vocabulary build). Counts are summed per feature; pruning is
    /// deferred to [`VocabularyBuilder::build`], so merging partial
    /// builders in any order — or observing everything in one builder —
    /// freezes the same vocabulary.
    ///
    /// Both builders must have been created with the same `min_count`
    /// (shards of one fit always are; debug builds assert it).
    pub fn merge(&mut self, other: VocabularyBuilder) {
        debug_assert_eq!(
            self.min_count, other.min_count,
            "merging vocabulary builders with different min_count"
        );
        if self.counts.is_empty() {
            self.counts = other.counts;
            return;
        }
        for (feature, count) in other.counts {
            *self.counts.entry(feature).or_insert(0) += count;
        }
    }

    /// Freeze into a [`Vocabulary`], keeping only features observed at
    /// least `min_count` times. Features are indexed in lexicographic
    /// order so that the result is deterministic.
    pub fn build(&self) -> Vocabulary {
        let threshold = self.min_count.max(1);
        let mut kept: Vec<&str> = self
            .counts
            .iter()
            .filter(|(_, &c)| c >= threshold)
            .map(|(s, _)| s.as_str())
            .collect();
        kept.sort_unstable();
        let mut vocab = Vocabulary::new();
        for f in kept {
            vocab.get_or_insert(f);
        }
        vocab
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_insert_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.get_or_insert("alpha");
        let b = v.get_or_insert("beta");
        assert_ne!(a, b);
        assert_eq!(v.get_or_insert("alpha"), a);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get("alpha"), Some(a));
        assert_eq!(v.name(a), Some("alpha"));
        assert_eq!(v.get("gamma"), None);
        assert_eq!(v.name(99), None);
    }

    #[test]
    fn builder_prunes_rare_features() {
        let mut b = VocabularyBuilder::new(2);
        b.observe_all(["the", "the", "the", "rare", "der", "der"]);
        assert_eq!(b.distinct(), 3);
        let v = b.build();
        assert_eq!(v.len(), 2);
        assert!(v.get("the").is_some());
        assert!(v.get("der").is_some());
        assert!(v.get("rare").is_none());
    }

    #[test]
    fn builder_with_min_count_zero_keeps_everything() {
        let mut b = VocabularyBuilder::new(0);
        b.observe("x");
        assert_eq!(b.build().len(), 1);
    }

    #[test]
    fn build_is_deterministic_and_sorted() {
        let mut b = VocabularyBuilder::new(1);
        b.observe_all(["zebra", "apple", "mango"]);
        let v = b.build();
        let names: Vec<&str> = v.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["apple", "mango", "zebra"]);
        // Building twice gives identical indices.
        assert_eq!(b.build(), v);
    }

    #[test]
    fn merged_shards_freeze_the_same_vocabulary_as_one_pass() {
        let features = ["the", "the", "der", "rare", "der", "the", "les"];
        let mut whole = VocabularyBuilder::new(2);
        whole.observe_all(features);

        // Shard the stream, count per shard, merge in both orders.
        let mut a = VocabularyBuilder::new(2);
        a.observe_all(&features[..3]);
        let mut b = VocabularyBuilder::new(2);
        b.observe_all(&features[3..]);
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);

        assert_eq!(ab.build(), whole.build());
        assert_eq!(ba.build(), whole.build());
    }

    #[test]
    fn merge_into_empty_builder_adopts_counts() {
        let mut a = VocabularyBuilder::new(2);
        let mut b = VocabularyBuilder::new(2);
        b.observe_all(["x", "x", "y"]);
        a.merge(b);
        assert_eq!(a.distinct(), 2);
        let v = a.build();
        assert!(v.get("x").is_some());
        assert!(v.get("y").is_none(), "y below min_count after merge");
    }

    #[test]
    fn pruning_happens_only_at_freeze_time() {
        // A feature below min_count in every shard must still survive if
        // the *merged* count clears the threshold — i.e. merge must not
        // pre-prune.
        let mut a = VocabularyBuilder::new(3);
        a.observe("split");
        let mut b = VocabularyBuilder::new(3);
        b.observe("split");
        let mut c = VocabularyBuilder::new(3);
        c.observe("split");
        a.merge(b);
        a.merge(c);
        assert!(a.build().get("split").is_some());
    }

    #[test]
    fn empty_vocabulary_behaves() {
        let v = Vocabulary::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.get("anything"), None);
    }
}
