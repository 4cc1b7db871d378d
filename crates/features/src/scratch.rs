//! Reusable per-thread scratch buffers for allocation-free extraction.
//!
//! The classification hot path (a crawler filtering millions of frontier
//! URLs) extracts features from every URL. The naive path allocates one
//! `String` per token (or per n-gram) per URL; with a scratch buffer the
//! tokenizer lowercases into a single reusable buffer and the vocabulary
//! hits are collected into a reusable index buffer, so tokenisation does
//! **zero per-URL `String` allocation**. The interpreted extractors
//! still allocate the resulting [`crate::SparseVector`] (it is the
//! returned value); compiled extraction fills the reusable `vector`
//! instead, so a warm call allocates nothing. The buffers serve
//! extraction only — the compiled plane's kernels need no scratch.
//!
//! One `ExtractScratch` per thread is enough; the batch classification
//! API in `urlid-classifiers` creates one per worker thread.

/// Reusable buffers threaded through [`crate::FeatureExtractor::transform_with`].
#[derive(Debug, Default)]
pub struct ExtractScratch {
    /// Lowercased-token buffer (reused across tokens and URLs; the
    /// compiled custom transform lowercases mixed-case letter runs into
    /// it).
    pub token: String,
    /// Padded-token buffer for n-gram windows.
    pub padded: String,
    /// Vocabulary-index hits of the current URL.
    pub indices: Vec<u32>,
    /// Reusable output vector for compiled extraction
    /// ([`crate::CompiledTransform::extract_into`]): with it, a warm
    /// word, trigram or custom extraction allocates nothing at all.
    pub vector: crate::SparseVector,
}

impl ExtractScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_start_empty_and_are_reusable() {
        let mut s = ExtractScratch::new();
        assert!(s.token.is_empty() && s.padded.is_empty() && s.indices.is_empty());
        s.token.push_str("abc");
        s.indices.push(3);
        s.indices.clear();
        assert!(s.indices.is_empty());
        assert!(s.indices.capacity() >= 1, "capacity is retained");
    }
}
