//! The sharded LRU result cache.
//!
//! Scoring a URL costs tokenisation plus feature extraction plus five
//! model evaluations; real serving traffic repeats URLs heavily (hot
//! pages, retries, crawler revisits). [`ResultCache`] memoises the five
//! per-language scores keyed by [`normalize_url`], so a repeated URL
//! performs **zero** feature extractions — an invariant asserted by an
//! integration test through `urlid_features::CountingExtractor`.
//!
//! Design:
//!
//! * **Mutex striping** — the capacity is split over N independent
//!   shards, each its own `Mutex<LruShard>`, selected by key hash;
//!   reactor threads contend only when they hit the same shard.
//! * **True LRU per shard** — an intrusive doubly-linked list over a
//!   slab (`Vec` of nodes + free list), so `get`, `insert` and eviction
//!   are all O(1); no allocation beyond the stored keys.
//! * **Epoch tagging** — every entry records the model epoch it was
//!   computed under. A hot-reload bumps the epoch, instantly
//!   invalidating all cached results without racing in-flight inserts
//!   (an insert computed under the old model carries the old epoch and
//!   is ignored by every later `get`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use urlid::tokenize::UrlParts;

/// The cached value: the five per-language scores of one URL (`None`
/// where the model set has no classifier for a language). Decisions and
/// the best language are derived from the scores by the sign convention,
/// so scores are all that needs storing.
pub type CachedScores = [Option<f64>; 5];

/// Normalise a URL for use as a cache key (and as the scored form): trim
/// surrounding whitespace, drop any `#fragment` (fragments never reach
/// the server in real traffic and carry no language signal), and
/// lowercase the scheme and host (DNS is case-insensitive; paths are
/// not). Allocates the result; the server normalises into a reused
/// buffer with [`normalize_url_into`].
pub fn normalize_url(raw: &str) -> String {
    let mut out = String::new();
    normalize_url_into(raw, &mut out);
    out
}

/// [`normalize_url`] into `out` (cleared first): allocation-free once
/// `out` has grown to the URL's size. The host starts after the
/// scheme's `://` — by [`UrlParts::scheme_len`]'s rule, so a scheme-less
/// URL whose query carries another URL keeps its path's case — and ends
/// at the first `/` or `?`.
pub fn normalize_url_into(raw: &str, out: &mut String) {
    let trimmed = raw.trim();
    let no_fragment = trimmed.split('#').next().unwrap_or("");
    let host_start = UrlParts::scheme_len(no_fragment).map_or(0, |len| len + 3);
    let host_end = no_fragment[host_start..]
        .find(['/', '?'])
        .map_or(no_fragment.len(), |i| host_start + i);
    out.clear();
    out.push_str(no_fragment);
    out[..host_end].make_ascii_lowercase();
}

const NIL: usize = usize::MAX;

struct Node {
    key: String,
    epoch: u64,
    scores: CachedScores,
    prev: usize,
    next: usize,
}

/// One LRU shard: slab-backed intrusive list, most-recent at `head`.
struct LruShard {
    map: HashMap<String, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(1024)),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Detach a node from the recency list.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    /// Attach a node at the most-recent end.
    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn get(&mut self, key: &str, epoch: u64) -> Option<CachedScores> {
        let idx = *self.map.get(key)?;
        if self.nodes[idx].epoch != epoch {
            // Computed under a previous model: evict eagerly.
            self.remove_index(idx);
            return None;
        }
        self.touch(idx);
        Some(self.nodes[idx].scores)
    }

    fn remove_index(&mut self, idx: usize) {
        self.unlink(idx);
        let key = std::mem::take(&mut self.nodes[idx].key);
        self.map.remove(&key);
        self.free.push(idx);
    }

    fn insert(&mut self, key: &str, epoch: u64, scores: CachedScores) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(key) {
            self.nodes[idx].epoch = epoch;
            self.nodes[idx].scores = scores;
            self.touch(idx);
            return;
        }
        if self.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "non-empty shard has a tail");
            self.remove_index(lru);
        }
        let node = Node {
            key: key.to_owned(),
            epoch,
            scores,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(free) => {
                self.nodes[free] = node;
                free
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(key.to_owned(), idx);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// The mutex-striped LRU result cache (see module docs).
///
/// The shard array is additionally partitioned into `sets` — one set
/// per reactor under multi-reactor serving, so a reactor's scoring
/// traffic only ever locks shards inside its own set and two reactors
/// never contend on a cache lock. Set selection is by the caller
/// ([`ResultCache::get_in`]); within a set the shard is picked by key
/// hash as before. Epoch invalidation is orthogonal: the epoch tag
/// lives on every entry in every set, so a hot-reload invalidates all
/// sets at once.
pub struct ResultCache {
    /// `sets * shards_per_set` shards; set `s` owns the slice
    /// `[s * shards_per_set, (s + 1) * shards_per_set)`.
    shards: Vec<Mutex<LruShard>>,
    shards_per_set: usize,
    sets: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Default number of shards: enough stripes that one reactor per
    /// core on a large machine rarely contends on one lock.
    pub const DEFAULT_SHARDS: usize = 16;

    /// A cache holding at most `capacity` entries split over
    /// `shard_count` shards (a capacity of zero disables caching).
    pub fn new(capacity: usize, shard_count: usize) -> Self {
        Self::with_sets(capacity, shard_count, 1)
    }

    /// A cache with `sets` independent shard sets of `shards_per_set`
    /// shards each, splitting `capacity` over all of them. Each set is
    /// a private cache for one reactor; a URL cached in one set is a
    /// miss in every other (the cost of lock-free isolation between
    /// reactors — the kernel's connection balancing makes each set see
    /// a similar mix, so per-set hit rates converge to the global one).
    pub fn with_sets(capacity: usize, shards_per_set: usize, sets: usize) -> Self {
        let sets = sets.max(1);
        let shards_per_set = shards_per_set.max(1);
        let total = sets * shards_per_set;
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(total)
        };
        Self {
            shards: (0..total)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            shards_per_set,
            sets,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of independent shard sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    fn shard_in(&self, set: usize, key: &str) -> &Mutex<LruShard> {
        let set = set % self.sets;
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let shard = (hasher.finish() as usize) % self.shards_per_set;
        &self.shards[set * self.shards_per_set + shard]
    }

    /// Lock a shard, recovering from poisoning. A panic elsewhere must
    /// not cascade into every reactor that touches the same
    /// shard afterwards — the LRU state is plain data and a
    /// half-applied `get`/`insert` at worst loses or duplicates one
    /// entry, which the capacity bound and epoch tags already tolerate.
    fn lock_shard(shard: &Mutex<LruShard>) -> std::sync::MutexGuard<'_, LruShard> {
        shard
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Look up the scores of a normalised URL computed under the current
    /// model `epoch`. Entries from older epochs count as misses (and are
    /// evicted on the way).
    pub fn get(&self, key: &str, epoch: u64) -> Option<CachedScores> {
        self.get_in(0, key, epoch)
    }

    /// [`ResultCache::get`] against one shard set (a reactor passes its
    /// own set index; out-of-range indices wrap).
    pub fn get_in(&self, set: usize, key: &str, epoch: u64) -> Option<CachedScores> {
        let result = Self::lock_shard(self.shard_in(set, key)).get(key, epoch);
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Store the scores of a normalised URL computed under `epoch`.
    pub fn insert(&self, key: &str, epoch: u64, scores: CachedScores) {
        self.insert_in(0, key, epoch, scores);
    }

    /// [`ResultCache::insert`] against one shard set.
    pub fn insert_in(&self, set: usize, key: &str, epoch: u64, scores: CachedScores) {
        Self::lock_shard(self.shard_in(set, key)).insert(key, epoch, scores);
    }

    /// Drop every entry (used by hot-reload to free memory immediately;
    /// correctness never depends on it — the epoch tag already
    /// invalidates stale entries).
    pub fn clear(&self) {
        for shard in &self.shards {
            Self::lock_shard(shard).clear();
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::lock_shard(s).len()).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity over all shards.
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock_shard(s).capacity)
            .sum()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count (stale-epoch lookups included).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits over lookups, or 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores(x: f64) -> CachedScores {
        [Some(x), Some(-x), None, Some(0.0), Some(x * 2.0)]
    }

    #[test]
    fn normalization_trims_lowercases_and_strips_fragments() {
        assert_eq!(
            normalize_url("  HTTP://WWW.Example.DE/Pfad/Seite.html#abschnitt "),
            "http://www.example.de/Pfad/Seite.html"
        );
        assert_eq!(
            normalize_url("http://a.de/path?Q=Mixed"),
            "http://a.de/path?Q=Mixed"
        );
        assert_eq!(normalize_url("WWW.EXAMPLE.com/X"), "www.example.com/X");
        assert_eq!(normalize_url(""), "");
        // A `://` inside the query is not a scheme: the host of a
        // scheme-less URL still ends at its first `/` or `?`.
        assert_eq!(
            normalize_url("WWW.Example.com/Pfad?u=http://A.DE/x"),
            "www.example.com/Pfad?u=http://A.DE/x"
        );
        assert_eq!(
            normalize_url("www.seite.de/Login?next=https://Konto.DE/Profil"),
            "www.seite.de/Login?next=https://Konto.DE/Profil"
        );
        // Normalising into a reused buffer overwrites what it held.
        let mut out = String::from("http://previous.example/long/path");
        normalize_url_into(" HTTP://A.DE/X#f", &mut out);
        assert_eq!(out, "http://a.de/X");
    }

    #[test]
    fn get_and_insert_round_trip() {
        let cache = ResultCache::new(100, 4);
        assert_eq!(cache.get("http://a.de/", 0), None);
        cache.insert("http://a.de/", 0, scores(1.0));
        assert_eq!(cache.get("http://a.de/", 0), Some(scores(1.0)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn epoch_mismatch_is_a_miss_and_evicts() {
        let cache = ResultCache::new(100, 4);
        cache.insert("http://a.de/", 0, scores(1.0));
        assert_eq!(cache.get("http://a.de/", 1), None);
        assert_eq!(cache.len(), 0, "stale entry evicted eagerly");
        // Re-inserting under the new epoch works.
        cache.insert("http://a.de/", 1, scores(2.0));
        assert_eq!(cache.get("http://a.de/", 1), Some(scores(2.0)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // One shard so the recency order is global.
        let cache = ResultCache::new(3, 1);
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            cache.insert(key, 0, scores(i as f64));
        }
        // Touch "a" so "b" becomes the LRU entry.
        assert!(cache.get("a", 0).is_some());
        cache.insert("d", 0, scores(9.0));
        assert_eq!(cache.len(), 3);
        assert!(cache.get("b", 0).is_none(), "LRU entry evicted");
        assert!(cache.get("a", 0).is_some());
        assert!(cache.get("c", 0).is_some());
        assert!(cache.get("d", 0).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache = ResultCache::new(2, 1);
        cache.insert("a", 0, scores(1.0));
        cache.insert("a", 0, scores(2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a", 0), Some(scores(2.0)));
    }

    #[test]
    fn heavy_churn_stays_capacity_bounded() {
        // Real traffic shape: a small hot set plus a long tail of
        // one-off URLs churning through the shards.
        let cache = ResultCache::new(64, 8);
        for i in 0..10_000 {
            let key = if i % 2 == 0 {
                format!("http://hot{}.de/", i % 20)
            } else {
                format!("http://cold{i}.de/")
            };
            if cache.get(&key, 0).is_none() {
                cache.insert(&key, 0, scores(i as f64));
            }
        }
        assert!(cache.len() <= cache.capacity());
        assert!(cache.hits() > 1000, "hot keys must mostly hit");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0, 4);
        cache.insert("a", 0, scores(1.0));
        assert_eq!(cache.get("a", 0), None);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn shard_sets_are_isolated_but_share_epoch_invalidation() {
        let cache = ResultCache::with_sets(64, 4, 2);
        assert_eq!(cache.sets(), 2);
        cache.insert_in(0, "http://a.de/", 0, scores(1.0));
        // The other set never sees set 0's entry…
        assert_eq!(cache.get_in(1, "http://a.de/", 0), None);
        // …and each set caches independently.
        cache.insert_in(1, "http://a.de/", 0, scores(2.0));
        assert_eq!(cache.get_in(0, "http://a.de/", 0), Some(scores(1.0)));
        assert_eq!(cache.get_in(1, "http://a.de/", 0), Some(scores(2.0)));
        // An epoch bump (hot reload) invalidates entries in every set.
        assert_eq!(cache.get_in(0, "http://a.de/", 1), None);
        assert_eq!(cache.get_in(1, "http://a.de/", 1), None);
        assert_eq!(cache.len(), 0, "stale entries evicted from both sets");
        // Out-of-range set indices wrap instead of panicking.
        cache.insert_in(2, "http://b.de/", 1, scores(3.0));
        assert_eq!(cache.get_in(0, "http://b.de/", 1), Some(scores(3.0)));
        // clear() empties all sets.
        cache.insert_in(1, "http://c.de/", 1, scores(4.0));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = ResultCache::new(100, 4);
        for i in 0..50 {
            cache.insert(&format!("k{i}"), 0, scores(i as f64));
        }
        assert_eq!(cache.len(), 50);
        cache.clear();
        assert!(cache.is_empty());
    }
}
