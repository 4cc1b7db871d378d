//! The sharded LRU result cache.
//!
//! Scoring a URL costs tokenisation plus feature extraction plus five
//! model evaluations; real serving traffic repeats URLs heavily (hot
//! pages, retries, crawler revisits). [`ResultCache`] memoises the five
//! per-language scores keyed by [`normalize_url`], so a repeated URL
//! performs **zero** feature extractions — an invariant asserted by an
//! integration test through `urlid_features::CountingExtractor`.
//!
//! Design, laid out for the one access pattern the server has — probe,
//! touch on a hit, evict-and-insert on a miss:
//!
//! * **Mutex striping** — the capacity is split over N independent
//!   shards, each its own `Mutex<LruShard>`, selected by key hash;
//!   reactor threads contend only when they hit the same shard.
//! * **One hash per key per call** — a per-cache `RandomState` (the
//!   keyed SipHash std's `HashMap` uses, so colliding URLs cannot be
//!   precomputed) hashes the key once: the high half picks the shard,
//!   the low half places it in the shard's open-addressed index (linear
//!   probing, backward-shift deletion, no tombstones). A hit always
//!   compares the full key, never just the hash.
//! * **True LRU per shard** — an intrusive doubly-linked list over a
//!   slab of 64-byte nodes (scores, presence mask, epoch, key offset,
//!   links), so `get`, `insert` and eviction are all O(1).
//! * **Keys stored once** — in one byte arena per shard. An evicted
//!   key's bytes stay dead in place until the arena is full; then, if
//!   at least a quarter of it is dead, the live keys are compacted to
//!   its front, so an evicting insert allocates nothing once the arena
//!   has reached its working size. The arena is cut back only when it
//!   holds more than four times its live bytes (one oversized URL must
//!   not pin its memory after it is evicted).
//! * **Epoch tagging** — every entry records the model epoch it was
//!   computed under. A hot-reload bumps the epoch, instantly
//!   invalidating all cached results without racing in-flight inserts
//!   (an insert computed under the old model carries the old epoch and
//!   is ignored by every later `get`).
//!
//! A cached 45-byte URL costs one node (64 bytes), two index slots
//! (16), its key plus arena slack (~68) and a compaction slot (4):
//! ~152 bytes, which [`ResultCache::heap_bytes`] reports.

use std::hash::{BuildHasher, RandomState};
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};
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

/// "No node": the end of the recency list, an empty free chain.
const NIL: u32 = u32::MAX;
/// A vacant index slot.
const VACANT: u64 = u64::MAX;
/// Entries one shard can hold: node ids are `u32`s, and the index (at
/// least two slots per entry) must stay addressable by a slot's 32 hash
/// bits.
const MAX_SHARD_ENTRIES: usize = 1 << 30;
/// Low bits of [`Node::meta`] holding the presence mask; the key length
/// sits above them.
const MASK_BITS: u32 = 5;
/// The longest key a node can describe; longer keys are not cached.
const MAX_KEY_LEN: usize = (1 << (32 - MASK_BITS)) - 1;
/// An arena this small is never cut back.
const MIN_ARENA_SHRINK: usize = 4096;

/// One cached URL, one cache line.
#[repr(align(64))]
struct Node {
    /// The scores; `0.0` where the presence mask says `None`.
    values: [f64; 5],
    /// The model epoch the scores were computed under.
    epoch: u64,
    /// Offset of the key in the shard's arena.
    key_at: u32,
    /// The key's length above [`MASK_BITS`] presence bits (bit `i` set:
    /// language `i` has a score).
    meta: u32,
    /// Recency neighbours towards the head and the tail; a free node
    /// chains the free list through `next`.
    prev: u32,
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 64);

impl Node {
    fn new(key_at: u32, key_len: usize, epoch: u64, scores: &CachedScores) -> Self {
        let mut node = Node {
            values: [0.0; 5],
            epoch,
            key_at,
            // `key_len <= MAX_KEY_LEN`, checked by the caller.
            meta: (key_len as u32) << MASK_BITS,
            prev: NIL,
            next: NIL,
        };
        node.set_scores(scores);
        node
    }

    fn key_range(&self) -> Range<usize> {
        let at = self.key_at as usize;
        at..at + (self.meta >> MASK_BITS) as usize
    }

    /// Store the scores bit-for-bit (`-0.0`, NaN payloads and
    /// subnormals included).
    fn set_scores(&mut self, scores: &CachedScores) {
        let mut mask = 0;
        for (i, score) in scores.iter().enumerate() {
            self.values[i] = score.unwrap_or(0.0);
            mask |= u32::from(score.is_some()) << i;
        }
        self.meta = (self.meta >> MASK_BITS << MASK_BITS) | mask;
    }

    fn scores(&self) -> CachedScores {
        std::array::from_fn(|i| (self.meta >> i & 1 == 1).then_some(self.values[i]))
    }
}

/// One LRU shard: a slab of nodes in an intrusive recency list
/// (most-recent at `head`), an open-addressed index over them, and the
/// arena their keys live in.
struct LruShard {
    /// The slab; it grows by doubling up to `capacity` and never past.
    nodes: Vec<Node>,
    /// Linear-probing table, a power of two at least twice `len` long
    /// (empty until the first insert). A slot holds the low 32 bits of
    /// its key's hash above its node id, or [`VACANT`].
    index: Vec<u64>,
    /// Every stored key's bytes, live and dead.
    keys: Vec<u8>,
    /// Bytes of `keys` no live node refers to.
    dead: usize,
    /// Compaction's reused buffer of live node ids.
    order: Vec<u32>,
    head: u32,
    tail: u32,
    /// First node of the free chain.
    free: u32,
    len: usize,
    capacity: usize,
    /// Lifetime lookups that hit and missed (stale epochs included),
    /// counted under the lock the lookup already holds.
    hits: u64,
    misses: u64,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        Self {
            nodes: Vec::new(),
            index: Vec::new(),
            keys: Vec::new(),
            dead: 0,
            order: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
            capacity: capacity.min(MAX_SHARD_ENTRIES),
            hits: 0,
            misses: 0,
        }
    }

    fn key(&self, id: u32) -> &[u8] {
        &self.keys[self.nodes[id as usize].key_range()]
    }

    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.index.capacity() * std::mem::size_of::<u64>()
            + self.keys.capacity()
            + self.order.capacity() * std::mem::size_of::<u32>()
    }

    /// The index position of the first entry tagged `tag` (the low half
    /// of its key's hash) in `tag`'s probe run whose node satisfies
    /// `is`.
    fn probe(&self, tag: u32, is: impl Fn(u32) -> bool) -> Option<usize> {
        let mask = self.index.len().checked_sub(1)?;
        let mut pos = tag as usize & mask;
        loop {
            let slot = self.index[pos];
            if slot == VACANT {
                return None;
            }
            if (slot >> 32) as u32 == tag && is(slot as u32) {
                return Some(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The index position and node id of `key`.
    fn find(&self, tag: u32, key: &[u8]) -> Option<(usize, u32)> {
        let pos = self.probe(tag, |id| self.key(id) == key)?;
        Some((pos, self.index[pos] as u32))
    }

    /// Index node `id` under `tag`, in the first vacant slot of its run.
    fn place(&mut self, tag: u32, id: u32) {
        let mask = self.index.len() - 1;
        let mut pos = tag as usize & mask;
        while self.index[pos] != VACANT {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = (u64::from(tag) << 32) | u64::from(id);
    }

    /// Vacate index slot `hole`, shifting the rest of its probe run back
    /// so no lookup ever needs a tombstone.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let slot = self.index[pos];
            if slot == VACANT {
                break;
            }
            // The entry moves back when the hole lies on its probe path
            // from its home slot.
            let home = (slot >> 32) as usize & mask;
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = pos;
            }
        }
        self.index[hole] = VACANT;
    }

    /// Keep the index at least twice as long as the entries, counting
    /// the one about to be placed.
    fn reserve_slot(&mut self) {
        if (self.len + 1) * 2 <= self.index.len() {
            return;
        }
        let size = (self.index.len() * 2).max(8);
        let old = std::mem::replace(&mut self.index, vec![VACANT; size]);
        for slot in old.into_iter().filter(|&slot| slot != VACANT) {
            self.place((slot >> 32) as u32, slot as u32);
        }
    }

    /// Detach a node from the recency list.
    fn unlink(&mut self, id: u32) {
        let node = &self.nodes[id as usize];
        let (prev, next) = (node.prev, node.next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Attach a node at the most-recent end.
    fn push_front(&mut self, id: u32) {
        let node = &mut self.nodes[id as usize];
        node.prev = NIL;
        node.next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = id;
        }
        self.head = id;
        if self.tail == NIL {
            self.tail = id;
        }
    }

    fn touch(&mut self, id: u32) {
        if self.head != id {
            self.unlink(id);
            self.push_front(id);
        }
    }

    fn get(&mut self, hash: u64, key: &[u8], epoch: u64) -> Option<CachedScores> {
        let found = match self.find(hash as u32, key) {
            Some((_, id)) if self.nodes[id as usize].epoch == epoch => {
                self.touch(id);
                Some(self.nodes[id as usize].scores())
            }
            Some((pos, id)) => {
                // Computed under a previous model: evict eagerly.
                self.remove(pos, id);
                None
            }
            None => None,
        };
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Drop node `id`, indexed at `pos`: its key bytes turn dead and
    /// the node joins the free chain.
    fn remove(&mut self, pos: usize, id: u32) {
        self.unindex(pos);
        self.unlink(id);
        let node = &mut self.nodes[id as usize];
        self.dead += node.key_range().len();
        node.next = self.free;
        self.free = id;
        self.len -= 1;
        let live = self.keys.len() - self.dead;
        if self.keys.capacity() > MIN_ARENA_SHRINK.max(4 * live) {
            self.compact();
            self.keys.shrink_to(live + live / 2);
        }
    }

    /// Move the live keys, in arena order, to the front of the arena.
    fn compact(&mut self) {
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        let mut id = self.head;
        while id != NIL {
            order.push(id);
            id = self.nodes[id as usize].next;
        }
        order.sort_unstable_by_key(|&id| self.nodes[id as usize].key_at);
        let mut end = 0;
        for &id in &order {
            let node = &mut self.nodes[id as usize];
            let range = node.key_range();
            // Keys only move down: `end` never passes the old offset.
            node.key_at = end as u32;
            end += range.len();
            self.keys.copy_within(range, node.key_at as usize);
        }
        self.keys.truncate(end);
        self.dead = 0;
        self.order = order;
    }

    /// Append `key` to the arena and return its offset, compacting or
    /// growing a full arena first. `None` (the key is not cached) once
    /// offsets would pass `u32`.
    fn store_key(&mut self, key: &[u8]) -> Option<u32> {
        let full = |keys: &Vec<u8>| keys.capacity() - keys.len() < key.len();
        if full(&self.keys) && self.dead * 4 >= self.keys.len() {
            self.compact();
        }
        if full(&self.keys) {
            // Half again the live bytes: enough slack that compaction,
            // not growth, absorbs the evictions that follow, and an
            // exact fit never doubles the arena.
            let want = (self.keys.len() - self.dead + key.len()) * 3 / 2;
            let want = want.max(self.keys.len() + key.len());
            self.keys.reserve_exact(want - self.keys.len());
        }
        let at = u32::try_from(self.keys.len()).ok()?;
        self.keys.extend_from_slice(key);
        Some(at)
    }

    /// Place `node` in a free slab slot, or a new one while the slab
    /// is below capacity (there is always a free one at capacity).
    fn take_node(&mut self, node: Node) -> u32 {
        if self.free != NIL {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            return id;
        }
        if self.nodes.len() == self.nodes.capacity() {
            let room = self.capacity - self.nodes.len();
            self.nodes.reserve_exact(self.nodes.len().max(4).min(room));
        }
        self.nodes.push(node);
        // At most `MAX_SHARD_ENTRIES` nodes.
        (self.nodes.len() - 1) as u32
    }

    /// Store `key`'s scores under `epoch`, evicting the least recently
    /// used entry of a full shard (whose key `hasher` hashes again to
    /// find its slot).
    fn insert(
        &mut self,
        hash: u64,
        key: &[u8],
        epoch: u64,
        scores: &CachedScores,
        hasher: &impl BuildHasher,
    ) {
        if self.capacity == 0 || key.len() > MAX_KEY_LEN {
            return;
        }
        let tag = hash as u32;
        if let Some((_, id)) = self.find(tag, key) {
            let node = &mut self.nodes[id as usize];
            node.epoch = epoch;
            node.set_scores(scores);
            self.touch(id);
            return;
        }
        if self.len == self.capacity {
            let lru = self.tail;
            let pos = self
                .probe(hasher.hash_one(self.key(lru)) as u32, |id| id == lru)
                .expect("every live node is indexed");
            self.remove(pos, lru);
        }
        let Some(key_at) = self.store_key(key) else {
            return;
        };
        let id = self.take_node(Node::new(key_at, key.len(), epoch, scores));
        self.push_front(id);
        self.reserve_slot();
        self.place(tag, id);
        self.len += 1;
    }

    /// Drop every entry and release every buffer; the counters stay.
    fn clear(&mut self) {
        *self = Self {
            hits: self.hits,
            misses: self.misses,
            ..Self::new(self.capacity)
        };
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
    hasher: RandomState,
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
            hasher: RandomState::new(),
        }
    }

    /// Number of independent shard sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Index of the shard of set `set` (wrapped) that a key hashing to
    /// `hash` lives in: the hash's high half picks it.
    fn shard_index(&self, set: usize, hash: u64) -> usize {
        let shard = ((hash >> 32) * self.shards_per_set as u64) >> 32;
        set % self.sets * self.shards_per_set + shard as usize
    }

    /// Lock a shard, recovering from poisoning. A panic elsewhere must
    /// not cascade into every reactor that touches the same shard
    /// afterwards; a panic inside a shard update may have left its
    /// index and list out of step, so a recovered shard starts empty.
    fn lock_shard(shard: &Mutex<LruShard>) -> MutexGuard<'_, LruShard> {
        shard.lock().unwrap_or_else(|poisoned| {
            let mut guard = poisoned.into_inner();
            guard.clear();
            shard.clear_poison();
            guard
        })
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
        let hash = self.hasher.hash_one(key.as_bytes());
        Self::lock_shard(&self.shards[self.shard_index(set, hash)]).get(hash, key.as_bytes(), epoch)
    }

    /// Store the scores of a normalised URL computed under `epoch`.
    pub fn insert(&self, key: &str, epoch: u64, scores: CachedScores) {
        self.insert_in(0, key, epoch, scores);
    }

    /// [`ResultCache::insert`] against one shard set.
    pub fn insert_in(&self, set: usize, key: &str, epoch: u64, scores: CachedScores) {
        let hash = self.hasher.hash_one(key.as_bytes());
        Self::lock_shard(&self.shards[self.shard_index(set, hash)]).insert(
            hash,
            key.as_bytes(),
            epoch,
            &scores,
            &self.hasher,
        );
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
        self.shards.iter().map(|s| Self::lock_shard(s).len).sum()
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

    /// Heap bytes the cache holds: the sum of its shards' buffer
    /// capacities (nodes, index, key arena, compaction buffer).
    pub fn heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock_shard(s).heap_bytes())
            .sum()
    }

    /// Lifetime (hits, misses), summed over the shards.
    fn counts(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(hits, misses), s| {
            let shard = Self::lock_shard(s);
            (hits + shard.hits, misses + shard.misses)
        })
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.counts().0
    }

    /// Lifetime miss count (stale-epoch lookups included).
    pub fn misses(&self) -> u64 {
        self.counts().1
    }

    /// Hits over lookups, or 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.counts();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::collections::VecDeque;
    use std::hash::Hasher;

    fn scores(x: f64) -> CachedScores {
        [Some(x), Some(-x), None, Some(0.0), Some(x * 2.0)]
    }

    /// Scores as bit patterns, so `-0.0` and NaN payloads compare exactly.
    fn bits(scores: Option<CachedScores>) -> Option<[Option<u64>; 5]> {
        scores.map(|s| s.map(|v| v.map(f64::to_bits)))
    }

    /// A 45-byte URL, the length the byte budget is stated for.
    fn url45(i: usize) -> String {
        let key = format!("http://www.crawl-{i:012}.example.de/page");
        debug_assert_eq!(key.len(), 45);
        key
    }

    /// The reference LRU: one most-recent-first queue per shard.
    struct Reference {
        shards: Vec<VecDeque<(Vec<u8>, u64, CachedScores)>>,
        capacity: usize,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn new(shards: usize, capacity: usize) -> Self {
            Self {
                shards: (0..shards).map(|_| VecDeque::new()).collect(),
                capacity,
                hits: 0,
                misses: 0,
            }
        }

        fn get(&mut self, shard: usize, key: &[u8], epoch: u64) -> Option<CachedScores> {
            let queue = &mut self.shards[shard];
            let found = match queue.iter().position(|(k, _, _)| k == key) {
                Some(at) if queue[at].1 == epoch => {
                    let entry = queue.remove(at).expect("present");
                    let scores = entry.2;
                    queue.push_front(entry);
                    Some(scores)
                }
                Some(at) => {
                    queue.remove(at);
                    None
                }
                None => None,
            };
            if found.is_some() {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            found
        }

        fn insert(&mut self, shard: usize, key: &[u8], epoch: u64, scores: CachedScores) {
            if self.capacity == 0 {
                return;
            }
            let queue = &mut self.shards[shard];
            if let Some(at) = queue.iter().position(|(k, _, _)| k == key) {
                queue.remove(at);
            } else if queue.len() == self.capacity {
                queue.pop_back();
            }
            queue.push_front((key.to_vec(), epoch, scores));
        }

        fn len(&self) -> usize {
            self.shards.iter().map(VecDeque::len).sum()
        }

        fn clear(&mut self) {
            self.shards.iter_mut().for_each(VecDeque::clear);
        }
    }

    /// Keys of 0–300 bytes, mostly prefixes of one long URL, so they
    /// share long prefixes and differ in their last bytes.
    fn key_pool(rng: &mut StdRng, n: usize) -> Vec<String> {
        let base: String = "http://www.frontier.example.de/seite/abschnitt-"
            .chars()
            .cycle()
            .take(298)
            .collect();
        (0..n)
            .map(|_| {
                let mut key = base[..rng.random_range(0..=298usize)].to_owned();
                for _ in 0..rng.random_range(0..=2usize) {
                    key.push(if rng.random_bool(0.5) { 'a' } else { 'b' });
                }
                key
            })
            .collect()
    }

    fn random_scores(rng: &mut StdRng) -> CachedScores {
        std::array::from_fn(|_| (!rng.random_bool(0.2)).then(|| f64::from_bits(rng.next_u64())))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn the_cache_agrees_with_a_reference_lru(
            seed in 0u64..u64::MAX,
            capacity in (0usize..24).prop_map(|n| if n < 4 { n } else { 2 * n + 1 }),
            shards_per_set in 1usize..4,
            sets in 1usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cache = ResultCache::with_sets(capacity, shards_per_set, sets);
            let per_shard = capacity.div_ceil(sets * shards_per_set);
            let mut reference = Reference::new(sets * shards_per_set, per_shard);
            let pool = rng.random_range(1..=2 * capacity + 6);
            let keys = key_pool(&mut rng, pool);
            let mut epoch = 0u64;
            for step in 0..600 {
                let set = rng.random_range(0..sets + 1);
                let key = &keys[rng.random_range(0..keys.len())];
                let shard = cache.shard_index(set, cache.hasher.hash_one(key.as_bytes()));
                match rng.random_range(0..100u32) {
                    0..=44 => prop_assert_eq!(
                        bits(cache.get_in(set, key, epoch)),
                        bits(reference.get(shard, key.as_bytes(), epoch)),
                        "get, seed {} step {}", seed, step
                    ),
                    45..=89 => {
                        // Now and then an insert computed under the
                        // previous model lands after a reload.
                        let at = if epoch > 0 && rng.random_bool(0.1) { epoch - 1 } else { epoch };
                        let scores = random_scores(&mut rng);
                        cache.insert_in(set, key, at, scores);
                        reference.insert(shard, key.as_bytes(), at, scores);
                    }
                    90..=95 => {
                        // Re-insert a key the reference holds, into its set.
                        let held: Vec<(usize, Vec<u8>)> = reference
                            .shards
                            .iter()
                            .enumerate()
                            .flat_map(|(shard, queue)| {
                                queue.iter().map(move |entry| (shard, entry.0.clone()))
                            })
                            .collect();
                        if !held.is_empty() {
                            let (shard, key) = held[rng.random_range(0..held.len())].clone();
                            let key = String::from_utf8(key).expect("keys are UTF-8");
                            let scores = random_scores(&mut rng);
                            cache.insert_in(shard / shards_per_set, &key, epoch, scores);
                            reference.insert(shard, key.as_bytes(), epoch, scores);
                        }
                    }
                    96..=98 => epoch += 1,
                    _ => {
                        cache.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(cache.len(), reference.len(), "len, seed {} step {}", seed, step);
            }
            prop_assert_eq!(cache.hits(), reference.hits, "hits, seed {}", seed);
            prop_assert_eq!(cache.misses(), reference.misses, "misses, seed {}", seed);
        }
    }

    /// Hashes every key to one of three tags at the very top of the
    /// hash space, so probe runs are long and wrap round the index.
    struct Colliding;

    struct CollidingHasher(u64);

    impl Hasher for CollidingHasher {
        fn finish(&self) -> u64 {
            u64::MAX - self.0 % 3
        }

        fn write(&mut self, bytes: &[u8]) {
            self.0 += bytes.len() as u64;
        }
    }

    impl BuildHasher for Colliding {
        type Hasher = CollidingHasher;

        fn build_hasher(&self) -> CollidingHasher {
            CollidingHasher(0)
        }
    }

    #[test]
    fn colliding_hashes_still_find_the_full_key() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut shard = LruShard::new(13);
        let mut reference = Reference::new(1, 13);
        let keys = key_pool(&mut rng, 40);
        for step in 0..5_000 {
            let key = keys[rng.random_range(0..keys.len())].as_bytes();
            let hash = Colliding.hash_one(key);
            if rng.random_bool(0.5) {
                assert_eq!(
                    bits(shard.get(hash, key, 0)),
                    bits(reference.get(0, key, 0)),
                    "step {step}"
                );
            } else {
                let scores = random_scores(&mut rng);
                shard.insert(hash, key, 0, &scores, &Colliding);
                reference.insert(0, key, 0, scores);
            }
            assert_eq!(shard.len, reference.len(), "step {step}");
        }
    }

    #[test]
    fn compaction_keeps_every_live_key_and_score() {
        const CAPACITY: usize = 40;
        let cache = ResultCache::new(CAPACITY, 1);
        let key = |i: usize| format!("http://k{i}.de/{}", "x".repeat(i * 37 % 181));
        for i in 0..6_000 {
            cache.insert(&key(i), 0, scores(i as f64));
            if i % 97 == 0 || i == 5_999 {
                for j in i.saturating_sub(CAPACITY - 1)..=i {
                    assert_eq!(cache.get(&key(j), 0), Some(scores(j as f64)), "{j} at {i}");
                }
            }
        }
        assert_eq!(cache.len(), CAPACITY);
        assert_eq!(cache.get(&key(5_999 - CAPACITY), 0), None, "evicted");
        // ~650 KB of keys went through an arena that never held more
        // than ~8 KB of live ones.
        assert!(cache.heap_bytes() < 32 * 1024, "{}", cache.heap_bytes());
    }

    #[test]
    fn an_evicted_oversized_key_gives_its_memory_back() {
        const CAPACITY: usize = 64;
        const BUDGET: usize = 160 * CAPACITY;
        let cache = ResultCache::new(CAPACITY, 1);
        for i in 0..4 * CAPACITY {
            cache.insert(&url45(i), 0, scores(1.0));
        }
        assert!(cache.heap_bytes() <= BUDGET, "{}", cache.heap_bytes());
        let huge = format!("http://huge.de/{}", "x".repeat(1 << 20));
        cache.insert(&huge, 0, scores(2.0));
        assert_eq!(cache.get(&huge, 0), Some(scores(2.0)));
        assert!(cache.heap_bytes() > 1 << 20);
        for i in 0..CAPACITY {
            cache.insert(&url45(10_000 + i), 0, scores(3.0));
        }
        assert_eq!(cache.get(&huge, 0), None, "evicted");
        assert!(cache.heap_bytes() <= BUDGET, "{}", cache.heap_bytes());
    }

    #[test]
    fn scores_round_trip_bit_exactly() {
        let cache = ResultCache::new(8, 1);
        let odd: CachedScores = [
            Some(-0.0),
            Some(f64::from_bits(0x7ff8_dead_beef_0001)),
            Some(f64::from_bits(0xfff0_0000_0000_0001)),
            Some(f64::from_bits(1)),
            None,
        ];
        cache.insert("k", 0, odd);
        assert_eq!(bits(cache.get("k", 0)), bits(Some(odd)));
        cache.insert("k", 0, [None; 5]);
        assert_eq!(cache.get("k", 0), Some([None; 5]));
        let all = [
            Some(f64::MIN_POSITIVE / 2.0),
            Some(-f64::MAX),
            Some(0.0),
            Some(f64::NEG_INFINITY),
            Some(-f64::NAN),
        ];
        cache.insert("k", 0, all);
        assert_eq!(bits(cache.get("k", 0)), bits(Some(all)));
    }

    #[test]
    fn a_stale_epoch_hit_still_evicts() {
        let cache = ResultCache::new(4, 1);
        for key in ["a", "b", "c", "d"] {
            cache.insert(key, 0, scores(1.0));
        }
        assert_eq!(cache.get("b", 1), None, "stale");
        assert_eq!(cache.len(), 3, "and gone, not hidden");
        assert_eq!(cache.get("b", 0), None, "gone at its own epoch too");
        assert_eq!(cache.misses(), 2);
        // Its node is recycled, and the others keep their recency
        // order: two more inserts evict "a", the oldest left.
        cache.insert("e", 1, scores(2.0));
        assert_eq!(ResultCache::lock_shard(&cache.shards[0]).nodes.len(), 4);
        cache.insert("f", 1, scores(3.0));
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.get("a", 0), None);
        assert_eq!(cache.get("c", 0), Some(scores(1.0)));
        assert_eq!(cache.get("f", 1), Some(scores(3.0)));
    }

    #[test]
    fn a_churned_server_shaped_cache_stays_within_160_bytes_per_entry() {
        const CAPACITY: usize = 65_536;
        let cache = ResultCache::with_sets(CAPACITY, ResultCache::DEFAULT_SHARDS, 2);
        // Fill it, then churn 4x its capacity through it.
        for i in 0..5 * CAPACITY {
            cache.insert_in(i % 2, &url45(i), 0, [Some(i as f64); 5]);
        }
        assert_eq!(cache.len(), CAPACITY);
        let per_entry = cache.heap_bytes() as f64 / CAPACITY as f64;
        assert!(per_entry <= 160.0, "{per_entry:.1} bytes per entry");
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
