//! The allocation gate of the served `/identify`.
//!
//! This test binary installs a counting global allocator, so it holds
//! exactly one test: no other test may allocate while a window is
//! counted. Against an in-process server (NB+words, one reactor, slow
//! log off), once with telemetry on and once with it off, it checks:
//!
//! * a warm cache-hit `/identify` allocates nothing — request bytes in,
//!   response bytes out, not one heap allocation on either side (the
//!   client loop sends pre-built requests and reads into a fixed
//!   buffer);
//! * a cache miss into a full, churned cache allocates nothing either:
//!   extraction, scoring and the cache's evicting insert (whose key
//!   goes into its shard's arena) all reuse what they have — and the
//!   evicting insert alone, measured in this binary, allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use urlid::prelude::*;
use urlid_serve::server::{spawn, ServeConfig, ServerState};
use urlid_serve::{normalize_url, ResultCache};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Counts every `alloc`, `alloc_zeroed` and `realloc` call, then defers
/// to the system allocator.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations for
        // `realloc` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Result-cache capacity of the server under test.
const CACHE_CAPACITY: usize = 2048;
/// Distinct URLs sent before anything is counted: they fill the cache
/// and then evict through it three times over, so every shard's key
/// arena has reached its working size and compacted at least once
/// (which grows its compaction buffer for good).
const FILL: usize = CACHE_CAPACITY * 4;
/// The hot set the hit window cycles through.
const HOT: usize = 64;
/// Requests in the counted hit window.
const HITS: usize = 2_000;
/// Fresh URLs sent into the full cache in the counted miss window.
const MISSES: usize = 400;

fn nb_words() -> LanguageIdentifier {
    let mut generator = UrlGenerator::new(5);
    let train = odp_dataset(&mut generator, CorpusScale::tiny()).train;
    LanguageIdentifier::train(
        &train,
        &TrainingConfig::new(FeatureSetKind::Words, Algorithm::NaiveBayes),
    )
}

/// URLs of one shape — same token count, same length for every
/// four-letter tag — so a fresh one never needs bigger buffers than
/// the warm-up grew.
fn urls(tag: &str, count: usize) -> Vec<String> {
    assert_eq!(tag.len(), 4, "one URL length for every set");
    (0..count)
        .map(|i| format!("http://www.wetterbericht-{tag}.de/seite/{i:05}"))
        .collect()
}

fn identify_request(url: &str) -> Vec<u8> {
    let body = format!("{{\"url\": \"{url}\"}}");
    format!(
        "POST /identify HTTP/1.1\r\nHost: urlid\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Send one pre-built request and read its response into `buf`,
/// without allocating: the `Content-Length` is parsed by hand. Returns
/// the response's length in `buf`.
fn exchange(stream: &mut TcpStream, request: &[u8], buf: &mut [u8]) -> usize {
    stream.write_all(request).expect("send request");
    let mut filled = 0;
    let head_end = loop {
        let n = stream.read(&mut buf[filled..]).expect("read response");
        assert!(n > 0, "server closed the connection");
        filled += n;
        if let Some(i) = find(&buf[..filled], b"\r\n\r\n") {
            break i + 4;
        }
    };
    let at = find(&buf[..head_end], b"Content-Length: ").expect("Content-Length") + 16;
    let length = buf[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .fold(0, |n, &d| n * 10 + usize::from(d - b'0'));
    let total = head_end + length;
    while filled < total {
        let n = stream.read(&mut buf[filled..total]).expect("read body");
        assert!(n > 0, "server closed mid-body");
        filled += n;
    }
    assert!(buf.starts_with(b"HTTP/1.1 200 OK\r\n"), "not a 200");
    total
}

/// Send each request once; every response must report `cached`.
fn send_all(stream: &mut TcpStream, requests: &[Vec<u8>], buf: &mut [u8], cached: bool) {
    let expect: &[u8] = if cached {
        b"\"cached\":true}"
    } else {
        b"\"cached\":false}"
    };
    for request in requests {
        let len = exchange(stream, request, buf);
        assert!(buf[..len].ends_with(expect), "cached must be {cached}");
    }
}

/// Allocations per evicting `ResultCache::insert_in` of a fresh key
/// into a full cache shaped like the server's.
fn insert_allocations_per_eviction() -> f64 {
    let cache = ResultCache::with_sets(CACHE_CAPACITY, ResultCache::DEFAULT_SHARDS, 1);
    for key in urls("fill", FILL) {
        cache.insert_in(0, &normalize_url(&key), 0, [Some(0.0); 5]);
    }
    let fresh: Vec<String> = urls("miss", MISSES)
        .iter()
        .map(|u| normalize_url(u))
        .collect();
    let before = allocations();
    for key in &fresh {
        cache.insert_in(0, key, 0, [Some(0.0); 5]);
    }
    (allocations() - before) as f64 / MISSES as f64
}

/// (allocations per warm hit, allocations per miss into a full cache)
/// of one server.
fn served_allocations(telemetry: bool) -> (f64, f64) {
    let config = ServeConfig {
        reactors: 1,
        telemetry,
        slow_request_micros: 0,
        ..ServeConfig::default()
    };
    let state = Arc::new(ServerState::new(nb_words(), None, CACHE_CAPACITY));
    let server = spawn(&config, state).expect("bind on 127.0.0.1:0");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = vec![0u8; 64 * 1024];

    let build =
        |urls: Vec<String>| -> Vec<Vec<u8>> { urls.iter().map(|u| identify_request(u)).collect() };
    let fill = build(urls("fill", FILL));
    let hot = build(urls("warm", HOT));
    let fresh = build(urls("miss", MISSES));
    let window: Vec<&[u8]> = (0..HITS).map(|i| hot[i % HOT].as_slice()).collect();

    // Warm up: fill the cache, then cache the hot set (its inserts
    // evict fillers) and serve it once more from the cache, so every
    // buffer on both sides has grown to this traffic.
    send_all(&mut stream, &fill, &mut buf, false);
    send_all(&mut stream, &hot, &mut buf, false);
    send_all(&mut stream, &hot, &mut buf, true);

    let before = allocations();
    for request in &window {
        let len = exchange(&mut stream, request, &mut buf);
        assert!(buf[..len].ends_with(b"\"cached\":true}"), "a hit");
    }
    let per_hit = (allocations() - before) as f64 / HITS as f64;

    let before = allocations();
    send_all(&mut stream, &fresh, &mut buf, false);
    let per_miss = (allocations() - before) as f64 / MISSES as f64;

    drop(stream);
    server.shutdown();
    (per_hit, per_miss)
}

#[test]
fn a_warm_cache_hit_allocates_nothing_and_a_miss_only_what_the_cache_insert_does() {
    assert_eq!(
        insert_allocations_per_eviction(),
        0.0,
        "allocations per evicting cache insert"
    );
    for telemetry in [true, false] {
        let (per_hit, per_miss) = served_allocations(telemetry);
        assert_eq!(
            per_hit, 0.0,
            "allocations per cache hit, telemetry {telemetry}"
        );
        assert_eq!(
            per_miss, 0.0,
            "allocations per miss into a full cache, telemetry {telemetry}"
        );
    }
}
