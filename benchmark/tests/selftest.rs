//! Self-tests of the benchmark's own logic: percentile merging, the
//! closed loop's latency accounting, `/proc` parsing, the ledger's
//! arithmetic, and reading answers out of response bodies.

use std::cell::Cell;
use std::collections::BTreeMap;
use urlid_benchmark::ledger::{self, HistPoint, LayerCosts, StagesPerRequest};
use urlid_benchmark::pace::{drive, Clock, Exchange, Outcome};
use urlid_benchmark::phase::Plan;
use urlid_benchmark::procfs::{self, ThreadSample};
use urlid_benchmark::scan::{self, Answer};
use urlid_benchmark::stats;

#[test]
fn merged_percentiles_equal_percentiles_of_all_samples() {
    let parts = vec![vec![5, 1, 9, 3], vec![8, 2], vec![], vec![7, 4, 6, 10]];
    let merged = stats::merge_sorted(&parts);
    assert_eq!(merged, (1..=10).collect::<Vec<u64>>());
    let mut all: Vec<u64> = parts.concat();
    all.sort_unstable();
    for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(stats::quantile(&merged, q), stats::quantile(&all, q));
    }
    // Nearest rank: the smallest sample with at least q of them at or below.
    let hundred: Vec<u64> = (1..=100).collect();
    assert_eq!(stats::quantile(&hundred, 0.5), Some(50));
    assert_eq!(stats::quantile(&hundred, 0.99), Some(99));
    assert_eq!(stats::quantile(&hundred, 0.991), Some(100));
    assert_eq!(stats::quantile(&hundred, 0.0), Some(1));
    assert_eq!(stats::quantile::<u64>(&[], 0.5), None);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

/// A virtual clock: time moves only when the fake server works.
struct VirtualClock {
    now: Cell<u64>,
}

impl Clock for VirtualClock {
    fn now_ns(&self) -> u64 {
        self.now.get()
    }
}

/// A server that takes `service[index]` nanoseconds per request.
struct FakeServer<'a> {
    clock: &'a VirtualClock,
    service: Vec<u64>,
}

impl Exchange for FakeServer<'_> {
    fn exchange(&mut self, index: u64) -> Option<Outcome> {
        let cost = *self.service.get(index as usize)?;
        self.clock.now.set(self.clock.now.get() + cost);
        Some(Outcome {
            urls: 1,
            failed: false,
        })
    }
}

const US: u64 = 1_000;
const MS: u64 = 1_000_000;

#[test]
fn closed_loop_sends_on_reply_until_the_deadline() {
    let clock = VirtualClock { now: Cell::new(0) };
    let mut server = FakeServer {
        clock: &clock,
        service: vec![300 * US; 100],
    };
    let log = drive(&clock, &mut server, MS, 8);
    // Sends at 0, 300, 600, 900 µs; the reply at 1.2 ms ends the loop.
    assert_eq!(log.attempted, 4);
    assert!(log.latency_ns.iter().all(|&l| l == 300 * US));
    assert_eq!(log.completions.last(), Some(&(1_200 * US, 1)));
    // A plan that runs out ends the loop too.
    let mut short = FakeServer {
        clock: &clock,
        service: vec![1; 3],
    };
    let log = drive(&clock, &mut short, u64::MAX, 0);
    assert_eq!(log.attempted, 3);
}

#[test]
fn a_stalled_reply_is_charged_to_its_own_request_and_delays_the_rest() {
    // Every reply takes 100 µs except request 3, which stalls for 5 ms:
    // its latency shows the stall, and the requests behind it leave
    // later, so fewer fit before the deadline.
    let clock = VirtualClock { now: Cell::new(0) };
    let mut service = vec![100 * US; 200];
    service[3] = 5 * MS;
    let mut server = FakeServer {
        clock: &clock,
        service,
    };
    let log = drive(&clock, &mut server, 10 * MS, 200);
    assert_eq!(log.latency_ns[2], 100 * US);
    assert_eq!(log.latency_ns[3], 5 * MS);
    assert_eq!(log.latency_ns[4], 100 * US);
    // 0.3 ms before the stall, 5 ms in it, then 100 µs each to 10 ms.
    assert_eq!(log.attempted, 3 + 1 + 47);
    let mut all = log.latency_ns.clone();
    all.sort_unstable();
    assert_eq!(urlid_benchmark::stats::quantile(&all, 0.99), Some(5 * MS));
}

#[test]
fn plans_map_requests_to_url_ranges() {
    let run = Plan::Run {
        start: 10,
        per: 4,
        end: 19,
    };
    assert_eq!(run.urls(0), Some((10, 14)));
    assert_eq!(run.urls(2), Some((18, 19)));
    assert_eq!(run.urls(3), None);
    let draws = |stream| -> Vec<usize> {
        let plan = Plan::Draw {
            seed: 7,
            stream,
            pool: 50,
        };
        (0..200).map(|k| plan.urls(k).expect("endless").0).collect()
    };
    assert!(draws(1).iter().all(|&i| i < 50));
    assert_eq!(draws(1), draws(1), "a stream repeats exactly");
    assert_ne!(draws(1), draws(2), "streams differ");
}

#[test]
fn proc_stat_schedstat_and_status_parse() {
    // The name may hold spaces and parentheses; fields count from the
    // last `)`. utime = 1500, stime = 250 ticks.
    let stat =
        "4242 (urlid (x) rea) S 1 4242 4242 0 -1 4194624 519 0 0 0 1500 250 0 0 20 0 6 0 100 0 0";
    assert_eq!(
        procfs::parse_stat(stat),
        Some(("urlid (x) rea".to_owned(), 1750))
    );
    assert_eq!(procfs::parse_stat("garbage"), None);
    assert_eq!(
        procfs::parse_schedstat("123456789 5000 42\n"),
        Some(123_456_789)
    );
    let status = "Name:\turlid-serve-sco\nVmHWM:\t   10240 kB\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n";
    assert_eq!(procfs::parse_ctxsw(status), Some(127));
    assert_eq!(procfs::status_field(status, "VmHWM"), Some(10_240));
    assert_eq!(procfs::status_field(status, "VmRSS"), None);
}

#[test]
fn thread_deltas_sum_by_name_prefix() {
    let sample = |name: &str, cpu_ns, ctxsw| ThreadSample {
        name: name.to_owned(),
        cpu_ns,
        ctxsw,
    };
    let before = BTreeMap::from([
        (1, sample("urlid", 100, 1)),
        (2, sample("urlid-serve-rea", 1_000, 10)),
        (3, sample("urlid-serve-sco", 5_000, 20)),
    ]);
    let after = BTreeMap::from([
        (1, sample("urlid", 100, 1)),
        (2, sample("urlid-serve-rea", 4_000, 40)),
        (3, sample("urlid-serve-sco", 6_000, 25)),
        // Born during the window: counts from zero.
        (4, sample("urlid-serve-sco", 700, 3)),
    ]);
    assert_eq!(
        procfs::delta(&before, &after, "urlid-serve-rea"),
        (3_000, 30)
    );
    assert_eq!(
        procfs::delta(&before, &after, "urlid-serve-sco"),
        (1_700, 8)
    );
    assert_eq!(procfs::delta(&before, &after, ""), (4_700, 38));
}

#[test]
fn own_thread_cpu_time_advances_with_work() {
    let before = procfs::own_thread_cpu_ns();
    let mut x = 0u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
    }
    assert!(procfs::own_thread_cpu_ns() > before, "{x}");
}

#[test]
fn ledger_residuals_subtract_what_the_layers_explain() {
    // Window arithmetic: totals recovered from count × mean.
    let (count, total) = ledger::window(
        HistPoint {
            count: 100,
            mean_us: 10.0,
        },
        HistPoint {
            count: 300,
            mean_us: 20.0,
        },
    );
    assert_eq!(count, 200);
    assert!((total - 5_000.0).abs() < 1e-9);

    // Parse happens before dispatch and is not part of the latency.
    let stages = StagesPerRequest {
        latency: 50.0,
        parse: 1.0,
        queue: 20.0,
        cache: 1.0,
        extract: 2.0,
        score: 1.0,
        write: 1.0,
    };
    assert!((stages.unattributed() - 25.0).abs() < 1e-9);
    assert!((stages.unattributed_frac() - 0.5).abs() < 1e-9);

    let costs = LayerCosts {
        decode: 500.0,
        normalize: 200.0,
        probe: 100.0,
        insert: 1_000.0,
        extract: 2_000.0,
        score: 300.0,
        encode: 4_000.0,
        response: 300.0,
    };
    // All hits: decode + normalize + probe + encode + response.
    let hit = ledger::inprocess_us(&costs, 1.0);
    assert!((hit - 5.1).abs() < 1e-9, "{hit}");
    // All misses add extract + score + insert.
    let miss = ledger::inprocess_us(&costs, 0.0);
    assert!((miss - 8.4).abs() < 1e-9, "{miss}");
    // Half hits: half the miss-only layers.
    let half = ledger::inprocess_us(&costs, 0.5);
    assert!((half - 6.75).abs() < 1e-9, "{half}");
    assert!((ledger::residual_us(50.0, miss) - 41.6).abs() < 1e-9);

    // Truncated records: the latency loses ~0.5 µs, each stage ~0.5 µs.
    assert_eq!(ledger::truncation_bias_us(3.0), 1.0);
    assert_eq!(ledger::truncation_bias_us(0.0), 0.0);
}

#[test]
fn answers_are_read_bit_exactly_from_response_bodies() {
    let one = r#"{"url":"http://www.wetterbericht.de/berlin","best":"de","accepted":["de"],"scores":{"en":-7.239805946857192,"de":9.705725852049532,"fr":-7.287431934448643,"es":-6.582586665990238,"it":-7.984972429617558},"cached":false}"#;
    let answer = scan::identify(one).expect("parses");
    let de = urlid::lexicon::Language::German.index();
    assert_eq!(answer.best, Some(de as u8));
    assert_eq!(answer.scores[de], Some(9.705725852049532));
    assert_eq!(answer, Answer::from_scores(answer.scores));
    let null = r#"{"url":"x","best":null,"accepted":[],"scores":{"en":null,"de":null,"fr":null,"es":null,"it":null},"cached":true}"#;
    let batch = format!(r#"{{"count":2,"cache_hits":0,"results":[{one},{null}]}}"#);
    let mut answers = Vec::new();
    assert_eq!(scan::identify_batch(&batch, &mut answers), 2);
    assert_eq!(answers[0], answer);
    assert_eq!(answers[1].best, None);
    assert_eq!(answers[1].scores, [None; 5]);
    // One flipped bit in one score changes the fingerprint.
    let mut nudged = answer;
    nudged.scores[0] = nudged.scores[0].map(|s| f64::from_bits(s.to_bits() ^ 1));
    assert_ne!(nudged.fingerprint(), answer.fingerprint());
    assert_eq!(scan::identify("{\"error\":\"bad\"}"), None);
}
