//! Drives a running server over a set of connections — one thread per
//! connection, the calling thread included, so the client never runs
//! more threads than connections — and checks every answer against the
//! in-process oracle afterwards.

use crate::client::Conn;
use crate::pace::{drive, ConnLog, Exchange, MonoClock, Outcome};
use crate::procfs;
use crate::scan::{self, Answer};
use crate::workload::{self, UrlSet};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use urlid::classifiers::LanguageClassifierSet;
use urlid_serve::normalize_url;

/// Which URLs request `k` of a connection asks about.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// One URL drawn with repetition from the first `pool` URLs by a
    /// seeded stream.
    Draw {
        /// Workload seed.
        seed: u64,
        /// Stream number (one per connection).
        stream: u64,
        /// Pool size.
        pool: usize,
    },
    /// URLs `start + k * per ..` (at most `per`), ending at `end`.
    Run {
        /// First URL of request 0.
        start: usize,
        /// URLs per request.
        per: usize,
        /// One past the last URL of the plan.
        end: usize,
    },
}

impl Plan {
    /// URL index range of request `k`, `None` past the end of the plan.
    pub fn urls(&self, k: u64) -> Option<(usize, usize)> {
        match *self {
            Plan::Draw { seed, stream, pool } => {
                let i = workload::draw(seed, stream, k, pool);
                Some((i, i + 1))
            }
            Plan::Run { start, per, end } => {
                let a = start.checked_add(usize::try_from(k).ok()?.checked_mul(per)?)?;
                (a < end).then(|| (a, (a + per).min(end)))
            }
        }
    }
}

/// One answered URL, kept for the oracle check.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Index into the run's [`UrlSet`].
    pub url: u32,
    /// Request number on its connection.
    pub request: u32,
    /// [`Answer::fingerprint`] of the answer.
    pub fingerprint: u64,
}

/// Everything one connection produced in one phase.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Timings and counts from the loop.
    pub log: ConnLog,
    /// Every answered URL.
    pub records: Vec<Record>,
    /// 503 refusals.
    pub rejects: u64,
    /// Transport errors.
    pub errors: u64,
    /// Other non-200 statuses, and replies with the wrong answer count.
    pub bad_replies: u64,
    /// The first few `(request bytes, response body)` pairs exactly as
    /// they crossed the wire.
    pub captured: Vec<(Vec<u8>, String)>,
    /// CPU time of this connection's thread during the loop.
    pub cpu_ns: u64,
}

/// The [`Exchange`] over one real connection.
struct Session<'a> {
    conn: &'a mut Conn,
    addr: SocketAddr,
    urls: &'a UrlSet,
    path: &'static str,
    batch: bool,
    plan: Plan,
    body: Vec<u8>,
    answers: Vec<Answer>,
    capture_left: usize,
    out: ConnResult,
}

impl Session<'_> {
    fn build_body(&mut self, a: usize, b: usize) {
        self.body.clear();
        if self.batch {
            self.body.extend_from_slice(b"{\"urls\":[");
            for i in a..b {
                if i > a {
                    self.body.push(b',');
                }
                workload::push_json_string(&mut self.body, self.urls.url(i));
            }
            self.body.extend_from_slice(b"]}");
        } else {
            self.body.extend_from_slice(b"{\"url\":");
            workload::push_json_string(&mut self.body, self.urls.url(a));
            self.body.push(b'}');
        }
    }
}

const FAILED: Outcome = Outcome {
    urls: 0,
    failed: true,
};

impl Exchange for Session<'_> {
    fn exchange(&mut self, k: u64) -> Option<Outcome> {
        let (a, b) = self.plan.urls(k)?;
        self.build_body(a, b);
        let reply = match self.conn.send("POST", self.path, &self.body) {
            Ok(reply) => reply,
            Err(_) => {
                self.out.errors += 1;
                if let Ok(fresh) = Conn::connect(self.addr) {
                    *self.conn = fresh;
                }
                return Some(FAILED);
            }
        };
        if reply.status != 200 {
            if reply.status == 503 {
                self.out.rejects += 1;
            } else {
                self.out.bad_replies += 1;
            }
            return Some(FAILED);
        }
        let Ok(text) = std::str::from_utf8(reply.body) else {
            self.out.bad_replies += 1;
            return Some(FAILED);
        };
        self.answers.clear();
        if self.batch {
            scan::identify_batch(text, &mut self.answers);
        } else if let Some(answer) = scan::identify(text) {
            self.answers.push(answer);
        }
        let captured_body = (self.capture_left > 0).then(|| text.to_owned());
        if self.answers.len() != b - a {
            self.out.bad_replies += 1;
            return Some(FAILED);
        }
        for (i, answer) in (a..b).zip(&self.answers) {
            self.out.records.push(Record {
                url: i as u32,
                request: k as u32,
                fingerprint: answer.fingerprint(),
            });
        }
        if let Some(body) = captured_body {
            self.out
                .captured
                .push((self.conn.last_request().to_vec(), body));
            self.capture_left -= 1;
        }
        Some(Outcome {
            urls: (b - a) as u64,
            failed: false,
        })
    }
}

/// What a phase runs: the endpoint, each connection's plan, when to
/// stop, and how many exchanges to capture per connection.
pub struct PhaseSpec<'a> {
    /// Server address (for reconnects).
    pub addr: SocketAddr,
    /// The run's URLs.
    pub urls: &'a UrlSet,
    /// URLs per request (1 posts `/identify`).
    pub batch: usize,
    /// Plan of connection `c`.
    pub plan: &'a (dyn Fn(usize) -> Plan + Sync),
    /// Stop sending once the phase's clock reaches this.
    pub deadline_ns: u64,
    /// Exchanges to capture per connection.
    pub capture: usize,
    /// Requests one connection is expected to send at most (buffers are
    /// sized for it up front).
    pub expected: usize,
}

/// Run one phase on every connection at once, connection 0 on the
/// calling thread.
pub fn run(conns: &mut [Conn], spec: &PhaseSpec<'_>, clock: &MonoClock) -> Vec<ConnResult> {
    let one = |c: usize, conn: &mut Conn| -> ConnResult {
        let cpu_before = procfs::own_thread_cpu_ns();
        let mut session = Session {
            conn,
            addr: spec.addr,
            urls: spec.urls,
            path: if spec.batch == 1 {
                "/identify"
            } else {
                "/identify_batch"
            },
            batch: spec.batch > 1,
            plan: (spec.plan)(c),
            body: Vec::with_capacity(64 * spec.batch),
            answers: Vec::with_capacity(spec.batch),
            capture_left: spec.capture,
            out: ConnResult {
                records: Vec::with_capacity(spec.expected * spec.batch),
                ..ConnResult::default()
            },
        };
        let log = drive(clock, &mut session, spec.deadline_ns, spec.expected);
        let mut out = session.out;
        out.log = log;
        out.cpu_ns = procfs::own_thread_cpu_ns().saturating_sub(cpu_before);
        out
    };
    let Some((first, rest)) = conns.split_first_mut() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| scope.spawn(move || one(i + 1, conn)))
            .collect();
        let mut results = vec![one(0, first)];
        for handle in handles {
            results.push(handle.join().expect("connection thread panicked"));
        }
        results
    })
}

/// The oracle's verdict on a set of answers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// URLs answered.
    pub answered: u64,
    /// URLs whose scores or best language differ from the oracle's.
    pub mismatched: u64,
    /// Requests with at least one mismatched URL.
    pub mismatched_requests: u64,
}

/// Check every record against `score_all` on the same model, loaded in
/// this process. `memo` (one slot per URL, 0 = not yet scored) spares
/// re-scoring repeated URLs.
pub fn verify(
    records: &[Record],
    urls: &UrlSet,
    oracle: &LanguageClassifierSet,
    memo: &mut [u64],
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut bad_requests = BTreeSet::new();
    for r in records {
        let i = r.url as usize;
        if memo[i] == 0 {
            let key = normalize_url(urls.url(i));
            memo[i] = Answer::from_scores(oracle.score_all(&key)).fingerprint();
        }
        verdict.answered += 1;
        if memo[i] != r.fingerprint {
            verdict.mismatched += 1;
            bad_requests.insert(r.request);
        }
    }
    verdict.mismatched_requests = bad_requests.len() as u64;
    verdict
}
