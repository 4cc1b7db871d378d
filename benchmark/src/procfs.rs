//! Per-thread CPU time and context switches of a process, from
//! `/proc/<pid>/task/*`, and its peak resident set from
//! `/proc/<pid>/status`.

use std::collections::BTreeMap;
use std::path::Path;

/// Kernel clock ticks per second behind the `stat` time fields (Linux
/// fixes `USER_HZ` at 100 for user space).
const TICKS_PER_SECOND: u64 = 100;

/// One thread's cumulative counters at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSample {
    /// Thread name (`comm`, at most 15 bytes).
    pub name: String,
    /// CPU time consumed, nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctxsw: u64,
}

/// The `comm` field and the user + system CPU ticks of a
/// `/proc/.../stat` line. The name sits in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?.to_owned();
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut rest = line.get(close + 1..)?.split_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some((name, utime + stime))
}

/// Nanoseconds on CPU: the first field of `/proc/.../schedstat`.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// A `Key:   value` field of `/proc/.../status`, as a number (units such
/// as `kB` are dropped).
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name != key {
            return None;
        }
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches from a `status` text.
pub fn parse_ctxsw(status: &str) -> Option<u64> {
    Some(
        status_field(status, "voluntary_ctxt_switches")?
            + status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// Read one thread directory. Threads can exit between listing and
/// reading; those read as `None`.
fn read_thread(dir: &Path) -> Option<ThreadSample> {
    let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
    let (name, ticks) = parse_stat(&stat)?;
    let cpu_ns = std::fs::read_to_string(dir.join("schedstat"))
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or(ticks * (1_000_000_000 / TICKS_PER_SECOND));
    let status = std::fs::read_to_string(dir.join("status")).ok()?;
    Some(ThreadSample {
        name,
        cpu_ns,
        ctxsw: parse_ctxsw(&status)?,
    })
}

/// Every live thread of `pid`, keyed by thread id.
pub fn threads(pid: u32) -> BTreeMap<u32, ThreadSample> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(sample) = read_thread(&entry.path()) {
            out.insert(tid, sample);
        }
    }
    out
}

/// CPU nanoseconds and context switches accumulated between two
/// snapshots, summed over the threads whose name starts with `prefix`
/// (`""` for all). A thread born after `before` counts from zero.
pub fn delta(
    before: &BTreeMap<u32, ThreadSample>,
    after: &BTreeMap<u32, ThreadSample>,
    prefix: &str,
) -> (u64, u64) {
    let mut cpu = 0;
    let mut ctxsw = 0;
    for (tid, now) in after {
        if !now.name.starts_with(prefix) {
            continue;
        }
        let (cpu0, ctx0) = before
            .get(tid)
            .map(|b| (b.cpu_ns, b.ctxsw))
            .unwrap_or((0, 0));
        cpu += now.cpu_ns.saturating_sub(cpu0);
        ctxsw += now.ctxsw.saturating_sub(ctx0);
    }
    (cpu, ctxsw)
}

/// CPU nanoseconds the calling thread has consumed.
pub fn own_thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of `pid` in KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_field(&status, "VmHWM")
}
