//! Runs the real `urlid` binary: corpus generation, training, and
//! `urlid serve` processes on `127.0.0.1:0` that are always killed and
//! reaped, error paths included.

use crate::client;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take from spawn to its first `/healthz` 200.
const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

/// Run `urlid <args>` to completion; stderr becomes the error text.
pub fn run_urlid(urlid: &Path, args: &[&str]) -> Result<(), String> {
    let output = Command::new(urlid)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", urlid.display()))?;
    if output.status.success() {
        Ok(())
    } else {
        Err(format!(
            "urlid {} failed ({}): {}",
            args.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ))
    }
}

/// A running `urlid serve` child process.
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawn `urlid serve` with its shipped defaults on an ephemeral
    /// loopback port (`--telemetry off` unless `telemetry`), read the
    /// bound address from its boot line, and wait for `/healthz` to
    /// answer 200. The server's stderr goes to `log`.
    pub fn boot(urlid: &Path, model: &Path, telemetry: bool, log: &Path) -> Result<Self, String> {
        let log_file = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut command = Command::new(urlid);
        command
            .arg("serve")
            .arg("--model")
            .arg(model)
            .args(["--addr", "127.0.0.1:0"]);
        if !telemetry {
            command.args(["--telemetry", "off"]);
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", urlid.display()))?;
        // From here on, dropping `server` kills and reaps the child.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let started = Instant::now();
        server.addr = loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = boot_address(&text) {
                break addr;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("urlid serve exited ({status}): {}", text.trim()));
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err(format!("urlid serve printed no boot line: {}", text.trim()));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        while client::get(server.addr, "/healthz").is_err() {
            if started.elapsed() > BOOT_TIMEOUT {
                return Err("urlid serve never answered /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(server)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The address in a `serving <model> on http://<addr> (...)` boot line.
pub fn boot_address(log: &str) -> Option<SocketAddr> {
    log.lines().find_map(|line| {
        if !line.starts_with("serving ") {
            return None;
        }
        let rest = &line[line.find(" on http://")? + " on http://".len()..];
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// A scratch directory inside the checkout for one run's corpus, models
/// and server logs; removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create `.bench_work/<name>-<pid>` under the current directory.
    pub fn create(name: &str) -> Result<Self, String> {
        let path = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}
