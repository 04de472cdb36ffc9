//! The daemon under test as a child process: spawn it on the generated
//! CSVs, wait until it answers a `ping`, read its CPU time and peak RSS
//! from `/proc`, and stop it — always, even when the run fails.

use sj_server::Client;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Grid level every workload serves (the paper's GH sweet spot).
pub const LEVEL: u32 = 7;

/// How long a daemon may take to come up or to stop.
const PATIENCE: Duration = Duration::from_secs(120);

/// Reads how much CPU time a process has used.
#[derive(Debug, Clone, Copy)]
pub struct CpuMeter {
    pid: u32,
}

impl CpuMeter {
    /// On-CPU time of all the process's live threads so far, in µs: the
    /// sum of the first field of `/proc/<pid>/task/*/schedstat` — the
    /// scheduler's nanosecond count behind `/proc/<pid>/stat`'s
    /// utime+stime ticks.
    pub fn cpu_us(self) -> Result<f64, String> {
        let dir = format!("/proc/{}/task", self.pid);
        let tasks = std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
        let mut ns = 0u64;
        for task in tasks.flatten() {
            // A thread may exit between the listing and the read.
            let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{}: unreadable schedstat", task.path().display()))?;
        }
        Ok(ns as f64 / 1e3)
    }
}

/// A running `sjsel serve`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// The connection every workload drives.
    pub client: Client,
    /// Spawn until the first answered `ping`.
    pub setup: Duration,
    /// Where the daemon's stderr goes.
    pub stderr_log: PathBuf,
}

impl Daemon {
    /// Spawns `sjsel serve` over `csvs` with a fresh statistics
    /// directory `run_dir/stats-<tag>`, and connects once it is ready.
    pub fn spawn(
        sjsel: &Path,
        csvs: &[PathBuf],
        run_dir: &Path,
        tag: &str,
    ) -> Result<Self, String> {
        let stats_dir = run_dir.join(format!("stats-{tag}"));
        let ready = run_dir.join(format!("ready-{tag}"));
        let stderr_log = run_dir.join(format!("daemon-{tag}.stderr"));
        let _ = std::fs::remove_file(&ready);
        let _ = std::fs::remove_dir_all(&stats_dir);
        let log = std::fs::File::create(&stderr_log)
            .map_err(|e| format!("creating {}: {e}", stderr_log.display()))?;
        let start = Instant::now();
        let child = Command::new(sjsel)
            .arg("serve")
            .args(csvs)
            .arg("--level")
            .arg(LEVEL.to_string())
            .args(["--addr", "127.0.0.1:0", "--ready-file"])
            .arg(&ready)
            .arg("--stats-dir")
            .arg(&stats_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", sjsel.display()))?;
        let mut pending = Pending { child: Some(child) };
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&ready) {
                if let Some(addr) = text.strip_suffix('\n') {
                    break addr.to_string();
                }
            }
            let exited = pending.child_mut().try_wait().map_err(|e| e.to_string())?;
            if let Some(status) = exited {
                return Err(format!(
                    "daemon exited with {status} before it was ready; stderr:\n{}",
                    tail(&stderr_log)
                ));
            }
            if start.elapsed() > PATIENCE {
                return Err("daemon did not become ready".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        let mut client = Client::connect(addr.as_str()).map_err(|e| format!("connect: {e}"))?;
        client.ping().map_err(|e| format!("first ping: {e}"))?;
        let setup = start.elapsed();
        client
            .set_io_timeout(Some(PATIENCE))
            .map_err(|e| format!("socket timeout: {e}"))?;
        Ok(Self {
            child: pending.take(),
            client,
            setup,
            stderr_log,
        })
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A reader of the daemon's CPU time.
    pub fn meter(&self) -> CpuMeter {
        CpuMeter { pid: self.pid() }
    }

    /// Peak resident set size (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if start.elapsed() < PATIENCE => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("daemon did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A child that is not yet a [`Daemon`]: killed and reaped if set-up
/// fails before it is handed over.
struct Pending {
    child: Option<Child>,
}

impl Pending {
    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("child is present until taken")
    }

    fn take(&mut self) -> Child {
        self.child.take().expect("child is taken once")
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The last lines of a log, for error messages.
pub fn tail(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    lines[lines.len().saturating_sub(20)..].join("\n")
}
