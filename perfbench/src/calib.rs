//! A host-speed probe owned by the benchmark: a fixed decode-and-reduce
//! pass over a level-7-sized grid into freshly allocated arrays — the
//! allocation-and-streaming work an estimate does — run in a child
//! process of its own, as the daemon's work runs in one, and timed at
//! intervals through each run. It calls no code of the program under
//! test, so a change to the program cannot move it; only the host can.

use std::hint::black_box;
use std::io::{Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The probe's median pass time on the reference host (the 2-vCPU
/// Intel Xeon VM the benchmark was written on, in a quiet period).
/// Gated times are scaled by `REFERENCE_PROBE_US / median pass` of
/// their own run, so that they read as on the reference host.
pub const REFERENCE_PROBE_US: f64 = 800.0;

/// The flag that turns the benchmark binary into the probe process.
pub const SERVE_FLAG: &str = "--probe-server";

/// Cells of a level-7 grid.
const CELLS: usize = 128 * 128;

/// The probe process's side: one timed pass per byte read from stdin,
/// answered with the pass's duration in ns (8 bytes, little-endian).
/// Returns when stdin closes.
pub fn serve() -> std::io::Result<()> {
    let count: Vec<u32> = (0..CELLS as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 97)
        .collect();
    let mass: [Vec<i64>; 3] = [1i64, 3, 7].map(|k| {
        (0..CELLS as i64)
            .map(|i| (i * k) % 1_000_003 - 500_000)
            .collect()
    });
    let (mut input, mut output) = (std::io::stdin().lock(), std::io::stdout().lock());
    let mut byte = [0u8; 1];
    while input.read(&mut byte)? == 1 {
        let start = Instant::now();
        let views: Vec<[Vec<f64>; 4]> = (0..2)
            .map(|_| {
                let mut v = [0, 1, 2, 3].map(|_| Vec::with_capacity(CELLS));
                for i in 0..CELLS {
                    v[0].push(f64::from(black_box(count[i])));
                    v[1].push(mass[0][i] as f64 / 65_536.0);
                    v[2].push(mass[1][i] as f64 / 65_536.0);
                    v[3].push(mass[2][i] as f64 / 65_536.0);
                }
                v
            })
            .collect();
        let total: f64 = views[0][0]
            .iter()
            .zip(&views[1][1])
            .zip(views[0][2].iter().zip(&views[1][3]))
            .map(|((c, o), (h, v))| c * o + h * v)
            .sum();
        drop(black_box(views));
        black_box(total);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        output.write_all(&ns.to_le_bytes())?;
        output.flush()?;
    }
    Ok(())
}

/// The benchmark's side: a running probe process and its samples.
pub struct Probe {
    child: Child,
    input: Option<ChildStdin>,
    output: ChildStdout,
    /// Duration of every probe pass so far, µs.
    pub samples_us: Vec<f64>,
    last: Instant,
}

impl Probe {
    /// Starts the probe process (this binary, with [`SERVE_FLAG`]).
    pub fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the probe binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg(SERVE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the probe: {e}"))?;
        let (input, output) = (child.stdin.take(), child.stdout.take());
        let Some(output) = output else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("probe has no stdout".to_string());
        };
        Ok(Self {
            child,
            input,
            output,
            samples_us: Vec::new(),
            last: Instant::now(),
        })
    }

    /// One timed pass in the probe process.
    pub fn pass(&mut self) -> Result<(), String> {
        let input = self.input.as_mut().ok_or("probe stdin closed")?;
        input
            .write_all(&[1])
            .and_then(|()| input.flush())
            .map_err(|e| format!("probe: {e}"))?;
        let mut ns = [0u8; 8];
        self.output
            .read_exact(&mut ns)
            .map_err(|e| format!("probe: {e}"))?;
        self.samples_us.push(u64::from_le_bytes(ns) as f64 / 1e3);
        Ok(())
    }

    /// Runs a pass when `every` has elapsed since the last one. Returns
    /// the time spent, so callers can keep it out of their own timings.
    pub fn tick(&mut self, every: Duration) -> Result<Duration, String> {
        if self.last.elapsed() < every {
            return Ok(Duration::ZERO);
        }
        let start = Instant::now();
        self.pass()?;
        self.last = Instant::now();
        Ok(start.elapsed())
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // Closing stdin ends the probe's loop.
        drop(self.input.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
