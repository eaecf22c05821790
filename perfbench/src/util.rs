//! Shared helpers: order statistics, memory probes, child-process
//! accounting and the result record every workload returns.

use crate::analysis::Bound;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was attempted (the base is reported
/// beside every ratio).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// What a finished child left behind.
pub struct ChildRun {
    pub stdout: String,
    pub exit_ok: bool,
    /// The child's `ru_maxrss`, in MB.
    pub maxrss_mb: f64,
}

/// Runs a command to completion, capturing stdout and its peak RSS.
///
/// The child is reaped with `wait4` rather than `Child::wait`, because only
/// `wait4` reports the resource usage of that one child.
pub fn run_child(cmd: &mut Command) -> std::io::Result<ChildRun> {
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::null()).spawn()?;
    let mut stdout = String::new();
    child.stdout.take().expect("stdout is piped").read_to_string(&mut stdout)?;
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `pid` is our own un-reaped child (`Child` never waits on drop),
    // and both out-pointers are valid, exclusively borrowed locals whose
    // layouts match the kernel's `int` and 64-bit `struct rusage`.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if rc != pid {
        return Err(std::io::Error::last_os_error());
    }
    // WIFEXITED && WEXITSTATUS == 0.
    let exit_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(ChildRun { stdout, exit_ok, maxrss_mb: usage.maxrss as f64 / 1024.0 })
}

/// Builds the `cinderella` binary of the repository this benchmark lives
/// in and returns its path. Uses the same `CARGO_TARGET_DIR` as the
/// benchmark itself, so a checkout builds everything once.
pub fn build_cinderella(repo: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline", "-p", "cinderella"])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of cinderella failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir().map_err(|e| e.to_string())?.join(dir),
        None => repo.join("target"),
    };
    let bin = target.join("release").join("cinderella");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{}: not built", bin.display()))
    }
}

/// Analyses in flight at once: two, and no more than the host's CPUs.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Set-up is repeated this many times per run and reported as a median, so
/// one slow start (page cache, a busy neighbour) does not set `setup_s`.
pub const SETUP_ROUNDS: usize = 5;

/// Parses a pinned-bounds table: `name t_min t_max` per line, `#`
/// comments.
pub fn parse_pinned(text: &str) -> Result<Vec<(&str, Bound)>, String> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let num = |s: &str| s.parse::<u64>().map_err(|e| format!("pinned bound {l:?}: {e}"));
            match l.split_whitespace().collect::<Vec<_>>().as_slice() {
                [name, lo, hi] => Ok((*name, (num(lo)?, num(hi)?))),
                _ => Err(format!("malformed pinned bound {l:?}")),
            }
        })
        .collect()
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run returns: the correctness verdict, the analysis
/// tallies, and its metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures shown in the `--workload all` table but kept out of the
    /// result line (`failed_frac`, `slo_ok_frac`: zero-valued or
    /// single-workload, so unfit as regression metrics).
    pub shown: Vec<Metric>,
    /// Correctness violations, printed to stderr.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            shown: Vec::new(),
            errors: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Sets `attempted`/`failed` and shows `failed_frac` in the table.
    pub fn tally(&mut self, attempted: usize, failed: usize) {
        self.attempted = attempted as u64;
        self.failed = failed as u64;
        let frac = ratio(failed as f64, attempted as f64);
        self.shown.push(Metric { name: "failed_frac".into(), value: frac, unit: "ratio" });
    }

    /// Records a correctness violation; the run then reports
    /// `"correct": false`. Only the first few are kept for the report.
    pub fn violation(&mut self, message: String) {
        self.correct = false;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }
}

/// The end-to-end latency metrics of a sample of per-analysis latencies:
/// median and p99. The run is expected to hold at least ten samples beyond
/// p99 (1000 samples); a warning names a run that does not.
pub fn latency_metrics(out: &mut Outcome, workload: &str, latencies_ms: &[f64]) {
    if latencies_ms.len() < 1000 {
        eprintln!(
            "perfbench: {workload}: only {} samples; p99 has fewer than 10 beyond it",
            latencies_ms.len()
        );
    }
    out.metric("latency_ms_p50", median(latencies_ms), "ms");
    out.metric("latency_ms_p99", quantile(latencies_ms, 0.99), "ms");
}
