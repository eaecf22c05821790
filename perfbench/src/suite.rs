//! `suite`: the 13 Table I routines with their hand annotations, each
//! analysed by a fresh `cinderella analyze <routine>` process at default
//! flags, round-robin in Table I order.

use crate::analysis::Bound;
use crate::util::{
    latency_metrics, median, ms, parallelism, parse_pinned, run_child, Outcome, SETUP_ROUNDS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The pinned `[t_min, t_max]` of every routine, in Table I order.
const PINNED: &str = include_str!("../data/suite_bounds.txt");

/// A Table I routine with the bound the benchmark holds it to.
pub struct Routine {
    pub name: &'static str,
    pub bound: Bound,
}

/// The routines in Table I order, each with its pinned bound.
pub fn routines() -> Result<Vec<Routine>, String> {
    let pinned = parse_pinned(PINNED)?;
    let benches = ipet_suite::all();
    if benches.len() != pinned.len() {
        return Err(format!("{} routines, {} pinned bounds", benches.len(), pinned.len()));
    }
    benches
        .iter()
        .zip(pinned)
        .map(|(b, (name, bound))| {
            if b.name == name {
                Ok(Routine { name: b.name, bound })
            } else {
                Err(format!("pinned bound for {name} where Table I has {}", b.name))
            }
        })
        .collect()
}

/// Checks that every pinned bound encloses the simulator's measured bound
/// from the routine's best- and worst-case data sets: a bound must contain
/// real executions.
pub fn check_against_simulator(routines: &[Routine], out: &mut Outcome) {
    let machine = ipet_sim::Machine::i960kb();
    for (b, r) in ipet_suite::all().iter().zip(routines) {
        let measured = b.program().map_err(|e| e.to_string()).and_then(|p| {
            let worst = ipet_sim::measure(&p, machine, &(b.worst_seeds)(), b.args_worst, true);
            let best = ipet_sim::measure(&p, machine, &(b.best_seeds)(), b.args_best, false);
            match (best, worst) {
                (Ok(best), Ok(worst)) => Ok((best.cycles, worst.cycles)),
                (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
            }
        });
        match measured {
            Ok((lo, hi)) if r.bound.0 <= lo && hi <= r.bound.1 => {}
            Ok((lo, hi)) => out.violation(format!(
                "{}: pinned bound {:?} does not enclose measured [{lo}, {hi}]",
                r.name, r.bound
            )),
            Err(e) => out.violation(format!("{}: simulation failed: {e}", r.name)),
        }
    }
}

/// One CLI analysis.
pub struct Spawn {
    pub routine: usize,
    pub latency_ms: f64,
    pub maxrss_mb: f64,
    /// Exit 0, `bound quality: exact` and the pinned bound.
    pub ok: bool,
}

/// Parses `estimated bound: [lo, hi] cycles` and requires an exact bound.
fn parse_report(stdout: &str) -> Option<Bound> {
    if !stdout.lines().any(|l| l == "bound quality: exact") {
        return None;
    }
    let line = stdout.lines().find_map(|l| l.strip_prefix("estimated bound: ["))?;
    let (lo, rest) = line.split_once(", ")?;
    let hi = rest.strip_suffix("] cycles")?;
    Some((lo.parse().ok()?, hi.parse().ok()?))
}

/// Spawns and checks one `cinderella analyze <routine>`.
pub fn analyze_once(bin: &Path, routines: &[Routine], routine: usize) -> Spawn {
    let r = &routines[routine];
    let t0 = Instant::now();
    let run = run_child(Command::new(bin).args(["analyze", r.name]));
    let latency_ms = ms(t0.elapsed());
    match run {
        Ok(run) => Spawn {
            routine,
            latency_ms,
            maxrss_mb: run.maxrss_mb,
            ok: run.exit_ok && parse_report(&run.stdout) == Some(r.bound),
        },
        Err(_) => Spawn { routine, latency_ms, maxrss_mb: 0.0, ok: false },
    }
}

/// Closed loop: one client thread per CPU (at most two) spawns analyses
/// round-robin in Table I order, starting at routine `first`, until
/// `window` has passed — two clients, so a run holds the 1000+ samples p99
/// needs. Returns every analysis and the wall time until the last one
/// finished.
pub fn closed_loop(
    bin: &Path,
    routines: &[Routine],
    first: usize,
    window: Duration,
) -> (Vec<Spawn>, Duration) {
    let next = AtomicUsize::new(0);
    let spawns = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..parallelism() {
            s.spawn(|| {
                while t0.elapsed() < window {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let spawn = analyze_once(bin, routines, (first + i) % routines.len());
                    spawns.lock().expect("no client panics holding the lock").push(spawn);
                }
            });
        }
    });
    (spawns.into_inner().expect("clients joined"), t0.elapsed())
}

pub fn run(bin: &Path, seed: u64, window: Duration) -> Result<Outcome, String> {
    let routines = routines()?;
    let mut out = Outcome::new();
    check_against_simulator(&routines, &mut out);

    // Set-up is the untimed warm-up pass: one analysis per routine.
    let mut setups = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        for i in 0..routines.len() {
            if !analyze_once(bin, &routines, i).ok {
                out.violation(format!("warm-up: {} failed its check", routines[i].name));
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }

    let first = StdRng::seed_from_u64(seed).gen_range(0..routines.len());
    let (spawns, wall) = closed_loop(bin, &routines, first, window);
    for s in spawns.iter().filter(|s| !s.ok) {
        out.violation(format!("{}: wrong, non-exact or failed analysis", routines[s.routine].name));
    }
    let good = spawns.iter().filter(|s| s.ok).count();
    out.tally(spawns.len(), spawns.len() - good);
    let latencies: Vec<f64> = spawns.iter().map(|s| s.latency_ms).collect();
    out.metric("setup_s", median(&setups), "s");
    out.metric("throughput_per_s", good as f64 / wall.as_secs_f64(), "1/s");
    latency_metrics(&mut out, "suite", &latencies);
    out.metric("peak_rss_mb", spawns.iter().map(|s| s.maxrss_mb).fold(0.0, f64::max), "MB");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_bounds_cover_table_one() {
        assert_eq!(routines().unwrap().len(), 13);
    }

    #[test]
    fn report_parsing_requires_an_exact_bound() {
        let exact = "estimated bound: [78, 1357] cycles\nbound quality: exact\n";
        assert_eq!(parse_report(exact), Some((78, 1357)));
        let relaxed = "estimated bound: [78, 1357] cycles\nbound quality: relaxed\n";
        assert_eq!(parse_report(relaxed), None);
    }
}
