//! The traced run: per-layer figures for one workload.
//!
//! The workload's inputs are replayed in-process through
//! [`crate::analysis::analyze`], which times each layer's public entry
//! point from outside, with the `ipet-trace` recorder installed. Untraced
//! passes over the same inputs alternate with the traced ones in a child
//! process, so the difference is the tracing overhead; every exact counter
//! must repeat bit for bit across the traced passes. `suite` then times the
//! CLI per routine, and `suite` and `serve` drive the daemon for its
//! client-side class split and `stats` snapshot.
//!
//! Every run reports every per-layer metric; a layer that does not run on
//! the workload reports 0.

use crate::analysis::{self, analyze, Bound, Executor, Input, LayerTimes};
use crate::suite::{closed_loop, routines, Routine};
use crate::util::{median, parallelism, ratio, Outcome};
use crate::{corpus, serve};
use ipet_pool::SolvePool;
use ipet_trace::CounterMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::BufReader;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Corpus programs per replay pass (the head of the run's seeded order).
const CORPUS_PASS: usize = 40;

/// Serve requests per replay pass (the head of the run's schedule).
const SERVE_PASS: usize = 200;

/// A pass's inputs, each with the pinned bound it must produce.
type Inputs<'a> = Vec<(Input<'a>, Bound)>;

/// How a pass solves.
#[derive(Clone, Copy)]
enum Exec {
    /// Every analysis on the serial path, as each `cinderella analyze
    /// <routine>` process runs it.
    Serial,
    /// One pool for the whole pass, as the corpus run (two workers) and the
    /// daemon (one) have.
    Pool(usize),
}

/// One replay pass: analyses every input and checks its bound.
fn pass(inputs: &Inputs<'_>, exec: Exec, out: &mut Outcome) -> Vec<LayerTimes> {
    let pool = match exec {
        Exec::Serial => None,
        Exec::Pool(workers) => Some(SolvePool::new(workers)),
    };
    let executor = pool.as_ref().map_or(Executor::Serial, Executor::Pool);
    inputs
        .iter()
        .map(|(input, expect)| {
            let a = analyze(input, executor);
            out.attempted += 1;
            let wrong = match &a.bound {
                Ok(b) if b == expect => None,
                Ok(b) => Some(format!("replay: bound {b:?}, pinned {expect:?}")),
                Err(e) => Some(format!("replay: {e}")),
            };
            if let Some(e) = wrong {
                out.failed += 1;
                out.violation(e);
            }
            a.times
        })
        .collect()
}

/// Times, for every analysis of a pass, the layers [`analysis::detail`]
/// splits out. Runs after the pass's counters are read, so its own solves
/// are not counted.
fn detail_pass(inputs: &Inputs<'_>, exec: Exec, times: &mut [LayerTimes], out: &mut Outcome) {
    let verdicts = SolvePool::new(1);
    let executor = match exec {
        Exec::Serial => Executor::Serial,
        Exec::Pool(_) => Executor::Pool(&verdicts),
    };
    for ((input, _), t) in inputs.iter().zip(times) {
        if let Err(e) = analysis::detail(input, executor, &verdicts, t) {
            out.violation(format!("replay detail: {e}"));
        }
    }
}

fn counter(c: &CounterMap, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0) as f64
}

/// The inputs a workload's replay pass analyses, with the data they borrow.
struct ReplaySet {
    routines: Vec<Routine>,
    benches: Vec<ipet_suite::Benchmark>,
    corpus: Vec<ipet_bench::synth::SynthProgram>,
    corpus_bounds: Vec<Bound>,
    plan: Vec<serve::Request>,
    order: Vec<usize>,
}

impl ReplaySet {
    fn new(workload: &str, seed: u64) -> Result<ReplaySet, String> {
        let routines = routines()?;
        let (corpus, corpus_bounds, order) = if workload == "corpus" {
            (corpus::synthesize(), corpus::pinned()?, corpus::order(seed, 1))
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        let plan = if workload == "serve" {
            // Three times the expected span of a pass, so the schedule holds it.
            let span = Duration::from_secs_f64(3.0 * SERVE_PASS as f64 / serve::RATE_PER_S);
            serve::schedule(seed, &routines, span, serve::RATE_PER_S)
        } else {
            Vec::new()
        };
        Ok(ReplaySet { routines, benches: ipet_suite::all(), corpus, corpus_bounds, plan, order })
    }

    fn inputs(&self, workload: &str) -> (Inputs<'_>, Exec) {
        let pinned = |r: usize| self.routines[r].bound;
        match workload {
            "suite" => (
                self.benches
                    .iter()
                    .enumerate()
                    .map(|(r, b)| (Input::Routine(b, None), pinned(r)))
                    .collect(),
                Exec::Serial,
            ),
            "corpus" => (
                self.order[..CORPUS_PASS]
                    .iter()
                    .map(|&p| (Input::Synth(&self.corpus[p].module), self.corpus_bounds[p]))
                    .collect(),
                Exec::Pool(parallelism()),
            ),
            _ => (
                self.plan
                    .iter()
                    .take(SERVE_PASS)
                    .map(|q| {
                        (
                            Input::Routine(&self.benches[q.routine], q.novel.as_deref()),
                            pinned(q.routine),
                        )
                    })
                    .collect(),
                Exec::Pool(1),
            ),
        }
    }
}

/// The untraced side of the overhead comparison, in a child process: the
/// trace recorder cannot be uninstalled, and on a shared VM speed drifts by
/// tens of percent over seconds, so the two sides alternate pass by pass
/// rather than run one after the other. Reads one line per pass on stdin
/// and answers with the pass's end-to-end times, or `fail <reason>`.
pub fn untraced_child(workload: &str, seed: u64) -> Result<(), String> {
    use std::io::{BufRead, Write};
    let set = ReplaySet::new(workload, seed)?;
    let (inputs, exec) = set.inputs(workload);
    let stdout = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        let mut out = Outcome::new();
        let times = pass(&inputs, exec, &mut out);
        let answer = match out.errors.first() {
            Some(e) => format!("fail {e}"),
            None => times.iter().map(|t| t.total.to_string()).collect::<Vec<_>>().join(" "),
        };
        let mut lock = stdout.lock();
        writeln!(lock, "{answer}").and_then(|()| lock.flush()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A running [`untraced_child`].
struct Untraced {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Untraced {
    fn spawn(workload: &str, seed: u64) -> Result<Untraced, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["--workload", workload, "--seed", &seed.to_string(), "--untraced-child"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn untraced replay: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Untraced { child, stdin, stdout })
    }

    /// One untraced pass: its per-analysis end-to-end times.
    fn pass(&mut self) -> Result<Vec<f64>, String> {
        use std::io::{BufRead, Write};
        writeln!(self.stdin, "pass").map_err(|e| format!("untraced replay: {e}"))?;
        let mut line = String::new();
        self.stdout.read_line(&mut line).map_err(|e| format!("untraced replay: {e}"))?;
        if let Some(reason) = line.trim().strip_prefix("fail ") {
            return Err(format!("untraced replay: {reason}"));
        }
        line.split_whitespace()
            .map(|v| v.parse::<f64>().map_err(|e| format!("untraced replay: {e}")))
            .collect::<Result<Vec<f64>, String>>()
            .and_then(|v| if v.is_empty() { Err("untraced replay ended".into()) } else { Ok(v) })
    }

    fn finish(mut self) -> Result<(), String> {
        drop(self.stdin);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("untraced replay exited with {status}"))
        }
    }
}

pub fn run(workload: &str, bin: &Path, seed: u64, window: Duration) -> Result<Outcome, String> {
    let set = ReplaySet::new(workload, seed)?;
    let routines = &set.routines;
    let (inputs, exec) = set.inputs(workload);

    // The window is shared equally by the in-process replay and each front
    // end the workload times: none on `corpus`, the daemon on `serve`, the
    // CLI and the daemon on `suite`.
    let front_ends = match workload {
        "corpus" => 0,
        "serve" => 1,
        _ => 2,
    };
    let replay = window / (front_ends + 1);
    let mut out = Outcome::new();
    let mut untraced_side = Untraced::spawn(workload, seed)?;
    // A discarded pass on each side first, so neither pays for cold caches.
    let warm = untraced_side.pass();
    pass(&inputs, exec, &mut out);

    let recorder = ipet_trace::install();
    recorder.reset();
    let mut first: Option<(Vec<(String, u64)>, CounterMap)> = None;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    let mut rounds = 0;
    while warm.is_ok() && (rounds < 2 || t0.elapsed() < replay) {
        match untraced_side.pass() {
            Ok(times) => untraced.extend(times),
            Err(e) => {
                out.violation(e);
                break;
            }
        }
        let mut times = pass(&inputs, exec, &mut out);
        let doc = recorder.snapshot();
        detail_pass(&inputs, exec, &mut times, &mut out);
        recorder.reset();
        traced.extend(times);
        let view = doc.deterministic_view();
        match &first {
            None => first = Some((view, doc.counters)),
            Some((want, _)) if *want != view => {
                let diff: Vec<String> = view
                    .iter()
                    .filter(|kv| !want.contains(kv))
                    .take(5)
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                out.violation(format!(
                    "traced passes disagree on exact counts: {}",
                    diff.join(", ")
                ));
            }
            Some(_) => {}
        }
        rounds += 1;
    }
    if let Err(e) = warm {
        out.violation(e);
    }
    if let Err(e) = untraced_side.finish() {
        out.violation(e);
    }
    let counters = first.map(|(_, c)| c).unwrap_or_default();

    layer_metrics(&mut out, &untraced, &traced, &counters);

    // The workload's own front ends.
    let mut cli_ms = vec![0.0; routines.len()];
    if workload == "suite" {
        let first = StdRng::seed_from_u64(seed).gen_range(0..routines.len());
        let (spawns, _) = closed_loop(bin, routines, first, replay);
        for (r, slot) in cli_ms.iter_mut().enumerate() {
            let lat: Vec<f64> =
                spawns.iter().filter(|s| s.routine == r).map(|s| s.latency_ms).collect();
            *slot = median(&lat);
        }
        for s in spawns.iter().filter(|s| !s.ok) {
            out.violation(format!("cli: {} failed its check", routines[s.routine].name));
        }
        out.attempted += spawns.len() as u64;
        out.failed += spawns.iter().filter(|s| !s.ok).count() as u64;
    }
    let mut daemon = None;
    if workload != "corpus" {
        let run = serve::drive(bin, &serve::work_dir(bin, "trace"), seed, replay)?;
        serve::check(&run, &mut out);
        out.attempted += run.scheduled as u64;
        out.failed += (run.scheduled - run.ok) as u64;
        // The daemon's pool tallies (in `serve::layer_metrics`) replace
        // the replay's.
        out.metrics.retain(|m| m.name != "pool.cache.hit_ratio");
        daemon = Some(run);
    }
    for (r, ms) in routines.iter().zip(cli_ms) {
        out.metric(format!("cli.{}_ms", r.name), ms, "ms");
    }
    out.metrics.extend(serve::layer_metrics(daemon.as_ref()));
    out.metric("failed_frac", ratio(out.failed as f64, out.attempted as f64), "ratio");
    Ok(out)
}

/// Layer timings (median per analysis and share of the summed end-to-end
/// time), the unattributed remainder, the tracing overhead and the exact
/// counts of one traced pass.
fn layer_metrics(out: &mut Outcome, untraced: &[f64], traced: &[LayerTimes], c: &CounterMap) {
    type Layer = (&'static str, fn(&LayerTimes) -> f64);
    let total: f64 = traced.iter().map(|t| t.total).sum();
    let layers: [Layer; 8] = [
        ("lang.compile", |t| t.compile),
        ("cfg.analyzer", |t| t.analyzer),
        ("infer.merge", |t| t.infer),
        ("core.plan", |t| t.plan),
        ("pool.run_plans", |t| t.run_plans),
        ("core.serial_solve", |t| t.serial_solve),
        ("core.fold", |t| t.fold),
        ("audit.certify", |t| t.certify),
    ];
    for (name, get) in layers {
        let v: Vec<f64> = traced.iter().map(get).collect();
        out.metric(format!("{name}_ms"), median(&v), "ms");
        out.metric(format!("{name}_share"), ratio(v.iter().sum(), total), "ratio");
    }
    let unattributed: f64 = traced.iter().map(LayerTimes::unattributed).sum();
    out.metric("unattributed_ms", ratio(unattributed, traced.len() as f64), "ms");
    out.metric("unattributed_share", ratio(unattributed, total), "ratio");
    let traced_p50 = median(&traced.iter().map(|t| t.total).collect::<Vec<_>>());
    out.metric("replay.latency_ms_p50", traced_p50, "ms");
    out.metric("trace.overhead_frac", ratio(traced_p50, median(untraced)) - 1.0, "ratio");

    for name in [
        "core.sets.solved",
        "core.plan.base_rows",
        "core.plan.delta_rows",
        "lp.ticks",
        "lp.ilp.solves",
        "lp.lp_calls",
        "lp.bb_nodes",
        "lp.warm.base_solves",
        "lp.sparse.solves",
        "lp.network.routed",
        "lp.presolve.rows_removed",
    ] {
        out.metric(name, counter(c, name), "count");
    }
    let warm_hits = counter(c, "lp.warm.hits");
    let warm_tries = warm_hits + counter(c, "lp.warm.misses");
    out.metric("lp.warm.hit_ratio", ratio(warm_hits, warm_tries), "ratio");
    let sparse = counter(c, "lp.sparse.solves");
    let sparse_ok = sparse - counter(c, "lp.sparse.fallbacks");
    out.metric("lp.sparse.accept_ratio", ratio(sparse_ok, sparse), "ratio");
    let routed = counter(c, "lp.network.routed");
    let routed_ok = routed - counter(c, "lp.network.fallbacks");
    out.metric("lp.network.accept_ratio", ratio(routed_ok, routed), "ratio");
    let hits = counter(c, "pool.cache.hits");
    out.metric(
        "pool.cache.hit_ratio",
        ratio(hits, hits + counter(c, "pool.cache.misses")),
        "ratio",
    );
}
