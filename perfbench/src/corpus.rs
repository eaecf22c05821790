//! `corpus`: synthesized programs from `ipet_bench::synth::generate` at the
//! default `SynthConfig`, analysed in-process with no annotations (loop
//! bounds from `ipet-infer` alone) and audit-certified.
//!
//! Every program has one constraint set, so the workload bypasses DNF
//! expansion, warm/delta re-solving and cache hits; cold simplex on the
//! larger problems dominates.
//!
//! The program set is fixed: synthesis seeds `0..CORPUS_SIZE`, the head of
//! the stream the `experiments stress` sweep draws from. Solve cost is
//! heavy-tailed (the largest 10% of programs take over half the time), so
//! a fresh sample per run seed moved throughput by ±11–16% and p99 by up to
//! 2× between seeds, more than any regression bound could absorb. The run
//! seed instead orders the set (a fresh permutation per pass) and draws
//! the simulator inputs of the soundness check. A run makes several passes;
//! each pass gets a fresh pool, so no analysis is a cache hit.

use crate::analysis::{analyze, Bound, Executor, Input};
use crate::util::{median, parallelism, parse_pinned, quantile, vm_hwm_mb, Outcome, SETUP_ROUNDS};
use ipet_bench::synth::{generate, SynthConfig, SynthProgram};
use ipet_pool::SolvePool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Programs in the corpus: one pass takes a few seconds, so the part of a
/// pass a run ends in is a small share of the run.
pub const CORPUS_SIZE: usize = 200;

/// Passes laid out in the visiting order; far more than a run can make.
const MAX_PASSES: usize = 64;

/// Programs analysed by the warm-up pass (the first ones by synthesis
/// seed, the same for every run seed).
const WARM_UP: usize = 13;

/// Simulator inputs per program in the soundness check.
const PROBES: usize = 3;

/// The pinned `[t_min, t_max]` of every corpus program, by synthesis seed:
/// this commit's exact, audit-certified bounds.
const PINNED: &str = include_str!("../data/corpus_bounds.txt");

pub fn pinned() -> Result<Vec<Bound>, String> {
    let pinned = parse_pinned(PINNED)?;
    for (i, (seed, _)) in pinned.iter().enumerate() {
        if *seed != i.to_string() {
            return Err(format!("corpus_bounds: seed {seed} at row {i}"));
        }
    }
    if pinned.len() != CORPUS_SIZE {
        return Err(format!("corpus_bounds: {} rows for {CORPUS_SIZE} programs", pinned.len()));
    }
    Ok(pinned.into_iter().map(|(_, b)| b).collect())
}

pub fn synthesize() -> Vec<SynthProgram> {
    (0..CORPUS_SIZE as u64).map(|s| generate(s, SynthConfig::default())).collect()
}

/// The visiting order for `passes` passes over the corpus: a fresh seeded
/// permutation each pass.
pub fn order(seed: u64, passes: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pass: Vec<usize> = (0..CORPUS_SIZE).collect();
    (0..passes)
        .flat_map(|_| {
            pass.shuffle(&mut rng);
            pass.clone()
        })
        .collect()
}

pub fn run(seed: u64, window: Duration) -> Result<Outcome, String> {
    let pinned = pinned()?;
    let mut out = Outcome::new();

    // Set-up: synthesize the corpus and analyse the warm-up programs on a
    // throwaway pool.
    let mut setups = Vec::new();
    let mut corpus = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        corpus = synthesize();
        let pool = SolvePool::new(parallelism());
        for p in &corpus[..WARM_UP] {
            if let Err(e) = analyze(&Input::Synth(&p.module), Executor::Pool(&pool)).bound {
                out.violation(format!("warm-up: {e}"));
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }

    // One client. One pool serves each pass, so the cache never holds an
    // earlier answer for the program being analysed; its workers solve a
    // program's worst- and best-case ILPs in parallel.
    let mut results = Vec::new();
    let mut pool = SolvePool::new(parallelism());
    let t0 = Instant::now();
    for (i, &program) in order(seed, MAX_PASSES).iter().enumerate() {
        if t0.elapsed() >= window {
            break;
        }
        if i > 0 && i % CORPUS_SIZE == 0 {
            pool = SolvePool::new(parallelism());
        }
        results.push((
            program,
            analyze(&Input::Synth(&corpus[program].module), Executor::Pool(&pool)),
        ));
    }
    let wall = t0.elapsed();
    let rss = vm_hwm_mb("self").unwrap_or(0.0);

    // Correctness: exact, certified, the pinned bound, and enclosing the
    // simulator's cycles on seeded inputs.
    let mut good = 0usize;
    let mut visited = [false; CORPUS_SIZE];
    for (program, a) in &results {
        match &a.bound {
            Err(e) => out.violation(format!("corpus program {program}: {e}")),
            Ok(b) if *b != pinned[*program] => out.violation(format!(
                "corpus program {program}: bound {b:?}, pinned {:?}",
                pinned[*program]
            )),
            Ok(_) => good += 1,
        }
        visited[*program] = true;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    for (program, &(lo, hi)) in pinned.iter().enumerate().filter(|&(p, _)| visited[p]) {
        let p = &corpus[program].program;
        for _ in 0..PROBES {
            let a = rng.gen_range(-9..=9);
            let mut sim =
                ipet_sim::Simulator::new(p, ipet_sim::Machine::i960kb(), Default::default());
            match sim.run(&[a]) {
                Ok(r) if lo <= r.cycles && r.cycles <= hi => {}
                Ok(r) => out.violation(format!(
                    "corpus program {program}: a={a} ran {} cycles outside [{lo}, {hi}]",
                    r.cycles
                )),
                Err(e) => out.violation(format!("corpus program {program}: a={a}: {e}")),
            }
        }
    }

    // A program's latency is the median of its analyses in the run, and the
    // quantiles are taken over programs: p99 is the corpus's slowest
    // programs, not whichever single analysis of them met a slow phase of
    // the host, and a run's last, partial pass does not change which
    // programs the tail holds.
    let mut per_program = vec![Vec::new(); CORPUS_SIZE];
    for (program, a) in &results {
        per_program[*program].push(a.times.total);
    }
    let latencies: Vec<f64> =
        per_program.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect();
    out.tally(results.len(), results.len() - good);
    out.metric("setup_s", median(&setups), "s");
    out.metric("throughput_per_s", good as f64 / wall.as_secs_f64(), "1/s");
    out.metric("latency_ms_p50", median(&latencies), "ms");
    out.metric("latency_ms_p99", quantile(&latencies, 0.99), "ms");
    out.metric("peak_rss_mb", rss, "MB");
    Ok(out)
}
