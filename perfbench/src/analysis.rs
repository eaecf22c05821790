//! One in-process analysis through the public entry point of each layer,
//! timed from outside: `lang` → `cfg` → (`infer`) → `core` plan → solve
//! and fold. The `corpus` workload and the traced replays share it, so the
//! replay times exactly the code path the workload measures.

use crate::util::ms;
use ipet_core::{AnalysisBudget, Analyzer, Annotations, JobVerdict};
use ipet_pool::SolvePool;
use std::time::Instant;

/// `[t_min, t_max]` in cycles.
pub type Bound = (u64, u64);

/// What one analysis is asked to bound.
pub enum Input<'a> {
    /// A Table I routine with its hand annotations, plus optional extra
    /// constraint text appended to them (how `serve` requests add rows).
    Routine(&'a ipet_suite::Benchmark, Option<&'a str>),
    /// A synthesized program; loop bounds come from `ipet-infer` alone and
    /// the bound is audit-certified.
    Synth(&'a ipet_lang::Module),
}

/// Where the plan's ILP jobs are solved.
#[derive(Clone, Copy)]
pub enum Executor<'p> {
    /// `Analyzer::analyze_parsed_with`: plan, the serial executor and the
    /// fold in the calling thread. `cinderella analyze <routine>` takes this
    /// path at default flags (one target, `--jobs 1`, no store).
    Serial,
    /// `SolvePool::run_plans{,_audited}` on a shared pool, as the corpus run
    /// and the daemon solve.
    Pool(&'p SolvePool),
}

/// Per-layer wall time of one analysis, in ms.
#[derive(Clone, Copy, Default)]
pub struct LayerTimes {
    pub compile: f64,
    pub analyzer: f64,
    pub infer: f64,
    /// `Analyzer::plan`; on the serial path timed by [`detail`] on its own.
    pub plan: f64,
    /// `SolvePool::run_plans{,_audited}`, which includes the verdict fold.
    pub run_plans: f64,
    /// Serial path: `Analyzer::analyze_parsed_with` less `plan`, i.e. the
    /// serial executor and the fold.
    pub serial_solve: f64,
    /// `AnalysisPlan::complete` re-run on the verdicts by [`detail`]
    /// (inside `run_plans` or `serial_solve`, not added to the total).
    pub fold: f64,
    /// `complete_audited − complete` on the same verdicts (also inside
    /// `run_plans`).
    pub certify: f64,
    /// The whole analysis, compile to estimate.
    pub total: f64,
}

impl LayerTimes {
    /// The part of `total` no timed layer accounts for (annotation text,
    /// glue, allocation).
    pub fn unattributed(&self) -> f64 {
        self.total
            - (self.compile
                + self.analyzer
                + self.infer
                + self.plan
                + self.run_plans
                + self.serial_solve)
    }
}

/// The result of one analysis.
pub struct Analysis {
    pub times: LayerTimes,
    /// `[t_min, t_max]` when the analysis produced an exact (and, for
    /// synthesized programs, audit-certified) bound; otherwise why not.
    pub bound: Result<Bound, String>,
}

/// Runs one analysis on `executor`.
pub fn analyze(input: &Input<'_>, executor: Executor<'_>) -> Analysis {
    let mut times = LayerTimes::default();
    let t0 = Instant::now();
    let bound = front_end(input, &mut times, |analyzer, anns, times| {
        solve(input, analyzer, anns, executor, times)
    });
    times.total = ms(t0.elapsed());
    Analysis { times, bound }
}

/// Compiles the input, builds the analyzer and its annotations, timing each
/// layer, and hands them to `then`.
fn front_end<R>(
    input: &Input<'_>,
    times: &mut LayerTimes,
    then: impl FnOnce(&Analyzer<'_>, &Annotations, &mut LayerTimes) -> Result<R, String>,
) -> Result<R, String> {
    let machine = ipet_sim::Machine::i960kb();

    let t = Instant::now();
    let program = match input {
        Input::Routine(b, _) => b.program(),
        Input::Synth(module) => ipet_lang::compile_module(module, "f"),
    }
    .map_err(|e| e.to_string())?;
    times.compile = ms(t.elapsed());

    let t = Instant::now();
    let analyzer = Analyzer::new(&program, machine).map_err(|e| e.to_string())?;
    times.analyzer = ms(t.elapsed());

    let anns = match input {
        Input::Routine(b, extra) => {
            let mut text = b.annotations(&program);
            if let Some(extra) = extra {
                text.push('\n');
                text.push_str(extra);
            }
            ipet_core::parse_annotations(&text).map_err(|e| e.to_string())?
        }
        Input::Synth(module) => {
            let t = Instant::now();
            let outcome = ipet_infer::infer_and_merge(
                Some(module),
                &analyzer,
                &Annotations::default(),
                ipet_infer::InferMode::Only,
            )
            .map_err(|e| e.to_string())?;
            times.infer = ms(t.elapsed());
            outcome.annotations
        }
    };
    then(&analyzer, &anns, times)
}

fn solve(
    input: &Input<'_>,
    analyzer: &Analyzer<'_>,
    anns: &Annotations,
    executor: Executor<'_>,
    times: &mut LayerTimes,
) -> Result<Bound, String> {
    let budget = AnalysisBudget::default();
    let audited = matches!(input, Input::Synth(_));
    let (estimate, certified) = match executor {
        Executor::Serial => {
            assert!(!audited, "the serial path serves the suite routines only");
            let t = Instant::now();
            let est = analyzer.analyze_parsed_with(anns, &budget).map_err(|e| e.to_string())?;
            times.serial_solve = ms(t.elapsed());
            (est, true)
        }
        Executor::Pool(pool) => {
            let t = Instant::now();
            let plan = analyzer.plan(anns, &budget).map_err(|e| e.to_string())?;
            times.plan = ms(t.elapsed());
            let plans = std::slice::from_ref(&plan);
            let t = Instant::now();
            let result = if audited {
                let batch = pool.run_plans_audited(plans, &budget.solve);
                let first = batch.results.into_iter().next().expect("one plan per batch");
                first.map(|(est, audit)| (est, audit.all_certified()))
            } else {
                let batch = pool.run_plans(plans, &budget.solve);
                batch.estimates.into_iter().next().expect("one plan per batch").map(|e| (e, true))
            };
            times.run_plans = ms(t.elapsed());
            result.map_err(|e| e.to_string())?
        }
    };
    if !estimate.quality.is_exact() {
        return Err(format!("bound quality {}", estimate.quality));
    }
    if !certified {
        return Err("audit rejected a bound".into());
    }
    Ok((estimate.bound.lower, estimate.bound.upper))
}

/// Times the layers an analysis on `executor` runs inside one call:
/// `AnalysisPlan::complete` (and `complete_audited`) on the plan's
/// verdicts, and on the serial path `Analyzer::plan` on its own, which
/// splits `serial_solve` from `plan`. Fills those fields of `times`.
///
/// The verdicts come from `verdicts`, a pool kept for this purpose (they
/// are bit-identical on every executor). This is extra work beside the
/// analysis: a traced replay runs it after reading the pass's counters.
pub fn detail(
    input: &Input<'_>,
    executor: Executor<'_>,
    verdicts: &SolvePool,
    times: &mut LayerTimes,
) -> Result<(), String> {
    let budget = AnalysisBudget::default();
    let audited = matches!(input, Input::Synth(_));
    let mut scratch = LayerTimes::default();
    front_end(input, &mut scratch, |analyzer, anns, _| {
        let t = Instant::now();
        let plan = analyzer.plan(anns, &budget).map_err(|e| e.to_string())?;
        if let Executor::Serial = executor {
            times.plan = ms(t.elapsed());
            times.serial_solve = (times.serial_solve - times.plan).max(0.0);
        }
        let report = pool_report(verdicts, &plan, &budget, audited);
        let verdicts: Vec<JobVerdict> = report
            .outcomes
            .iter()
            .map(|o| JobVerdict::Solved(o.resolution.clone(), o.stats))
            .collect();
        let t = Instant::now();
        let _ = std::hint::black_box(plan.complete(&verdicts));
        times.fold = ms(t.elapsed());
        if audited {
            let t = Instant::now();
            let _ = std::hint::black_box(plan.complete_audited(&verdicts));
            times.certify = (ms(t.elapsed()) - times.fold).max(0.0);
        }
        Ok(())
    })
}

fn pool_report(
    pool: &SolvePool,
    plan: &ipet_core::AnalysisPlan,
    budget: &AnalysisBudget,
    audited: bool,
) -> ipet_pool::BatchReport {
    let plans = std::slice::from_ref(plan);
    if audited {
        pool.run_plans_audited(plans, &budget.solve).report
    } else {
        pool.run_plans(plans, &budget.solve).report
    }
}
