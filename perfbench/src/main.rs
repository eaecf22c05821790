//! `perfbench` — the repository's benchmark of the IPET analysis pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload suite|corpus|serve|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs for `--seconds`, checks every output it produced and
//! prints, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics with
//! tracing off; `--trace 1` reports the per-layer metrics from a traced
//! replay. `--workload all` (the default) runs the three workloads in turn,
//! prints a table, and exits non-zero when any output was wrong. See
//! `perfbench/README.md` for the workloads, metrics and predictions.

mod analysis;
mod corpus;
mod layers;
mod serve;
mod suite;
mod util;

use ipet_trace::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use util::Outcome;

const WORKLOADS: [&str; 3] = ["suite", "corpus", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: serve untraced replay passes for a traced run's overhead
    /// comparison (see `layers::untraced_child`).
    untraced_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: "all".into(), seed: 1, seconds: 40, trace: false, untraced_child: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                }
            }
            "--untraced-child" => args.untraced_child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload: expected suite, corpus, serve or all, got {}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench has a parent").to_path_buf()
}

fn run_workload(
    workload: &str,
    bin: &Path,
    seed: u64,
    window: Duration,
    trace: bool,
) -> Result<Outcome, String> {
    match (workload, trace) {
        ("suite", false) => suite::run(bin, seed, window),
        ("corpus", false) => corpus::run(seed, window),
        ("serve", false) => serve::run(bin, seed, window),
        (w, true) => layers::run(w, bin, seed, window),
        (w, false) => Err(format!("no workload {w}")),
    }
}

fn result_json(out: &Outcome) -> Json {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct)),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.untraced_child {
        return match layers::untraced_child(&args.workload, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: untraced replay: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let bin = match util::build_cinderella(&repo_root()) {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let window = Duration::from_secs(args.seconds);
    let workloads: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut all_correct = true;
    let mut last = None;
    for w in &workloads {
        let out = match run_workload(w, &bin, args.seed, window, args.trace) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for e in &out.errors {
            eprintln!("perfbench: {w}: {e}");
        }
        if workloads.len() > 1 {
            println!(
                "{w}: attempted {}, failed {}, correct {}",
                out.attempted, out.failed, out.correct
            );
            for m in out.metrics.iter().chain(&out.shown) {
                println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
        all_correct &= out.correct;
        last = Some(out);
    }
    if workloads.len() == 1 {
        println!("{}", result_json(last.as_ref().expect("one workload ran")).render());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
