//! `serve`: `cinderella serve --socket … --store …` on a store that one
//! pass over the 13 routines has already populated, driven open-loop.
//!
//! Arrivals are seeded Poisson at [`RATE_PER_S`], pipelined over at most
//! two connections. One request in every [`NOVEL_EVERY`] (at a seeded
//! position within each block) is *novel*: it appends a unique, redundant
//! `fn <entry> { x1 <= K; }`, so it misses every cache, is solved cold and
//! inserted into the store, with its bound unchanged. The rest are
//! *repeat* requests for a uniformly chosen routine. Novel requests walk
//! seeded permutations of the routines, so every run holds the same number
//! of cold solves per routine. The first [`WARM_UP_S`] seconds of the
//! schedule are sent and checked but not timed.

use crate::suite::{routines, Routine};
use crate::util::{
    latency_metrics, median, ms, quantile, ratio, vm_hwm_mb, Metric, Outcome, SETUP_ROUNDS,
};
use ipet_trace::Json;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::cmp::Reverse;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Scheduled arrival rate. Two closed-loop connections sustained ≈300
/// requests/s over 40 seconds at the commit that defined this benchmark
/// (2-CPU x86-64 container, one request in ten novel). That host runs up
/// to 1.6× slower in slow phases, and queueing turns a slower daemon into
/// a much slower p50: at 200 requests/s the queue grew without bound in 2
/// of 5 runs, and at 100 requests/s p50 moved 3–15 ms between runs.
/// 40 requests/s keeps the daemon far from saturation in any phase while a
/// 50-second run still holds about 2000 samples.
pub const RATE_PER_S: f64 = 40.0;

/// Latency limit of `slo_ok_frac`, timed from when a request was due.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// A run is rejected when the generator sent its p99 request later than
/// this after it was due: the schedule, not the daemon, set the latencies.
const MAX_GEN_LAG_MS: f64 = 10.0;

const CONNECTIONS: usize = 2;

/// One request in every block of this many is novel: five cold solves a
/// second at [`RATE_PER_S`], as at 50 requests/s with one in ten. Requests
/// that arrive while the daemon solves a cold dhry (≈250 ms) can wait for
/// most of it, so the latency tail is the dhry novels plus such requests,
/// about 1.4% of the requests, and p99 sits near its lower edge. One in
/// five (at 50 requests/s) queued enough behind cold solves that p50 read
/// 7 and 13 ms instead of ≈4 ms in two of five runs.
const NOVEL_EVERY: usize = 8;

/// Seconds of the schedule that run before timing starts. A freshly
/// started daemon on a store answers repeats about 1.5 ms slower for its
/// first ~5 seconds under this load, which would otherwise shift p50 by the
/// share of the run they fill. The phase does not appear without a store,
/// and neither an idle wait of the same length nor a `sync(2)` removes it.
/// Warm-up requests are checked like the rest but not timed.
pub const WARM_UP_S: f64 = 8.0;

/// How long a response, a drain or a daemon start may take before the run
/// is abandoned as hung.
const PATIENCE: Duration = Duration::from_secs(60);

/// One scheduled request.
pub struct Request {
    /// Seconds after the start of the run.
    pub due: f64,
    pub routine: usize,
    /// The extra constraint of a novel request.
    pub novel: Option<String>,
}

/// The seeded open-loop schedule for `window`.
pub fn schedule(seed: u64, routines: &[Routine], window: Duration, rate: f64) -> Vec<Request> {
    let benches = ipet_suite::all();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut novel_order: Vec<usize> = Vec::new();
    let mut novel_slot = 0;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Exponential gaps from a uniform draw in (0, 1], so the log is
        // finite.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        let i = out.len();
        if i % NOVEL_EVERY == 0 {
            novel_slot = i + rng.gen_range(0..NOVEL_EVERY);
        }
        let (routine, novel) = if i == novel_slot {
            if novel_order.is_empty() {
                novel_order = (0..routines.len()).collect();
                novel_order.shuffle(&mut rng);
            }
            let r = novel_order.pop().expect("refilled above");
            // K is unique per request and far above any entry count, so the
            // row is redundant but new to every cache.
            (r, Some(format!("fn {} {{ x1 <= {}; }}", benches[r].entry, 1_000_000 + i)))
        } else {
            (rng.gen_range(0..routines.len()), None)
        };
        out.push(Request { due: t, routine, novel });
    }
}

fn request_line(id: usize, req: &Request, routines: &[Routine]) -> String {
    let mut fields = vec![
        ("id".to_string(), Json::Num(id as f64)),
        ("target".to_string(), Json::Str(routines[req.routine].name.into())),
    ];
    if let Some(extra) = &req.novel {
        fields.push(("annotations".into(), Json::Str(extra.clone())));
    }
    Json::Obj(fields).render()
}

/// A running daemon and the files it owns.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `cinderella serve` on `store` and waits for its first
    /// `health` answer; returns the daemon, a connection, and the time from
    /// spawn to that answer (store open, scan and replay included).
    fn start(bin: &Path, dir: &Path) -> Result<(Daemon, Conn, Duration), String> {
        let socket = dir.join("serve.sock");
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(dir.join("store.bin"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn serve: {e}"))?;
        let mut daemon = Daemon { child, socket };
        let stream = loop {
            match UnixStream::connect(&daemon.socket) {
                Ok(s) => break s,
                Err(_) if t0.elapsed() < PATIENCE => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(format!("serve exited during start-up ({status})"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => return Err(format!("connect: {e}")),
            }
        };
        let mut conn = Conn::new(stream)?;
        let health = conn.call(r#"{"op":"health"}"#)?;
        let ready = t0.elapsed();
        if health.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!("health: {}", health.render()));
        }
        Ok((daemon, conn, ready))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` and requires the daemon to drain and exit 0.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.call(r#"{"op":"shutdown"}"#)?;
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve drained with {status}")),
                Ok(None) if t0.elapsed() < PATIENCE => std::thread::sleep(Duration::from_millis(2)),
                Ok(None) => return Err("serve did not drain".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    /// Whatever path a run leaves by, the daemon does not outlive it.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A request/response connection used outside the load phase.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        stream.set_read_timeout(Some(PATIENCE)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer: stream, reader })
    }

    /// Sends one line and returns the `done` line that answers it.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        loop {
            let mut buf = String::new();
            match self.reader.read_line(&mut buf) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
            let v = ipet_trace::parse_json(buf.trim()).map_err(|e| format!("response: {e}"))?;
            if v.get("done") == Some(&Json::Bool(true)) {
                return Ok(v);
            }
        }
    }
}

/// How one scheduled request ended.
#[derive(Clone)]
struct Answer {
    latency_ms: f64,
    ok: bool,
}

/// Checks a `done` line: exact, status 0, the pinned bound.
fn answer_ok(done: &Json, routine: &Routine) -> bool {
    let bound = done
        .get("bound")
        .and_then(Json::as_arr)
        .map(|b| b.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>());
    done.get("status").and_then(Json::as_u64) == Some(0)
        && done.get("quality").and_then(Json::as_str) == Some("exact")
        && bound == Some(Some(vec![routine.bound.0, routine.bound.1]))
}

/// Everything one driven daemon run measured.
pub struct ServeRun {
    pub setup_s: f64,
    /// Timed requests (due after the warm-up), and how many of them were
    /// answered exact and correct.
    pub scheduled: usize,
    pub ok: usize,
    pub latencies_ms: Vec<f64>,
    pub repeat_ms: Vec<f64>,
    pub novel_ms: Vec<f64>,
    /// How late the generator sent each timed request.
    pub gen_lag_ms: Vec<f64>,
    /// From the end of the warm-up to the last answer.
    pub wall: Duration,
    pub rss_mb: f64,
    pub stats: Json,
    pub store_bytes: u64,
    /// Wrong answers outside the timed schedule (the store population and
    /// the warm-up).
    pub errors: Vec<String>,
}

impl ServeRun {
    fn stat(&self, path: &[&str]) -> f64 {
        let mut v = &self.stats;
        for key in path {
            match v.get(key) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_num().unwrap_or(0.0)
    }

    pub fn slo_ok_frac(&self) -> f64 {
        let ok = self.latencies_ms.iter().filter(|&&l| l <= LATENCY_LIMIT_MS).count();
        ratio(ok as f64, self.scheduled as f64)
    }
}

/// The per-layer figures of a daemon run: the client's class split, the
/// generator's lateness and the daemon's `stats` snapshot; all 0 without a
/// daemon (on `corpus`), where `pool.cache.hit_ratio` is left to the replay.
pub fn layer_metrics(run: Option<&ServeRun>) -> Vec<Metric> {
    let stat = |path: &[&str]| run.map_or(0.0, |r| r.stat(path));
    let of = |f: &dyn Fn(&ServeRun) -> f64| run.map_or(0.0, f);
    let requests = stat(&["serve", "requests"]);
    let hits = stat(&["pool", "hits"]);
    let misses = stat(&["pool", "misses"]);
    let m = |name: &str, value: f64, unit: &'static str| Metric { name: name.into(), value, unit };
    let mut metrics = vec![
        m("serve.repeat_ms_p50", of(&|r| median(&r.repeat_ms)), "ms"),
        m("serve.novel_ms_p50", of(&|r| median(&r.novel_ms)), "ms"),
        m("gen.lag_ms_p99", of(&|r| quantile(&r.gen_lag_ms, 0.99)), "ms"),
        m("store.flushes_per_request", ratio(stat(&["store", "flushes"]), requests), "ratio"),
        m("store.bytes_end", of(&|r| r.store_bytes as f64), "bytes"),
        m("store.hits", stat(&["store", "hits"]), "count"),
        m("serve.shed", stat(&["serve", "shed"]), "count"),
        m("serve.cancelled", stat(&["serve", "cancelled"]), "count"),
        m("slo_ok_frac", of(&ServeRun::slo_ok_frac), "ratio"),
    ];
    // Off `serve` the replay reports the pool's cache ratio instead.
    if run.is_some() {
        metrics.push(m("pool.cache.hit_ratio", ratio(hits, hits + misses), "ratio"));
    }
    metrics
}

/// Populates a store with one pass over the routines, then measures
/// [`SETUP_ROUNDS`] daemon starts on it and drives the last daemon with the
/// schedule: [`WARM_UP_S`] seconds untimed, then `window` timed.
pub fn drive(bin: &Path, work: &Path, seed: u64, window: Duration) -> Result<ServeRun, String> {
    let routines = routines()?;
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;

    let mut errors = Vec::new();
    let (daemon, mut conn, _) = Daemon::start(bin, work)?;
    for (i, r) in routines.iter().enumerate() {
        let done = conn.call(&format!(r#"{{"id":{i},"target":"{}"}}"#, r.name))?;
        if !answer_ok(&done, r) {
            errors.push(format!("populating the store: {}: {}", r.name, done.render()));
        }
    }
    daemon.shutdown(&mut conn)?;

    let mut setups = Vec::new();
    let mut started = None;
    for round in 1..=SETUP_ROUNDS {
        let (daemon, mut conn, ready) = Daemon::start(bin, work)?;
        setups.push(ready.as_secs_f64());
        if round < SETUP_ROUNDS {
            daemon.shutdown(&mut conn)?;
        } else {
            started = Some((daemon, conn));
        }
    }
    let (daemon, mut control) = started.expect("the last daemon kept running");

    let warm_up = Duration::from_secs_f64(WARM_UP_S);
    let plan = schedule(seed, &routines, warm_up + window, RATE_PER_S);
    let load = load(&daemon, &plan, &routines)?;
    let stats = control.call(r#"{"op":"stats"}"#)?;
    let rss_mb = vm_hwm_mb(&daemon.pid()).unwrap_or(0.0);
    daemon.shutdown(&mut control)?;
    let store_bytes = std::fs::metadata(work.join("store.bin")).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_dir_all(work);

    let (answers, gen_lag_ms, wall) = load;
    let mut run = ServeRun {
        setup_s: median(&setups),
        scheduled: plan.iter().filter(|r| r.due >= WARM_UP_S).count(),
        ok: 0,
        latencies_ms: Vec::new(),
        repeat_ms: Vec::new(),
        novel_ms: Vec::new(),
        // The lag check guards the timed latencies; the warm-up, when the
        // daemon is busiest, is not timed.
        gen_lag_ms: plan
            .iter()
            .zip(gen_lag_ms)
            .filter(|(r, _)| r.due >= WARM_UP_S)
            .map(|(_, lag)| lag)
            .collect(),
        wall: wall.saturating_sub(warm_up),
        rss_mb,
        stats: stats.get("stats").cloned().unwrap_or(Json::Null),
        store_bytes,
        errors,
    };
    for (id, (req, answer)) in plan.iter().zip(answers).enumerate() {
        let ok = answer.as_ref().is_some_and(|a| a.ok);
        if req.due < WARM_UP_S {
            if !ok {
                run.errors.push(format!("warm-up request {id} failed or was wrong"));
            }
            continue;
        }
        // Only correct answers carry a latency; the rest count against
        // `slo_ok_frac` and `failed_frac`.
        let Some(a) = answer.filter(|a| a.ok) else { continue };
        run.ok += 1;
        run.latencies_ms.push(a.latency_ms);
        if req.novel.is_some() {
            run.novel_ms.push(a.latency_ms);
        } else {
            run.repeat_ms.push(a.latency_ms);
        }
    }
    Ok(run)
}

type Load = (Vec<Option<Answer>>, Vec<f64>, Duration);

/// Sends the schedule over [`CONNECTIONS`] pipelined connections, each
/// request on the connection with fewer outstanding requests, and collects
/// every answer timed from when its request was due. On a tie the request
/// goes to the connection that was sent to last: the other one's
/// outstanding request is older, so more likely a cold solve. A request
/// still queues behind a cold solve when both connections hold one, as it
/// would behind any pipelining client's.
fn load(daemon: &Daemon, plan: &[Request], routines: &[Routine]) -> Result<Load, String> {
    let answers: Mutex<Vec<Option<Answer>>> = Mutex::new(vec![None; plan.len()]);
    let outstanding: Vec<AtomicUsize> = (0..CONNECTIONS).map(|_| AtomicUsize::new(0)).collect();
    let answered = AtomicUsize::new(0);
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..CONNECTIONS {
        let stream = UnixStream::connect(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
        stream.set_read_timeout(Some(PATIENCE)).map_err(|e| e.to_string())?;
        readers.push(BufReader::new(stream.try_clone().map_err(|e| e.to_string())?));
        writers.push(stream);
    }
    let mut gen_lag_ms = Vec::with_capacity(plan.len());
    let mut last_send: Vec<Option<Instant>> = vec![None; CONNECTIONS];
    let t0 = Instant::now();
    let result = std::thread::scope(|s| {
        for (c, mut reader) in readers.into_iter().enumerate() {
            let (answers, outstanding, answered) = (&answers, &outstanding, &answered);
            s.spawn(move || {
                let mut buf = String::new();
                while answered.load(Ordering::SeqCst) < plan.len() {
                    buf.clear();
                    match reader.read_line(&mut buf) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {}
                    }
                    let at = t0.elapsed().as_secs_f64();
                    let Ok(v) = ipet_trace::parse_json(buf.trim()) else { continue };
                    if v.get("done") != Some(&Json::Bool(true)) {
                        continue;
                    }
                    let Some(id) = v.get("id").and_then(Json::as_u64) else { continue };
                    let Some(req) = plan.get(id as usize) else { continue };
                    let ok = answer_ok(&v, &routines[req.routine]);
                    let a = Answer { latency_ms: (at - req.due) * 1e3, ok };
                    answers.lock().expect("no reader panics holding the lock")[id as usize] =
                        Some(a);
                    outstanding[c].fetch_sub(1, Ordering::SeqCst);
                    answered.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        for (id, req) in plan.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(req.due);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let now = Instant::now();
            gen_lag_ms.push(ms(now.saturating_duration_since(due)));
            let c = (0..CONNECTIONS)
                .min_by_key(|&c| (outstanding[c].load(Ordering::SeqCst), Reverse(last_send[c])))
                .expect("at least one connection");
            outstanding[c].fetch_add(1, Ordering::SeqCst);
            last_send[c] = Some(now);
            let line = request_line(id, req, routines);
            if let Err(e) = writeln!(writers[c], "{line}") {
                return Err(format!("send: {e}"));
            }
        }
        let deadline = Instant::now() + PATIENCE;
        while answered.load(Ordering::SeqCst) < plan.len() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Unblock the readers whatever happened.
        for w in &writers {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        Ok(())
    });
    let wall = t0.elapsed();
    result?;
    let answers = answers.into_inner().expect("readers joined");
    Ok((answers, gen_lag_ms, wall))
}

/// A work directory inside the build tree of this checkout, relative to the
/// working directory when it lies below it: a unix socket path must fit in
/// 108 bytes, however deep the checkout is.
pub fn work_dir(bin: &Path, tag: &str) -> PathBuf {
    let release = bin.parent().expect("binary lives in a target directory");
    let dir = release.join(format!("perfbench-{tag}-{}", std::process::id()));
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map_or(dir.clone(), Path::to_path_buf),
        Err(_) => dir,
    }
}

/// Validates a driven run: no failed answer and a generator that kept up.
pub fn check(run: &ServeRun, out: &mut Outcome) {
    for e in &run.errors {
        out.violation(e.clone());
    }
    if run.ok < run.scheduled {
        out.violation(format!(
            "{} of {} requests failed, were shed, or returned a wrong or inexact bound",
            run.scheduled - run.ok,
            run.scheduled
        ));
    }
    let lag = quantile(&run.gen_lag_ms, 0.99);
    if lag > MAX_GEN_LAG_MS {
        out.violation(format!("generator fell behind: p99 send lag {lag:.2} ms"));
    }
}

pub fn run(bin: &Path, seed: u64, window: Duration) -> Result<Outcome, String> {
    let run = drive(bin, &work_dir(bin, "serve"), seed, window)?;
    let mut out = Outcome::new();
    check(&run, &mut out);
    out.tally(run.scheduled, run.scheduled - run.ok);
    out.metric("setup_s", run.setup_s, "s");
    out.metric("throughput_per_s", run.ok as f64 / run.wall.as_secs_f64(), "1/s");
    latency_metrics(&mut out, "serve", &run.latencies_ms);
    out.metric("peak_rss_mb", run.rss_mb, "MB");
    out.shown.push(Metric { name: "slo_ok_frac".into(), value: run.slo_ok_frac(), unit: "ratio" });
    Ok(out)
}
