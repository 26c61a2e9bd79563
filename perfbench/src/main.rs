//! Served-query benchmark for `tempo-server`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <olap|explore|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Starts the server in process, drives one workload over TCP from a single
//! closed-loop connection for `--seconds`, compares every answer byte for
//! byte with the answer checked for that request, checks those answers
//! against independent computations, and prints one JSON object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer metrics of a separate traced run.
//!
//! Request times are gated as service time: the CPU time the process (client
//! and server threads together) spends between sending a request and having
//! read its whole answer. Wall-clock round trips are printed as reference;
//! on a shared host they also count the time other tenants hold the CPU.

mod client;
mod oracle;
mod trace;
mod workload;

use client::{Client, Response};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempo_graph::TemporalGraph;
use tempo_server::{Server, ServerConfig};
use trace::{SetupTrace, Tracer};
use workload::{Dataset, Kind, Op, Step, Workload, KINDS};

/// Timed set-ups per run; `setup_s` is their median. A DBLP set-up takes
/// about 0.3 s and a `large` one about 2.6 s.
fn setup_reps(ds: Dataset) -> usize {
    match ds {
        Dataset::Dblp => 9,
        Dataset::Large => 3,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k[2..].to_owned(), v.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    Ok(Args {
        workload: Workload::parse(get("workload")?).ok_or("unknown --workload")?,
        seed: get("seed")?.parse().map_err(|_| "--seed <u64>")?,
        seconds: get("seconds")?.parse().map_err(|_| "--seconds <number>")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace <0|1>".into()),
        },
    })
}

/// The snapshots one request read and, for an append, produced.
struct Snapshots {
    before: Arc<TemporalGraph>,
    after: Option<Arc<TemporalGraph>>,
}

/// A running server with its graph and the answers of its warm-up pass.
struct Served {
    client: Client,
    server: Server,
    base: Arc<TemporalGraph>,
    /// Current epoch of every snapshot name, as the benchmark tracks it.
    epochs: HashMap<&'static str, u64>,
    /// Per step of the round: the answer of the warm-up pass, which the
    /// checks examine (`None` for resets).
    checked: Vec<Option<Response>>,
}

impl Served {
    fn shutdown(self) {
        drop(self.client);
        self.server.shutdown();
    }
}

/// Counts of one pass over rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatched: u64,
    /// Round-trip latencies in ms, per kind.
    lat: HashMap<Kind, Vec<f64>>,
    /// Service times (process CPU time of the round trip) in ms, per kind.
    cpu: HashMap<Kind, Vec<f64>>,
    /// Requests per second of each whole round.
    round_rps: Vec<f64>,
    /// Requests per CPU-second of each whole round.
    round_capacity: Vec<f64>,
}

impl Tally {
    fn all(&self) -> Vec<f64> {
        self.lat.values().flatten().copied().collect()
    }

    fn all_cpu(&self) -> Vec<f64> {
        self.cpu.values().flatten().copied().collect()
    }

    fn cpu_ms(&self) -> f64 {
        self.cpu.values().flatten().sum()
    }

    /// Adds the operation counts of `other`, not its latencies.
    fn count(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }
}

enum Mode<'a> {
    /// Records each answer as the checked answer of its step.
    Record,
    /// Compares each answer with the checked one.
    Compare,
    /// Compares, and keeps the snapshots each step read for the checks.
    /// The timed phase holds none, so `peak_rss_mb` counts only what the
    /// server keeps.
    Snapshots(&'a mut Vec<Option<Snapshots>>),
    /// Compares, and records spans and counts.
    Trace(&'a mut Tracer),
}

/// Runs one round: every step in order.
fn run_round(
    s: &mut Served,
    round: &[Step],
    mode: &mut Mode,
    tally: &mut Tally,
) -> Result<(), String> {
    for (i, step) in round.iter().enumerate() {
        let req = match step {
            Step::Reset(name) => {
                let e = s.server.registry().insert(name, Arc::clone(&s.base));
                s.epochs.insert(name, e);
                continue;
            }
            Step::Send(req) => req,
        };
        let want_epoch = s.epochs[req.target] + u64::from(req.kind == Kind::Append);
        let (before, get_time) = match &*mode {
            Mode::Compare | Mode::Record => (None, Duration::ZERO),
            _ => {
                let t = Instant::now();
                let g = s
                    .server
                    .registry()
                    .get(req.target)
                    .ok_or("snapshot missing")?
                    .0;
                (Some(g), t.elapsed())
            }
        };
        let probe0 = matches!(&*mode, Mode::Trace(_)).then(trace::probe);
        let c0 = process_cpu_ms();
        let t0 = Instant::now();
        let resp = s
            .client
            .request(&req.line)
            .map_err(|e| format!("{}: {e}", req.line))?;
        let t1 = Instant::now();
        let c1 = process_cpu_ms();
        let served = probe0.map(|p| p.delta(&trace::probe()));
        tally.attempted += 1;
        tally
            .lat
            .entry(req.kind)
            .or_default()
            .push((t1 - t0).as_secs_f64() * 1e3);
        tally.cpu.entry(req.kind).or_default().push(c1 - c0);
        if !resp.ok {
            tally.failed += 1;
            eprintln!("failed: {} -> ERR {}", req.kind.name(), resp.payload);
            continue;
        }
        if req.kind == Kind::Append {
            s.epochs.insert(req.target, want_epoch);
        }
        if resp.epoch != Some(want_epoch) {
            tally.mismatched += 1;
            eprintln!(
                "epoch {:?}, want {want_epoch}: {}",
                resp.epoch,
                req.kind.name()
            );
        }
        if let Mode::Record = mode {
            s.checked[i] = Some(resp);
            continue;
        }
        let want = &s.checked[i].as_ref().ok_or("unchecked step")?;
        if resp.payload != want.payload {
            tally.mismatched += 1;
            eprintln!("answer differs from the checked one: {}", req.line);
        }
        match (&mut *mode, before, served) {
            (Mode::Snapshots(snaps), Some(before), _) => {
                let after = (req.kind == Kind::Append)
                    .then(|| s.server.registry().get(req.target).map(|x| x.0))
                    .flatten();
                snaps[i] = Some(Snapshots { before, after });
            }
            (Mode::Trace(tr), Some(before), Some(served)) => {
                tr.record(
                    req,
                    &before,
                    t0,
                    t1,
                    get_time,
                    served,
                    resp.bytes,
                    &resp.payload,
                );
            }
            _ => {}
        }
    }
    Ok(())
}

/// One set-up: server, dataset, registration, and the warm-up pass that
/// records the answer of every request of the round.
fn setup(w: Workload, seed: u64, round: &[Step]) -> Result<Served, String> {
    let server = tempo_server::spawn(ServerConfig::default()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    match w.dataset() {
        Dataset::Dblp => {
            let r = client
                .request(&workload::generate_line(seed))
                .map_err(|e| e.to_string())?;
            if !r.ok {
                return Err(format!("generate failed: {}", r.payload));
            }
        }
        Dataset::Large => {
            let g = workload::build_graph(Dataset::Large, seed);
            server.registry().insert("g", Arc::new(g));
        }
    }
    let (base, epoch) = server.registry().get("g").ok_or("no graph registered")?;
    let mut s = Served {
        client,
        server,
        base,
        epochs: HashMap::from([("g", epoch)]),
        checked: round.iter().map(|_| None).collect(),
    };
    run_round(&mut s, round, &mut Mode::Record, &mut Tally::default())?;
    Ok(s)
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of this process, all threads together, in ms
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time a thread waits for a CPU, whether
/// behind another task or taken by the hypervisor, is not counted.
fn process_cpu_ms() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the clock id is a constant the kernel always accepts.
    unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
}

/// Total and steal ticks of all CPUs, from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.iter().sum(), v.get(7).copied().unwrap_or(0))
}

/// Share of CPU time the hypervisor took away since `since`.
fn steal_share(since: (u64, u64)) -> f64 {
    let now = cpu_ticks();
    (now.1 - since.1) as f64 / (now.0 - since.0).max(1) as f64
}

/// Quantile with linear interpolation between order statistics.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let x = q * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Runs whole rounds until `seconds` have passed since `start`.
fn timed(
    s: &mut Served,
    round: &[Step],
    mode: &mut Mode,
    tally: &mut Tally,
    start: Instant,
    seconds: f64,
) -> Result<u64, String> {
    let mut rounds = 0;
    loop {
        let (t, n, c) = (Instant::now(), tally.attempted, tally.cpu_ms());
        run_round(s, round, mode, tally)?;
        let done = (tally.attempted - n) as f64;
        tally.round_rps.push(done / t.elapsed().as_secs_f64());
        tally.round_capacity.push(done * 1e3 / (tally.cpu_ms() - c));
        rounds += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(rounds);
        }
    }
}

/// Checks every distinct answer against the oracle, on the snapshots a
/// replay of the round read.
fn check_answers(
    w: Workload,
    s: &Served,
    round: &[Step],
    snaps: &[Option<Snapshots>],
) -> Result<(), String> {
    let mut oracle = oracle::Oracle::default();
    for ((step, resp), snap) in round.iter().zip(&s.checked).zip(snaps) {
        let (Step::Send(req), Some(resp)) = (step, resp) else {
            continue;
        };
        let snap = snap.as_ref().ok_or("step without snapshots")?;
        oracle
            .check(req, &resp.payload, &snap.before, snap.after.as_deref())
            .map_err(|e| format!("{}: {e}", req.line))?;
    }
    if w == Workload::Olap {
        // The brute-force explore oracle, itself against `explore_naive`,
        // on the round's one edge-selector explore request.
        let req = round.iter().find_map(|st| match st {
            Step::Send(r)
                if matches!(
                    &r.op,
                    Op::Explore {
                        sel: oracle::Sel::Edge(..),
                        ..
                    }
                ) =>
            {
                Some(r)
            }
            _ => None,
        });
        oracle::cross_check_naive(&s.base, req.ok_or("no edge-selector explore request")?)?;
    }
    Ok(())
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run(a: &Args) -> Result<Outcome, String> {
    // One large allocation freed settles glibc's dynamic mmap threshold
    // (raised to the size of the largest mapped chunk freed, up to 32 MB),
    // as a long-running server's first large free would. Left alone, it
    // depends on which graph chunk a run happens to free first, and the
    // `olap` append median moved between 2.5 and 3.5 ms across runs of one
    // seed.
    drop(std::hint::black_box(vec![0u8; 24 << 20]));
    let ds = a.workload.dataset();
    // Inputs: the graph the seed defines and the round derived from it.
    let mut st = SetupTrace::default();
    let t = Instant::now();
    let g = Arc::new(workload::build_graph(ds, a.seed));
    st.generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box((g.node_presence_columns(), g.edge_presence_columns()));
    st.presence_columns_ms = t.elapsed().as_secs_f64() * 1e3;
    let round = workload::plan(a.workload, a.seed, &g);
    drop(g);

    // Set-up time is gated as CPU time, like the requests; the wall clock
    // is printed as reference.
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut served = None;
    for _ in 0..setup_reps(ds) {
        if let Some(old) = served.take() {
            Served::shutdown(old);
        }
        let p0 = trace::probe();
        let (t, c) = (Instant::now(), process_cpu_ms());
        served = Some(setup(a.workload, a.seed, &round)?);
        setup_wall_s.push(t.elapsed().as_secs_f64());
        setup_s.push((process_cpu_ms() - c) / 1e3);
        st.columns(&p0.delta(&trace::probe()));
    }
    let mut s = served.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut tracer = Tracer::default();
    let steal0 = cpu_ticks();
    let start = Instant::now();
    let overhead_pct = if a.trace {
        // First half untraced, second half traced: the overhead compares
        // their round-trip medians.
        let mut plain = Tally::default();
        timed(
            &mut s,
            &round,
            &mut Mode::Compare,
            &mut plain,
            start,
            a.seconds / 2.0,
        )?;
        let t = Instant::now();
        tracer.rounds = timed(
            &mut s,
            &round,
            &mut Mode::Trace(&mut tracer),
            &mut tally,
            t,
            a.seconds / 2.0,
        )?;
        let (p, q) = (median(&plain.all()), median(&tally.all()));
        tally.count(&plain);
        (q / p - 1.0) * 100.0
    } else {
        timed(
            &mut s,
            &round,
            &mut Mode::Compare,
            &mut tally,
            start,
            a.seconds,
        )?;
        0.0
    };
    let peak = peak_rss_mb();
    let steal = steal_share(steal0);

    // One more round, untimed, keeps the snapshots for the checks.
    let mut snaps = round.iter().map(|_| None).collect();
    let mut last = Tally::default();
    run_round(&mut s, &round, &mut Mode::Snapshots(&mut snaps), &mut last)?;
    tally.count(&last);
    let checks = check_answers(a.workload, &s, &round, &snaps);
    if let Err(e) = &checks {
        eprintln!("check failed: {e}");
    }
    Served::shutdown(s);

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if a.trace {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let path = std::path::Path::new(&dir).join("perfbench").join(format!(
            "trace-{}-{}.tsv",
            a.workload.name(),
            a.seed
        ));
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        );
        for (k, (v, u)) in tracer.metrics(&st, overhead_pct) {
            metrics.push((k.to_owned(), v, u));
        }
    } else {
        metrics.push(("setup_s".into(), median(&setup_s), "s"));
        metrics.push(("capacity_rps".into(), median(&tally.round_capacity), "1/s"));
        metrics.push(("service_p50_ms".into(), median(&tally.all_cpu()), "ms"));
        for k in KINDS {
            let v = tally.cpu.get(&k).map_or(0.0, |v| median(v));
            metrics.push((format!("{}_cpu_p50_ms", k.name()), v, "ms"));
        }
        metrics.push(("peak_rss_mb".into(), peak, "MB"));
        println!(
            "set-ups (CPU s): {setup_s:?}; rounds: {}, requests/CPU-s per round min {:.1} \
             median {:.1} max {:.1}",
            tally.round_capacity.len(),
            quantile(&tally.round_capacity, 0.0),
            median(&tally.round_capacity),
            quantile(&tally.round_capacity, 1.0),
        );
        println!(
            "reference, not gated: wall-clock set-ups (s) {setup_wall_s:?}; requests/s per \
             round min {:.1} median {:.1} max {:.1}, round-trip p50 {:.3} ms; CPU steal during \
             the timed phase: {:.1}%",
            quantile(&tally.round_rps, 0.0),
            median(&tally.round_rps),
            quantile(&tally.round_rps, 1.0),
            median(&tally.all()),
            steal * 100.0
        );
        println!("reference quantiles (ms), not gated: service time | wall-clock round trip");
        for k in KINDS {
            if let (Some(c), Some(v)) = (tally.cpu.get(&k), tally.lat.get(&k)) {
                println!(
                    "  {:<10} n={:<6} p50={:>9.3} p90={:>9.3} p99={:>9.3} | p50={:>9.3} \
                     p90={:>9.3} p99={:>9.3}",
                    k.name(),
                    v.len(),
                    median(c),
                    quantile(c, 0.9),
                    quantile(c, 0.99),
                    median(v),
                    quantile(v, 0.9),
                    quantile(v, 0.99)
                );
            }
        }
    }
    Ok(Outcome {
        correct: checks.is_ok() && tally.mismatched == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <olap|explore|ingest> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
