//! The traced run: per-layer times for the same requests the timed phase
//! sends.
//!
//! Layers the program already times are read from its own
//! `tempo-instrument` histograms: the change of each histogram's sum and
//! sample count across a round trip is that layer's time inside the served
//! request (`server.request_ns` for the request handler, the explore kernel
//! and group-table builds, the cube's store build, each explore
//! evaluation). Work counts are the change of the program's counters across
//! the same round trip. Layers with no timer in the program are replayed in
//! process after the round trip, on the snapshot the request read:
//! `Session::exec` of the same command line (`cli`) and under it the core
//! calls that `Session::exec` makes (operator, clone, aggregate, evolution,
//! search, suggest, cube query, measure; for appends `parse_patch` and
//! `append_timepoint`). Replayed children run after their parent rather
//! than inside it, so `cli`'s self time is its duration minus its
//! children's, taken per request and reported as the median over requests.

use crate::oracle::explore_config;
use crate::workload::{CubeAt, Kind, Op, Request, SetOp};
use graphtempo::aggregate::aggregate;
use graphtempo::cube::{GraphCube, Level};
use graphtempo::explore::{explore_budgeted, suggest_k, Budget};
use graphtempo::measures::{aggregate_measure, EdgeMeasure, NodeMeasure};
use graphtempo_cli::{QueryLimits, Session};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tempo_graph::{GraphVersions, TemporalGraph, TimePoint, TimeSet};

/// Limits the server applies to a query by default.
pub fn server_limits() -> QueryLimits {
    let cfg = tempo_server::ServerConfig::default();
    QueryLimits {
        timeout_ms: cfg.default_timeout_ms,
        max_rows: Some(cfg.default_max_rows),
        shards: None,
    }
}

pub struct Span {
    pub req: u32,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Program counters whose deltas the traced run reports.
const COUNTERS: [&str; 7] = [
    "graph.transpose_builds",
    "graph.index.append_cols",
    "aggregate.group_tables_built",
    "explore.evaluations",
    "explore.cursor.steps",
    "columnar.presence.dense_cols",
    "columnar.presence.sparse_cols",
];

/// Program histograms timed inside the served request.
const TIMERS: [&str; 5] = [
    "server.request_ns",
    "explore.kernel_build_ns",
    "aggregate.group_table_build_ns",
    "materialize.store_build_ns",
    "explore.eval_ns",
];

/// Indices into [`Probe::timers`].
const REQUEST: usize = 0;
const KERNEL_BUILD: usize = 1;
const GROUP_TABLE_BUILD: usize = 2;
const STORE_BUILD: usize = 3;
const EVAL: usize = 4;

/// Values of [`COUNTERS`] and of the sum and sample count of [`TIMERS`]
/// at one instant, or their change between two instants.
#[derive(Clone, Copy, Default)]
pub struct Probe {
    counts: [u64; COUNTERS.len()],
    /// `(sum in ns, samples)` per timer.
    timers: [(u64, u64); TIMERS.len()],
}

/// Current values of the program's counters and timers.
pub fn probe() -> Probe {
    let ins = tempo_instrument::global();
    let mut p = Probe::default();
    for (o, name) in p.counts.iter_mut().zip(COUNTERS) {
        *o = ins.counter(name).get();
    }
    for (o, name) in p.timers.iter_mut().zip(TIMERS) {
        let h = ins.histogram(name);
        *o = (h.sum(), h.count());
    }
    p
}

impl Probe {
    /// The change from `self` to `later`.
    pub fn delta(&self, later: &Probe) -> Probe {
        let mut d = Probe::default();
        for i in 0..COUNTERS.len() {
            d.counts[i] = later.counts[i] - self.counts[i];
        }
        for i in 0..TIMERS.len() {
            d.timers[i] = (
                later.timers[i].0 - self.timers[i].0,
                later.timers[i].1 - self.timers[i].1,
            );
        }
        d
    }

    fn add(&mut self, d: &Probe) {
        for (a, b) in self.counts.iter_mut().zip(d.counts) {
            *a += b;
        }
        for (a, b) in self.timers.iter_mut().zip(d.timers) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Mean time per sample of timer `i`, in ms.
    fn mean_ms(&self, i: usize) -> f64 {
        let (sum, n) = self.timers[i];
        sum as f64 / 1e6 / n.max(1) as f64
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[derive(Default)]
pub struct Tracer {
    epoch: Option<Instant>,
    pub spans: Vec<Span>,
    req: u32,
    /// Counter and timer deltas summed over round trips.
    served: Probe,
    /// Round trip minus the served `server.request_ns`, per request, in ms.
    server_self_ms: Vec<f64>,
    cube_requests: u64,
    explore_pairs: u64,
    explore_evals: u64,
    request_bytes: u64,
    response_bytes: u64,
    requests: u64,
    pub rounds: u64,
}

impl Tracer {
    fn ns(&mut self, t: Instant) -> u64 {
        let e = *self.epoch.get_or_insert(t);
        t.duration_since(e).as_nanos() as u64
    }

    fn push(
        &mut self,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            req: self.req,
            layer,
            start_ns: s,
            end_ns: e,
            parent,
        });
        self.spans.len() - 1
    }

    fn time<R>(&mut self, layer: &'static str, parent: usize, f: impl FnOnce() -> R) -> (R, usize) {
        let s = Instant::now();
        let r = black_box(f());
        let id = self.push(layer, s, Instant::now(), Some(parent));
        (r, id)
    }

    /// Records one request: its round trip, the program's counter and timer
    /// deltas across it and its wire sizes, then replays its untimed layers
    /// on the snapshot it read.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        req: &Request,
        before: &Arc<TemporalGraph>,
        start: Instant,
        end: Instant,
        registry_get: Duration,
        served: Probe,
        response_bytes: usize,
        payload: &str,
    ) {
        self.req += 1;
        self.requests += 1;
        self.request_bytes += req.line.len() as u64 + 1;
        self.response_bytes += response_bytes as u64;
        self.served.add(&served);
        let round_trip_ns = (end - start).as_nanos() as f64;
        self.server_self_ms
            .push((round_trip_ns - served.timers[REQUEST].0 as f64) / 1e6);
        let server = self.push("server", start, end, None);
        let s = Instant::now();
        self.push("server.registry_get", s, s + registry_get, Some(server));
        match &req.op {
            Op::Append { label, .. } => {
                let args: Vec<String> = req.line.split(' ').skip(3).map(str::to_owned).collect();
                let (patch, _) = self.time("cli.parse_patch", server, || {
                    graphtempo_cli::patch::parse_patch(before, label, &args)
                        .expect("checked patch parses")
                });
                self.time("graph.append", server, || {
                    GraphVersions::from_arc(Arc::clone(before))
                        .append_timepoint(&patch)
                        .expect("checked patch appends")
                });
            }
            op => {
                let line = req.session_line();
                let (_, cli) = self.time("cli", server, || {
                    Session::for_snapshot(Arc::clone(before), server_limits())
                        .exec(&line)
                        .expect("checked request succeeds")
                });
                self.replay_core(op, before, cli, payload);
            }
        }
        if req.kind == Kind::Cube {
            self.cube_requests += 1;
        }
    }

    /// Replays the core calls `Session::exec` makes for `op`, as children
    /// of the `cli` span.
    fn replay_core(&mut self, op: &Op, g: &TemporalGraph, cli: usize, payload: &str) {
        let n = g.domain().len();
        let ts = |iv: (usize, usize)| TimeSet::range(n, iv.0, iv.1);
        let ids = |names: &[&str]| -> Vec<_> {
            names
                .iter()
                .map(|a| g.schema().id(a).expect("attribute exists"))
                .collect()
        };
        match op {
            Op::Agg { mode, attrs, op } => {
                let target = match op {
                    None => self.time("graph.clone", cli, || g.clone()).0,
                    Some((o, t1, t2)) => {
                        let (t1, t2) = (ts(*t1), ts(*t2));
                        let (layer, f): (&'static str, fn(&_, &_, &_) -> _) = match o {
                            SetOp::Union => ("ops.union", graphtempo::ops::union),
                            SetOp::Intersect => ("ops.intersection", graphtempo::ops::intersection),
                            SetOp::Diff => ("ops.difference", graphtempo::ops::difference),
                        };
                        let (r, _) = self.time(layer, cli, || f(g, &t1, &t2));
                        r.expect("checked operator succeeds")
                    }
                };
                let a = ids(attrs);
                self.time("aggregate.aggregate", cli, || aggregate(&target, &a, *mode));
            }
            Op::Evolution { t1, t2, attrs } => {
                let a = ids(attrs);
                self.time("evolution.aggregate", cli, || {
                    graphtempo::evolution::evolution_aggregate(g, &ts(*t1), &ts(*t2), &a, None)
                        .expect("checked evolution succeeds")
                });
            }
            Op::Explore { case, attr, sel, k } => {
                let cfg = explore_config(g, *case, attr, sel, *k);
                let budget = Budget::unlimited()
                    .with_deadline_ms(server_limits().timeout_ms.expect("server default timeout"));
                self.time("explore.search", cli, || {
                    explore_budgeted(g, &cfg, &budget).expect("checked explore succeeds")
                });
                self.explore_pairs += payload.lines().count() as u64 - 1;
                self.explore_evals += explore_evaluations(payload);
            }
            Op::Suggest { case, attr, sel } => {
                let cfg = explore_config(g, *case, attr, sel, 1);
                self.time("explore.suggest", cli, || {
                    suggest_k(g, &cfg).expect("checked suggest succeeds")
                });
            }
            Op::Cube { attrs, level, at } => {
                // The replayed build is a child of `cli` only so that `cli`'s
                // self time excludes it; `cube.build_ms` is the served build.
                let a = ids(attrs);
                let (cube, _) = self.time("cube.build", cli, || GraphCube::build(g, &a, 4));
                let level = Level::new(level.clone());
                self.time("cube.query", cli, || {
                    match at {
                        CubeAt::Point(t) => cube.slice(&level, TimePoint(*t as u32)),
                        CubeAt::Scope(iv) => cube.query(&level, &ts(*iv)),
                    }
                    .expect("checked cube query succeeds")
                });
            }
            Op::Measure { group, avg } => {
                let a = ids(group);
                let nm = match avg {
                    None => NodeMeasure::Count,
                    Some(x) => NodeMeasure::Avg(g.schema().id(x).expect("measure attribute")),
                };
                self.time("measures.aggregate", cli, || {
                    aggregate_measure(g, &a, nm, EdgeMeasure::Count).expect("checked measure")
                });
            }
            Op::Append { .. } => unreachable!("appends replay outside the session"),
        }
    }

    /// Mean duration of a replayed layer's spans, in ms.
    fn layer_ms(&self, layer: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// Median over requests of a layer's self time (its duration minus its
    /// children's), in ms.
    fn self_ms(&self, layer: &str) -> f64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let v: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == layer)
            .map(|(i, s)| (s.dur_ns() as f64 - child[i] as f64) / 1e6)
            .collect();
        median(&v)
    }

    /// The per-layer metrics, in the units `BENCHMARK.json` names.
    pub fn metrics(
        &self,
        setup: &SetupTrace,
        overhead_pct: f64,
    ) -> BTreeMap<&'static str, (f64, &'static str)> {
        let mut m = BTreeMap::new();
        let served = &self.served;
        let per_round = |i: usize| served.counts[i] as f64 / self.rounds.max(1) as f64;
        let per_req = |x: u64| x as f64 / self.requests.max(1) as f64;
        m.insert("server.self_ms", (median(&self.server_self_ms), "ms"));
        m.insert(
            "server.request_bytes",
            (per_req(self.request_bytes), "bytes"),
        );
        m.insert(
            "server.response_bytes",
            (per_req(self.response_bytes), "bytes"),
        );
        m.insert(
            "server.registry_get_us",
            (self.layer_ms("server.registry_get") * 1e3, "us"),
        );
        m.insert("cli.self_ms", (self.self_ms("cli"), "ms"));
        for (name, layer) in [
            ("cli.parse_patch_ms", "cli.parse_patch"),
            ("graph.append_ms", "graph.append"),
            ("graph.clone_ms", "graph.clone"),
            ("ops.union_ms", "ops.union"),
            ("ops.intersection_ms", "ops.intersection"),
            ("ops.difference_ms", "ops.difference"),
            ("aggregate.aggregate_ms", "aggregate.aggregate"),
            ("evolution.aggregate_ms", "evolution.aggregate"),
            ("cube.query_ms", "cube.query"),
            ("measures.aggregate_ms", "measures.aggregate"),
            ("explore.search_ms", "explore.search"),
            ("explore.suggest_ms", "explore.suggest"),
        ] {
            m.insert(name, (self.layer_ms(layer), "ms"));
        }
        m.insert(
            "explore.kernel_build_ms",
            (served.mean_ms(KERNEL_BUILD), "ms"),
        );
        m.insert(
            "aggregate.group_table_build_ms",
            (served.mean_ms(GROUP_TABLE_BUILD), "ms"),
        );
        m.insert("cube.build_ms", (served.mean_ms(STORE_BUILD), "ms"));
        m.insert(
            "explore.us_per_evaluation",
            (served.mean_ms(EVAL) * 1e3, "us"),
        );
        m.insert("graph.transpose_builds", (per_round(0), "count"));
        m.insert("graph.index.append_cols", (per_round(1), "count"));
        m.insert("aggregate.group_tables_built", (per_round(2), "count"));
        m.insert("explore.evaluations", (per_round(3), "count"));
        m.insert("explore.cursor.steps", (per_round(4), "count"));
        m.insert(
            "cube.builds_per_query",
            (
                served.timers[STORE_BUILD].1 as f64 / self.cube_requests.max(1) as f64,
                "count",
            ),
        );
        m.insert(
            "explore.pairs_per_evaluation",
            (
                self.explore_pairs as f64 / self.explore_evals.max(1) as f64,
                "ratio",
            ),
        );
        m.insert("datagen.generate_s", (setup.generate_s, "s"));
        m.insert(
            "graph.presence_columns_ms",
            (setup.presence_columns_ms, "ms"),
        );
        m.insert(
            "columnar.presence.dense_cols",
            (setup.dense_cols as f64, "count"),
        );
        m.insert(
            "columnar.presence.sparse_cols",
            (setup.sparse_cols as f64, "count"),
        );
        m.insert("trace.overhead_pct", (overhead_pct, "%"));
        m
    }

    /// Writes the spans as TSV: request, layer, start, end (ns), parent.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "req\tlayer\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{parent}",
                s.req, s.layer, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Set-up measurements of the traced run.
#[derive(Default)]
pub struct SetupTrace {
    pub generate_s: f64,
    pub presence_columns_ms: f64,
    pub dense_cols: u64,
    pub sparse_cols: u64,
}

impl SetupTrace {
    /// Column-layout counts from the program's counters over one set-up.
    pub fn columns(&mut self, over_setup: &Probe) {
        self.dense_cols = over_setup.counts[5];
        self.sparse_cols = over_setup.counts[6];
    }
}

/// The `(E evaluations)` count of an explore answer's header.
pub fn explore_evaluations(payload: &str) -> u64 {
    payload
        .lines()
        .next()
        .and_then(|h| h.rsplit_once(" ("))
        .and_then(|(_, r)| r.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}
