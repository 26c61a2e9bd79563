//! The three request mixes, derived deterministically from the seed and
//! the generated graph.
//!
//! A workload is a fixed *round*: an ordered list of steps that every run
//! replays whole, so the share of each request kind is the same in every
//! run regardless of its length.

use crate::oracle::{Case, Evaluator, Sel, CASES};
use graphtempo::aggregate::AggMode;
use std::sync::Arc;
use tempo_graph::{GraphVersions, TemporalGraph, TimepointPatch};

/// Request kinds, one latency series each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Agg,
    Evolution,
    Explore,
    Suggest,
    Cube,
    Measure,
    Append,
}

pub const KINDS: [Kind; 7] = [
    Kind::Agg,
    Kind::Evolution,
    Kind::Explore,
    Kind::Suggest,
    Kind::Cube,
    Kind::Measure,
    Kind::Append,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Agg => "agg",
            Kind::Evolution => "evolution",
            Kind::Explore => "explore",
            Kind::Suggest => "suggest",
            Kind::Cube => "cube",
            Kind::Measure => "measure",
            Kind::Append => "append",
        }
    }
}

/// A closed time interval of point indices.
pub type Iv = (usize, usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Intersect,
    Diff,
}

impl SetOp {
    fn wire(self) -> &'static str {
        match self {
            SetOp::Union => "union",
            SetOp::Intersect => "intersect",
            SetOp::Diff => "diff",
        }
    }
}

#[derive(Clone, Debug)]
pub enum CubeAt {
    Point(usize),
    Scope(Iv),
}

/// What a request asks, in a form the oracle and the traced replay read.
#[derive(Clone, Debug)]
pub enum Op {
    Agg {
        mode: AggMode,
        attrs: Vec<&'static str>,
        op: Option<(SetOp, Iv, Iv)>,
    },
    Evolution {
        t1: Iv,
        t2: Iv,
        attrs: Vec<&'static str>,
    },
    Explore {
        case: Case,
        attr: &'static str,
        sel: Sel,
        k: u64,
    },
    Suggest {
        case: Case,
        attr: &'static str,
        sel: Sel,
    },
    Cube {
        attrs: Vec<&'static str>,
        level: Vec<&'static str>,
        at: CubeAt,
    },
    Measure {
        group: Vec<&'static str>,
        avg: Option<&'static str>,
    },
    Append {
        label: String,
        patch: Patch,
    },
}

/// An `append` patch as the benchmark generated it.
#[derive(Clone, Debug, Default)]
pub struct Patch {
    /// `node=` tokens.
    pub nodes: Vec<String>,
    /// `tv=N,ATTR,VAL` tokens: (node, value) of the time-varying attribute.
    pub tv: Vec<(String, i64)>,
    /// `edge=U,V` tokens, distinct unordered pairs.
    pub edges: Vec<(String, String)>,
    /// Name of the time-varying attribute the `tv` tokens set.
    pub tv_attr: &'static str,
}

impl Patch {
    /// Nodes present at the new point: every named node.
    pub fn node_count(&self) -> usize {
        let mut names: Vec<&str> = self.nodes.iter().map(String::as_str).collect();
        names.extend(self.tv.iter().map(|(n, _)| n.as_str()));
        for (u, v) in &self.edges {
            names.push(u);
            names.push(v);
        }
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    fn tokens(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.extend(self.nodes.iter().map(|n| format!("node={n}")));
        out.extend(
            self.tv
                .iter()
                .map(|(n, v)| format!("tv={n},{},{v}", self.tv_attr)),
        );
        out.extend(self.edges.iter().map(|(u, v)| format!("edge={u},{v}")));
        out
    }

    /// The same patch as a library value, for in-process epochs.
    pub fn to_timepoint_patch(&self, g: &TemporalGraph, label: &str) -> TimepointPatch {
        let mut p = TimepointPatch::new(label);
        for n in &self.nodes {
            p.mark_node(n.as_str());
        }
        if !self.tv.is_empty() {
            let a = g.schema().id(self.tv_attr).expect("patch attribute exists");
            for (n, v) in &self.tv {
                p.set_time_varying(n.as_str(), a, tempo_columnar::Value::Int(*v));
            }
        }
        for (u, v) in &self.edges {
            p.add_edge(u.as_str(), v.as_str());
        }
        p
    }
}

/// One request of a round.
#[derive(Clone, Debug)]
pub struct Request {
    pub kind: Kind,
    /// Snapshot the request addresses.
    pub target: &'static str,
    pub op: Op,
    /// The wire line, without the trailing newline.
    pub line: String,
}

impl Request {
    fn new(target: &'static str, op: Op) -> Request {
        let (kind, args) = render(&op);
        let line = match &op {
            Op::Append { label, .. } => format!("append {target} {label} {args}"),
            _ => format!("{} {target} {args}", kind.name()),
        };
        Request {
            kind,
            target,
            op,
            line,
        }
    }

    /// The command line a request-scoped session executes: the wire line
    /// without the snapshot name.
    pub fn session_line(&self) -> String {
        let rest = self
            .line
            .split_once(' ')
            .and_then(|(_, r)| r.split_once(' '))
            .map_or("", |(_, r)| r);
        format!("{} {rest}", self.kind.name())
    }
}

/// A step of a round: re-register the base graph under a name, or send a
/// request.
#[derive(Clone, Debug)]
pub enum Step {
    Reset(&'static str),
    Send(Request),
}

/// Which dataset a workload serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// `generate … dblp scale=0.2` over the wire.
    Dblp,
    /// The `large` preset at scale 1.0, registered in process.
    Large,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Olap,
    Explore,
    Ingest,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        [Workload::Olap, Workload::Explore, Workload::Ingest]
            .into_iter()
            .find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Olap => "olap",
            Workload::Explore => "explore",
            Workload::Ingest => "ingest",
        }
    }

    pub fn dataset(self) -> Dataset {
        match self {
            Workload::Explore => Dataset::Large,
            Workload::Olap | Workload::Ingest => Dataset::Dblp,
        }
    }
}

/// DBLP-like scale of the `olap` and `ingest` graphs.
pub const DBLP_SCALE: f64 = 0.2;
/// Appended timepoints per `ingest` round.
pub const INGEST_CYCLES: usize = 9;
/// Size of every generated `append` patch.
pub const PATCH_NODES: usize = 300;
pub const PATCH_EDGES: usize = 600;

/// Dataset seed derived from the benchmark seed.
pub fn dataset_seed(seed: u64) -> u64 {
    Rng::new(seed ^ 0x6772_6170_6874_656d).next()
}

/// Builds the workload's graph in process (the same graph the server gets).
pub fn build_graph(ds: Dataset, seed: u64) -> TemporalGraph {
    match ds {
        Dataset::Dblp => tempo_datagen::DblpConfig {
            seed: dataset_seed(seed),
            ..tempo_datagen::DblpConfig::scaled(DBLP_SCALE)
        }
        .generate()
        .expect("DBLP generator succeeds"),
        Dataset::Large => tempo_datagen::LargeConfig {
            seed: dataset_seed(seed),
            ..tempo_datagen::LargeConfig::scaled(1.0)
        }
        .generate()
        .expect("large generator succeeds"),
    }
}

/// The wire command that generates the DBLP graph server-side.
pub fn generate_line(seed: u64) -> String {
    format!(
        "generate g dblp scale={DBLP_SCALE} seed={}",
        dataset_seed(seed)
    )
}

/// splitmix64: the benchmark's own deterministic generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i);
            v.swap(i, j);
        }
    }
}

fn iv_wire(iv: Iv) -> String {
    if iv.0 == iv.1 {
        format!("#{}", iv.0)
    } else {
        format!("#{}..#{}", iv.0, iv.1)
    }
}

fn case_wire(c: Case) -> String {
    format!(
        "event={} semantics={} extend={}",
        match c.event {
            graphtempo::ops::Event::Stability => "stability",
            graphtempo::ops::Event::Growth => "growth",
            graphtempo::ops::Event::Shrinkage => "shrinkage",
        },
        match c.semantics {
            graphtempo::explore::Semantics::Union => "union",
            graphtempo::explore::Semantics::Intersection => "intersect",
        },
        match c.extend {
            graphtempo::explore::ExtendSide::Old => "old",
            graphtempo::explore::ExtendSide::New => "new",
        }
    )
}

fn sel_wire(s: &Sel) -> String {
    match s {
        Sel::AllEdges | Sel::AllNodes => String::new(),
        Sel::Node(v) => format!(" node={v}"),
        Sel::Edge(a, b) => format!(" edge={a}->{b}"),
    }
}

fn render(op: &Op) -> (Kind, String) {
    match op {
        Op::Agg { mode, attrs, op } => {
            let mode = match mode {
                AggMode::Distinct => "dist",
                AggMode::All => "all",
            };
            let mut s = format!("{mode} attrs={}", attrs.join(","));
            if let Some((o, t1, t2)) = op {
                s.push_str(&format!(
                    " op={} t1={} t2={}",
                    o.wire(),
                    iv_wire(*t1),
                    iv_wire(*t2)
                ));
            }
            (Kind::Agg, s)
        }
        Op::Evolution { t1, t2, attrs } => (
            Kind::Evolution,
            format!(
                "t1={} t2={} attrs={}",
                iv_wire(*t1),
                iv_wire(*t2),
                attrs.join(",")
            ),
        ),
        Op::Explore { case, attr, sel, k } => (
            Kind::Explore,
            format!("{} k={k} attrs={attr}{}", case_wire(*case), sel_wire(sel)),
        ),
        Op::Suggest { case, attr, sel } => (
            Kind::Suggest,
            format!("{} attrs={attr}{}", case_wire(*case), sel_wire(sel)),
        ),
        Op::Cube { attrs, level, at } => {
            let at = match at {
                CubeAt::Point(t) => format!("t=#{t}"),
                CubeAt::Scope(iv) => format!("scope={}", iv_wire(*iv)),
            };
            (
                Kind::Cube,
                format!("attrs={} level={} {at}", attrs.join(","), level.join(",")),
            )
        }
        Op::Measure { group, avg } => (
            Kind::Measure,
            format!(
                "group={} node={}",
                group.join(","),
                avg.map_or("count".to_owned(), |a| format!("avg:{a}"))
            ),
        ),
        Op::Append { patch, .. } => (Kind::Append, patch.tokens().join(" ")),
    }
}

/// Threshold `k` for an explore request, from the oracle's pair table:
/// `low` qualifies early, `high` qualifies nowhere (a full scan), `quarter`
/// and `mid` sit between.
#[derive(Clone, Copy)]
enum Level {
    Low,
    /// The lower quartile of the positive counts.
    Quarter,
    Mid,
    High,
}

fn threshold(ev: &Evaluator, case: Case, sel: &Sel, level: Level) -> u64 {
    let mut counts: Vec<u64> = ev
        .pair_table(case)
        .iter()
        .flatten()
        .map(|t| ev.select(t, sel))
        .collect();
    counts.sort_unstable();
    let positive: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    match level {
        Level::Low => positive.first().copied().unwrap_or(1),
        Level::Quarter => positive.get(positive.len() / 4).copied().unwrap_or(1),
        Level::Mid => positive.get(positive.len() / 2).copied().unwrap_or(1),
        Level::High => counts.last().copied().unwrap_or(0) + 1,
    }
}

/// Draws an `append` patch: `PATCH_NODES` nodes (mostly existing ones,
/// some new) and `PATCH_EDGES` distinct pairs among them. DBLP patches set
/// `publications` on every node; `large` patches mark nodes with `node=`.
fn draw_patch(g: &TemporalGraph, ds: Dataset, rng: &mut Rng, tag: &str) -> Patch {
    let n = g.n_nodes();
    let mut names: Vec<String> = Vec::with_capacity(PATCH_NODES);
    let fresh = PATCH_NODES / 10;
    let mut seen = std::collections::HashSet::new();
    while names.len() < PATCH_NODES - fresh {
        let id = rng.range(0, n - 1);
        if seen.insert(id) {
            names.push(g.node_name(tempo_graph::NodeId(id as u32)).to_owned());
        }
    }
    for j in 0..fresh {
        names.push(format!("{tag}x{j}"));
    }
    let mut pairs = std::collections::HashSet::new();
    let mut edges = Vec::with_capacity(PATCH_EDGES);
    while edges.len() < PATCH_EDGES {
        let a = rng.range(0, PATCH_NODES - 1);
        let b = rng.range(0, PATCH_NODES - 1);
        if a != b && pairs.insert((a.min(b), a.max(b))) {
            edges.push((names[a].clone(), names[b].clone()));
        }
    }
    match ds {
        Dataset::Dblp => Patch {
            tv: names
                .into_iter()
                .map(|nm| (nm, rng.range(1, 18) as i64))
                .collect(),
            edges,
            tv_attr: "publications",
            ..Patch::default()
        },
        Dataset::Large => Patch {
            nodes: names,
            edges,
            ..Patch::default()
        },
    }
}

/// The round of a workload, derived from the seed and the graph.
pub fn plan(w: Workload, seed: u64, g: &Arc<TemporalGraph>) -> Vec<Step> {
    let mut rng = Rng::new(seed);
    match w {
        Workload::Olap => plan_olap(&mut rng, g),
        Workload::Explore => plan_explore(&mut rng, g),
        Workload::Ingest => plan_ingest(&mut rng, g),
    }
}

fn plan_olap(rng: &mut Rng, g: &Arc<TemporalGraph>) -> Vec<Step> {
    let n = g.domain().len();
    let mut reqs = Vec::new();
    let agg = |mode, attrs: &[&'static str], op| {
        Request::new(
            "g",
            Op::Agg {
                mode,
                attrs: attrs.to_vec(),
                op,
            },
        )
    };
    // Whole-graph aggregation: static, time-varying, mixed.
    reqs.push(agg(AggMode::Distinct, &["gender"], None));
    reqs.push(agg(AggMode::Distinct, &["publications"], None));
    reqs.push(agg(AggMode::All, &["gender", "publications"], None));
    // Operator aggregation over point pairs and 3-point ranges, spread
    // over the domain (early years are small, late years large).
    let mut c = 0;
    for setop in [SetOp::Union, SetOp::Intersect, SetOp::Diff] {
        for mode in [AggMode::Distinct, AggMode::All] {
            for attrs in [&["gender"][..], &["publications"][..]] {
                for len in [1, 3] {
                    let start = (c * 7) % (n - 2 * len);
                    let t1 = (start, start + len - 1);
                    let t2 = (start + len, start + 2 * len - 1);
                    reqs.push(agg(mode, attrs, Some((setop, t1, t2))));
                    c += 1;
                }
            }
        }
    }
    for (i, (t1, t2)) in [
        ((4, 4), (5, 5)),
        ((11, 11), (12, 12)),
        ((18, 18), (19, 19)),
        ((3, 5), (6, 8)),
        ((12, 14), (15, 17)),
    ]
    .into_iter()
    .enumerate()
    {
        let attrs = if i % 2 == 0 {
            vec!["gender"]
        } else {
            vec!["gender", "publications"]
        };
        reqs.push(Request::new("g", Op::Evolution { t1, t2, attrs }));
    }
    for (level, at) in [
        (vec!["gender"], CubeAt::Point(n - 1)),
        (vec!["publications"], CubeAt::Point(n / 2)),
        (vec!["gender"], CubeAt::Scope((n / 4, n / 4 + 4))),
    ] {
        reqs.push(Request::new(
            "g",
            Op::Cube {
                attrs: vec!["gender", "publications"],
                level,
                at,
            },
        ));
    }
    reqs.push(Request::new(
        "g",
        Op::Measure {
            group: vec!["gender"],
            avg: Some("publications"),
        },
    ));
    let ev = Evaluator::new(g, "gender");
    for (ci, sel) in [
        (1, Sel::Edge("f".into(), "f".into())),
        (5, Sel::Node("f".into())),
        (8, Sel::Node("f".into())),
    ] {
        let case = CASES[ci];
        let k = threshold(&ev, case, &sel, Level::Mid);
        reqs.push(Request::new(
            "g",
            Op::Explore {
                case,
                attr: "gender",
                sel,
                k,
            },
        ));
    }
    reqs.push(Request::new(
        "g",
        Op::Suggest {
            case: CASES[5],
            attr: "gender",
            sel: Sel::AllEdges,
        },
    ));
    rng.shuffle(&mut reqs);
    side_round(rng, g, Dataset::Dblp, reqs)
}

/// Wraps the read-only requests of a round with a trailing `append` to the
/// `side` snapshot, which the round first resets to the base graph, so
/// every query of every round reads the same epoch of `g`.
fn side_round(rng: &mut Rng, g: &TemporalGraph, ds: Dataset, reqs: Vec<Request>) -> Vec<Step> {
    let label = format!("p{}", g.domain().len());
    let patch = draw_patch(g, ds, rng, "side");
    let mut steps = vec![Step::Reset("side")];
    steps.extend(reqs.into_iter().map(Step::Send));
    steps.push(Step::Send(Request::new(
        "side",
        Op::Append { label, patch },
    )));
    steps
}

fn kind_label(i: usize) -> String {
    format!("k{i}")
}

fn plan_explore(rng: &mut Rng, g: &Arc<TemporalGraph>) -> Vec<Step> {
    let n = g.domain().len();
    let kinds = g
        .schema()
        .def(g.schema().id("kind").expect("large preset has kind"))
        .category_count();
    let mut label = || kind_label(rng.range(0, kinds - 1));
    let ev = Evaluator::new(g, "kind");
    let mut reqs = Vec::new();
    let explore = |case: Case, sel: Sel, levels: &[Level], reqs: &mut Vec<Request>| {
        for &level in levels {
            let k = threshold(&ev, case, &sel, level);
            reqs.push(Request::new(
                "g",
                Op::Explore {
                    case,
                    attr: "kind",
                    sel: sel.clone(),
                    k,
                },
            ));
        }
        reqs.push(Request::new(
            "g",
            Op::Suggest {
                case,
                attr: "kind",
                sel,
            },
        ));
    };
    for (ci, &case) in CASES.iter().enumerate() {
        let sel = if ci % 2 == 0 {
            Sel::Edge(label(), label())
        } else {
            Sel::Node(label())
        };
        explore(case, sel, &[Level::Low, Level::Mid, Level::High], &mut reqs);
    }
    explore(CASES[5], Sel::AllEdges, &[Level::Mid], &mut reqs);
    for (i, (mode, setop)) in [
        (AggMode::Distinct, SetOp::Union),
        (AggMode::All, SetOp::Intersect),
        (AggMode::Distinct, SetOp::Diff),
        (AggMode::All, SetOp::Union),
    ]
    .into_iter()
    .enumerate()
    {
        let t = (i + 1) * n / 5;
        reqs.push(Request::new(
            "g",
            Op::Agg {
                mode,
                attrs: vec!["kind"],
                op: Some((setop, (t, t), (t + 1, t + 1))),
            },
        ));
    }
    // Whole-graph aggregation clones the 1M-node graph.
    reqs.push(Request::new(
        "g",
        Op::Agg {
            mode: AggMode::All,
            attrs: vec!["kind"],
            op: None,
        },
    ));
    // Four adjacent-point evolutions of like cost: a single one per round
    // gave too few samples for a steady median.
    for i in 1..=4 {
        let t = i * n / 5;
        reqs.push(Request::new(
            "g",
            Op::Evolution {
                t1: (t, t),
                t2: (t + 1, t + 1),
                attrs: vec!["kind"],
            },
        ));
    }
    reqs.push(Request::new(
        "g",
        Op::Cube {
            attrs: vec!["kind"],
            level: vec!["kind"],
            at: CubeAt::Point(n / 3),
        },
    ));
    reqs.push(Request::new(
        "g",
        Op::Measure {
            group: vec!["kind"],
            avg: None,
        },
    ));
    rng.shuffle(&mut reqs);
    side_round(rng, g, Dataset::Large, reqs)
}

fn plan_ingest(rng: &mut Rng, base: &Arc<TemporalGraph>) -> Vec<Step> {
    let mut steps = vec![Step::Reset("g")];
    let mut versions = GraphVersions::from_arc(Arc::clone(base));
    for c in 0..INGEST_CYCLES {
        let prev_g = versions.current();
        let p = prev_g.domain().len();
        let label = format!("y{}", 2000 + p);
        let patch = draw_patch(&prev_g, Dataset::Dblp, rng, &format!("c{c}"));
        let next = versions
            .append_timepoint(&patch.to_timepoint_patch(&prev_g, &label))
            .expect("generated patch appends");
        steps.push(Step::Send(Request::new("g", Op::Append { label, patch })));
        // Every cycle repeats the same queries on its fresh epoch, so each
        // kind's samples form one cluster and its median sits inside it.
        let (prev, new) = ((p - 1, p - 1), (p, p));
        steps.push(Step::Send(Request::new(
            "g",
            Op::Evolution {
                t1: prev,
                t2: new,
                attrs: vec!["gender"],
            },
        )));
        // The whole history against the new point: an intersection of two
        // appended points takes ~0.4 ms, and at that size the drift of the
        // per-request cost on a shared machine moved the median by 25%.
        steps.push(Step::Send(Request::new(
            "g",
            Op::Agg {
                mode: AggMode::All,
                attrs: vec!["gender", "publications"],
                op: Some((SetOp::Intersect, (0, p - 1), new)),
            },
        )));
        // The other operators and a whole-graph aggregation, once a round:
        // few enough that the median agg stays one of the per-cycle
        // intersections.
        let extra = match c {
            4 => Some((AggMode::Distinct, "gender", Some((SetOp::Union, prev, new)))),
            5 => Some((AggMode::All, "publications", Some((SetOp::Diff, prev, new)))),
            8 => Some((AggMode::All, "gender", None)),
            _ => None,
        };
        if let Some((mode, attr, op)) = extra {
            steps.push(Step::Send(Request::new(
                "g",
                Op::Agg {
                    mode,
                    attrs: vec![attr],
                    op,
                },
            )));
        }
        // About 6 ms: 1 ms at the lowest threshold, 17 ms at the median.
        let case = CASES[5];
        let sel = Sel::Node("f".into());
        let k = threshold(&Evaluator::new(&next, "gender"), case, &sel, Level::Quarter);
        if c == INGEST_CYCLES / 2 {
            steps.push(Step::Send(Request::new(
                "g",
                Op::Suggest {
                    case,
                    attr: "gender",
                    sel: Sel::AllEdges,
                },
            )));
        }
        steps.push(Step::Send(Request::new(
            "g",
            Op::Explore {
                case,
                attr: "gender",
                sel,
                k,
            },
        )));
        match c % 3 {
            1 => steps.push(Step::Send(Request::new(
                "g",
                Op::Cube {
                    attrs: vec!["gender", "publications"],
                    level: vec!["gender"],
                    at: CubeAt::Point(p),
                },
            ))),
            2 => steps.push(Step::Send(Request::new(
                "g",
                Op::Measure {
                    group: vec!["gender"],
                    avg: Some("publications"),
                },
            ))),
            _ => {}
        }
    }
    steps
}
