//! Output checks, computed apart from the serving path.
//!
//! Aggregates, cube roll-ups and measures are recomputed straight from the
//! presence bits and attribute cells; aggregates are also compared with
//! `aggregate_via_frames` (Alg. 2). Exploration answers come from a
//! brute-force evaluator over per-entity time bitmasks that applies
//! Definitions 3.4/3.5 to every pair of every chain (itself cross-checked
//! against `explore_naive`); evolution answers are checked against the
//! St+Shr / St+Gr identities; appends against the generated patch.

use crate::workload::{CubeAt, Iv, Op, Patch, Request, SetOp};
use graphtempo::aggregate::{aggregate_via_frames, AggMode, AggregateGraph};
use graphtempo::explore::{direction, Direction, ExploreConfig, ExtendSide, Selector, Semantics};
use graphtempo::ops::Event;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use tempo_columnar::{Value, ValueTuple};
use tempo_graph::{AttrId, NodeId, TemporalGraph, TimePoint, TimeSet};

/// One Table-1 exploration case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Case {
    pub event: Event,
    pub semantics: Semantics,
    pub extend: ExtendSide,
}

const fn case(event: Event, semantics: Semantics, extend: ExtendSide) -> Case {
    Case {
        event,
        semantics,
        extend,
    }
}

/// The 12 cases of Table 1: 3 events × union/intersection × extend old/new.
pub const CASES: [Case; 12] = [
    case(Event::Stability, Semantics::Union, ExtendSide::Old),
    case(Event::Stability, Semantics::Union, ExtendSide::New),
    case(Event::Stability, Semantics::Intersection, ExtendSide::Old),
    case(Event::Stability, Semantics::Intersection, ExtendSide::New),
    case(Event::Growth, Semantics::Union, ExtendSide::Old),
    case(Event::Growth, Semantics::Union, ExtendSide::New),
    case(Event::Growth, Semantics::Intersection, ExtendSide::Old),
    case(Event::Growth, Semantics::Intersection, ExtendSide::New),
    case(Event::Shrinkage, Semantics::Union, ExtendSide::Old),
    case(Event::Shrinkage, Semantics::Union, ExtendSide::New),
    case(Event::Shrinkage, Semantics::Intersection, ExtendSide::Old),
    case(Event::Shrinkage, Semantics::Intersection, ExtendSide::New),
];

/// Explore selector over one static attribute, by category label.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sel {
    AllEdges,
    AllNodes,
    Node(String),
    Edge(String, String),
}

/// Event counts of one interval pair, per label and per label pair.
#[derive(Clone, Debug)]
pub struct Tally {
    nodes: Vec<u64>,
    edges: Vec<u64>,
}

/// A chain pair: (𝒯old, 𝒯new) as inclusive index ranges.
type Pair = (Iv, Iv);

/// The chains of a domain of `n` points, in the engine's order.
fn chains(n: usize, extend: ExtendSide) -> Vec<Vec<Pair>> {
    (0..n - 1)
        .map(|i| match extend {
            ExtendSide::New => ((i + 1)..n).map(|end| ((i, i), (i + 1, end))).collect(),
            ExtendSide::Old => (0..=i).rev().map(|s| ((s, i), (i + 1, i + 1))).collect(),
        })
        .collect()
}

fn bits(iv: Iv) -> u64 {
    (iv.0..=iv.1).fold(0, |m, t| m | 1 << t)
}

fn mask_of(ts: &TimeSet) -> u64 {
    ts.iter().fold(0, |m, t| m | 1 << t.0)
}

#[derive(Clone, Copy)]
enum Test {
    Any,
    All,
}

fn member(mask: u64, side: u64, test: Test) -> bool {
    match test {
        Test::Any => mask & side != 0,
        Test::All => mask & side == side,
    }
}

/// Brute-force exploration oracle over one static attribute.
pub struct Evaluator {
    n_t: usize,
    labels: Vec<String>,
    /// Present nodes: (time mask, label index).
    nodes: Vec<(u64, usize)>,
    /// Edges: (slot of u, slot of v, time mask).
    edges: Vec<(usize, usize, u64)>,
    tables: std::cell::RefCell<HashMap<usize, std::rc::Rc<Vec<Vec<Tally>>>>>,
}

impl Evaluator {
    pub fn new(g: &TemporalGraph, attr: &str) -> Evaluator {
        let n_t = g.domain().len();
        assert!(n_t <= 64, "time masks hold at most 64 points");
        let a = g.schema().id(attr).expect("explore attribute exists");
        let def = g.schema().def(a);
        let mut labels: Vec<String> = Vec::new();
        let mut label_ix: HashMap<String, usize> = HashMap::new();
        let mut slot = HashMap::new();
        let mut nodes = Vec::new();
        for n in g.node_ids() {
            let m = mask_of(&g.node_timestamp(n));
            if m == 0 {
                continue;
            }
            let l = def.render(&g.static_value(n, a).expect("static attribute"));
            let next = label_ix.len();
            let li = *label_ix.entry(l.clone()).or_insert_with(|| {
                labels.push(l);
                next
            });
            slot.insert(n.index(), nodes.len());
            nodes.push((m, li));
        }
        let edges = g
            .edge_ids()
            .map(|e| {
                let (u, v) = g.edge_endpoints(e);
                (
                    slot[&u.index()],
                    slot[&v.index()],
                    mask_of(&g.edge_timestamp(e)),
                )
            })
            .collect();
        Evaluator {
            n_t,
            labels,
            nodes,
            edges,
            tables: Default::default(),
        }
    }

    fn label(&self, l: &str) -> Option<usize> {
        self.labels.iter().position(|x| x == l)
    }

    /// `result(G)` of a selector on one pair's tally.
    pub fn select(&self, t: &Tally, sel: &Sel) -> u64 {
        let nl = self.labels.len();
        match sel {
            Sel::AllNodes => t.nodes.iter().sum(),
            Sel::AllEdges => t.edges.iter().sum(),
            Sel::Node(l) => self.label(l).map_or(0, |i| t.nodes[i]),
            Sel::Edge(a, b) => match (self.label(a), self.label(b)) {
                (Some(i), Some(j)) => t.edges[i * nl + j],
                _ => 0,
            },
        }
    }

    fn tally(&self, case: Case, told: u64, tnew: u64, stamp: &mut [u32], gen: u32) -> Tally {
        let nl = self.labels.len();
        let mut t = Tally {
            nodes: vec![0; nl],
            edges: vec![0; nl * nl],
        };
        let sem = match case.semantics {
            Semantics::Union => Test::Any,
            Semantics::Intersection => Test::All,
        };
        let (ot, nt) = match case.extend {
            ExtendSide::Old => (sem, Test::Any),
            ExtendSide::New => (Test::Any, sem),
        };
        let (keep, drop) = match case.event {
            Event::Stability => {
                for &(m, l) in &self.nodes {
                    if member(m, told, ot) && member(m, tnew, nt) {
                        t.nodes[l] += 1;
                    }
                }
                for &(u, v, m) in &self.edges {
                    if member(m, told, ot) && member(m, tnew, nt) {
                        t.edges[self.nodes[u].1 * nl + self.nodes[v].1] += 1;
                    }
                }
                return t;
            }
            Event::Growth => ((tnew, nt), (told, ot)),
            Event::Shrinkage => ((told, ot), (tnew, nt)),
        };
        // Definition 2.5: edges of the kept side only; nodes of the kept
        // side that left, or that touch a kept edge.
        for &(u, v, m) in &self.edges {
            if member(m, keep.0, keep.1) && !member(m, drop.0, drop.1) {
                t.edges[self.nodes[u].1 * nl + self.nodes[v].1] += 1;
                stamp[u] = gen;
                stamp[v] = gen;
            }
        }
        for (s, &(m, l)) in self.nodes.iter().enumerate() {
            if member(m, keep.0, keep.1) && (!member(m, drop.0, drop.1) || stamp[s] == gen) {
                t.nodes[l] += 1;
            }
        }
        t
    }

    /// Tallies of every pair of every chain of a case (cached).
    pub fn pair_table(&self, case: Case) -> std::rc::Rc<Vec<Vec<Tally>>> {
        let key = CASES.iter().position(|c| *c == case).expect("known case");
        if let Some(t) = self.tables.borrow().get(&key) {
            return std::rc::Rc::clone(t);
        }
        let mut stamp = vec![0u32; self.nodes.len()];
        let mut gen = 0;
        let table: Vec<Vec<Tally>> = chains(self.n_t, case.extend)
            .iter()
            .map(|chain| {
                chain
                    .iter()
                    .map(|&(o, n)| {
                        gen += 1;
                        self.tally(case, bits(o), bits(n), &mut stamp, gen)
                    })
                    .collect()
            })
            .collect();
        let table = std::rc::Rc::new(table);
        self.tables
            .borrow_mut()
            .insert(key, std::rc::Rc::clone(&table));
        table
    }

    /// The qualifying pairs by Definition 3.4 (union: minimal) or 3.5
    /// (intersection: maximal), in chain order.
    pub fn qualifying(&self, case: Case, sel: &Sel, k: u64) -> Vec<(Pair, u64)> {
        let table = self.pair_table(case);
        let mut out = Vec::new();
        for (chain, tallies) in chains(self.n_t, case.extend).iter().zip(table.iter()) {
            let r: Vec<u64> = tallies.iter().map(|t| self.select(t, sel)).collect();
            for j in 0..r.len() {
                let others = match case.semantics {
                    Semantics::Union => &r[..j],
                    Semantics::Intersection => &r[j + 1..],
                };
                if r[j] >= k && others.iter().all(|&x| x < k) {
                    out.push((chain[j], r[j]));
                }
            }
        }
        out
    }

    /// §3.5 starting threshold: min (increasing operator) or max
    /// (decreasing) over consecutive pairs of the selector's result, or of
    /// the individual entity weights for the all-entity selectors.
    pub fn suggest(&self, case: Case, sel: &Sel) -> Option<u64> {
        let table = self.pair_table(case);
        // Increasing operators tune k upward from the minimum.
        let min = direction(case.event, case.extend, case.semantics) == Direction::Increasing;
        let mut best: Option<u64> = None;
        for chain in table.iter() {
            let t = &chain[0];
            let w = match sel {
                Sel::AllNodes | Sel::AllEdges => {
                    let ws = if *sel == Sel::AllNodes {
                        &t.nodes
                    } else {
                        &t.edges
                    };
                    let pos = ws.iter().copied().filter(|&w| w > 0);
                    if min {
                        pos.min()
                    } else {
                        pos.max()
                    }
                }
                _ => Some(self.select(t, sel)).filter(|&r| r > 0),
            };
            if let Some(w) = w {
                best = Some(match best {
                    None => w,
                    Some(b) if min => b.min(w),
                    Some(b) => b.max(w),
                });
            }
        }
        best
    }

    fn pair_line(&self, g: &TemporalGraph, p: Pair, r: u64) -> String {
        let d = g.domain();
        let ts = |iv: Iv| TimeSet::range(self.n_t, iv.0, iv.1).display(d);
        format!("  ({}, {}) -> {r} events", ts(p.0), ts(p.1))
    }
}

/// Attribute ids of a list of names.
fn ids(g: &TemporalGraph, names: &[&str]) -> Vec<AttrId> {
    names
        .iter()
        .map(|n| g.schema().id(n).expect("attribute exists"))
        .collect()
}

fn render_tuple(g: &TemporalGraph, attrs: &[AttrId], t: &[Value]) -> String {
    let parts: Vec<String> = attrs
        .iter()
        .zip(t)
        .map(|(&a, v)| g.schema().def(a).render(v))
        .collect();
    format!("({})", parts.join(","))
}

fn tuple(g: &TemporalGraph, attrs: &[AttrId], n: NodeId, t: u32) -> ValueTuple {
    attrs
        .iter()
        .map(|&a| g.attr_value(n, a, TimePoint(t)))
        .collect()
}

fn ones(m: u64) -> impl Iterator<Item = u32> {
    (0..64).filter(move |t| m >> t & 1 == 1)
}

/// Node and edge time masks of an operator's result, from presence alone:
/// `None` is the whole graph; union/intersection scope `𝒯₁ ∪ 𝒯₂`; the
/// difference keeps `𝒯₁`-edges absent from `𝒯₂` and the `𝒯₁`-nodes that
/// left or touch such an edge, scoped to `𝒯₁` (Definitions 2.3–2.5).
fn operator_masks(g: &TemporalGraph, op: Option<(SetOp, Iv, Iv)>) -> (Vec<u64>, Vec<u64>) {
    let nm: Vec<u64> = g
        .node_ids()
        .map(|n| mask_of(&g.node_timestamp(n)))
        .collect();
    let em: Vec<u64> = g
        .edge_ids()
        .map(|e| mask_of(&g.edge_timestamp(e)))
        .collect();
    let Some((op, t1, t2)) = op else {
        return (nm, em);
    };
    let (a, b) = (bits(t1), bits(t2));
    match op {
        SetOp::Union => (
            nm.iter().map(|m| m & (a | b)).collect(),
            em.iter().map(|m| m & (a | b)).collect(),
        ),
        SetOp::Intersect => {
            let keep = |m: &u64| {
                if m & a != 0 && m & b != 0 {
                    m & (a | b)
                } else {
                    0
                }
            };
            (nm.iter().map(keep).collect(), em.iter().map(keep).collect())
        }
        SetOp::Diff => {
            let mut incident = vec![false; nm.len()];
            let edges: Vec<u64> = g
                .edge_ids()
                .zip(&em)
                .map(|(e, m)| {
                    if m & a != 0 && m & b == 0 {
                        let (u, v) = g.edge_endpoints(e);
                        incident[u.index()] = true;
                        incident[v.index()] = true;
                        m & a
                    } else {
                        0
                    }
                })
                .collect();
            let nodes = nm
                .iter()
                .zip(&incident)
                .map(|(m, &inc)| {
                    if m & a != 0 && (m & b == 0 || inc) {
                        m & a
                    } else {
                        0
                    }
                })
                .collect();
            (nodes, edges)
        }
    }
}

/// Aggregation straight from presence masks and attribute cells: ALL adds
/// one per appearance, DIST one per distinct (entity, tuple).
fn direct_aggregate(
    g: &TemporalGraph,
    attrs: &[AttrId],
    mode: AggMode,
    masks: &(Vec<u64>, Vec<u64>),
) -> AggregateGraph {
    let names = attrs
        .iter()
        .map(|&a| g.schema().def(a).name().to_owned())
        .collect();
    let mut agg = AggregateGraph::new(names);
    for (n, &m) in g.node_ids().zip(&masks.0) {
        let mut seen = BTreeSet::new();
        for t in ones(m) {
            let tu = tuple(g, attrs, n, t);
            if mode == AggMode::All || seen.insert(tu.clone()) {
                agg.add_node_weight(tu, 1);
            }
        }
    }
    for (e, &m) in g.edge_ids().zip(&masks.1) {
        let (u, v) = g.edge_endpoints(e);
        let mut seen = BTreeSet::new();
        for t in ones(m) {
            let key = (tuple(g, attrs, u, t), tuple(g, attrs, v, t));
            if mode == AggMode::All || seen.insert(key.clone()) {
                agg.add_edge_weight(key.0, key.1, 1);
            }
        }
    }
    agg
}

fn top_nodes(agg: &AggregateGraph, top: usize) -> Vec<(&ValueTuple, u64)> {
    let mut nodes = agg.iter_nodes();
    nodes.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    nodes.truncate(top);
    nodes
}

/// The `agg` answer text for an aggregate graph.
fn agg_text(g: &TemporalGraph, attrs: &[AttrId], agg: &AggregateGraph) -> String {
    let mut out = format!(
        "aggregate: {} nodes, {} edges (node weight {}, edge weight {})\n",
        agg.n_nodes(),
        agg.n_edges(),
        agg.total_node_weight(),
        agg.total_edge_weight()
    );
    for (t, w) in top_nodes(agg, 10) {
        let _ = writeln!(out, "  node {} w={w}", render_tuple(g, attrs, t));
    }
    let mut edges = agg.iter_edges();
    edges.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    for ((s, d), w) in edges.into_iter().take(10) {
        let _ = writeln!(
            out,
            "  edge {} -> {} w={w}",
            render_tuple(g, attrs, s),
            render_tuple(g, attrs, d)
        );
    }
    out.trim_end().to_owned()
}

fn same_aggregate(a: &AggregateGraph, b: &AggregateGraph) -> bool {
    a.iter_nodes() == b.iter_nodes() && a.iter_edges() == b.iter_edges()
}

fn expect_eq(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got\n{got}\nwant\n{want}"))
    }
}

/// Evaluators per (graph, attribute), reused across the checks of a run.
#[derive(Default)]
pub struct Oracle {
    evaluators: HashMap<(usize, &'static str), Evaluator>,
}

impl Oracle {
    fn evaluator(&mut self, g: &TemporalGraph, attr: &'static str) -> &Evaluator {
        let key = (g as *const TemporalGraph as usize, attr);
        self.evaluators
            .entry(key)
            .or_insert_with(|| Evaluator::new(g, attr))
    }

    /// Checks one answer. `before` is the snapshot the request read;
    /// `after` the snapshot an `append` published.
    pub fn check(
        &mut self,
        req: &Request,
        payload: &str,
        before: &TemporalGraph,
        after: Option<&TemporalGraph>,
    ) -> Result<(), String> {
        let g = before;
        match &req.op {
            Op::Agg { mode, attrs, op } => {
                let a = ids(g, attrs);
                let direct = direct_aggregate(g, &a, *mode, &operator_masks(g, *op));
                let target = match op {
                    None => g.clone(),
                    Some((o, t1, t2)) => {
                        let n = g.domain().len();
                        let (t1, t2) =
                            (TimeSet::range(n, t1.0, t1.1), TimeSet::range(n, t2.0, t2.1));
                        match o {
                            SetOp::Union => graphtempo::ops::union(g, &t1, &t2),
                            SetOp::Intersect => graphtempo::ops::intersection(g, &t1, &t2),
                            SetOp::Diff => graphtempo::ops::difference(g, &t1, &t2),
                        }
                        .map_err(|e| e.to_string())?
                    }
                };
                let frames = aggregate_via_frames(&target, &ids(&target, attrs), *mode)
                    .map_err(|e| e.to_string())?;
                if !same_aggregate(&direct, &frames) {
                    return Err("direct aggregation differs from aggregate_via_frames".into());
                }
                expect_eq("agg", payload, &agg_text(g, &a, &direct))
            }
            Op::Cube { level, at, .. } => {
                let a = ids(g, level);
                let scope = match at {
                    CubeAt::Point(t) => (*t, *t),
                    CubeAt::Scope(iv) => *iv,
                };
                let masks = operator_masks(g, Some((SetOp::Union, scope, scope)));
                let agg = direct_aggregate(g, &a, AggMode::All, &masks);
                let mut want = format!(
                    "cube query at level ({}): {} nodes, {} edges\n",
                    level.join(","),
                    agg.n_nodes(),
                    agg.n_edges()
                );
                for (t, w) in top_nodes(&agg, 10) {
                    let _ = writeln!(want, "  {} w={w}", render_tuple(g, &a, t));
                }
                expect_eq("cube", payload, want.trim_end())
            }
            Op::Measure { group, avg } => {
                let a = ids(g, group);
                let m = avg.map(|x| g.schema().id(x).expect("measure attribute"));
                let mut nodes: BTreeMap<ValueTuple, (u64, i64, u64)> = BTreeMap::new();
                for n in g.node_ids() {
                    for t in ones(mask_of(&g.node_timestamp(n))) {
                        let acc = nodes.entry(tuple(g, &a, n, t)).or_default();
                        acc.0 += 1;
                        if let Some(x) = m.and_then(|m| g.attr_value(n, m, TimePoint(t)).as_int()) {
                            acc.1 += x;
                            acc.2 += 1;
                        }
                    }
                }
                let mut edges: BTreeMap<(ValueTuple, ValueTuple), u64> = BTreeMap::new();
                for e in g.edge_ids() {
                    let (u, v) = g.edge_endpoints(e);
                    for t in ones(mask_of(&g.edge_timestamp(e))) {
                        *edges
                            .entry((tuple(g, &a, u, t), tuple(g, &a, v, t)))
                            .or_default() += 1;
                    }
                }
                let spec = avg.map_or("count".to_owned(), |x| format!("avg:{x}"));
                let mut want = format!("measure {spec} grouped by ({})\n", group.join(","));
                for (t, (count, sum, observed)) in &nodes {
                    let v = match m {
                        None => *count as f64,
                        Some(_) if *observed == 0 => continue,
                        Some(_) => *sum as f64 / *observed as f64,
                    };
                    let _ = writeln!(want, "  node {} = {v:.3}", render_tuple(g, &a, t));
                }
                for ((s, d), c) in edges.iter().take(10) {
                    let _ = writeln!(
                        want,
                        "  edge {} -> {} = {:.3}",
                        render_tuple(g, &a, s),
                        render_tuple(g, &a, d),
                        *c as f64
                    );
                }
                expect_eq("measure", payload, want.trim_end())
            }
            Op::Evolution { t1, t2, attrs } => check_evolution(g, *t1, *t2, attrs, payload),
            Op::Explore { case, attr, sel, k } => {
                let ev = self.evaluator(g, attr);
                let want = ev.qualifying(*case, sel, *k);
                let mut lines = payload.lines();
                let head = lines.next().unwrap_or("");
                let kind = match case.semantics {
                    Semantics::Union => "minimal",
                    Semantics::Intersection => "maximal",
                };
                let prefix = format!("{} qualifying {kind} interval pairs (", want.len());
                let evals: usize = head
                    .strip_prefix(&prefix)
                    .and_then(|r| r.strip_suffix(" evaluations):"))
                    .and_then(|r| r.parse().ok())
                    .ok_or_else(|| format!("explore header {head:?}, want {prefix}…"))?;
                let n = g.domain().len();
                if evals > n * (n - 1) / 2 {
                    return Err(format!("{evals} evaluations exceed the pair count"));
                }
                let mut got: Vec<&str> = lines.collect();
                let mut exp: Vec<String> =
                    want.iter().map(|&(p, r)| ev.pair_line(g, p, r)).collect();
                if want.iter().any(|&(_, r)| r < *k) {
                    return Err("oracle pair below threshold".into());
                }
                got.sort_unstable();
                exp.sort_unstable();
                expect_eq("explore pairs", &got.join("\n"), &exp.join("\n"))
            }
            Op::Suggest { case, attr, sel } => {
                let ev = self.evaluator(g, attr);
                let want = match ev.suggest(*case, sel) {
                    Some(w) => format!("suggested k (w_th per §3.5): {w}"),
                    None => "no events between any consecutive time points".to_owned(),
                };
                expect_eq("suggest", payload, &want)
            }
            Op::Append { label, patch } => {
                let after = after.ok_or("append published no snapshot")?;
                check_append(g, after, req.target, label, patch, payload)
            }
        }
    }
}

fn check_append(
    before: &TemporalGraph,
    after: &TemporalGraph,
    name: &str,
    label: &str,
    patch: &Patch,
    payload: &str,
) -> Result<(), String> {
    let p = before.domain().len();
    let fresh = {
        let mut names: BTreeSet<&str> = patch.nodes.iter().map(String::as_str).collect();
        names.extend(patch.tv.iter().map(|(n, _)| n.as_str()));
        names.extend(
            patch
                .edges
                .iter()
                .flat_map(|(u, v)| [u.as_str(), v.as_str()]),
        );
        names
            .into_iter()
            .filter(|n| before.node_id(n).is_none())
            .count()
    };
    if after.domain().len() != p + 1 || after.domain().labels()[p] != label {
        return Err(format!("append {label}: domain did not grow by that label"));
    }
    let at = TimePoint(p as u32);
    if after.nodes_at(at) != patch.node_count() || after.edges_at(at) != patch.edges.len() {
        return Err(format!(
            "append {label}: new point has {} nodes / {} edges, patch {} / {}",
            after.nodes_at(at),
            after.edges_at(at),
            patch.node_count(),
            patch.edges.len()
        ));
    }
    if after.n_nodes() != before.n_nodes() + fresh {
        return Err(format!("append {label}: node total off"));
    }
    let want = format!(
        "snapshot {name} appended {label}: nodes={} edges={} timepoints={}",
        after.n_nodes(),
        after.n_edges(),
        p + 1
    );
    expect_eq("append", payload, &want)
}

/// Per group: St+Shr is its DIST count in 𝒯₁ and St+Gr its count in 𝒯₂;
/// every group present in either interval is listed.
fn check_evolution(
    g: &TemporalGraph,
    t1: Iv,
    t2: Iv,
    names: &[&str],
    payload: &str,
) -> Result<(), String> {
    let a = ids(g, names);
    let dist = |iv: Iv| -> BTreeMap<String, u64> {
        let agg = direct_aggregate(
            g,
            &a,
            AggMode::Distinct,
            &operator_masks(g, Some((SetOp::Union, iv, iv))),
        );
        agg.iter_nodes()
            .into_iter()
            .map(|(t, w)| (render_tuple(g, &a, t), w))
            .collect()
    };
    let (c1, c2) = (dist(t1), dist(t2));
    let mut listed = BTreeSet::new();
    for line in payload.lines() {
        let Some(rest) = line.strip_prefix("  node ") else {
            continue;
        };
        let (tuple, w) = rest.rsplit_once(": ").ok_or("evolution line")?;
        let num = |key: &str| -> Result<u64, String> {
            w.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("evolution line {line:?}"))
        };
        let (st, gr, shr) = (num("St=")?, num("Gr=")?, num("Shr=")?);
        let want1 = c1.get(tuple).copied().unwrap_or(0);
        let want2 = c2.get(tuple).copied().unwrap_or(0);
        if st + shr != want1 || st + gr != want2 {
            return Err(format!(
                "evolution group {tuple}: St+Shr={} (T1 count {want1}), St+Gr={} (T2 count {want2})",
                st + shr,
                st + gr
            ));
        }
        listed.insert(tuple.to_owned());
    }
    for t in c1.keys().chain(c2.keys()) {
        if !listed.contains(t) {
            return Err(format!("evolution group {t} missing"));
        }
    }
    if !payload.lines().any(|l| l.starts_with("  edges total: St=")) {
        return Err("evolution edge totals missing".into());
    }
    Ok(())
}

/// The library form of an explore request.
pub fn explore_config(
    g: &TemporalGraph,
    case: Case,
    attr: &str,
    sel: &Sel,
    k: u64,
) -> ExploreConfig {
    let a = g.schema().id(attr).expect("explore attribute");
    let cat = |l: &str| g.schema().category(a, l).expect("known label");
    let selector = match sel {
        Sel::AllEdges => Selector::AllEdges,
        Sel::AllNodes => Selector::AllNodes,
        Sel::Node(l) => Selector::NodeTuple(vec![cat(l)]),
        Sel::Edge(x, y) => Selector::EdgeTuple(vec![cat(x)], vec![cat(y)]),
    };
    ExploreConfig {
        event: case.event,
        extend: case.extend,
        semantics: case.semantics,
        k,
        attrs: vec![a],
        selector,
    }
}

/// Cross-checks the brute-force evaluator against the library's own
/// exhaustive baseline on one request.
pub fn cross_check_naive(g: &TemporalGraph, req: &Request) -> Result<(), String> {
    let Op::Explore { case, attr, sel, k } = &req.op else {
        return Ok(());
    };
    let cfg = explore_config(g, *case, attr, sel, *k);
    let naive = graphtempo::explore::explore_naive(g, &cfg).map_err(|e| e.to_string())?;
    let ev = Evaluator::new(g, attr);
    let mut want: Vec<String> = ev
        .qualifying(*case, sel, *k)
        .iter()
        .map(|&(p, r)| ev.pair_line(g, p, r))
        .collect();
    let mut got: Vec<String> = naive
        .pairs
        .iter()
        .map(|(p, r)| format!("  {} -> {r} events", p.display(g.domain())))
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    expect_eq(
        "evaluator vs explore_naive",
        &want.join("\n"),
        &got.join("\n"),
    )
}
