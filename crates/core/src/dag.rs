//! The DAG model for DTDs (paper Section 4.2, Figure 4).
//!
//! For each element `x`, `DAG_x` encodes the PV-normalized content model of
//! `x` as a directed acyclic graph whose nodes are *simple element nodes*,
//! *PCDATA nodes* and *star-group nodes*; edges connect each node to the
//! atoms that may follow it. Every root-to-sink path spells one production
//! alternative of `X̂ → r_X` — the finite-language property bought by
//! normalization (Corollary 3.1 + Proposition 1).
//!
//! As in the paper, one small DAG is stored **per element** rather than one
//! gigantic graph for the whole DTD ("the bigger graph might contain
//! multiple element graph copies"); the recognizer plugs element DAGs
//! together dynamically when it speculates about elided tags.

use pv_dtd::{Atom, DtdAnalysis, ElemId, GroupSet, NormCp, NormModel};

/// Index of a node within an [`ElementDag`].
pub type DagNodeId = u32;

/// Payload of a DAG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagNodeKind {
    /// A simple element node (element occurring outside any star-group).
    Simple(ElemId),
    /// A `#PCDATA` position (from `(#PCDATA)` content).
    Pcdata,
    /// A star-group node with its member set.
    Group(GroupSet),
}

/// One node of an element DAG.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// What the node matches.
    pub kind: DagNodeKind,
    /// Nodes that may follow this one (the paper's `children(n)`).
    pub succs: Vec<DagNodeId>,
}

/// The DAG of one element's content model.
#[derive(Debug, Clone)]
pub struct ElementDag {
    /// All nodes; edges only point to higher construction ranks, so the
    /// graph is acyclic by construction.
    pub nodes: Vec<DagNode>,
    /// Entry nodes (the paper's `children(root)`, Figure 5 line 8).
    pub starts: Vec<DagNodeId>,
    /// `true` for `ANY` content: every input symbol over declared elements
    /// is accepted without consulting the graph (paper Section 4: ECPV for
    /// ANY "presents no practical interest").
    pub is_any: bool,
    /// Transitive successor closure, row-major: `within[from · len + to]`
    /// is `true` iff `to` is reachable from `from` along `succs` edges
    /// (strictly — a node does not reach itself). The recognizer's
    /// speculation agenda uses it to recognize *dominated* elision
    /// requests: a fresh same-element speculation at a position reachable
    /// from an already-parked one adds no accepting run (every position
    /// in between is skippable), so it is pruned.
    within: Vec<bool>,
}

impl ElementDag {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the DAG has no nodes (EMPTY content).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with id `id`.
    #[inline]
    pub fn node(&self, id: DagNodeId) -> &DagNode {
        &self.nodes[id as usize]
    }

    /// `true` iff `to` is strictly reachable from `from` along successor
    /// edges (the precomputed transitive closure).
    #[inline]
    pub fn follows(&self, from: DagNodeId, to: DagNodeId) -> bool {
        self.within[from as usize * self.nodes.len() + to as usize]
    }

    fn build(model: &NormModel) -> ElementDag {
        match model {
            NormModel::Any => ElementDag {
                nodes: Vec::new(),
                starts: Vec::new(),
                is_any: true,
                within: Vec::new(),
            },
            NormModel::Expr(e) => {
                let mut nodes: Vec<DagNode> = Vec::new();
                let frag = lower(e, &mut nodes);
                // Wire internal follow edges; `starts` are the fragment's
                // entry nodes. Sinks simply have no successors.
                let n = nodes.len();
                let mut within = vec![false; n * n];
                // Edges point to higher ranks, so one reverse sweep closes
                // the relation: row(i) = union of succs and their rows.
                for i in (0..n).rev() {
                    for si in 0..nodes[i].succs.len() {
                        let s = nodes[i].succs[si] as usize;
                        within[i * n + s] = true;
                        for t in 0..n {
                            if within[s * n + t] {
                                within[i * n + t] = true;
                            }
                        }
                    }
                }
                ElementDag { nodes, starts: frag.starts, is_any: false, within }
            }
        }
    }
}

/// Intermediate result of lowering one normalized subexpression.
struct Frag {
    /// Nodes that can begin a match of the fragment.
    starts: Vec<DagNodeId>,
    /// Nodes whose completion ends the fragment.
    ends: Vec<DagNodeId>,
    /// `true` if the fragment can be crossed without visiting a node
    /// (empty sequence).
    pass: bool,
}

/// Glushkov-style lowering: returns the fragment interface and appends
/// nodes/edges into `nodes`.
fn lower(e: &NormCp, nodes: &mut Vec<DagNode>) -> Frag {
    match e {
        NormCp::Atom(a) => {
            let id = nodes.len() as DagNodeId;
            let kind = match a {
                Atom::Simple(x) => DagNodeKind::Simple(*x),
                Atom::Pcdata => DagNodeKind::Pcdata,
                Atom::Group(g) => DagNodeKind::Group(g.clone()),
            };
            nodes.push(DagNode { kind, succs: Vec::new() });
            Frag { starts: vec![id], ends: vec![id], pass: false }
        }
        NormCp::Seq(cs) => {
            let mut starts: Vec<DagNodeId> = Vec::new();
            let mut prefix_pass = true; // every fragment so far passable
            let mut open_ends: Vec<DagNodeId> = Vec::new(); // ends awaiting a successor
            for c in cs {
                let f = lower(c, nodes);
                // Connect all currently-open ends to this fragment's starts.
                for &end in &open_ends {
                    for &s in &f.starts {
                        if !nodes[end as usize].succs.contains(&s) {
                            nodes[end as usize].succs.push(s);
                        }
                    }
                }
                if prefix_pass {
                    starts.extend_from_slice(&f.starts);
                }
                if f.pass {
                    // Fragment can be crossed: previous ends stay open and
                    // this fragment's ends join them.
                    open_ends.extend_from_slice(&f.ends);
                } else {
                    open_ends = f.ends.clone();
                }
                prefix_pass &= f.pass;
            }
            Frag { starts, ends: open_ends, pass: prefix_pass }
        }
        NormCp::Choice(cs) => {
            let mut starts = Vec::new();
            let mut ends = Vec::new();
            let mut pass = false;
            for c in cs {
                let f = lower(c, nodes);
                starts.extend(f.starts);
                ends.extend(f.ends);
                pass |= f.pass;
            }
            Frag { starts, ends, pass }
        }
    }
}

/// All element DAGs of a compiled DTD, indexed by [`ElemId`], plus the
/// *minimal elision distance* table used to gate speculation.
#[derive(Debug, Clone)]
pub struct DagSet {
    dags: Vec<ElementDag>,
    /// Total node count over all DAGs — the `O(k)` size witness.
    pub total_nodes: usize,
    /// `md[y][x]`: the minimal number of *additional* elided elements a
    /// fresh recognizer for `y` needs before it can absorb symbol `x`
    /// (`0` = directly: a star-group/equality/PCDATA match inside `DAG_y`;
    /// `u32::MAX` = never, i.e. `x` is unreachable from `y`). Row width is
    /// `m + 1`; column `m` is the σ/PCDATA symbol.
    ///
    /// Without this table, the recognizer's speculation step (Figure 5
    /// line 25) probes every simple node recursively — `O(k^D)` per symbol
    /// on densely recursive DTDs. Gating on `md(y, x) < depth` answers
    /// exactly the same accept/reject question for *fresh* nested
    /// recognizers in O(1), restoring Theorem 4's `O(k·D)` per symbol.
    probe: Vec<u32>,
    /// Per element, row-major `node · (m + 1) + x`: what a skip cascade
    /// from `node` could still reach for symbol `x` — [`HINT_NONE`] (no
    /// position in the forward closure reacts to `x` at all),
    /// [`HINT_MANY`] (several reaction kinds / elements), or the index of
    /// the single element whose elision requests are the *only* reaction.
    /// The recognizer uses it to cut cascades that provably cannot add
    /// work: long optional chains (`(t?, t?, …)`) would otherwise be
    /// walked end-to-end for every symbol.
    hints: Vec<Vec<u32>>,
    m: usize,
}

/// [`DagSet`] cascade-hint sentinel: nothing in the closure reacts.
const HINT_NONE: u32 = u32::MAX;
/// [`DagSet`] cascade-hint sentinel: more than one kind of reaction.
const HINT_MANY: u32 = u32::MAX - 1;

/// Joins two hint values (commutative, associative, `HINT_NONE` neutral).
fn hint_join(a: u32, b: u32) -> u32 {
    match (a, b) {
        (HINT_NONE, v) | (v, HINT_NONE) => v,
        (a, b) if a == b => a,
        _ => HINT_MANY,
    }
}

impl DagSet {
    /// Builds all per-element DAGs from a compiled DTD.
    pub fn new(analysis: &DtdAnalysis) -> Self {
        let dags: Vec<ElementDag> =
            analysis.norm.models.iter().map(ElementDag::build).collect();
        let total_nodes = dags.iter().map(|d| d.len()).sum();
        let m = dags.len();
        let probe = build_probe_table(analysis, &dags);
        let hints = build_cascade_hints(analysis, &dags, &probe, m);
        DagSet { dags, total_nodes, probe, hints, m }
    }

    /// The DAG for element `x`.
    #[inline]
    pub fn dag(&self, x: ElemId) -> &ElementDag {
        &self.dags[x.index()]
    }

    /// Minimal extra elisions for a fresh `y`-recognizer to absorb an
    /// element symbol `x` (`u32::MAX` = impossible).
    #[inline]
    pub fn min_elisions(&self, y: ElemId, x: ElemId) -> u32 {
        self.probe[y.index() * (self.m + 1) + x.index()]
    }

    /// Same, for the σ symbol.
    #[inline]
    pub fn min_elisions_sigma(&self, y: ElemId) -> u32 {
        self.probe[y.index() * (self.m + 1) + self.m]
    }

    /// `true` iff a same-symbol skip cascade from `node` in `DAG_y` is
    /// provably fruitless: no position in `node`'s forward closure reacts
    /// to `x` — or the only reactions are elision requests for
    /// `dominator`, all of which sit downstream of an already-parked
    /// request for that element and would be pruned as dominated anyway.
    #[inline]
    pub fn cascade_dead(
        &self,
        y: ElemId,
        node: DagNodeId,
        x: u32,
        dominator: Option<ElemId>,
    ) -> bool {
        let hint = self.hints[y.index()][node as usize * (self.m + 1) + x as usize];
        hint == HINT_NONE || dominator.is_some_and(|d| hint == d.index() as u32)
    }

    /// Column index of an element symbol in the md/hint tables.
    #[inline]
    pub fn col_of_elem(&self, e: ElemId) -> u32 {
        e.index() as u32
    }

    /// Column index of the σ symbol in the md/hint tables.
    #[inline]
    pub fn col_sigma(&self) -> u32 {
        self.m as u32
    }
}

/// Builds the per-element cascade-hint tables: for every DAG node and
/// symbol, join the *self-reactions* of every node in the forward closure.
/// A node self-reacts to `x` as `HINT_MANY` when it can match without a
/// fresh elision (matching star-group, PCDATA on σ, equality element) and
/// as its element index when only `md`-gated elision could react; the
/// depth gate is ignored here, which only errs toward keeping a cascade.
fn build_cascade_hints(
    analysis: &DtdAnalysis,
    dags: &[ElementDag],
    probe: &[u32],
    m: usize,
) -> Vec<Vec<u32>> {
    let cols = m + 1;
    let reach = &analysis.reach;
    let self_react = |node: &DagNode, x: usize| -> u32 {
        match &node.kind {
            DagNodeKind::Pcdata => {
                if x == m {
                    HINT_MANY
                } else {
                    HINT_NONE
                }
            }
            DagNodeKind::Group(g) => {
                let matches = if x == m {
                    g.pcdata || g.elems.iter().any(|&w| reach.reaches_pcdata(w))
                } else {
                    let xe = ElemId(x as u32);
                    g.contains(xe) || g.elems.iter().any(|&w| reach.reaches(w, xe))
                };
                if matches {
                    HINT_MANY
                } else {
                    HINT_NONE
                }
            }
            DagNodeKind::Simple(z) => {
                if x == z.index() {
                    // Equality is a cost-0 reaction: always live.
                    HINT_MANY
                } else if probe[z.index() * cols + x] != u32::MAX {
                    z.index() as u32
                } else {
                    HINT_NONE
                }
            }
        }
    };
    dags.iter()
        .map(|dag| {
            let n = dag.len();
            let mut hints = vec![HINT_NONE; n * cols];
            // Edges point to higher ranks: one reverse sweep closes the
            // join over each node's successors and their closures.
            for i in (0..n).rev() {
                for x in 0..cols {
                    let mut h = HINT_NONE;
                    for &s in &dag.nodes[i].succs {
                        h = hint_join(h, self_react(&dag.nodes[s as usize], x));
                        h = hint_join(h, hints[s as usize * cols + x]);
                    }
                    hints[i * cols + x] = h;
                }
            }
            hints
        })
        .collect()
}

/// Builds the minimal-elision-distance table by Bellman–Ford-style
/// relaxation over the DTD's strong edges
/// ([`pv_dtd::RecursionInfo::strong_edges`]).
fn build_probe_table(analysis: &DtdAnalysis, dags: &[ElementDag]) -> Vec<u32> {
    let m = dags.len();
    let cols = m + 1;
    let mut md = vec![u32::MAX; m * cols];
    let reach = &analysis.reach;

    // Base distances: DAG_y can absorb x with zero further elisions.
    for (y, dag) in dags.iter().enumerate() {
        if dag.is_any {
            // ANY absorbs every declared symbol and σ.
            for x in 0..cols {
                md[y * cols + x] = 0;
            }
            continue;
        }
        for node in &dag.nodes {
            match &node.kind {
                DagNodeKind::Pcdata => md[y * cols + m] = 0,
                DagNodeKind::Simple(z) => md[y * cols + z.index()] = 0,
                DagNodeKind::Group(g) => {
                    // Proposition 2: membership or reachability.
                    for x in 0..m {
                        let xe = ElemId(x as u32);
                        if g.contains(xe) || g.elems.iter().any(|&w| reach.reaches(w, xe)) {
                            md[y * cols + x] = 0;
                        }
                    }
                    if g.pcdata || g.elems.iter().any(|&w| reach.reaches_pcdata(w)) {
                        md[y * cols + m] = 0;
                    }
                }
            }
        }
    }

    // Relax until fixpoint: md[y][x] ≤ 1 + md[z][x] for strong y → z
    // (z a simple node of DAG_y). In bottom-up order one pass settles an
    // acyclic strong graph; strong cycles take a pass per extra step.
    let rec = &analysis.rec;
    let mut changed = true;
    while changed {
        changed = false;
        for &y in rec.bottom_up() {
            for z in rec.strong_edges(y) {
                let (y, z) = (y.index(), z.index());
                for x in 0..cols {
                    let via = md[z * cols + x].saturating_add(1);
                    if via < md[y * cols + x] {
                        md[y * cols + x] = via;
                        changed = true;
                    }
                }
            }
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;
    use pv_dtd::DtdAnalysis;

    fn dag_for(src: &str, root: &str, elem: &str) -> (DtdAnalysis, DagSet, ElemId) {
        let a = DtdAnalysis::parse(src, root).unwrap();
        let id = a.id(elem).unwrap();
        let dags = DagSet::new(&a);
        (a, dags, id)
    }

    /// Renders node labels for readable assertions.
    fn label(a: &DtdAnalysis, n: &DagNode) -> String {
        match &n.kind {
            DagNodeKind::Simple(x) => a.name(*x).to_owned(),
            DagNodeKind::Pcdata => "#PCDATA".to_owned(),
            DagNodeKind::Group(g) => {
                let mut parts: Vec<&str> = g.elems.iter().map(|e| a.name(*e)).collect();
                if g.pcdata {
                    parts.insert(0, "#PCDATA");
                }
                format!("[{}]", parts.join(","))
            }
        }
    }

    #[test]
    fn figure4_dag_of_a() {
        // Paper Figure 4: DAG_a has paths a→b→c→d and a→b→f→d
        // (after Cor 3.1 the b? is plain b).
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        let a = analysis.id("a").unwrap();
        let dag = dags.dag(a);
        assert_eq!(dag.len(), 4); // b, c, f, d
        assert_eq!(dag.starts.len(), 1);
        let b = dag.node(dag.starts[0]);
        assert_eq!(label(&analysis, b), "b");
        // b's successors: c and f.
        let mut succ_labels: Vec<String> =
            b.succs.iter().map(|&s| label(&analysis, dag.node(s))).collect();
        succ_labels.sort();
        assert_eq!(succ_labels, ["c", "f"]);
        // c and f both continue to d, which is a sink.
        for &s in &b.succs {
            let n = dag.node(s);
            assert_eq!(n.succs.len(), 1);
            let d = dag.node(n.succs[0]);
            assert_eq!(label(&analysis, d), "d");
            assert!(d.succs.is_empty());
        }
    }

    #[test]
    fn figure4_dag_of_d() {
        // DAG_d is a single star-group node [#PCDATA, e].
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        let d = analysis.id("d").unwrap();
        let dag = dags.dag(d);
        assert_eq!(dag.len(), 1);
        assert_eq!(label(&analysis, dag.node(0)), "[#PCDATA,e]");
        assert!(dag.node(0).succs.is_empty());
    }

    #[test]
    fn empty_content_has_empty_dag() {
        let (_, dags, e) = dag_for("<!ELEMENT e EMPTY>", "e", "e");
        let dag = dags.dag(e);
        assert!(dag.is_empty());
        assert!(dag.starts.is_empty());
        assert!(!dag.is_any);
    }

    #[test]
    fn any_content_is_flagged() {
        let (_, dags, x) = dag_for("<!ELEMENT x ANY><!ELEMENT y EMPTY>", "x", "x");
        assert!(dags.dag(x).is_any);
    }

    #[test]
    fn optional_middle_skips() {
        // x → (a, b?, c): after normalization (a, b, c), but nodes chain
        // a→b→c; skipping happens at match time, not in the graph.
        let (a, dags, x) = dag_for(
            "<!ELEMENT x (a, b?, c)><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
            "x",
            "x",
        );
        let dag = dags.dag(x);
        assert_eq!(dag.len(), 3);
        let first = dag.node(dag.starts[0]);
        assert_eq!(label(&a, first), "a");
        assert_eq!(first.succs.len(), 1);
    }

    #[test]
    fn leading_star_chains_to_follower() {
        // x → (a*, b): the group [a] is the single entry node; skipping it
        // to reach b happens at match time (atoms are never pass-through —
        // Theorem 3 makes every position skippable anyway).
        let (an, dags, x) =
            dag_for("<!ELEMENT x (a*, b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>", "x", "x");
        let dag = dags.dag(x);
        assert_eq!(dag.starts.len(), 1);
        let g = dag.node(dag.starts[0]);
        assert_eq!(label(&an, g), "[a]");
        assert_eq!(g.succs.iter().map(|&s| label(&an, dag.node(s))).collect::<Vec<_>>(), ["b"]);
    }

    #[test]
    fn choice_fans_out() {
        let (an, dags, x) = dag_for(
            "<!ELEMENT x ((a | b), c)><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
            "x",
            "x",
        );
        let dag = dags.dag(x);
        assert_eq!(dag.starts.len(), 2);
        for &s in &dag.starts {
            assert_eq!(
                dag.node(s).succs.iter().map(|&t| label(&an, dag.node(t))).collect::<Vec<_>>(),
                ["c"]
            );
        }
    }

    #[test]
    fn trailing_pass_through_chains() {
        // x → (a, (b | c*)): c* passes, so a's successors include both the
        // b node and the [c] group; both are sinks.
        let (an, dags, x) = dag_for(
            "<!ELEMENT x (a, (b | c*))><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
            "x",
            "x",
        );
        let dag = dags.dag(x);
        let a_node = dag.node(dag.starts[0]);
        let mut labels: Vec<String> =
            a_node.succs.iter().map(|&s| label(&an, dag.node(s))).collect();
        labels.sort();
        assert_eq!(labels, ["[c]", "b"]);
    }

    #[test]
    fn pcdata_node_built() {
        let (an, dags, x) = dag_for("<!ELEMENT x (#PCDATA)>", "x", "x");
        let dag = dags.dag(x);
        assert_eq!(dag.len(), 1);
        assert_eq!(label(&an, dag.node(0)), "#PCDATA");
    }

    #[test]
    fn dag_is_acyclic_for_all_builtins() {
        for b in BuiltinDtd::ALL {
            let analysis = b.analysis();
            let dags = DagSet::new(&analysis);
            for x in analysis.dtd.ids() {
                let dag = dags.dag(x);
                // Edges must always point to later construction ranks.
                for (i, n) in dag.nodes.iter().enumerate() {
                    for &s in &n.succs {
                        assert!(
                            (s as usize) > i,
                            "{}: DAG_{} has back edge {} -> {}",
                            b.name(),
                            analysis.name(x),
                            i,
                            s
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn probe_table_minimal_elisions_figure1() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        let id = |n: &str| analysis.id(n).unwrap();
        // A fresh recognizer for r absorbs any a immediately: the (a+)
        // star-group is a base match.
        assert_eq!(dags.min_elisions(id("r"), id("a")), 0);
        // …and e too (groups match by reachability, Proposition 2).
        assert_eq!(dags.min_elisions(id("r"), id("e")), 0);
        // b's DAG has simple nodes d and f: equality base for d…
        assert_eq!(dags.min_elisions(id("b"), id("d")), 0);
        // …and e needs one elision (inside d or f).
        assert_eq!(dags.min_elisions(id("b"), id("e")), 1);
        // σ inside b: one elision (d or f→c).
        assert_eq!(dags.min_elisions_sigma(id("b")), 1);
        // e is EMPTY: absorbs nothing, ever.
        assert_eq!(dags.min_elisions(id("e"), id("d")), u32::MAX);
        assert_eq!(dags.min_elisions_sigma(id("e")), u32::MAX);
        // c is PCDATA-only: σ yes (base), elements never.
        assert_eq!(dags.min_elisions_sigma(id("c")), 0);
        assert_eq!(dags.min_elisions(id("c"), id("e")), u32::MAX);
    }

    #[test]
    fn probe_table_strong_recursion_t2() {
        // T2: a → ((a|b), b). A fresh a-recognizer absorbs b directly
        // (equality base) and a directly too.
        let analysis = BuiltinDtd::T2.analysis();
        let dags = DagSet::new(&analysis);
        let a = analysis.id("a").unwrap();
        let b = analysis.id("b").unwrap();
        assert_eq!(dags.min_elisions(a, b), 0);
        assert_eq!(dags.min_elisions(a, a), 0);
        // b is EMPTY.
        assert_eq!(dags.min_elisions(b, a), u32::MAX);
    }

    #[test]
    fn probe_table_any_absorbs_everything() {
        let analysis =
            DtdAnalysis::parse("<!ELEMENT x ANY><!ELEMENT q EMPTY>", "x").unwrap();
        let dags = DagSet::new(&analysis);
        let x = analysis.id("x").unwrap();
        let q = analysis.id("q").unwrap();
        assert_eq!(dags.min_elisions(x, q), 0);
        assert_eq!(dags.min_elisions_sigma(x), 0);
    }

    #[test]
    fn probe_table_chain_distances() {
        // r → (a), a → (b), b → (#PCDATA): σ needs 2 elisions from r.
        let analysis = DtdAnalysis::parse(
            "<!ELEMENT r (a)><!ELEMENT a (b)><!ELEMENT b (#PCDATA)>",
            "r",
        )
        .unwrap();
        let dags = DagSet::new(&analysis);
        let id = |n: &str| analysis.id(n).unwrap();
        assert_eq!(dags.min_elisions_sigma(id("b")), 0);
        assert_eq!(dags.min_elisions_sigma(id("a")), 1);
        assert_eq!(dags.min_elisions_sigma(id("r")), 2);
        assert_eq!(dags.min_elisions(id("r"), id("b")), 1);
        assert_eq!(dags.min_elisions(id("r"), id("a")), 0);
    }

    #[test]
    fn total_nodes_counts_all() {
        let analysis = BuiltinDtd::Figure1.analysis();
        let dags = DagSet::new(&analysis);
        // r:[a]=1, a:4, b:2, c:1, d:1, e:0, f:2 — 11 nodes.
        assert_eq!(dags.total_nodes, 11);
    }
}
