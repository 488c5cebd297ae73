//! Recursion classification of DTDs (Definitions 6–8).
//!
//! * A *recursive element* admits a derivation `X ⇒* X` in `G'` — by
//!   Proposition 2 this is exactly a cycle through `x` in `R_T`.
//! * A *PV-strong recursive element* admits such a derivation where every
//!   employed production corresponds to a **non-star-group** occurrence —
//!   a cycle in the subgraph of `R_T` restricted to *strong edges*
//!   (occurrences of `y` in the normalized `r_x` as a [`Atom::Simple`]).
//! * A DTD is *PV-strong recursive* if it has at least one PV-strong
//!   recursive element, *PV-weak recursive* if recursive but not strong,
//!   and *non-recursive* otherwise.
//!
//! The distinction drives the recognizer's depth policy: nested-recognizer
//! chains (paper Figure 5, line 25) follow strong edges only, so for
//! non-PV-strong DTDs they are bounded by the longest path in the strong
//! edge DAG ([`RecursionInfo::strong_chain_bound`]) and no depth cap is
//! needed; PV-strong DTDs require the paper's explicit bound `D`
//! (Example 5 / Figure 7 shows the loop otherwise).

use crate::ast::{Dtd, ElemId};
use crate::normalize::{Atom, NormModel, NormalizedDtd};
use crate::reach::Reachability;

/// Overall DTD class (Definitions 6–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtdClass {
    /// No recursive elements at all.
    NonRecursive,
    /// Recursive, but only through star-groups.
    PvWeakRecursive,
    /// At least one PV-strong recursive element.
    PvStrongRecursive,
}

impl std::fmt::Display for DtdClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DtdClass::NonRecursive => "non-recursive",
            DtdClass::PvWeakRecursive => "PV-weak recursive",
            DtdClass::PvStrongRecursive => "PV-strong recursive",
        })
    }
}

/// Per-element recursion facts plus the overall class, and the
/// strong-edge graph they are decided on.
#[derive(Debug, Clone)]
pub struct RecursionInfo {
    /// `recursive[i]`: element `i` is recursive (Definition 6).
    pub recursive: Vec<bool>,
    /// `strong[i]`: element `i` is PV-strong recursive (Definition 7).
    pub strong: Vec<bool>,
    /// The DTD class.
    pub class: DtdClass,
    /// Longest nested-recognizer chain possible through strong edges, or
    /// `None` when unbounded (PV-strong DTDs). A chain bound of `c` means a
    /// recognizer never nests more than `c` levels via elision, so the
    /// automatic depth policy needs no limit.
    strong_chain: Option<usize>,
    /// Strong edges, flat: `x`'s targets are
    /// `edge_to[edge_start[x]..edge_start[x + 1]]`.
    edge_start: Vec<usize>,
    edge_to: Vec<ElemId>,
    /// Every element, in the order Tarjan's pass closes them.
    bottom_up: Vec<ElemId>,
}

impl RecursionInfo {
    /// Classifies `dtd` given its normalization and reachability.
    pub fn new(dtd: &Dtd, norm: &NormalizedDtd, reach: &Reachability) -> Self {
        let m = dtd.len();

        // Strong edges: x → y for each Simple atom y of norm(r_x).
        let mut edge_start = Vec::with_capacity(m + 1);
        let mut edge_to = Vec::new();
        let mut atoms = Vec::new();
        for model in &norm.models {
            edge_start.push(edge_to.len());
            if let NormModel::Expr(e) = model {
                atoms.clear();
                e.atoms(&mut atoms);
                edge_to.extend(atoms.iter().filter_map(|a| match a {
                    Atom::Simple(y) => Some(*y),
                    _ => None,
                }));
            }
        }
        edge_start.push(edge_to.len());

        // Recursive elements: cycles of R_T (closure already computed).
        let recursive: Vec<bool> = (0..m).map(|i| reach.self_reachable(ElemId(i as u32))).collect();

        let mut info = RecursionInfo {
            recursive,
            strong: Vec::new(),
            class: DtdClass::NonRecursive,
            strong_chain: None,
            edge_start,
            edge_to,
            bottom_up: Vec::with_capacity(m),
        };
        // PV-strong recursive: vertices on cycles of the strong-edge graph.
        info.strong = info.tarjan();
        info.class = if info.strong.iter().any(|&b| b) {
            DtdClass::PvStrongRecursive
        } else if info.recursive.iter().any(|&b| b) {
            DtdClass::PvWeakRecursive
        } else {
            DtdClass::NonRecursive
        };
        if info.class != DtdClass::PvStrongRecursive {
            // Longest path in edges: the graph is acyclic, so bottom-up
            // order settles every target before its sources.
            let mut longest = vec![0usize; m];
            for &x in &info.bottom_up {
                longest[x.index()] =
                    info.strong_edges(x).iter().map(|z| longest[z.index()] + 1).max().unwrap_or(0);
            }
            info.strong_chain = Some(longest.into_iter().max().unwrap_or(0));
        }
        info
    }

    /// See type docs: `Some(bound)` when elision chains are finite.
    #[inline]
    pub fn strong_chain_bound(&self) -> Option<usize> {
        self.strong_chain
    }

    /// `true` if element `x` is recursive.
    #[inline]
    pub fn is_recursive(&self, x: ElemId) -> bool {
        self.recursive[x.index()]
    }

    /// `true` if element `x` is PV-strong recursive.
    #[inline]
    pub fn is_strong(&self, x: ElemId) -> bool {
        self.strong[x.index()]
    }

    /// The targets of `x`'s strong edges (Definition 7): one per
    /// [`Atom::Simple`] occurrence in the normalized `r_x`, in model
    /// order, repeats kept.
    #[inline]
    pub fn strong_edges(&self, x: ElemId) -> &[ElemId] {
        &self.edge_to[self.edge_start[x.index()]..self.edge_start[x.index() + 1]]
    }

    /// Every element, each after every element its strong edges reach
    /// outside its own strongly connected component (Tarjan's closing
    /// order). On an acyclic strong graph (any DTD that is not PV-strong
    /// recursive) one pass in this order sees every edge target first.
    #[inline]
    pub fn bottom_up(&self) -> &[ElemId] {
        &self.bottom_up
    }

    /// Tarjan SCC over the strong edges: fills `bottom_up` and marks the
    /// vertices lying on a cycle (self-loops included). Iterative, with
    /// an explicit call stack, to survive deep DTD graphs.
    fn tarjan(&mut self) -> Vec<bool> {
        let n = self.edge_start.len() - 1;
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut result = vec![false; n];
        // (vertex, next edge to follow)
        let mut call: Vec<(usize, usize)> = Vec::new();
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            call.push((start, self.edge_start[start]));
            index[start] = next_index;
            lowlink[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;

            while let Some(frame) = call.last_mut() {
                let v = frame.0;
                if frame.1 < self.edge_start[v + 1] {
                    let w = self.edge_to[frame.1].index();
                    frame.1 += 1;
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push((w, self.edge_start[w]));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                    continue;
                }
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] != index[v] {
                    continue;
                }
                // v roots a component: pop it, in closing order.
                let first = self.bottom_up.len();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    self.bottom_up.push(ElemId(w as u32));
                    if w == v {
                        break;
                    }
                }
                let vid = ElemId(v as u32);
                if self.bottom_up.len() - first > 1 || self.strong_edges(vid).contains(&vid) {
                    for w in &self.bottom_up[first..] {
                        result[w.index()] = true;
                    }
                }
            }
        }
        result
    }
}

/// Convenience: classify straight from a [`Dtd`].
pub fn classify(dtd: &Dtd) -> RecursionInfo {
    let norm = crate::normalize::normalize(dtd);
    let reach = Reachability::new(dtd);
    RecursionInfo::new(dtd, &norm, &reach)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Dtd;

    fn class_of(src: &str) -> DtdClass {
        classify(&Dtd::parse(src).unwrap()).class
    }

    #[test]
    fn figure1_is_non_recursive() {
        let src = "
            <!ELEMENT r (a+)><!ELEMENT a (b?, (c | f), d)><!ELEMENT b (d | f)>
            <!ELEMENT c #PCDATA><!ELEMENT d (#PCDATA | e)*>
            <!ELEMENT e EMPTY><!ELEMENT f (c, e)>";
        assert_eq!(class_of(src), DtdClass::NonRecursive);
    }

    #[test]
    fn paper_t1_is_pv_strong() {
        // Example 5: a → (a | b*) — `a` occurs outside any star-group.
        let info = classify(&Dtd::parse("<!ELEMENT a (a | b*)><!ELEMENT b EMPTY>").unwrap());
        assert_eq!(info.class, DtdClass::PvStrongRecursive);
        assert!(info.is_strong(ElemId(0)));
        assert!(info.is_recursive(ElemId(0)));
        assert!(!info.is_recursive(ElemId(1)));
        assert_eq!(info.strong_chain_bound(), None);
    }

    #[test]
    fn paper_t2_is_pv_strong() {
        // Example 6: a → ((a | b), b).
        assert_eq!(
            class_of("<!ELEMENT a ((a | b), b)><!ELEMENT b EMPTY>"),
            DtdClass::PvStrongRecursive
        );
    }

    #[test]
    fn paper_strong_example_from_definition7() {
        // <!ELEMENT a ((a | c), b*)> — the paper's "trivial example".
        assert_eq!(
            class_of("<!ELEMENT a ((a | c), b*)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"),
            DtdClass::PvStrongRecursive
        );
    }

    #[test]
    fn star_recursion_is_weak() {
        // a recurses only through the star-group (a)*.
        let info = classify(&Dtd::parse("<!ELEMENT a (b, a*)><!ELEMENT b EMPTY>").unwrap());
        assert_eq!(info.class, DtdClass::PvWeakRecursive);
        assert!(info.is_recursive(ElemId(0)));
        assert!(!info.is_strong(ElemId(0)));
        assert!(info.strong_chain_bound().is_some());
    }

    #[test]
    fn xhtml_style_inline_nesting_is_weak() {
        // <b> and <i> nest freely via starred mixed content — the paper's
        // introduction example of benign recursion.
        let src = "
            <!ELEMENT p (#PCDATA | b | i)*>
            <!ELEMENT b (#PCDATA | b | i)*>
            <!ELEMENT i (#PCDATA | b | i)*>";
        assert_eq!(class_of(src), DtdClass::PvWeakRecursive);
    }

    #[test]
    fn mutual_strong_recursion() {
        let src = "<!ELEMENT a (b?)><!ELEMENT b (a?)>";
        let info = classify(&Dtd::parse(src).unwrap());
        assert_eq!(info.class, DtdClass::PvStrongRecursive);
        assert!(info.is_strong(ElemId(0)));
        assert!(info.is_strong(ElemId(1)));
    }

    #[test]
    fn mixed_weak_and_strong() {
        // x strong-recursive; y weak (through star only).
        let src = "<!ELEMENT x (x?, y)><!ELEMENT y (y*)>";
        let info = classify(&Dtd::parse(src).unwrap());
        assert_eq!(info.class, DtdClass::PvStrongRecursive);
        assert!(info.is_strong(ElemId(0)));
        assert!(!info.is_strong(ElemId(1)));
        assert!(info.is_recursive(ElemId(1)));
    }

    #[test]
    fn strong_chain_bound_counts_longest_elision_chain() {
        // r → a → b → c (all simple): chain of 3 strong edges.
        let src = "<!ELEMENT r (a)><!ELEMENT a (b)><!ELEMENT b (c)><!ELEMENT c EMPTY>";
        let info = classify(&Dtd::parse(src).unwrap());
        assert_eq!(info.class, DtdClass::NonRecursive);
        assert_eq!(info.strong_chain_bound(), Some(3));
    }

    #[test]
    fn any_content_produces_no_strong_edges() {
        let src = "<!ELEMENT a ANY><!ELEMENT b (a)>";
        let info = classify(&Dtd::parse(src).unwrap());
        // a ANY-contains itself, but only weakly.
        assert_eq!(info.class, DtdClass::PvWeakRecursive);
    }

    #[test]
    fn strong_edges_keep_model_order_and_repeats() {
        // r → (b, a, b?, c*): Simple b, a, b in model order; c* is a
        // star-group and adds no strong edge.
        let src = "<!ELEMENT r (b, a, b?, c*)><!ELEMENT a (b)><!ELEMENT b EMPTY>
                   <!ELEMENT c EMPTY>";
        let dtd = Dtd::parse(src).unwrap();
        let info = classify(&dtd);
        let id = |n| dtd.id(n).unwrap();
        assert_eq!(info.strong_edges(id("r")), [id("b"), id("a"), id("b")]);
        assert_eq!(info.strong_edges(id("a")), [id("b")]);
        assert!(info.strong_edges(id("c")).is_empty());
        // Bottom-up: each element after every target of its strong edges.
        let pos = |x: ElemId| info.bottom_up().iter().position(|&y| y == x).unwrap();
        assert_eq!(info.bottom_up().len(), 4);
        for x in dtd.ids() {
            for &z in info.strong_edges(x) {
                assert!(pos(z) < pos(x), "{} before {}", dtd.name(z), dtd.name(x));
            }
        }
    }

    #[test]
    fn empty_dtd_classifies() {
        let info = classify(&Dtd::parse("").unwrap());
        assert_eq!(info.class, DtdClass::NonRecursive);
        assert_eq!(info.strong_chain_bound(), Some(0));
    }
}
