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

/// Per-element recursion facts plus the overall class.
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
}

impl RecursionInfo {
    /// Classifies `dtd` given its normalization and reachability.
    pub fn new(dtd: &Dtd, norm: &NormalizedDtd, reach: &Reachability) -> Self {
        let m = dtd.len();

        // Strong edges: x → y when y occurs as a Simple atom in norm(r_x).
        let mut strong_adj: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (x, row) in strong_adj.iter_mut().enumerate() {
            if let NormModel::Expr(e) = &norm.models[x] {
                let mut atoms = Vec::new();
                e.atoms(&mut atoms);
                for a in atoms {
                    if let Atom::Simple(y) = a {
                        row.push(y.index());
                    }
                }
                row.sort_unstable();
                row.dedup();
            }
        }

        // Recursive elements: cycles of R_T (closure already computed).
        let recursive: Vec<bool> =
            (0..m).map(|i| reach.self_reachable(ElemId(i as u32))).collect();

        // PV-strong recursive: vertices on cycles of the strong-edge graph.
        let strong = on_cycle(&strong_adj);

        let class = if strong.iter().any(|&b| b) {
            DtdClass::PvStrongRecursive
        } else if recursive.iter().any(|&b| b) {
            DtdClass::PvWeakRecursive
        } else {
            DtdClass::NonRecursive
        };

        let strong_chain = if class == DtdClass::PvStrongRecursive {
            None
        } else {
            Some(longest_path(&strong_adj))
        };

        RecursionInfo { recursive, strong, class, strong_chain }
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
}

/// Marks vertices lying on a cycle (including self-loops) via Tarjan SCC.
fn on_cycle(adj: &[Vec<usize>]) -> Vec<bool> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut result = vec![false; n];

    // Iterative Tarjan (explicit call stack) to survive deep DTD graphs.
    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        child: usize,
    }
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame { v: start, child: 0 }];
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(frame) = call.last_mut() {
            let v = frame.v;
            if frame.child < adj[v].len() {
                let w = adj[v][frame.child];
                frame.child += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push(Frame { v: w, child: 0 });
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // Root check & pop.
                if lowlink[v] == index[v] {
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let cyclic =
                        members.len() > 1 || adj[v].contains(&v) /* self-loop */;
                    if cyclic {
                        for w in members {
                            result[w] = true;
                        }
                    }
                }
                let finished = call.pop().expect("frame");
                if let Some(parent) = call.last() {
                    lowlink[parent.v] = lowlink[parent.v].min(lowlink[finished.v]);
                }
            }
        }
    }
    result
}

/// Longest path (in edges) of a DAG given by `adj`; assumes acyclicity
/// (callers only use it on cycle-free strong graphs).
fn longest_path(adj: &[Vec<usize>]) -> usize {
    let n = adj.len();
    let mut memo = vec![usize::MAX; n];
    let mut best = 0usize;
    for start in 0..n {
        // Iterative DFS with memoization.
        let mut stack = vec![(start, 0usize)];
        while let Some(&(v, child)) = stack.last() {
            if memo[v] != usize::MAX {
                stack.pop();
                continue;
            }
            if child < adj[v].len() {
                stack.last_mut().unwrap().1 += 1;
                let w = adj[v][child];
                if memo[w] == usize::MAX {
                    stack.push((w, 0));
                }
            } else {
                let longest =
                    adj[v].iter().map(|&w| memo[w] + 1).max().unwrap_or(0);
                memo[v] = longest;
                best = best.max(longest);
                stack.pop();
            }
        }
    }
    best
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
    fn empty_dtd_classifies() {
        let info = classify(&Dtd::parse("").unwrap());
        assert_eq!(info.class, DtdClass::NonRecursive);
        assert_eq!(info.strong_chain_bound(), Some(0));
    }
}
