//! Static speculation-budget certification.
//!
//! The recognizer caps each symbol's speculation round at
//! [`full_budget`]`(m) = max(32, (m+1)²)` parked requests — a runtime
//! over-approximation whose sufficiency is only visible *after* a run,
//! through the `specs_denied` counter. This pass proves sufficiency **per
//! DTD, before any document arrives**, the way IC3-style certificates
//! prove properties from a statically built over-approximation instead of
//! exhaustive exploration.
//!
//! ## The bound
//!
//! A speculation round for symbol `x` parks one request per live
//! elision-lattice hypothesis. Hypotheses are nested-recognizer chains,
//! and chains follow **strong edges** only: `y → z` when `z` occurs as an
//! [`Atom::Simple`](crate::Atom::Simple) in the normalized model `r_y` (star-group members
//! never elide — skipping a star-group is free). For a DTD that is not
//! PV-strong recursive the strong-edge graph is **acyclic**, so the
//! closure
//!
//! ```text
//! C(y) = Σ over Simple occurrences z in norm(r_y) of (1 + C(z))
//! ```
//!
//! is well defined and counts every node of `y`'s unrolled elision tree,
//! occurrence multiplicity included:
//! [`strong_edges`](crate::RecursionInfo::strong_edges) keeps one edge
//! per occurrence, and one pass in
//! [`bottom_up`](crate::RecursionInfo::bottom_up) order computes every
//! `C`. Each generation of the agenda holds each DAG position of each
//! live recognizer at most once (the `cur` set is a bitmap), so the
//! parks opened in one round are at most
//!
//! ```text
//! B_static = (m+1) + 2 · Σ over elements y of Σ over occurrences z (1 + C(z))
//!          = (m+1) + 2 · Σ over elements y of C(y)
//! ```
//!
//! — the `(m+1)` term covering the root-level recognizer's own positions
//! and the factor 2 covering the speculative/committed double-tracking of
//! each chain. If `B_static ≤ full_budget(m)` the DTD is **certified**:
//! the default budget every checker runs with is provably never used up,
//! so `specs_denied == 0` on every document at any depth. The certificate
//! is a static proof, not a runtime knob — checks run the full default
//! whether or not it exists. A DTD whose static bound exceeds the runtime
//! budget is flagged (with the heaviest chain as witness).
//!
//! PV-strong recursive DTDs have cyclic strong graphs — elision chains
//! are unbounded and no linear certificate exists; they are flagged with
//! a strong cycle as witness.

use crate::analysis::DtdAnalysis;
use crate::ast::ElemId;
use crate::classify::DtdClass;
use crate::glushkov::{model_determinism, Determinism};

/// Minimum speculation budget per symbol, matching the recognizer's
/// historical floor: tiny DTDs always run with at least this much, so
/// certification never perturbs the exhaustive small-DTD sweeps.
pub const SPEC_FLOOR: u32 = 32;

/// The recognizer's default per-symbol budget for a DTD with
/// `element_count` declared elements: `max(32, (m+1)²)`.
#[inline]
pub fn full_budget(element_count: usize) -> u32 {
    let m1 = (element_count as u32).saturating_add(1);
    SPEC_FLOOR.max(m1.saturating_mul(m1))
}

/// Outcome of budget certification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetVerdict {
    /// `budget` parked requests per symbol provably suffice, and `budget`
    /// is at most the default: checks at the default budget never deny
    /// speculation (`specs_denied == 0`) at any depth.
    Certified {
        /// The smallest budget the proof covers (`B_static` floored at
        /// [`SPEC_FLOOR`], always ≤ [`full_budget`]).
        budget: u32,
    },
    /// No linear certificate: either the DTD is PV-strong recursive, or
    /// its static bound exceeds the runtime budget.
    Flagged {
        /// Human-readable reason.
        reason: String,
        /// Witness chain of element names: a strong cycle for PV-strong
        /// DTDs, the heaviest elision chain otherwise.
        witness: Vec<String>,
    },
}

/// Per-element closure size (diagnostic detail of the bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementBound {
    /// The element.
    pub elem: ElemId,
    /// `C(elem)`: nodes in its unrolled elision tree (saturated).
    pub closure: u32,
}

/// Full budget-certification report for one compiled DTD.
#[derive(Debug, Clone)]
pub struct BudgetReport {
    /// The runtime default `max(32, (m+1)²)` this DTD would otherwise use.
    pub full_budget: u32,
    /// `B_static` when the strong graph is acyclic, `None` for PV-strong
    /// DTDs (the bound does not exist).
    pub static_bound: Option<u32>,
    /// The verdict.
    pub verdict: BudgetVerdict,
    /// Per-element elision closures (empty for PV-strong DTDs).
    pub bounds: Vec<ElementBound>,
}

impl BudgetReport {
    /// The certified budget, if certified.
    #[inline]
    pub fn certified_budget(&self) -> Option<u32> {
        match self.verdict {
            BudgetVerdict::Certified { budget } => Some(budget),
            BudgetVerdict::Flagged { .. } => None,
        }
    }

    /// `true` when the verdict is [`BudgetVerdict::Certified`].
    #[inline]
    pub fn is_certified(&self) -> bool {
        matches!(self.verdict, BudgetVerdict::Certified { .. })
    }
}

/// Certifies the speculation budget for `analysis`.
pub fn certify(analysis: &DtdAnalysis) -> BudgetReport {
    let m = analysis.reach.element_count();
    let full = full_budget(m);

    if analysis.rec.class == DtdClass::PvStrongRecursive {
        let witness = strong_cycle_witness(analysis);
        return BudgetReport {
            full_budget: full,
            static_bound: None,
            verdict: BudgetVerdict::Flagged {
                reason: "PV-strong recursive: elision chains are unbounded, no linear \
                         budget certificate exists"
                    .to_owned(),
                witness,
            },
            bounds: Vec::new(),
        };
    }

    // C(y) over the acyclic strong graph, one pass bottom-up. Each
    // strong edge y → z adds 1 + C(z) to C(y), so Σ_y C(y) is the sum
    // over every occurrence z of (1 + C(z)).
    let rec = &analysis.rec;
    let mut closures = vec![0u64; m];
    for &y in rec.bottom_up() {
        closures[y.index()] = rec
            .strong_edges(y)
            .iter()
            .map(|z| 1u64.saturating_add(closures[z.index()]))
            .fold(0, u64::saturating_add);
    }
    let total = closures.iter().copied().fold(0u64, u64::saturating_add);
    let b_static_raw = (m as u64 + 1).saturating_add(total.saturating_mul(2));
    let b_static = u32::try_from(b_static_raw).unwrap_or(u32::MAX);
    let candidate = SPEC_FLOOR.max(b_static);

    let bounds = closures
        .iter()
        .enumerate()
        .map(|(i, &c)| ElementBound {
            elem: ElemId(i as u32),
            closure: u32::try_from(c).unwrap_or(u32::MAX),
        })
        .collect();

    let verdict = if candidate <= full {
        BudgetVerdict::Certified { budget: candidate }
    } else {
        BudgetVerdict::Flagged {
            reason: format!(
                "static speculation bound {b_static} exceeds the runtime budget {full}"
            ),
            witness: heaviest_chain(analysis, &closures),
        }
    };

    BudgetReport { full_budget: full, static_bound: Some(b_static), verdict, bounds }
}

/// A strong cycle through some PV-strong element, as element names (the
/// first element repeated at the end to close the loop).
fn strong_cycle_witness(analysis: &DtdAnalysis) -> Vec<String> {
    let rec = &analysis.rec;
    let name = |i: usize| analysis.name(ElemId(i as u32)).to_owned();
    let Some(start) = (0..rec.strong.len()).find(|&i| rec.strong[i]) else {
        return Vec::new();
    };
    // DFS over strong vertices from `start`, looking for a path back.
    let mut path = vec![start];
    let mut seen = vec![false; rec.strong.len()];
    seen[start] = true;
    let mut cursors = vec![0usize];
    while let Some(&v) = path.last() {
        let c = cursors.last_mut().expect("cursor per frame");
        if let Some(w) = rec.strong_edges(ElemId(v as u32)).get(*c).map(|w| w.index()) {
            *c += 1;
            if w == start {
                let mut names: Vec<String> = path.iter().map(|&i| name(i)).collect();
                names.push(name(start));
                return names;
            }
            if rec.strong[w] && !seen[w] {
                seen[w] = true;
                path.push(w);
                cursors.push(0);
            }
        } else {
            path.pop();
            cursors.pop();
        }
    }
    vec![name(start)]
}

/// The heaviest elision chain: greedy descent from the element with the
/// largest closure, always into the child with the largest closure.
fn heaviest_chain(analysis: &DtdAnalysis, closures: &[u64]) -> Vec<String> {
    let Some(mut v) = (0..closures.len()).max_by_key(|&i| closures[i]) else {
        return Vec::new();
    };
    let mut names = vec![analysis.name(ElemId(v as u32)).to_owned()];
    while let Some(w) = analysis
        .rec
        .strong_edges(ElemId(v as u32))
        .iter()
        .map(|w| w.index())
        .filter(|&w| w != v)
        .max_by_key(|&w| closures[w])
    {
        names.push(analysis.name(ElemId(w as u32)).to_owned());
        v = w;
        if names.len() > closures.len() {
            break; // defensive: never loop even on unexpected input
        }
    }
    names
}

/// Determinism verdict for one element's content model.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// The element whose model was classified.
    pub elem: ElemId,
    /// Its 1-unambiguity verdict.
    pub determinism: Determinism,
}

/// The combined static-analysis report: recursion class, per-model
/// determinism, and budget certification. Computed once per compiled DTD
/// (by `pvx analyze`, `pvx check -v`, and the service at `LOAD` time,
/// which keeps it beside the handle's engine).
#[derive(Debug, Clone)]
pub struct StaticReport {
    /// The DTD's recursion class.
    pub class: DtdClass,
    /// Per-element determinism verdicts, indexed in `ElemId` order.
    pub models: Vec<ModelReport>,
    /// Budget certification.
    pub budget: BudgetReport,
}

impl StaticReport {
    /// Runs the full static analysis over a compiled DTD.
    pub fn analyze(analysis: &DtdAnalysis) -> Self {
        let models = analysis
            .dtd
            .ids()
            .map(|id| ModelReport {
                elem: id,
                determinism: model_determinism(
                    &analysis.dtd,
                    analysis.norm.model(id),
                ),
            })
            .collect();
        StaticReport {
            class: analysis.rec.class,
            models,
            budget: certify(analysis),
        }
    }

    /// `true` when every content model is 1-unambiguous.
    #[inline]
    pub fn deterministic(&self) -> bool {
        self.models.iter().all(|m| m.determinism.is_deterministic())
    }

    /// The models that failed the determinism check.
    pub fn ambiguous(&self) -> impl Iterator<Item = &ModelReport> {
        self.models.iter().filter(|m| !m.determinism.is_deterministic())
    }

    /// The certified budget, if the DTD is certified.
    #[inline]
    pub fn certified_budget(&self) -> Option<u32> {
        self.budget.certified_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = "
        <!ELEMENT r (a+)><!ELEMENT a (b?, (c | f), d)><!ELEMENT b (d | f)>
        <!ELEMENT c #PCDATA><!ELEMENT d (#PCDATA | e)*>
        <!ELEMENT e EMPTY><!ELEMENT f (c, e)>";

    fn report(src: &str, root: &str) -> BudgetReport {
        certify(&DtdAnalysis::parse(src, root).unwrap())
    }

    #[test]
    fn full_budget_matches_recognizer_formula() {
        assert_eq!(full_budget(0), 32);
        assert_eq!(full_budget(5), 36);
        assert_eq!(full_budget(7), 64);
        assert_eq!(full_budget(23), 576);
    }

    #[test]
    fn figure1_bound_hand_computed() {
        // Occurrence multisets (normalized — `b?` drops to Simple `b`,
        // `(c|f)` is a choice of Simples): a→{b,c,f,d}, b→{d,f}, f→{c,e};
        // r's `a+` flattens to a star-group, contributing nothing.
        // Closures: C(c)=C(d)=C(e)=0, C(f)=2, C(b)=4, C(a)=10, C(r)=0.
        // total = ΣC = 10+4+2 = 16; B = (7+1) + 2·16 = 40 ≤ full 64.
        let r = report(FIGURE1, "r");
        assert_eq!(r.full_budget, 64);
        assert_eq!(r.static_bound, Some(40));
        assert_eq!(r.certified_budget(), Some(40));
        let analysis = DtdAnalysis::parse(FIGURE1, "r").unwrap();
        let by = |name: &str| r.bounds[analysis.id(name).unwrap().index()].closure;
        assert_eq!(by("a"), 10);
        assert_eq!(by("b"), 4);
        assert_eq!(by("f"), 2);
        assert_eq!(by("r"), 0);
    }

    #[test]
    fn strong_recursive_is_flagged_with_cycle() {
        let r = report("<!ELEMENT a (b?)><!ELEMENT b (a?)>", "a");
        assert!(!r.is_certified());
        assert_eq!(r.static_bound, None);
        let BudgetVerdict::Flagged { witness, reason } = &r.verdict else {
            panic!("{:?}", r.verdict)
        };
        assert!(reason.contains("PV-strong"), "{reason}");
        // Cycle a → b → a.
        assert_eq!(witness.first().map(String::as_str), Some("a"));
        assert_eq!(witness.last().map(String::as_str), Some("a"));
        assert!(witness.contains(&"b".to_owned()), "{witness:?}");
    }

    #[test]
    fn flagged_has_no_certified_budget() {
        let r = report("<!ELEMENT a (a?)>", "a");
        assert_eq!(r.certified_budget(), None);
    }

    #[test]
    fn weak_recursion_certifies() {
        // Star-only recursion contributes nothing to the bound.
        let r = report("<!ELEMENT a (b, a*)><!ELEMENT b EMPTY>", "a");
        // occ: a→{b}; total = 1; B = 3 + 2 = 5 → floored 32 ≤ 32. Certified.
        assert_eq!(r.static_bound, Some(5));
        assert_eq!(r.certified_budget(), Some(32));
    }

    #[test]
    fn multiplicity_is_counted() {
        // b occurs twice as a Simple atom: both occurrences count.
        let r = report("<!ELEMENT a (b, b)><!ELEMENT b EMPTY>", "a");
        // total = 2·(1+0) = 2; B = 3 + 4 = 7.
        assert_eq!(r.static_bound, Some(7));
    }

    #[test]
    fn dense_chain_can_exceed_and_flags_witness() {
        // Doubling chain: C grows exponentially, quickly past (m+1)².
        let mut src = String::new();
        let depth = 12;
        for i in 0..depth {
            src.push_str(&format!("<!ELEMENT e{i} (e{}, e{})>", i + 1, i + 1));
        }
        src.push_str(&format!("<!ELEMENT e{depth} EMPTY>"));
        let r = report(&src, "e0");
        assert!(!r.is_certified());
        let BudgetVerdict::Flagged { witness, .. } = &r.verdict else { panic!() };
        assert_eq!(witness.first().map(String::as_str), Some("e0"));
        assert_eq!(witness.last().map(String::as_str), Some(&*format!("e{depth}")));
    }

    #[test]
    fn saturated_closures_finish_and_flag() {
        // 70 doubling levels push C past u64::MAX: the closures saturate,
        // and the pass still ends with the bound pinned at u32::MAX.
        let depth = 70;
        let mut src = String::new();
        for i in 0..depth {
            src.push_str(&format!("<!ELEMENT e{i} (e{}, e{})>", i + 1, i + 1));
        }
        src.push_str(&format!("<!ELEMENT e{depth} EMPTY>"));
        let r = report(&src, "e0");
        assert_eq!(r.static_bound, Some(u32::MAX));
        assert!(!r.is_certified());
        assert_eq!(r.bounds[0].closure, u32::MAX);
    }

    #[test]
    fn static_report_combines_all_three_products() {
        let sr = StaticReport::analyze(&DtdAnalysis::parse(FIGURE1, "r").unwrap());
        assert_eq!(sr.class, DtdClass::NonRecursive);
        assert!(sr.deterministic());
        assert_eq!(sr.ambiguous().count(), 0);
        assert_eq!(sr.certified_budget(), Some(40));
    }

    #[test]
    fn ambiguous_model_is_reported_but_does_not_block_certification() {
        let sr = StaticReport::analyze(
            &DtdAnalysis::parse("<!ELEMENT r (a*, a)><!ELEMENT a EMPTY>", "r").unwrap(),
        );
        assert!(!sr.deterministic());
        assert_eq!(sr.ambiguous().count(), 1);
        // Determinism and budget certification are independent products.
        assert!(sr.certified_budget().is_some());
    }
}
