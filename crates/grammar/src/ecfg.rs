//! The extended context-free grammars `G_{T,r}` and `G'_{T,r}`
//! (paper Section 3) as recursive transition networks.
//!
//! An ECFG rule `X̂ → r_X` has a regular expression on its right-hand side,
//! so each nonterminal compiles naturally to a small Thompson NFA whose
//! edges are:
//!
//! * **terminal** edges consuming `<x>`, `</x>` or `σ`,
//! * **call** edges invoking another element nonterminal,
//! * **ε** edges (wiring only).
//!
//! The element nonterminal `X` wraps its content NFA with the tag pair
//! (`X → <x> X̂ </x>`); in PV mode ([`GrammarMode::PotentialValidity`]) a
//! second, tagless path realizes the paper's extra rule `X → X̂`
//! (Theorem 1). The `σ` nonterminal `PCDATA → σ | ε` is inlined as an
//! optional terminal edge.
//!
//! Nullability of every nonterminal in PV mode — Theorem 3 — is computed
//! by [`Grammar::nullable_set`] and verified by tests for all built-in
//! DTDs; the Earley baseline depends on it for correct ε-completion.

use pv_core::token::Tok;
use pv_dtd::{ContentSpec, Cp, Dtd, ElemId};

/// Which language to build the grammar for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrammarMode {
    /// `G_{T,r}`: exact validity (tags mandatory).
    Validity,
    /// `G'_{T,r}`: potential validity (every element's tags may be elided —
    /// rule set `R ∪ {X → X̂}`, Theorem 1).
    PotentialValidity,
}

/// An NFA edge label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Consume a terminal token.
    Term(Tok),
    /// Invoke element `x`'s nonterminal (a nested element).
    Call(ElemId),
    /// Spontaneous transition.
    Eps,
}

/// A transition `(label, target)`.
pub type Transition = (Edge, u32);

/// The NFA of one nonterminal.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// Outgoing transitions per state.
    pub states: Vec<Vec<Transition>>,
    /// Entry state.
    pub start: u32,
    /// The unique accepting state.
    pub accept: u32,
}

impl Nfa {
    /// A fresh NFA with a single state that is both start and accept.
    pub fn new() -> Self {
        Nfa { states: vec![Vec::new()], start: 0, accept: 0 }
    }

    /// Adds a state, returning its index.
    pub fn add_state(&mut self) -> u32 {
        self.states.push(Vec::new());
        (self.states.len() - 1) as u32
    }

    /// Adds a transition.
    pub fn edge(&mut self, from: u32, label: Edge, to: u32) {
        self.states[from as usize].push((label, to));
    }

    /// States reachable from `set` via ε edges (inclusive).
    pub fn eps_closure(&self, set: &mut Vec<u32>) {
        let mut seen = vec![false; self.states.len()];
        for &s in set.iter() {
            seen[s as usize] = true;
        }
        let mut i = 0;
        while i < set.len() {
            let s = set[i];
            i += 1;
            for &(label, t) in &self.states[s as usize] {
                if label == Edge::Eps && !seen[t as usize] {
                    seen[t as usize] = true;
                    set.push(t);
                }
            }
        }
    }
}

impl Default for Nfa {
    fn default() -> Self {
        Nfa::new()
    }
}

/// A compiled ECFG: one NFA per element nonterminal.
///
/// The start symbol `S → R` is implicit: acceptance begins at the root
/// element's NFA.
#[derive(Debug, Clone)]
pub struct Grammar {
    /// Per-element NFAs (indexed by [`ElemId`]).
    pub nfas: Vec<Nfa>,
    /// The root element `r`.
    pub root: ElemId,
    /// Which language this grammar recognizes.
    pub mode: GrammarMode,
    /// `nullable[i]`: nonterminal `i` derives ε.
    nullable: Vec<bool>,
}

impl Grammar {
    /// Compiles `dtd` into `G_{T,root}` or `G'_{T,root}`.
    pub fn new(dtd: &Dtd, root: ElemId, mode: GrammarMode) -> Self {
        let nfas: Vec<Nfa> =
            dtd.iter().map(|(id, decl)| build_element_nfa(dtd, id, &decl.content, mode)).collect();
        let nullable = compute_nullable(&nfas);
        Grammar { nfas, root, mode, nullable }
    }

    /// The NFA for element `x`.
    #[inline]
    pub fn nfa(&self, x: ElemId) -> &Nfa {
        &self.nfas[x.index()]
    }

    /// `true` if nonterminal `x` derives the empty string.
    #[inline]
    pub fn is_nullable(&self, x: ElemId) -> bool {
        self.nullable[x.index()]
    }

    /// The set of nullable nonterminals (Theorem 3: in PV mode this is all
    /// of them, for usable DTDs).
    pub fn nullable_set(&self) -> &[bool] {
        &self.nullable
    }
}

/// Builds the NFA for `X`: tagged path `<x> r_X </x>`, plus the tagless
/// bypass in PV mode.
fn build_element_nfa(dtd: &Dtd, x: ElemId, content: &ContentSpec, mode: GrammarMode) -> Nfa {
    let mut nfa = Nfa::new();
    let start = nfa.start;
    let accept = nfa.add_state();
    nfa.accept = accept;

    // Tagged path: start --<x>--> c_in --content--> c_out --</x>--> accept.
    let c_in = nfa.add_state();
    let c_out = nfa.add_state();
    nfa.edge(start, Edge::Term(Tok::Open(x)), c_in);
    nfa.edge(c_out, Edge::Term(Tok::Close(x)), accept);
    lower_content(dtd, content, &mut nfa, c_in, c_out);

    if mode == GrammarMode::PotentialValidity {
        // The elision rule X → X̂: content without the tags.
        lower_content(dtd, content, &mut nfa, start, accept);
    }
    nfa
}

/// Lowers a content model between two existing states.
pub fn lower_content(dtd: &Dtd, content: &ContentSpec, nfa: &mut Nfa, from: u32, to: u32) {
    match content {
        ContentSpec::Empty => nfa.edge(from, Edge::Eps, to),
        ContentSpec::PcdataOnly => {
            // PCDATA → σ | ε.
            nfa.edge(from, Edge::Term(Tok::Sigma), to);
            nfa.edge(from, Edge::Eps, to);
        }
        ContentSpec::Mixed(ids) => {
            // (#PCDATA | a | …)*: a loop state.
            let hub = nfa.add_state();
            nfa.edge(from, Edge::Eps, hub);
            nfa.edge(hub, Edge::Term(Tok::Sigma), hub);
            for &id in ids {
                nfa.edge(hub, Edge::Call(id), hub);
            }
            nfa.edge(hub, Edge::Eps, to);
        }
        ContentSpec::Any => {
            let hub = nfa.add_state();
            nfa.edge(from, Edge::Eps, hub);
            nfa.edge(hub, Edge::Term(Tok::Sigma), hub);
            for id in dtd.ids() {
                nfa.edge(hub, Edge::Call(id), hub);
            }
            nfa.edge(hub, Edge::Eps, to);
        }
        ContentSpec::Children(cp) => lower_cp(cp, nfa, from, to),
    }
}

/// Thompson construction for a content particle.
fn lower_cp(cp: &Cp, nfa: &mut Nfa, from: u32, to: u32) {
    match cp {
        Cp::Name(id) => nfa.edge(from, Edge::Call(*id), to),
        Cp::Seq(cs) => {
            let mut cur = from;
            for (i, c) in cs.iter().enumerate() {
                let next = if i + 1 == cs.len() { to } else { nfa.add_state() };
                lower_cp(c, nfa, cur, next);
                cur = next;
            }
            if cs.is_empty() {
                nfa.edge(from, Edge::Eps, to);
            }
        }
        Cp::Choice(cs) => {
            for c in cs {
                lower_cp(c, nfa, from, to);
            }
        }
        Cp::Opt(c) => {
            lower_cp(c, nfa, from, to);
            nfa.edge(from, Edge::Eps, to);
        }
        Cp::Star(c) => {
            let hub = nfa.add_state();
            nfa.edge(from, Edge::Eps, hub);
            lower_cp(c, nfa, hub, hub);
            nfa.edge(hub, Edge::Eps, to);
        }
        Cp::Plus(c) => {
            // One copy of e between fresh entry and exit states, the exit
            // looping back to the entry (fresh, so the loop reaches none
            // of `from`'s or `to`'s other edges).
            let entry = nfa.add_state();
            let exit = nfa.add_state();
            nfa.edge(from, Edge::Eps, entry);
            lower_cp(c, nfa, entry, exit);
            nfa.edge(exit, Edge::Eps, entry);
            nfa.edge(exit, Edge::Eps, to);
        }
    }
}

/// Fixpoint nullability over the RTN: nonterminal `x` is nullable iff its
/// accept state is reachable from its start using ε edges and calls to
/// already-nullable nonterminals.
fn compute_nullable(nfas: &[Nfa]) -> Vec<bool> {
    let mut nullable = vec![false; nfas.len()];
    loop {
        let mut changed = false;
        for (i, nfa) in nfas.iter().enumerate() {
            if nullable[i] {
                continue;
            }
            // BFS over ε and nullable-call edges.
            let mut seen = vec![false; nfa.states.len()];
            let mut stack = vec![nfa.start];
            seen[nfa.start as usize] = true;
            let mut reached = false;
            while let Some(s) = stack.pop() {
                if s == nfa.accept {
                    reached = true;
                    break;
                }
                for &(label, t) in &nfa.states[s as usize] {
                    let passable = match label {
                        Edge::Eps => true,
                        Edge::Call(y) => nullable[y.index()],
                        Edge::Term(_) => false,
                    };
                    if passable && !seen[t as usize] {
                        seen[t as usize] = true;
                        stack.push(t);
                    }
                }
            }
            if reached {
                nullable[i] = true;
                changed = true;
            }
        }
        if !changed {
            return nullable;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

    fn grammar(b: BuiltinDtd, mode: GrammarMode) -> (Dtd, Grammar) {
        let dtd = b.dtd();
        let root = dtd.id(b.root()).unwrap();
        let g = Grammar::new(&dtd, root, mode);
        (dtd, g)
    }

    #[test]
    fn theorem3_all_nullable_in_pv_mode() {
        // Theorem 3: every nonterminal of G' derives ε (usable DTDs).
        for b in BuiltinDtd::ALL {
            let (dtd, g) = grammar(b, GrammarMode::PotentialValidity);
            for id in dtd.ids() {
                assert!(g.is_nullable(id), "{}: {} not nullable in G'", b.name(), dtd.name(id));
            }
        }
    }

    #[test]
    fn validity_mode_nullability_is_strict() {
        // In G (validity) nothing with mandatory tags is nullable.
        for b in BuiltinDtd::ALL {
            let (dtd, g) = grammar(b, GrammarMode::Validity);
            for id in dtd.ids() {
                assert!(!g.is_nullable(id), "{}: {} nullable in G", b.name(), dtd.name(id));
            }
        }
    }

    #[test]
    fn unusable_element_breaks_theorem3() {
        // a → (a): not nullable even in PV mode — exactly why the paper
        // assumes usability.
        let dtd = Dtd::parse("<!ELEMENT a (a)>").unwrap();
        let g = Grammar::new(&dtd, ElemId(0), GrammarMode::PotentialValidity);
        assert!(!g.is_nullable(ElemId(0)));
    }

    #[test]
    fn nfa_structure_has_tag_edges() {
        let (dtd, g) = grammar(BuiltinDtd::Figure1, GrammarMode::Validity);
        let r = dtd.id("r").unwrap();
        let nfa = g.nfa(r);
        // Exactly one Open(r) edge out of start in validity mode.
        let opens: Vec<_> = nfa.states[nfa.start as usize]
            .iter()
            .filter(|(l, _)| matches!(l, Edge::Term(Tok::Open(x)) if *x == r))
            .collect();
        assert_eq!(opens.len(), 1);
        assert_eq!(nfa.states[nfa.start as usize].len(), 1);
    }

    #[test]
    fn pv_mode_adds_bypass() {
        let (dtd, g) = grammar(BuiltinDtd::Figure1, GrammarMode::PotentialValidity);
        let r = dtd.id("r").unwrap();
        let nfa = g.nfa(r);
        // Start state has the Open edge plus the tagless content lowering.
        assert!(nfa.states[nfa.start as usize].len() >= 2);
    }

    #[test]
    fn eps_closure_finds_transitive_states() {
        let mut nfa = Nfa::new();
        let a = nfa.add_state();
        let b = nfa.add_state();
        nfa.edge(0, Edge::Eps, a);
        nfa.edge(a, Edge::Eps, b);
        let mut set = vec![0u32];
        nfa.eps_closure(&mut set);
        assert_eq!(set, vec![0, a, b]);
    }

    #[test]
    fn plus_requires_one_occurrence() {
        // r → (a+) in validity mode: r not nullable, and content needs ≥1 a.
        let dtd = Dtd::parse("<!ELEMENT r (a+)><!ELEMENT a EMPTY>").unwrap();
        let g = Grammar::new(&dtd, ElemId(0), GrammarMode::Validity);
        assert!(!g.is_nullable(ElemId(0)));
        // In PV mode both become nullable.
        let g2 = Grammar::new(&dtd, ElemId(0), GrammarMode::PotentialValidity);
        assert!(g2.is_nullable(ElemId(0)));
        assert!(g2.is_nullable(ElemId(1)));
    }
}
