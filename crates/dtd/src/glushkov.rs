//! Glushkov follow-set construction and 1-unambiguity classification of
//! content models, declared or PV-normalized.
//!
//! XML appendix E requires *deterministic* (1-unambiguous) content
//! models: while matching children left to right, each next symbol must
//! select at most one position of the model without lookahead. The
//! classic test (Brüggemann-Klein & Wood) builds the Glushkov automaton —
//! one state per atom *position* — and checks that no two distinct
//! positions with overlapping symbol sets compete in the same `first` or
//! `follow` set.
//!
//! One construction judges both forms of a model:
//!
//! * [`declared_determinism`] runs over the **declared** particle
//!   ([`Cp`]), as appendix E states the rule: positions are element
//!   names, `?` makes its operand nullable, and `*` and `+` wire the
//!   operand's last positions to its first ones (`*` also nullable).
//!   `pvx lint` reports this verdict, so `(a?, a)` is flagged.
//! * [`model_determinism`] runs over the **normalized** model
//!   ([`NormCp`]): positions are [`Atom`]s (simple elements, `#PCDATA`,
//!   or flattened star-groups), and a star-group is the star of one
//!   position — nullable, with a self-loop in its own follow set.
//!   Because normalization drops `?` and widens `+` to `*` (Corollary
//!   3.1 — both language-preserving under the PV grammar), this verdict
//!   describes the normalized model the recognizer actually executes; a
//!   handful of source-level ambiguities (e.g. `(a, a?)`) normalize away,
//!   which is exactly the right notion for certifying recognizer
//!   behaviour. `pvx analyze` reports it.
//!
//! On ambiguity the classifier returns a concrete [`AmbiguityWitness`]:
//! the overlapping symbol plus the two competing positions, so `pvx
//! analyze` can print *why* a model is non-deterministic instead of a
//! bare boolean.

use crate::ast::{Cp, Dtd, ElemId};
use crate::normalize::{Atom, NormCp, NormModel};
use std::borrow::Cow;

/// The 1-unambiguity verdict for one content model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Determinism {
    /// No two competing positions overlap: matching never needs lookahead.
    Deterministic,
    /// Two positions compete for the same symbol; the witness names them.
    Ambiguous(AmbiguityWitness),
}

impl Determinism {
    /// `true` for the deterministic verdict.
    #[inline]
    pub fn is_deterministic(&self) -> bool {
        matches!(self, Determinism::Deterministic)
    }
}

/// A concrete 1-ambiguity: `symbol` can continue the match into either of
/// two distinct Glushkov positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmbiguityWitness {
    /// The overlapping symbol (an element name, or `#PCDATA`).
    pub symbol: String,
    /// Rendered form of the first competing position.
    pub first: String,
    /// Rendered form of the second competing position.
    pub second: String,
    /// Where the competition happens: `None` for the model's `first` set,
    /// `Some(p)` for the follow set of position `p` (rendered).
    pub after: Option<String>,
}

impl std::fmt::Display for AmbiguityWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.after {
            None => write!(
                f,
                "symbol {} opens both {} and {}",
                self.symbol, self.first, self.second
            ),
            Some(p) => write!(
                f,
                "after {}, symbol {} continues into both {} and {}",
                p, self.symbol, self.first, self.second
            ),
        }
    }
}

/// Classifies one normalized model. `ANY` models are trivially
/// deterministic (they match by element-set membership, no positions).
pub fn model_determinism(dtd: &Dtd, model: &NormModel) -> Determinism {
    match model {
        NormModel::Expr(expr) => Glushkov::judge(dtd, |g| g.normalized(expr)),
        NormModel::Any => Determinism::Deterministic,
    }
}

/// Classifies one declared `children` particle, as XML appendix E
/// states determinism: `?` is nullable, `*` and `+` repeat.
pub fn declared_determinism(dtd: &Dtd, cp: &Cp) -> Determinism {
    Glushkov::judge(dtd, |g| g.declared(cp))
}

/// Nullable/first/last summary of one subexpression during construction.
struct Unit {
    nullable: bool,
    first: Vec<usize>,
    last: Vec<usize>,
}

/// Construction state: `positions[p]` is atom `p` in walk order, and
/// `follow[p]` its accumulated follow set.
struct Glushkov<'a> {
    positions: Vec<Cow<'a, Atom>>,
    follow: Vec<Vec<usize>>,
}

impl<'a> Glushkov<'a> {
    fn normalized(&mut self, cp: &'a NormCp) -> Unit {
        match cp {
            // A star-group matches any member sequence including ε: the
            // star of one position.
            NormCp::Atom(a @ Atom::Group(_)) => {
                let u = self.position(Cow::Borrowed(a));
                self.repeat(u, true)
            }
            NormCp::Atom(a) => self.position(Cow::Borrowed(a)),
            NormCp::Seq(cs) => self.seq(cs, Self::normalized),
            NormCp::Choice(cs) => self.choice(cs, Self::normalized),
        }
    }

    fn declared(&mut self, cp: &'a Cp) -> Unit {
        match cp {
            Cp::Name(x) => self.position(Cow::Owned(Atom::Simple(*x))),
            Cp::Seq(cs) => self.seq(cs, Self::declared),
            Cp::Choice(cs) => self.choice(cs, Self::declared),
            Cp::Opt(c) => Unit { nullable: true, ..self.declared(c) },
            Cp::Star(c) => {
                let u = self.declared(c);
                self.repeat(u, true)
            }
            Cp::Plus(c) => {
                let u = self.declared(c);
                self.repeat(u, false)
            }
        }
    }

    /// A fresh position: first and last are itself.
    fn position(&mut self, atom: Cow<'a, Atom>) -> Unit {
        let p = self.positions.len();
        self.positions.push(atom);
        self.follow.push(Vec::new());
        Unit { nullable: false, first: vec![p], last: vec![p] }
    }

    /// `u*` (`star`) or `u+`: each last position is followed by every
    /// first one.
    fn repeat(&mut self, u: Unit, star: bool) -> Unit {
        for &p in &u.last {
            self.follow[p].extend_from_slice(&u.first);
        }
        Unit { nullable: u.nullable || star, ..u }
    }

    fn seq<T>(&mut self, items: &'a [T], build: fn(&mut Self, &'a T) -> Unit) -> Unit {
        let mut acc = Unit { nullable: true, first: Vec::new(), last: Vec::new() };
        for item in items {
            let u = build(self, item);
            for &p in &acc.last {
                self.follow[p].extend_from_slice(&u.first);
            }
            if acc.nullable {
                acc.first.extend_from_slice(&u.first);
            }
            if u.nullable {
                acc.last.extend_from_slice(&u.last);
            } else {
                acc.last = u.last;
            }
            acc.nullable &= u.nullable;
        }
        acc
    }

    fn choice<T>(&mut self, items: &'a [T], build: fn(&mut Self, &'a T) -> Unit) -> Unit {
        let mut acc = Unit { nullable: false, first: Vec::new(), last: Vec::new() };
        for item in items {
            let u = build(self, item);
            acc.nullable |= u.nullable;
            acc.first.extend(u.first);
            acc.last.extend(u.last);
        }
        acc
    }

    /// Builds the automaton with `build`, then looks for conflicts in
    /// `first`, then in each position's follow set.
    fn judge(dtd: &Dtd, build: impl FnOnce(&mut Self) -> Unit) -> Determinism {
        let mut g = Glushkov { positions: Vec::new(), follow: Vec::new() };
        let unit = build(&mut g);
        if let Some(w) = g.conflict(dtd, &unit.first, None) {
            return Determinism::Ambiguous(w);
        }
        for p in 0..g.positions.len() {
            if let Some(w) = g.conflict(dtd, &g.follow[p], Some(p)) {
                return Determinism::Ambiguous(w);
            }
        }
        Determinism::Deterministic
    }

    /// First overlapping pair among distinct positions of `set`, if any.
    fn conflict(&self, dtd: &Dtd, set: &[usize], after: Option<usize>) -> Option<AmbiguityWitness> {
        for (i, &p) in set.iter().enumerate() {
            for &q in &set[i + 1..] {
                if p == q {
                    continue;
                }
                if let Some(symbol) = shared_symbol(dtd, &self.positions[p], &self.positions[q]) {
                    return Some(AmbiguityWitness {
                        symbol,
                        first: render_atom(dtd, &self.positions[p.min(q)]),
                        second: render_atom(dtd, &self.positions[p.max(q)]),
                        after: after.map(|a| render_atom(dtd, &self.positions[a])),
                    });
                }
            }
        }
        None
    }
}

/// A symbol both atoms can match, if one exists (element name or
/// `#PCDATA`). Membership is direct (appendix-E determinism), not the
/// recognizer's reachability-widened group test.
fn shared_symbol(dtd: &Dtd, a: &Atom, b: &Atom) -> Option<String> {
    let elem = |id: ElemId| dtd.name(id).to_owned();
    match (a, b) {
        (Atom::Simple(x), Atom::Simple(y)) => (x == y).then(|| elem(*x)),
        (Atom::Simple(x), Atom::Group(g)) | (Atom::Group(g), Atom::Simple(x)) => {
            g.contains(*x).then(|| elem(*x))
        }
        (Atom::Pcdata, Atom::Pcdata) => Some("#PCDATA".to_owned()),
        (Atom::Pcdata, Atom::Group(g)) | (Atom::Group(g), Atom::Pcdata) => {
            g.pcdata.then(|| "#PCDATA".to_owned())
        }
        (Atom::Group(g), Atom::Group(h)) => {
            if let Some(&x) = g.elems.iter().find(|x| h.contains(**x)) {
                return Some(elem(x));
            }
            (g.pcdata && h.pcdata).then(|| "#PCDATA".to_owned())
        }
        (Atom::Simple(_), Atom::Pcdata) | (Atom::Pcdata, Atom::Simple(_)) => None,
    }
}

/// Human-readable rendering of one position.
fn render_atom(dtd: &Dtd, a: &Atom) -> String {
    match a {
        Atom::Simple(x) => format!("<{}>", dtd.name(*x)),
        Atom::Pcdata => "#PCDATA".to_owned(),
        Atom::Group(g) => {
            let mut s = String::from("(");
            for (i, &x) in g.elems.iter().enumerate() {
                if i > 0 || g.pcdata {
                    s.push('|');
                }
                s.push_str(dtd.name(x));
            }
            if g.pcdata {
                s.insert_str(1, "#PCDATA");
            }
            s.push_str(")*");
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ContentSpec;
    use crate::normalize::normalize;

    fn det_of(src: &str, elem: &str) -> Determinism {
        let dtd = Dtd::parse(src).unwrap();
        let norm = normalize(&dtd);
        model_determinism(&dtd, norm.model(dtd.id(elem).unwrap()))
    }

    const DECLS: &str = "<!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>";

    #[test]
    fn common_prefix_choice_is_ambiguous() {
        let d = det_of(&format!("<!ELEMENT x ((a, b) | (a, c))>{DECLS}"), "x");
        let Determinism::Ambiguous(w) = d else { panic!("expected ambiguity, got {d:?}") };
        assert_eq!(w.symbol, "a");
        assert!(w.after.is_none(), "{w:?}");
        assert_eq!(w.first, "<a>");
        assert_eq!(w.second, "<a>");
    }

    #[test]
    fn star_then_same_element_is_ambiguous() {
        // (a*, a): after zero or more a's, the next a fits the group or
        // the simple position — the textbook 1-ambiguity.
        let d = det_of(&format!("<!ELEMENT x (a*, a)>{DECLS}"), "x");
        let Determinism::Ambiguous(w) = d else { panic!("{d:?}") };
        assert_eq!(w.symbol, "a");
        assert!(w.to_string().contains("both"), "{w}");
    }

    #[test]
    fn follow_conflict_reports_the_anchor() {
        // (b, (a*, a)): the conflict lives in follow(b), not first.
        let d = det_of(&format!("<!ELEMENT x (b, a*, a)>{DECLS}"), "x");
        let Determinism::Ambiguous(w) = d else { panic!("{d:?}") };
        assert_eq!(w.symbol, "a");
    }

    #[test]
    fn overlapping_groups_are_ambiguous() {
        let d = det_of(&format!("<!ELEMENT x (a*, (a | b)*)>{DECLS}"), "x");
        let Determinism::Ambiguous(w) = d else { panic!("{d:?}") };
        assert_eq!(w.symbol, "a");
    }

    #[test]
    fn deterministic_models_pass() {
        for model in ["((a | b), b)", "(a, b, c)", "(a, (b | c)*)", "(a | b | c)"] {
            let d = det_of(&format!("<!ELEMENT x {model}>{DECLS}"), "x");
            assert!(d.is_deterministic(), "{model}: {d:?}");
        }
    }

    #[test]
    fn pcdata_and_mixed_models_are_deterministic() {
        assert!(det_of("<!ELEMENT x (#PCDATA)>", "x").is_deterministic());
        assert!(det_of(&format!("<!ELEMENT x (#PCDATA | a | b)*>{DECLS}"), "x")
            .is_deterministic());
    }

    #[test]
    fn any_and_empty_are_deterministic() {
        assert!(det_of("<!ELEMENT x ANY>", "x").is_deterministic());
        assert!(det_of("<!ELEMENT x EMPTY>", "x").is_deterministic());
    }

    #[test]
    fn pcdata_conflicts_between_mixed_groups() {
        // XML syntax only allows one top-level mixed group, so build the
        // adjacent-mixed-groups model directly on the normalized form.
        use crate::normalize::GroupSet;
        let dtd = Dtd::parse(DECLS).unwrap();
        let a = dtd.id("a").unwrap();
        let b = dtd.id("b").unwrap();
        let expr = NormCp::Seq(vec![
            NormCp::Atom(Atom::Group(GroupSet::new([a], true))),
            NormCp::Atom(Atom::Group(GroupSet::new([b], true))),
        ]);
        let d = model_determinism(&dtd, &NormModel::Expr(expr));
        let Determinism::Ambiguous(w) = d else { panic!("{d:?}") };
        assert_eq!(w.symbol, "#PCDATA");
    }

    #[test]
    fn determinism_diagnostic() {
        let dtd = Dtd::parse(
            "<!ELEMENT det (a, b)><!ELEMENT amb ((a, b) | (a, c))>
             <!ELEMENT twice (a | a)><!ELEMENT nested (a, (b | b))>
             <!ELEMENT opt (a?, a)><!ELEMENT choice (a, (b | c))>
             <!ELEMENT optplus (a?)+><!ELEMENT starplus (b*)+>
             <!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>",
        )
        .unwrap();
        let deterministic = |name| {
            let ContentSpec::Children(cp) = &dtd.element(dtd.id(name).unwrap()).content else {
                panic!("{name} has no children model")
            };
            declared_determinism(&dtd, cp).is_deterministic()
        };
        assert!(deterministic("det"));
        assert!(deterministic("choice"));
        // One position each: `c+` repeats `c`'s one position, so a
        // nullable `c` does not meet itself.
        assert!(deterministic("optplus"));
        assert!(deterministic("starplus"));
        // ((a,b)|(a,c)) is the textbook 1-ambiguous model.
        assert!(!deterministic("amb"));
        // A repeated alternative is two positions for one symbol.
        assert!(!deterministic("twice"));
        assert!(!deterministic("nested"));
        // Declared `(a?, a)` is ambiguous; only its PV normalization is not.
        assert!(!deterministic("opt"));
    }

    #[test]
    fn builtin_dtds_are_deterministic() {
        // Our realistic corpus should be XML-legal (deterministic models).
        for b in crate::builtin::BuiltinDtd::ALL {
            let dtd = b.dtd();
            for id in dtd.ids() {
                if let ContentSpec::Children(cp) = &dtd.element(id).content {
                    assert!(
                        declared_determinism(&dtd, cp).is_deterministic(),
                        "{}: element {} has a non-deterministic model",
                        b.name(),
                        dtd.name(id)
                    );
                }
            }
        }
    }
}
