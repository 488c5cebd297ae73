//! Depth policies for the ECRecognizer (paper Section 4.3.1).
//!
//! The recognizer speculates about *elided* elements by nesting one
//! recognizer inside another (Figure 5, line 25). Each nesting level
//! corresponds to one application of `X → X̂` — one element of the valid
//! completion that is not present in the input. For **PV-strong recursive**
//! DTDs these chains can grow forever (Example 5 / Figure 7), so the paper
//! bounds them by the acceptable document depth `D`, arguing that real XML
//! depths are single-digit (citing the XML-web study \[12\]).
//!
//! For every other DTD class the chains follow strong edges, which form a
//! DAG; they terminate on their own and no bound is needed (this is the
//! algorithm of the earlier WebDB'04 paper \[11\]).

use pv_dtd::{DtdAnalysis, DtdClass};

/// Default elision bound for PV-strong recursive DTDs, comfortably above
/// the "one digit magnitude" depth of real-world documents the paper cites.
pub const DEFAULT_STRONG_DEPTH: u32 = 16;

/// How deep the recognizer may speculate about elided elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(Default)]
pub enum DepthPolicy {
    /// Choose automatically: no limit unless the DTD is PV-strong
    /// recursive, in which case [`DEFAULT_STRONG_DEPTH`], since unbounded
    /// speculation there would loop forever (Example 5).
    #[default]
    Auto,
    /// Never create a nested recognizer beyond `D` levels. For PV-strong
    /// DTDs the answer is then "potentially valid within completions whose
    /// nesting exceeds the input's by at most `D`"; it is monotone in `D`.
    Bounded(u32),
}


impl DepthPolicy {
    /// Resolves the policy into a concrete per-check budget for `analysis`.
    ///
    /// `u32::MAX` acts as "unbounded": for non-PV-strong DTDs chains are
    /// structurally finite (bounded by the strong-edge DAG's longest path),
    /// so the budget is never consumed meaningfully.
    pub fn resolve(self, analysis: &DtdAnalysis) -> u32 {
        let strong = analysis.rec.class == DtdClass::PvStrongRecursive;
        match self {
            DepthPolicy::Bounded(d) => d,
            DepthPolicy::Auto if strong => DEFAULT_STRONG_DEPTH,
            DepthPolicy::Auto => u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_dtd::builtin::BuiltinDtd;

    #[test]
    fn auto_is_unbounded_for_non_strong() {
        for b in [BuiltinDtd::Figure1, BuiltinDtd::XhtmlBasic, BuiltinDtd::Play] {
            assert_eq!(DepthPolicy::Auto.resolve(&b.analysis()), u32::MAX, "{}", b.name());
        }
    }

    #[test]
    fn auto_is_bounded_for_strong() {
        for b in [BuiltinDtd::T1, BuiltinDtd::T2, BuiltinDtd::Dissertation] {
            assert_eq!(
                DepthPolicy::Auto.resolve(&b.analysis()),
                DEFAULT_STRONG_DEPTH,
                "{}",
                b.name()
            );
        }
    }

    #[test]
    fn explicit_bound_wins() {
        assert_eq!(DepthPolicy::Bounded(3).resolve(&BuiltinDtd::T1.analysis()), 3);
        assert_eq!(DepthPolicy::Bounded(3).resolve(&BuiltinDtd::Figure1.analysis()), 3);
    }
}
