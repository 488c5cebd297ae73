//! Known answers. Every timed operation's result is compared with what
//! the way its input was built says it must be; any mismatch counts as a
//! failed operation and fails the run.

use crate::adapter::{PvOutcome, PvViolationKind};
use crate::inputs::UNDECLARED;

/// What an input must be judged, from how it was built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A valid document with markup deleted: potentially valid.
    PotentiallyValid,
    /// An undeclared element was planted: rejected as undeclared.
    Undeclared,
}

impl Expect {
    /// The expectation for an input that was (or was not) poisoned.
    pub fn for_input(poisoned: bool) -> Expect {
        if poisoned {
            Expect::Undeclared
        } else {
            Expect::PotentiallyValid
        }
    }

    /// Checks an outcome against this expectation. A check that denied
    /// speculation is an approximation, so it fails too.
    pub fn check(self, outcome: &PvOutcome) -> Result<(), String> {
        if outcome.stats.specs_denied != 0 {
            return Err(format!(
                "{} speculation(s) denied",
                outcome.stats.specs_denied
            ));
        }
        match (self, &outcome.violation) {
            (Expect::PotentiallyValid, None) => Ok(()),
            (Expect::Undeclared, Some(v)) if matches!(&v.kind, PvViolationKind::UndeclaredElement { name } if name == UNDECLARED) => {
                Ok(())
            }
            (want, got) => Err(format!("expected {want:?}, got {got:?}")),
        }
    }
}

/// Compares an outcome with the reference outcome of the same input
/// (bit-identity: violation and every work counter).
pub fn same_outcome(what: &str, got: &PvOutcome, reference: &PvOutcome) -> Result<(), String> {
    if got == reference {
        Ok(())
    } else {
        Err(format!(
            "{what}: outcome {got:?} differs from the reference {reference:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter;
    use pv_dtd::builtin::BuiltinDtd;
    use std::sync::Arc;

    fn outcome_of(xml: &str) -> PvOutcome {
        let engine = adapter::engine(adapter::analyze(BuiltinDtd::Figure1));
        let doc = Arc::new(adapter::parse(xml).unwrap());
        adapter::check(&engine, &doc, &adapter::local_pool(), true)
    }

    #[test]
    fn right_answers_pass() {
        let pv = outcome_of("<r><a><c>x</c> tail</a></r>");
        Expect::PotentiallyValid.check(&pv).unwrap();
        let bad = outcome_of(&format!("<r><a><c>x</c><{UNDECLARED}/></a></r>"));
        Expect::Undeclared.check(&bad).unwrap();
    }

    #[test]
    fn wrong_expected_verdicts_are_caught() {
        let pv = outcome_of("<r><a><c>x</c> tail</a></r>");
        assert!(Expect::Undeclared.check(&pv).is_err());
        let bad = outcome_of(&format!("<r><a><c>x</c><{UNDECLARED}/></a></r>"));
        assert!(Expect::PotentiallyValid.check(&bad).is_err());
        // A reject of the wrong kind is still wrong.
        // Example 1's `w`: the order b, e, c contradicts the DTD.
        let contradicted = outcome_of("<r><a><b>A</b><e/><c>B</c> dog</a></r>");
        assert!(contradicted.violation.is_some());
        assert!(Expect::Undeclared.check(&contradicted).is_err());
        // Bit-identity catches a counter that drifted.
        let mut drifted = pv.clone();
        drifted.stats.node_visits += 1;
        assert!(same_outcome("probe", &drifted, &pv).is_err());
        assert!(same_outcome("probe", &pv, &pv.clone()).is_ok());
    }
}
