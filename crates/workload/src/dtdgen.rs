//! Random DTD generation with a requested recursion class.
//!
//! Base construction uses forward references only (element `i` references
//! only elements `> i`), which makes every element productive by induction;
//! an explicit reachability pass then guarantees usability, so generated
//! DTDs always satisfy the paper's standing assumption (Section 3.3).
//! Recursion is injected afterwards:
//!
//! * **PV-weak**: a back-reference wrapped in a star (`(x)*` inside the
//!   model) — recursion only through a star-group;
//! * **PV-strong**: an optional back-reference in sequence position
//!   (`x?`) — a strong edge, since `?` sits outside any star.

use pv_dtd::{DtdAnalysis, DtdClass};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters for [`DtdGen`].
#[derive(Debug, Clone)]
pub struct DtdGenParams {
    /// Number of element types (≥ 2).
    pub elements: usize,
    /// Requested recursion class.
    pub class: DtdClass,
    /// Approximate max atoms per content model.
    pub max_model_atoms: usize,
    /// Probability that a leaf-ish element is mixed content.
    pub mixed_prob: f64,
}

impl Default for DtdGenParams {
    fn default() -> Self {
        DtdGenParams {
            elements: 8,
            class: DtdClass::NonRecursive,
            max_model_atoms: 5,
            mixed_prob: 0.3,
        }
    }
}

/// Deterministic random DTD generator.
pub struct DtdGen {
    rng: StdRng,
    params: DtdGenParams,
}

impl DtdGen {
    /// Creates a generator with a seed (same seed ⇒ same DTDs).
    pub fn new(seed: u64, params: DtdGenParams) -> Self {
        DtdGen { rng: StdRng::seed_from_u64(seed), params }
    }

    /// Generates one DTD with root `e0`, guaranteed usable and of the
    /// requested class.
    pub fn generate(&mut self) -> DtdAnalysis {
        // Rejection-sample until the class check passes; the construction
        // below almost always succeeds on the first try.
        for _ in 0..100 {
            let src = self.generate_source();
            if let Ok(analysis) = DtdAnalysis::parse(&src, "e0") {
                if analysis.rec.class == self.params.class {
                    return analysis;
                }
            }
        }
        panic!("DTD generation failed to converge for {:?}", self.params);
    }

    /// Generates raw DTD source (exposed for tests and debugging).
    pub fn generate_source(&mut self) -> String {
        let m = self.params.elements.max(2);
        let mut models: Vec<String> = Vec::with_capacity(m);

        for i in 0..m {
            let model = if i + 1 >= m {
                // Last element is always a leaf.
                self.leaf_model()
            } else if i + 2 >= m || self.rng.random_bool(0.25) {
                self.leaf_model()
            } else {
                self.children_model(i, m)
            };
            models.push(model);
        }

        // Reachability pass: every element j ≥ 1 must occur somewhere in a
        // model of an element < j. Append missing ones as optional tail
        // items of the root (viable & productive ⇒ usable).
        let mut referenced = vec![false; m];
        referenced[0] = true;
        #[allow(clippy::needless_range_loop)] // j is a name index, not a slice index
        for (i, model) in models.iter().enumerate() {
            for j in i + 1..m {
                if model.contains(&format!("e{j},"))
                    || model.contains(&format!("e{j})"))
                    || model.contains(&format!("e{j} "))
                    || model.contains(&format!("e{j}?"))
                    || model.contains(&format!("e{j}*"))
                    || model.contains(&format!("e{j}+"))
                    || model.contains(&format!("e{j}|"))
                {
                    referenced[j] = true;
                }
            }
        }
        // Give the root a starred tail so generated documents can scale to
        // any requested size (a root without repetition caps document
        // width at its model's length).
        let missing: Vec<usize> =
            (1..m).filter(|&j| !referenced[j]).collect();
        if !missing.is_empty() {
            let tail: Vec<String> = missing.iter().map(|j| format!("e{j}?")).collect();
            let root = &models[0];
            models[0] = match root.as_str() {
                "EMPTY" => format!("({})", tail.join(", ")),
                "ANY" => root.clone(), // ANY already reaches everything
                _ if root.starts_with("(#PCDATA") => {
                    // Mixed root: rebuild as mixed including the missing.
                    let mut members: Vec<String> =
                        missing.iter().map(|j| format!("e{j}")).collect();
                    members.insert(0, "#PCDATA".to_owned());
                    format!("({})*", members.join(" | "))
                }
                _ => format!("({}, {})", root, tail.join(", ")),
            };
        }

        {
            let root = &models[0];
            models[0] = if root == "EMPTY" || root.starts_with("(#PCDATA") || root == "ANY" {
                "(e1*)".to_owned()
            } else {
                format!("({}, e1*)", root)
            };
        }

        // Recursion injection.
        match self.params.class {
            DtdClass::NonRecursive => {}
            DtdClass::PvWeakRecursive => {
                // Back-reference inside a star on a non-root element.
                let i = self.rng.random_range(1..m);
                let back = self.rng.random_range(0..=i);
                let model = &models[i];
                models[i] = if model == "EMPTY" || model.starts_with("(#PCDATA") {
                    format!("(e{back}*)")
                } else if model == "ANY" {
                    model.clone()
                } else {
                    format!("({}, e{back}*)", model)
                };
            }
            DtdClass::PvStrongRecursive => {
                let i = self.rng.random_range(1..m);
                let back = self.rng.random_range(0..=i);
                let model = &models[i];
                models[i] = if model == "EMPTY" || model.starts_with("(#PCDATA") || model == "ANY"
                {
                    format!("(e{back}?)")
                } else {
                    format!("({}, e{back}?)", model)
                };
            }
        }

        let mut src = String::new();
        for (i, model) in models.iter().enumerate() {
            src.push_str(&format!("<!ELEMENT e{i} {model}>\n"));
        }
        src
    }

    fn leaf_model(&mut self) -> String {
        if self.rng.random_bool(self.params.mixed_prob) {
            "(#PCDATA)".to_owned()
        } else if self.rng.random_bool(0.5) {
            "EMPTY".to_owned()
        } else {
            "(#PCDATA)".to_owned()
        }
    }

    /// A random children model over elements `i+1 .. m`.
    fn children_model(&mut self, i: usize, m: usize) -> String {
        let atoms = self.rng.random_range(1..=self.params.max_model_atoms);
        let cp = self.random_cp(i + 1, m, atoms, 0);
        let rendered = render_cp(&cp);
        if rendered.starts_with('(') {
            rendered
        } else {
            format!("({rendered})")
        }
    }

    fn random_cp(&mut self, lo: usize, m: usize, budget: usize, depth: usize) -> CpT {
        if budget <= 1 || depth >= 3 {
            return self.random_atom(lo, m);
        }
        match self.rng.random_range(0..10) {
            0..=4 => {
                // Sequence.
                let parts = self.rng.random_range(2..=budget.min(4));
                let per = (budget / parts).max(1);
                CpT::Seq(
                    (0..parts).map(|_| self.random_cp(lo, m, per, depth + 1)).collect(),
                )
            }
            5..=7 => {
                let parts = self.rng.random_range(2..=budget.min(3));
                let per = (budget / parts).max(1);
                CpT::Choice(
                    (0..parts).map(|_| self.random_cp(lo, m, per, depth + 1)).collect(),
                )
            }
            8 => CpT::Star(Box::new(self.random_cp(lo, m, budget - 1, depth + 1))),
            _ => {
                let inner = self.random_atom(lo, m);
                match self.rng.random_range(0..3) {
                    0 => CpT::Opt(Box::new(inner)),
                    1 => CpT::Plus(Box::new(inner)),
                    _ => inner,
                }
            }
        }
    }

    fn random_atom(&mut self, lo: usize, m: usize) -> CpT {
        CpT::Name(self.rng.random_range(lo..m))
    }
}

/// A tiny textual content-particle tree (indices, not [`ElemId`]s — the DTD
/// does not exist yet while generating).
enum CpT {
    Name(usize),
    Seq(Vec<CpT>),
    Choice(Vec<CpT>),
    Opt(Box<CpT>),
    Star(Box<CpT>),
    Plus(Box<CpT>),
}

fn render_cp(cp: &CpT) -> String {
    match cp {
        CpT::Name(i) => format!("e{i}"),
        CpT::Seq(cs) => {
            format!("({})", cs.iter().map(render_cp).collect::<Vec<_>>().join(", "))
        }
        CpT::Choice(cs) => {
            format!("({})", cs.iter().map(render_cp).collect::<Vec<_>>().join(" | "))
        }
        CpT::Opt(c) => format!("{}?", atomish(c)),
        CpT::Star(c) => format!("{}*", atomish(c)),
        CpT::Plus(c) => format!("{}+", atomish(c)),
    }
}

fn atomish(cp: &CpT) -> String {
    let r = render_cp(cp);
    if r.starts_with('(') || !r.contains([' ', ',', '|']) {
        r
    } else {
        format!("({r})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_classes() {
        for class in
            [DtdClass::NonRecursive, DtdClass::PvWeakRecursive, DtdClass::PvStrongRecursive]
        {
            for seed in 0..20 {
                let mut g = DtdGen::new(seed, DtdGenParams { class, ..Default::default() });
                let a = g.generate();
                assert_eq!(a.rec.class, class, "seed {seed}");
                assert!(a.usability().unusable().is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = DtdGenParams::default();
        let s1 = DtdGen::new(42, p.clone()).generate_source();
        let s2 = DtdGen::new(42, p.clone()).generate_source();
        assert_eq!(s1, s2);
        let s3 = DtdGen::new(43, p).generate_source();
        assert_ne!(s1, s3);
    }

    #[test]
    fn size_scales_with_params() {
        let small = DtdGen::new(
            1,
            DtdGenParams { elements: 4, ..Default::default() },
        )
        .generate();
        let large = DtdGen::new(
            1,
            DtdGenParams { elements: 40, max_model_atoms: 8, ..Default::default() },
        )
        .generate();
        assert!(large.stats.m > small.stats.m);
        assert!(large.stats.k > small.stats.k);
    }

    #[test]
    fn all_elements_reachable() {
        for seed in 0..30 {
            let mut g = DtdGen::new(
                seed,
                DtdGenParams { elements: 12, ..Default::default() },
            );
            let a = g.generate();
            let root = a.root;
            for id in a.dtd.ids() {
                if id != root {
                    assert!(
                        a.reach.reaches(root, id),
                        "seed {seed}: {} unreachable\n{}",
                        a.name(id),
                        a.dtd
                    );
                }
            }
        }
    }
}
