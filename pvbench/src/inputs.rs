//! Seeded input generation. The program under test only ever sees the
//! bytes and edit traces built here; the same seed gives the same bytes,
//! and [`content_hash`] lets two commits show they ran the same inputs.
//!
//! Every input carries its expected verdict, known from how it was made:
//! a valid document (checked by the independent validator) with markup
//! deleted is potentially valid (Theorem 2), and one with an undeclared
//! element planted in it is rejected with `UndeclaredElement`.

use crate::adapter::{self, CheckEngine, Document, DtdAnalysis};
use pv_dtd::builtin::BuiltinDtd;
use pv_workload::corpus;
use pv_workload::trace::{strip_and_trace, TraceOp};
use std::sync::Arc;

/// The element name planted into poisoned documents; no built-in DTD
/// declares it.
pub const UNDECLARED: &str = "undeclared-element";

/// Share of a document's non-root elements whose markup is deleted.
pub const STRIP_SHARE: f64 = 0.2;

/// SplitMix64: a tiny, well-mixed, seedable generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label, so different input
    /// families drawn from one seed do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The corpora documents are drawn from, one built-in DTD each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Play,
    Xhtml,
    Tei,
    Docbook,
    TeiDrama,
    Figure1,
}

impl Kind {
    /// Every corpus, in engine-index order.
    pub const ALL: [Kind; 6] = [
        Kind::Play,
        Kind::Xhtml,
        Kind::Tei,
        Kind::Docbook,
        Kind::TeiDrama,
        Kind::Figure1,
    ];

    /// The built-in DTD the corpus is valid against.
    pub fn builtin(self) -> BuiltinDtd {
        match self {
            Kind::Play => BuiltinDtd::Play,
            Kind::Xhtml => BuiltinDtd::XhtmlBasic,
            Kind::Tei => BuiltinDtd::TeiLite,
            Kind::Docbook => BuiltinDtd::DocbookArticle,
            Kind::TeiDrama => BuiltinDtd::TeiDrama,
            Kind::Figure1 => BuiltinDtd::Figure1,
        }
    }

    /// Index into [`Kind::ALL`] (and into per-kind engine tables).
    pub fn index(self) -> usize {
        Kind::ALL.iter().position(|&k| k == self).expect("listed")
    }

    /// A valid document of roughly `n` elements.
    fn build(self, n: usize) -> Document {
        match self {
            Kind::Figure1 => wide_figure1(n),
            k => corpus::for_builtin(k.builtin(), n).expect("corpus builder exists"),
        }
    }
}

/// A wide Figure 1 document: `<r>` over about `n / 6` `<a>` groups in
/// three rotating shapes.
fn wide_figure1(n: usize) -> Document {
    let mut s = String::from("<r>");
    for i in 0..(n / 6).max(1) {
        match i % 3 {
            0 => s.push_str(
                "<a><b><d>lorem ipsum dolor</d></b><c>consectetur</c><d>adipiscing elit</d></a>",
            ),
            1 => s.push_str("<a><c>sed do eiusmod</c><d>tempor <e/> incididunt</d></a>"),
            _ => s.push_str(
                "<a><b><f><c>ut labore</c><e/></f></b><f><c>et dolore</c><e/></f><d>magna</d></a>",
            ),
        }
    }
    s.push_str("</r>");
    adapter::parse(&s).expect("generated figure1 document parses")
}

/// `k` sizes log-uniform over `[lo, hi)`, one per stratum: stratum `i`
/// covers `[i/k, (i+1)/k)` of the log range and the draw lands in its
/// middle fifth, so every seed gets nearly the same size profile (a
/// steady tail) without two documents sharing a size.
pub fn stratified_sizes(rng: &mut Rng, k: usize, lo: usize, hi: usize) -> Vec<usize> {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    (0..k)
        .map(|i| {
            let u = 0.4 + 0.2 * rng.unit();
            (a + (i as f64 + u) / k as f64 * (b - a)).exp().round() as usize
        })
        .collect()
}

/// One in-progress document.
pub struct Input {
    /// Which corpus (and so which DTD) it belongs to.
    pub kind: Kind,
    /// The serialized document.
    pub xml: String,
    /// Whether an undeclared element was planted (expected reject).
    pub poisoned: bool,
}

/// Deletes markup (PV-preserving by Theorem 2). The spine — elements
/// whose subtree holds more than a tenth of the document — is left alone
/// by the random pass, because losing a spine element changes the check's
/// cost far more than losing any other; `cut_spine` instead deletes
/// exactly the outermost spine element. Elsewhere `share` of all non-root
/// elements are deleted at random.
fn strip(doc: &mut Document, share: f64, cut_spine: bool, rng: &mut Rng) {
    let order: Vec<_> = doc.descendants(doc.root()).collect();
    let mut size = vec![0usize; order.iter().map(|n| n.index() + 1).max().unwrap_or(0)];
    for &n in order.iter().rev() {
        if doc.name(n).is_some() {
            size[n.index()] += 1;
            if let Some(p) = doc.parent(n) {
                size[p.index()] += size[n.index()];
            }
        }
    }
    let total = size[doc.root().index()];
    let (spine, mut rest): (Vec<_>, Vec<_>) = doc
        .elements()
        .filter(|&n| n != doc.root())
        .partition(|n| size[n.index()] * 10 > total);
    rng.shuffle(&mut rest);
    let count = ((total - 1) as f64 * share).round() as usize;
    let mut cut: Vec<_> = rest.into_iter().take(count).collect();
    if cut_spine {
        cut.extend(spine.iter().copied().max_by_key(|n| size[n.index()]));
    }
    for id in cut {
        doc.unwrap_element(id)
            .expect("unwrap of a live non-root element");
    }
}

/// Plants an undeclared element at a random position.
fn poison(doc: &mut Document, rng: &mut Rng) {
    let ids: Vec<_> = doc.elements().collect();
    let parent = ids[rng.below(ids.len())];
    let at = rng.below(doc.children(parent).len() + 1);
    doc.insert_element(parent, at, UNDECLARED)
        .expect("insert under a live element");
}

/// Builds `per_kind` in-progress documents for each of `kinds`, sized
/// log-uniformly over `[lo, hi)` elements, with [`STRIP_SHARE`] of the
/// markup deleted and an undeclared element planted in a seeded tenth of
/// them. Each source document is first confirmed valid by the
/// independent validator.
pub fn in_progress_corpus(
    rng: &mut Rng,
    engines: &[Arc<CheckEngine>],
    kinds: &[Kind],
    per_kind: usize,
    (lo, hi): (usize, usize),
) -> Result<Vec<Input>, String> {
    // (kind, size, cut the spine?): every fourth size stratum of each
    // kind also loses its outermost spine element.
    let mut plan: Vec<(Kind, usize, bool)> = Vec::new();
    for &kind in kinds {
        for (i, n) in stratified_sizes(rng, per_kind, lo, hi)
            .into_iter()
            .enumerate()
        {
            plan.push((kind, n, i % 4 == 2));
        }
    }
    let mut order: Vec<usize> = (0..plan.len()).collect();
    rng.shuffle(&mut order);
    let poisoned_count = (plan.len() as f64 / 10.0).round() as usize;
    let mut poisoned = vec![false; plan.len()];
    for &i in order.iter().take(poisoned_count) {
        poisoned[i] = true;
    }
    let mut out = Vec::with_capacity(plan.len());
    for (i, &(kind, n, cut_spine)) in plan.iter().enumerate() {
        let mut doc = kind.build(n);
        adapter::validate(&doc, engines[kind.index()].analysis())
            .map_err(|e| format!("source {kind:?}/{n} is not valid: {e}"))?;
        strip(&mut doc, STRIP_SHARE, cut_spine, rng);
        if poisoned[i] {
            poison(&mut doc, rng);
        }
        out.push(Input {
            kind,
            xml: doc.to_xml(),
            poisoned: poisoned[i],
        });
    }
    // Documents of all kinds interleave in a seeded order.
    rng.shuffle(&mut out);
    Ok(out)
}

/// An editor session's inputs: the stripped start document, the wrap
/// trace that restores it, and the original it must restore to.
pub struct Session {
    /// Which corpus (and DTD) the document belongs to.
    pub kind: Kind,
    /// The starting (stripped, potentially valid) document.
    pub start: Document,
    /// Wraps restoring the original, in order.
    pub ops: Vec<(Vec<usize>, std::ops::Range<usize>, String)>,
    /// The original, valid document, serialized.
    pub original: String,
}

/// Builds `per_kind` editor sessions for each of `kinds` over documents
/// of log-uniform size in `[lo, hi)` elements.
pub fn edit_sessions(
    rng: &mut Rng,
    analyses: &[&DtdAnalysis],
    kinds: &[Kind],
    per_kind: usize,
    (lo, hi): (usize, usize),
) -> Result<Vec<Session>, String> {
    let mut out = Vec::new();
    for &kind in kinds {
        for n in stratified_sizes(rng, per_kind, lo, hi) {
            let doc = kind.build(n);
            adapter::validate(&doc, analyses[kind.index()])
                .map_err(|e| format!("source {kind:?}/{n} is not valid: {e}"))?;
            let strip_count = ((doc.element_count() - 1) as f64 * STRIP_SHARE).round() as usize;
            let trace = strip_and_trace(&doc, strip_count, rng.next_u64());
            let ops = trace
                .ops
                .into_iter()
                .map(|TraceOp::WrapChildren { path, range, name }| (path, range, name))
                .collect();
            out.push(Session {
                kind,
                start: trace.start,
                ops,
                original: doc.to_xml(),
            });
        }
    }
    rng.shuffle(&mut out);
    Ok(out)
}

/// FNV-1a (64-bit) over a sequence of byte strings, each followed by its
/// length so that boundaries count.
pub fn content_hash<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in parts {
        eat(p);
        eat(&(p.len() as u64).to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_stratified_and_seeded() {
        let a = stratified_sizes(&mut Rng::new(7, 1), 16, 200, 20_000);
        let b = stratified_sizes(&mut Rng::new(7, 1), 16, 200, 20_000);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a[0] >= 200 && *a.last().unwrap() < 20_000);
    }

    #[test]
    fn hash_sees_boundaries() {
        let ab: [&[u8]; 2] = [b"ab", b"c"];
        let a_bc: [&[u8]; 2] = [b"a", b"bc"];
        assert_ne!(content_hash(ab), content_hash(a_bc));
    }
}
