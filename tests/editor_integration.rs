//! Editor ↔ workload integration: replaying synthetic editorial traces
//! through guarded sessions, across all built-in DTDs.

use potential_validity::prelude::*;
use pv_workload::corpus;
use pv_workload::docgen::DocGen;
use pv_workload::mutate::Mutator;
use pv_workload::trace::{resolve_path, strip_and_trace, TraceOp};

/// Replays a trace through the guarded editor; every op must be accepted
/// (the trace is a valid markup campaign) and the invariant must hold.
fn replay_guarded(analysis: &DtdAnalysis, trace: &pv_workload::trace::EditorialTrace) -> u64 {
    let mut session = EditorSession::open(analysis, trace.start.clone())
        .expect("stripped documents are potentially valid (Theorem 2)");
    for op in &trace.ops {
        match op {
            TraceOp::WrapChildren { path, range, name } => {
                let parent = resolve_path(session.document(), path).expect("path resolves");
                session
                    .insert_markup(parent, range.clone(), name)
                    .unwrap_or_else(|e| panic!("trace op rejected: {e}"));
            }
        }
    }
    assert!(session.verify_invariant());
    session.stats().applied
}

#[test]
fn tei_editorial_campaign_replays() {
    let analysis = BuiltinDtd::TeiLite.analysis();
    let full = corpus::tei(300);
    let trace = strip_and_trace(&full, 80, 5);
    let applied = replay_guarded(&analysis, &trace);
    assert_eq!(applied as usize, trace.ops.len());
}

#[test]
fn play_editorial_campaign_replays() {
    let analysis = BuiltinDtd::Play.analysis();
    let full = corpus::play(300);
    let trace = strip_and_trace(&full, 80, 6);
    replay_guarded(&analysis, &trace);
}

#[test]
fn random_dtd_campaigns_replay() {
    use pv_workload::dtdgen::{DtdGen, DtdGenParams};
    for class in
        [DtdClass::NonRecursive, DtdClass::PvWeakRecursive, DtdClass::PvStrongRecursive]
    {
        for seed in 0..6u64 {
            let analysis = DtdGen::new(
                seed,
                DtdGenParams { class, elements: 8, ..Default::default() },
            )
            .generate();
            let full = DocGen::new(&analysis, seed).generate(60);
            let trace = strip_and_trace(&full, 20, seed);
            replay_guarded(&analysis, &trace);
        }
    }
}

#[test]
fn session_survives_hostile_interleaving() {
    // Interleave the legitimate campaign with bogus operations; the bogus
    // ones bounce, the campaign completes regardless.
    let analysis = BuiltinDtd::XhtmlBasic.analysis();
    let full = corpus::xhtml(150);
    let trace = strip_and_trace(&full, 40, 9);
    let mut session = EditorSession::open(&analysis, trace.start.clone()).unwrap();
    let mut rejected = 0u64;
    for (i, op) in trace.ops.iter().enumerate() {
        // Hostile op every third step: wrap something in <br> (EMPTY).
        if i % 3 == 0 {
            let doc = session.document();
            let victim = doc.elements().find(|&n| !doc.children(n).is_empty());
            if let Some(v) = victim {
                let kids = session.document().children(v).len();
                if session.insert_markup(v, 0..kids, "br").is_err() {
                    rejected += 1;
                }
            }
        }
        match op {
            TraceOp::WrapChildren { path, range, name } => {
                let parent = resolve_path(session.document(), path).unwrap();
                session.insert_markup(parent, range.clone(), name).unwrap();
            }
        }
        assert!(session.verify_invariant());
    }
    assert!(rejected > 0, "hostile wraps should have been rejected");
    // Final document token-equivalent to the original.
    let final_tokens =
        Tokens::delta(session.document(), session.document().root(), &analysis.dtd).unwrap();
    let orig_tokens = Tokens::delta(&full, full.root(), &analysis.dtd).unwrap();
    assert_eq!(final_tokens, orig_tokens);
}

#[test]
fn stripped_corpora_check_fast_and_positive() {
    for b in [BuiltinDtd::Play, BuiltinDtd::XhtmlBasic, BuiltinDtd::TeiLite] {
        let analysis = b.analysis();
        let mut doc = corpus::for_builtin(b, 1000).unwrap();
        Mutator::new(13).delete_random_markup(&mut doc, 300);
        let checker = CheckEngine::new(analysis.clone());
        assert!(checker.check_document(&doc).is_potentially_valid(), "{}", b.name());
    }
}
