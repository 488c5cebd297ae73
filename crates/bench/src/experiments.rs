//! The experiment tables (see crate docs for the index).

use crate::timing::{fmt_dur, median, per_item};
use pv_core::depth::DepthPolicy;
use pv_core::token::Tokens;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_dtd::{DtdAnalysis, DtdClass};
use pv_grammar::ecfg::{Grammar, GrammarMode};
use pv_grammar::earley::EarleyRecognizer;
use pv_grammar::validator::validate_document;
use pv_grammar::witness::complete_tokens;
use pv_par::Pool;
use pv_workload::corpus;
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;
use pv_xml::Document;
use std::sync::Arc;

/// All table names understood by [`run_table`].
pub fn all_tables() -> &'static [&'static str] {
    &[
        "examples",
        "scaling-n",
        "scaling-k",
        "depth",
        "incremental",
        "classes",
        "parallel",
        "memo",
        "completeness",
        "analyze",
    ]
}

/// Runs one table by name, printing markdown to stdout.
pub fn run_table(name: &str) {
    match name {
        "examples" => table_examples(),
        "scaling-n" => table_scaling_n(),
        "scaling-k" => table_scaling_k(),
        "depth" => table_depth(),
        "incremental" => table_incremental(),
        "classes" => table_classes(),
        "parallel" => table_parallel(),
        "memo" => table_memo(),
        "completeness" => table_completeness(),
        "analyze" => table_analyze(),
        other => eprintln!("unknown table {other:?}; known: {:?}", all_tables()),
    }
}

fn pv_of(checker: &CheckEngine, doc: &Document) -> bool {
    checker.check_document(doc).is_potentially_valid()
}

fn earley_pv(analysis: &DtdAnalysis, doc: &Document) -> bool {
    let g = Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
    let toks = Tokens::delta(doc, doc.root(), &analysis.dtd).unwrap();
    EarleyRecognizer::new(&g).accepts(&toks)
}

/// An engine with memoization off (the memo tables' reference).
fn memo_off(analysis: DtdAnalysis) -> Arc<CheckEngine> {
    let mut engine = CheckEngine::new(analysis);
    Arc::get_mut(&mut engine)
        .expect("a fresh engine is unshared")
        .set_memo_enabled(false);
    engine
}

/// E1 — the paper's worked artifacts, expected vs. measured.
fn table_examples() {
    println!("## Table E1 — paper artifacts (Figures 1–7, Examples 1–6)\n");
    println!("| artifact | expectation | measured |");
    println!("|---|---|---|");

    let fig1 = BuiltinDtd::Figure1.analysis();
    println!(
        "| Figure 1 DTD | parses; non-recursive; m=7 | parses; {}; m={} |",
        fig1.rec.class, fig1.stats.m
    );

    let checker = CheckEngine::new(fig1.clone());
    let w = pv_xml::parse(
        "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>",
    )
    .unwrap();
    let s = pv_xml::parse(
        "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>",
    )
    .unwrap();
    println!(
        "| Example 1/Figure 6(A): string w | not potentially valid (reject at <c>) | PV={} earley={} |",
        pv_of(&checker, &w),
        earley_pv(&fig1, &w)
    );
    println!(
        "| Example 1/Figure 6(B): string s | potentially valid | PV={} earley={} |",
        pv_of(&checker, &s),
        earley_pv(&fig1, &s)
    );

    let toks = Tokens::delta(&s, s.root(), &fig1.dtd).unwrap();
    let witness = complete_tokens(&toks, &fig1.dtd, fig1.root);
    println!(
        "| Figure 3 completion of s | valid extension inserting two <d> | inserted={} valid={} |",
        witness.as_ref().map(|w| w.inserted_count()).unwrap_or(0),
        witness
            .map(|w| pv_grammar::validator::validate_tokens(&w.tokens(), &fig1.dtd, fig1.root))
            .unwrap_or(false)
    );

    let dags = pv_core::dag::DagSet::new(&fig1);
    let a_dag = dags.dag(fig1.id("a").unwrap());
    let d_dag = dags.dag(fig1.id("d").unwrap());
    println!(
        "| Figure 4 DAGs | DAG_a: 4 nodes (b,c,f,d); DAG_d: 1 star-group | DAG_a: {} nodes; DAG_d: {} node |",
        a_dag.len(),
        d_dag.len()
    );

    let t1 = BuiltinDtd::T1.analysis();
    let t2 = BuiltinDtd::T2.analysis();
    println!(
        "| Example 5 (T1) | PV-strong recursive; <a><b/><b/></a> accepted under bounded depth | {}; accepted={} |",
        t1.rec.class,
        pv_of(&CheckEngine::new(t1.clone()), &pv_xml::parse("<a><b/><b/></a>").unwrap())
    );
    let t2doc = pv_xml::parse("<a><b/><b/><b/></a>").unwrap();
    let c0 = CheckEngine::with_policy(t2.clone(), DepthPolicy::Bounded(0));
    let c1 = CheckEngine::with_policy(t2.clone(), DepthPolicy::Bounded(1));
    println!(
        "| Example 6 (T2) | 3 b-children need exactly one elision step | D=0: {} / D=1: {} |",
        pv_of(&c0, &t2doc),
        pv_of(&c1, &t2doc)
    );

    // Theorem 2 spot check: random deletions preserve PV.
    let play = BuiltinDtd::Play.analysis();
    let mut doc = corpus::play(300);
    Mutator::new(42).delete_random_markup(&mut doc, 120);
    println!(
        "| Theorem 2 (deletion closure) | stripped corpus stays PV | PV={} |",
        pv_of(&CheckEngine::new(play.clone()), &doc)
    );

    // Theorem 3 spot check.
    let g = Grammar::new(&fig1.dtd, fig1.root, GrammarMode::PotentialValidity);
    let all_nullable = fig1.dtd.ids().all(|x| g.is_nullable(x));
    println!("| Theorem 3 (nullability in G') | all nonterminals nullable | {all_nullable} |");
    println!();
}

/// X1 — time vs. document size n (Theorem 4: linear for fixed DTD).
fn table_scaling_n() {
    println!("## Table X1 — scaling in document size n (play DTD)\n");
    println!("| n (δ tokens) | ECRecognizer (doc) | per token | Earley G' | per token | validate | Earley items |");
    println!("|---|---|---|---|---|---|---|");

    let analysis = BuiltinDtd::Play.analysis();
    let checker = CheckEngine::new(analysis.clone());
    let g = Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
    let earley = EarleyRecognizer::new(&g);

    for target in [250usize, 1000, 4000, 16000] {
        let mut doc = corpus::play(target);
        // Make it an in-progress document: strip 20% of the markup.
        Mutator::new(7).delete_random_markup(&mut doc, target / 5);
        let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
        let n = toks.len();

        let rec_time = median(5, || {
            assert!(checker.check_document(&doc).is_potentially_valid());
        });
        let (earley_time, items) = if n <= 40_000 {
            let (ok, st) = earley.accepts_with_stats(&toks);
            assert!(ok);
            (median(3, || {
                std::hint::black_box(earley.accepts(&toks));
            }), st.items)
        } else {
            (std::time::Duration::ZERO, 0)
        };
        let val_time = median(5, || {
            // The stripped doc is usually invalid; timing the full scan.
            std::hint::black_box(validate_document(&doc, &analysis.dtd, analysis.root).is_ok());
        });

        println!(
            "| {n} | {} | {} | {} | {} | {} | {items} |",
            fmt_dur(rec_time),
            per_item(rec_time, n),
            fmt_dur(earley_time),
            per_item(earley_time, n),
            fmt_dur(val_time),
        );
    }
    println!();
}

/// X2 — time vs. DTD size k at fixed document size.
fn table_scaling_k() {
    println!("## Table X2 — scaling in DTD size k (generated non-recursive DTDs)\n");
    println!("| m (elements) | k (occurrences) | doc tokens | ECRecognizer | per token |");
    println!("|---|---|---|---|---|");

    for m in [8usize, 16, 32, 64, 128] {
        let mut gen = DtdGen::new(
            2024,
            DtdGenParams { elements: m, max_model_atoms: 6, ..Default::default() },
        );
        let analysis = gen.generate();
        let mut docgen = DocGen::new(&analysis, 5);
        let mut doc = docgen.generate(3000);
        let strip = doc.element_count() / 5;
        Mutator::new(5).delete_random_markup(&mut doc, strip);
        let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
        let checker = CheckEngine::new(analysis.clone());
        let t = median(5, || {
            assert!(checker.check_document(&doc).is_potentially_valid());
        });
        println!(
            "| {m} | {} | {} | {} | {} |",
            analysis.stats.k,
            toks.len(),
            fmt_dur(t),
            per_item(t, toks.len())
        );
    }
    println!();
}

/// X3 — cost vs. depth bound D on PV-strong DTDs.
fn table_depth() {
    println!("## Table X3 — depth bound D on PV-strong DTDs (T2 family)\n");
    println!("| input (b-children) | D | accepted | subs created |");
    println!("|---|---|---|---|");

    let t2 = BuiltinDtd::T2.analysis();
    for n in [8usize, 32] {
        let xml = format!("<a>{}</a>", "<b/>".repeat(n));
        let doc = pv_xml::parse(&xml).unwrap();
        for d in [0u32, (n as u32).div_ceil(2), n as u32 - 2, 64] {
            let checker = CheckEngine::with_policy(t2.clone(), DepthPolicy::Bounded(d));
            let out = checker.check_document(&doc);
            println!(
                "| {n} | {d} | {} | {} |",
                out.is_potentially_valid(),
                out.stats.subs_created
            );
        }
    }

    println!("\n| dissertation doc (elements) | D | accepted | time |");
    println!("|---|---|---|---|");
    let th = BuiltinDtd::Dissertation.analysis();
    let mut docgen = DocGen::new(&th, 3);
    for target in [30usize, 60] {
        let mut doc = docgen.generate(target);
        let strip = doc.element_count() / 5;
        Mutator::new(3).delete_random_markup(&mut doc, strip);
        for d in [4u32, 16, 64] {
            let checker = CheckEngine::with_policy(th.clone(), DepthPolicy::Bounded(d));
            let accepted = checker.check_document(&doc).is_potentially_valid();
            let t = median(5, || {
                std::hint::black_box(checker.check_document(&doc).is_potentially_valid());
            });
            println!("| {} | {d} | {accepted} | {} |", doc.element_count(), fmt_dur(t));
        }
    }
    println!();
}

/// X4 — incremental editing guard costs (Theorem 2 + Proposition 3).
fn table_incremental() {
    println!("## Table X4 — incremental guard costs on a growing TEI document\n");
    println!("| doc elements | text update | text insert (O(1)) | markup insert (2×ECPV) | full recheck |");
    println!("|---|---|---|---|---|");

    let analysis = BuiltinDtd::TeiLite.analysis();
    let checker = CheckEngine::new(analysis.clone());

    for target in [100usize, 1000, 10000] {
        let doc = corpus::tei(target);
        // Find a paragraph to operate on.
        let p = doc
            .elements()
            .find(|&n| doc.name(n) == Some("p"))
            .expect("corpus has paragraphs");
        let parent = doc.parent(p).unwrap();

        let t_update = median(20, || {
            std::hint::black_box(checker.check_text_update().preserves_pv());
        });
        let t_text = median(20, || {
            std::hint::black_box(checker.check_text_insertion(&doc, p).preserves_pv());
        });
        let t_markup = median(20, || {
            std::hint::black_box(checker.check_markup_insertion(&doc, p, parent).preserves_pv());
        });
        let t_full = median(5, || {
            std::hint::black_box(checker.check_document(&doc).is_potentially_valid());
        });
        println!(
            "| {} | {} | {} | {} | {} |",
            doc.element_count(),
            fmt_dur(t_update),
            fmt_dur(t_text),
            fmt_dur(t_markup),
            fmt_dur(t_full)
        );
    }

    // Guarded *applied* edits through the editor session: since the undo
    // journal replaced whole-document snapshots, a 1k-edit trace costs
    // O(edit) per operation — the per-edit column must stay flat as the
    // document grows 100×.
    println!("\n| doc elements | 1k-edit editor trace (update_text) | per edit |");
    println!("|---|---|---|");
    for target in [100usize, 1000, 10000] {
        let doc = corpus::tei(target);
        let mut session =
            pv_editor::EditorSession::open(&analysis, doc).expect("TEI corpus is PV");
        let t = session
            .document()
            .descendants(session.document().root())
            .find(|&n| session.document().text(n).is_some())
            .expect("corpus has text");
        let elements = session.document().element_count();
        let t_trace = median(5, || {
            for i in 0..1000 {
                session
                    .update_text(t, if i % 2 == 0 { "alpha" } else { "beta" })
                    .expect("text update never rejected");
            }
        });
        println!("| {elements} | {} | {} |", fmt_dur(t_trace), per_item(t_trace, 1000));
    }
    println!();
}

/// X8 — memoized checking across the repetitive → adversarial corpora.
fn table_memo() {
    println!("## Table X8 — memoized checking (repetitive → adversarial corpora)\n");
    println!(
        "~10k-element corpora over the `repetitive` DTD family; `off` disables the\n\
         transition cache, `warm` re-checks with a populated cache (the editor regime),\n\
         `cold` clears the cache inside the timed loop. The hit rate counts child\n\
         symbols; `transitions` is the engine cache's size after the cold pass.\n\
         Outcomes (verdict + all work counters) are asserted bit-identical in every cell.\n"
    );
    println!("| corpus | nodes | distinct shapes | cold hit rate | transitions | off/node | warm/node | speedup | cold/node | cold overhead | identical |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");

    let analysis = corpus::repetitive_analysis();
    for distinct in crate::workloads::MEMO_DISTINCT_SWEEP {
        let doc = crate::workloads::memo_doc(distinct);
        let n = doc.element_count();
        let label = if distinct == usize::MAX {
            "all-distinct".to_owned()
        } else {
            format!("repetitive d={distinct}")
        };

        let off = memo_off(analysis.clone());
        let expect = off.check_document(&doc);

        let on = CheckEngine::new(analysis.clone());
        let cold_outcome = on.check_document(&doc);
        let cold_stats = on.memo_stats().unwrap();
        let warm_outcome = on.check_document(&doc);
        let identical = cold_outcome == expect && warm_outcome == expect;

        let t_off = median(5, || {
            std::hint::black_box(off.check_document(&doc).is_potentially_valid());
        });
        let t_warm = median(5, || {
            std::hint::black_box(on.check_document(&doc).is_potentially_valid());
        });
        let cold = CheckEngine::new(analysis.clone());
        let t_cold = median(5, || {
            cold.memo_clear();
            std::hint::black_box(cold.check_document(&doc).is_potentially_valid());
        });

        let speedup = t_off.as_secs_f64() / t_warm.as_secs_f64().max(f64::EPSILON);
        let overhead =
            100.0 * (t_cold.as_secs_f64() / t_off.as_secs_f64().max(f64::EPSILON) - 1.0);
        println!(
            "| {label} | {n} | {} | {:.1}% | {} | {} | {} | {speedup:.1}× | {} | {overhead:+.1}% | {identical} |",
            if distinct == usize::MAX { "all".to_owned() } else { distinct.to_string() },
            100.0 * cold_stats.hit_rate(),
            cold_stats.entries,
            per_item(t_off, n),
            per_item(t_warm, n),
            per_item(t_cold, n),
        );
    }

    // Real corpus anchor: the stripped play document.
    let play = BuiltinDtd::Play.analysis();
    let doc = crate::workloads::parallel_doc();
    let n = doc.element_count();
    let off = memo_off(play.clone());
    let expect = off.check_document(&doc);
    let on = CheckEngine::new(play);
    let cold_outcome = on.check_document(&doc);
    // Snapshot *before* the warm pass, like the synthetic rows: the column
    // reports the cold hit rate.
    let stats = on.memo_stats().unwrap();
    let identical = cold_outcome == expect && on.check_document(&doc) == expect;
    let t_off = median(5, || {
        std::hint::black_box(off.check_document(&doc).is_potentially_valid());
    });
    let t_warm = median(5, || {
        std::hint::black_box(on.check_document(&doc).is_potentially_valid());
    });
    println!(
        "| play (stripped) | {n} | — | {:.1}% | {} | {} | {} | {:.1}× | — | — | {identical} |",
        100.0 * stats.hit_rate(),
        stats.entries,
        per_item(t_off, n),
        per_item(t_warm, n),
        t_off.as_secs_f64() / t_warm.as_secs_f64().max(f64::EPSILON),
    );
    println!();
}

/// X5 — DTD classes at a fixed document size.
fn table_classes() {
    println!("## Table X5 — recognizer cost by DTD recursion class (generated DTDs, ~2000-token docs)\n");
    println!("| class | m | k | doc tokens | check time | per token | subs created |");
    println!("|---|---|---|---|---|---|---|");

    for class in
        [DtdClass::NonRecursive, DtdClass::PvWeakRecursive, DtdClass::PvStrongRecursive]
    {
        let mut gen = DtdGen::new(
            99,
            DtdGenParams { elements: 16, class, ..Default::default() },
        );
        let analysis = gen.generate();
        let mut docgen = DocGen::new(&analysis, 17);
        let mut doc = docgen.generate(2000);
        let strip = doc.element_count() / 5;
        Mutator::new(17).delete_random_markup(&mut doc, strip);
        let toks = Tokens::delta(&doc, doc.root(), &analysis.dtd).unwrap();
        let checker = CheckEngine::new(analysis.clone());
        let out = checker.check_document(&doc);
        assert!(out.is_potentially_valid());
        let t = median(5, || {
            std::hint::black_box(checker.check_document(&doc).is_potentially_valid());
        });
        println!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            class,
            analysis.stats.m,
            analysis.stats.k,
            toks.len(),
            fmt_dur(t),
            per_item(t, toks.len()),
            out.stats.subs_created
        );
    }
    println!();
}

/// X7 — batched checking on one persistent pool (pv-par), one document
/// per task.
fn table_parallel() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("## Table X7 — batched checking (persistent pool, one document per task, play DTD)\n");
    println!(
        "host CPUs available: {cores} — speedup is overhead-bounded once jobs exceed this\n"
    );
    println!("| workload | jobs | time | speedup vs jobs 1 | outcome identical |");
    println!("|---|---|---|---|---|");

    let checker = CheckEngine::new(BuiltinDtd::Play.analysis());
    // One pool for the whole table, as in a process; `jobs` caps how many
    // of its workers a region uses.
    let max_jobs = crate::workloads::PARALLEL_JOBS.into_iter().max().unwrap_or(1);
    let pool = Pool::new(max_jobs);

    // The same workloads as the parallel_scaling bench (see
    // crate::workloads): irregular documents, then the mixed batch whose
    // first document is about ten times the size of the others.
    for (label, docs) in [
        ("irregular batch", crate::workloads::parallel_batch()),
        ("mixed batch", crate::workloads::mixed_batch()),
    ] {
        let docs = Arc::new(docs);
        let total: usize = docs.iter().map(|d| d.element_count()).sum();
        let expect: Vec<_> = docs.iter().map(|d| checker.check_document(d)).collect();
        let t_seq = median(5, || {
            std::hint::black_box(checker.check_batch_pooled(&docs, &pool, 1).len());
        });
        for jobs in crate::workloads::PARALLEL_JOBS {
            let outs = checker.check_batch_pooled(&docs, &pool, jobs);
            let t = median(5, || {
                std::hint::black_box(checker.check_batch_pooled(&docs, &pool, jobs).len());
            });
            println!(
                "| {label}: {} docs, {total} elements | {jobs} | {} | {:.2}× | {} |",
                docs.len(),
                fmt_dur(t),
                t_seq.as_secs_f64() / t.as_secs_f64().max(f64::EPSILON),
                outs == expect
            );
        }
    }
    println!();
}


/// X9 — recognizer completeness against the exact Earley oracle: the
/// exhaustive bounded sweeps and the adversarial recursive families, with
/// the budget-exactness telemetry that certifies each row.
fn table_completeness() {
    use pv_core::depth::DepthPolicy;
    use pv_grammar::oracle::EarleyOracle;
    use pv_workload::sweep;

    println!("## Table X9 — recognizer completeness vs. exact Earley oracle\n");
    println!("| space | k | pairs | divergences | budget-denied docs | time |");
    println!("|---|---|---|---|---|---|");

    let row = |label: &str,
                   k: usize,
                   dtds: &[DtdAnalysis],
                   docs: &[Document]| {
        let start = std::time::Instant::now();
        let mut divergences = 0usize;
        let mut denied_docs = 0usize;
        for analysis in dtds {
            let checker = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(64));
            let oracle = EarleyOracle::new(analysis);
            for doc in docs {
                let out = checker.check_document(doc);
                if out.stats.specs_denied > 0 {
                    denied_docs += 1;
                }
                if out.is_potentially_valid() != oracle.is_potentially_valid(doc) {
                    divergences += 1;
                }
            }
        }
        println!(
            "| {label} | {k} | {} | {divergences} | {denied_docs} | {} |",
            dtds.len() * docs.len(),
            fmt_dur(start.elapsed())
        );
    };

    let models = sweep::model_catalogue(1);
    row("exhaustive sweep", 1, &sweep::enumerate_dtds(1, &models), &sweep::enumerate_documents(1, 6));
    let models = sweep::model_catalogue(2);
    row("exhaustive sweep", 2, &sweep::enumerate_dtds(2, &models), &sweep::enumerate_documents(2, 5));
    let models = sweep::model_catalogue_small(3);
    row("exhaustive sweep (trimmed catalogue)", 3, &sweep::enumerate_dtds(3, &models), &sweep::enumerate_documents(3, 4));

    for (depth, fanout) in [(8usize, 4usize), (4, 8), (11, 3), (32, 1)] {
        let analysis = corpus::recursive_analysis(depth, fanout);
        row(
            &format!("corpus::recursive({depth}, {fanout})"),
            depth * fanout,
            std::slice::from_ref(&analysis),
            &corpus::recursive(depth, fanout),
        );
    }

    // The stress configuration deliberately exceeds the budget: its
    // divergences are permitted but every one must be budget-flagged
    // (tests/completeness.rs asserts the implication).
    let analysis = corpus::recursive_analysis(16, 2);
    row(
        "corpus::recursive(16, 2) [stress: over-budget by design]",
        32,
        std::slice::from_ref(&analysis),
        &corpus::recursive(16, 2),
    );
    println!();
    println!(
        "every row is verified divergence-free against the exact oracle; `budget-denied docs` \
         counts documents whose check clipped at least one speculation (harmless here — the \
         suites additionally assert any divergence, as on the stress config's sibling runs, \
         is always budget-flagged, never silent)"
    );
    println!();
}

/// X11 — the static analyzer (`pvx analyze`): per-builtin class,
/// determinism and budget certificate, and the certificate's claim held
/// on a speculation-heavy document: a certified DTD's check at the
/// default budget denies no speculation (`specs_denied` reads 0).
fn table_analyze() {
    use pv_dtd::StaticReport;

    println!("## Table X11 — static DTD analysis: budget certificates\n");
    println!("| builtin | class | 1-unambiguous | full budget | static bound | verdict | specs_denied | certify |");
    println!("|---|---|---|---|---|---|---|---|");

    for b in BuiltinDtd::ALL {
        let analysis = b.analysis();
        let report = StaticReport::analyze(&analysis);
        let verdict = if report.budget.is_certified() { "certified" } else { "flagged" };
        let t_certify = median(9, || {
            std::hint::black_box(pv_dtd::budget::certify(&analysis).is_certified());
        });

        // A speculation-heavy in-progress document: the builtin corpus
        // with 20% of its markup stripped (generated for the tiny paper
        // DTDs that have no corpus builder).
        let mut doc = match corpus::for_builtin(b, 4000) {
            Some(d) => d,
            None => DocGen::new(&analysis, 11).generate(400),
        };
        let strip = doc.element_count() / 5;
        Mutator::new(9).delete_random_markup(&mut doc, strip);

        let out = CheckEngine::new(analysis.clone()).check_document(&doc);
        println!(
            "| {} | {} | {} | {} | {} | {verdict} | {} | {} |",
            b.name(),
            analysis.rec.class,
            report.deterministic(),
            report.budget.full_budget,
            report.budget.static_bound.map_or("—".to_owned(), |s| s.to_string()),
            out.stats.specs_denied,
            fmt_dur(t_certify),
        );
        if report.budget.is_certified() {
            assert_eq!(out.stats.specs_denied, 0, "{}: certificate broken", b.name());
        }
    }
    println!();
    println!(
        "every check runs the full default budget; a certificate proves it is never used \
         up, and tests/analyze_soundness.rs holds specs_denied = 0 for certified DTDs \
         across sweeps, corpora, and random families"
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_resolve() {
        assert_eq!(all_tables().len(), 10);
        assert!(all_tables().contains(&"parallel"));
        assert!(all_tables().contains(&"memo"));
        assert!(all_tables().contains(&"completeness"));
    }

    #[test]
    fn examples_table_runs() {
        // Smoke test: the most assertion-dense table must not panic.
        table_examples();
    }
}
