//! The experiment tables (see crate docs for the index), their
//! `BENCH_*.json` files, and the `experiments` command line.

use crate::timing::{self, fmt_cell, fmt_per_item, fmt_ratio, json_array, Row, Timed};
use crate::workloads;
use pv_core::depth::DepthPolicy;
use pv_core::recognizer::RecognizerStats;
use pv_core::suggest::{allowed_wraps, expected_next_for_node};
use pv_core::token::Tokens;
use pv_core::CheckEngine;
use pv_dtd::builtin::BuiltinDtd;
use pv_dtd::{DtdAnalysis, DtdClass};
use pv_grammar::earley::EarleyRecognizer;
use pv_grammar::ecfg::{Grammar, GrammarMode};
use pv_grammar::validator::validate_document;
use pv_grammar::witness::complete_tokens;
use pv_obs::Registry;
use pv_par::Pool;
use pv_workload::corpus;
use pv_workload::docgen::DocGen;
use pv_workload::dtdgen::{DtdGen, DtdGenParams};
use pv_workload::mutate::Mutator;
use pv_xml::Document;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One experiment table: its `--table` name, the `BENCH_*.json` file its
/// timed rows go to under `--json`, and the function that prints it and
/// returns those rows.
#[derive(Debug)]
pub struct Table {
    pub name: &'static str,
    pub file: Option<&'static str>,
    run: fn() -> Vec<Timed>,
}

/// Every table, in the order a full run prints them.
pub const TABLES: [Table; 10] = [
    Table { name: "examples", file: None, run: table_examples },
    Table { name: "scaling-n", file: Some("BENCH_scaling_n.json"), run: table_scaling_n },
    Table { name: "scaling-k", file: Some("BENCH_scaling_k.json"), run: table_scaling_k },
    Table { name: "depth", file: Some("BENCH_depth_bound.json"), run: table_depth },
    Table { name: "incremental", file: Some("BENCH_incremental.json"), run: table_incremental },
    Table { name: "classes", file: Some("BENCH_dtd_classes.json"), run: table_classes },
    Table { name: "parallel", file: Some("BENCH_parallel_scaling.json"), run: table_parallel },
    Table { name: "memo", file: Some("BENCH_memo.json"), run: table_memo },
    Table { name: "completeness", file: Some("BENCH_completeness.json"), run: table_completeness },
    Table { name: "analyze", file: Some("BENCH_analyze.json"), run: table_analyze },
];

/// The `experiments` usage line.
pub const USAGE: &str = "usage: experiments [--table NAME]... [--json DIR] [--list]\n\
     runs every table when none is named; --json DIR writes each table's timed rows to DIR/BENCH_*.json";

/// What the `experiments` command line asks for.
#[derive(Debug)]
pub enum Command {
    /// Print these tables (every table when none was named); with `json`,
    /// write each one's timed rows to its file in that directory.
    Run { tables: Vec<&'static Table>, json: Option<PathBuf> },
    /// Print the table names.
    List,
    /// Print the usage.
    Help,
}

/// Parses the `experiments` arguments (program name excluded). Every
/// table name is resolved here, before any table runs; an unknown name,
/// an unknown flag or a flag without its value is an error whose message
/// names the known tables.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let known = || TABLES.iter().map(|t| t.name).collect::<Vec<_>>().join(", ");
    let mut args = args.into_iter();
    let (mut tables, mut json) = (Vec::new(), None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--table" | "-t" => {
                let name = args
                    .next()
                    .ok_or_else(|| format!("--table needs a name; known: {}", known()))?;
                let table = TABLES
                    .iter()
                    .find(|t| t.name == name)
                    .ok_or_else(|| format!("unknown table {name:?}; known: {}", known()))?;
                tables.push(table);
            }
            "--json" => json = Some(PathBuf::from(args.next().ok_or("--json needs a directory")?)),
            "--list" => return Ok(Command::List),
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if tables.is_empty() {
        tables = TABLES.iter().collect();
    }
    Ok(Command::Run { tables, json })
}

/// Prints `tables` as markdown, in order. With `json`, creates that
/// directory and writes each table's timed rows to its `BENCH_*.json`
/// file there as soon as the table finishes.
pub fn run_tables(tables: &[&Table], json: Option<&Path>) -> std::io::Result<()> {
    if let Some(dir) = json {
        std::fs::create_dir_all(dir)?;
    }
    // The system allocator runs a faster single-threaded path until the
    // process first starts a thread, and X1 and X7 start pool workers:
    // without this, allocation-heavy rows (X9's recursive families) read
    // up to 1.3× slower after those tables than in a run of their own.
    // One thread started first puts every table in the same regime.
    std::thread::spawn(|| {}).join().expect("an empty thread does not panic");
    println!("# Potential-validity experiment tables\n");
    for table in tables {
        let records = (table.run)();
        if let (Some(dir), Some(file)) = (json, table.file) {
            std::fs::write(dir.join(file), json_array(&records))?;
        }
    }
    Ok(())
}

fn pv_of(checker: &CheckEngine, doc: &Document) -> bool {
    checker.check_document(doc).is_potentially_valid()
}

fn earley_pv(analysis: &DtdAnalysis, doc: &Document) -> bool {
    let g = Grammar::new(&analysis.dtd, analysis.root, GrammarMode::PotentialValidity);
    let toks = Tokens::delta(doc, doc.root(), &analysis.dtd).unwrap();
    EarleyRecognizer::new(&g).accepts(&toks)
}

fn delta_len(doc: &Document, analysis: &DtdAnalysis) -> usize {
    Tokens::delta(doc, doc.root(), &analysis.dtd).expect("corpus documents tokenize").len()
}

/// An engine with memoization off (the memo tables' reference).
fn memo_off(analysis: DtdAnalysis) -> Arc<CheckEngine> {
    let mut engine = CheckEngine::new(analysis);
    Arc::get_mut(&mut engine).expect("a fresh engine is unshared").set_memo_enabled(false);
    engine
}

/// Prints a markdown table's header row and rule; `columns` are
/// separated by ` | `.
fn head(columns: &str) {
    println!("| {columns} |\n|{}", "---|".repeat(columns.split(" | ").count()));
}

/// `doc` with a fifth of its elements' markup stripped (seeded), the
/// in-progress documents the timed tables check.
fn stripped(mut doc: Document, seed: u64) -> Document {
    let strip = doc.element_count() / 5;
    Mutator::new(seed).delete_random_markup(&mut doc, strip);
    doc
}

/// E1 — the paper's worked artifacts, expected vs. measured.
fn table_examples() -> Vec<Timed> {
    println!("## Table E1 — paper artifacts (Figures 1–7, Examples 1–6)\n");
    head("artifact | expectation | measured");

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
    Vec::new()
}

/// X1 — time vs. document size n (Theorem 4: linear for fixed DTD), the
/// Earley baseline on `G'`, full validation, and the cost of metrics.
fn table_scaling_n() -> Vec<Timed> {
    println!("## Table X1 — scaling in document size n (play DTD)\n");

    let analysis = BuiltinDtd::Play.analysis();
    let (dtd, root) = (&analysis.dtd, analysis.root);
    let plain = CheckEngine::new(analysis.clone());
    let registry = Registry::new();
    let observed =
        CheckEngine::with_policy_observed(analysis.clone(), DepthPolicy::Auto, &registry);
    let pool = Pool::new(1);
    let g = Grammar::new(dtd, root, GrammarMode::PotentialValidity);
    let earley = EarleyRecognizer::new(&g);

    // Per size: an in-progress document (20% of the markup stripped), its
    // δ tokens, and the valid document before stripping. The validator
    // stops at the first content mismatch, which on a stripped document is
    // near the root, so it is timed on the valid one: it visits every node.
    let sizes: Vec<_> = [250usize, 1000, 4000, 16000]
        .into_iter()
        .map(|target| {
            let valid = corpus::play(target);
            let mut doc = valid.clone();
            Mutator::new(7).delete_random_markup(&mut doc, target / 5);
            let toks = Tokens::delta(&doc, doc.root(), dtd).unwrap();
            let doc = Arc::new(doc);
            assert!(pv_of(&plain, &doc) && validate_document(&valid, dtd, root).is_ok());
            let outcome = plain.check_document_pooled(&doc, &pool, 1, true);
            assert_eq!(outcome, observed.check_document_pooled(&doc, &pool, 1, true));
            let valid_n = delta_len(&valid, &analysis);
            (doc, toks, valid, valid_n)
        })
        .collect();

    let (plain, observed, pool, earley) = (&plain, &observed, &pool, &earley);
    let mut rows = Vec::new();
    for (doc, toks, valid, valid_n) in &sizes {
        let n = toks.len();
        rows.push(
            Row::new("scaling_n", format!("ecrecognizer/{n}"), || pv_of(plain, doc)).elements(n),
        );
        rows.push(
            Row::new("scaling_n", format!("earley/{n}"), || earley.accepts(toks)).elements(n),
        );
        let validate = || validate_document(valid, dtd, root).is_ok();
        rows.push(
            Row::new("scaling_n", format!("validate/{valid_n}"), validate).elements(*valid_n),
        );
        for (id, engine) in [("pooled", plain), ("pooled_observed", observed)] {
            let check =
                move || engine.check_document_pooled(doc, pool, 1, true).is_potentially_valid();
            rows.push(Row::new("scaling_n", format!("{id}/{n}"), check).elements(n));
        }
    }
    let timed = timing::run(rows);

    head("n (δ tokens) | ECRecognizer | per token | Earley G' | per token | Earley items");
    for ((_, toks, ..), t) in sizes.iter().zip(timed.chunks(5)) {
        let (n, (accepted, stats)) = (toks.len(), earley.accepts_with_stats(toks));
        assert!(accepted);
        let (ec, ey) = (&t[0], &t[1]);
        let cells = [fmt_cell(ec), fmt_per_item(ec, n), fmt_cell(ey), fmt_per_item(ey, n)];
        println!("| {n} | {} | {} |", cells.join(" | "), stats.items);
    }
    println!("\nValidation, timed on each document before stripping:\n");
    head("n (δ tokens) | validate | per token");
    for ((.., valid_n), t) in sizes.iter().zip(timed.chunks(5)) {
        println!("| {valid_n} | {} | {} |", fmt_cell(&t[2]), fmt_per_item(&t[2], *valid_n));
    }
    println!(
        "\nThe cost of metrics: `check_document_pooled` on an engine that records `pv_engine_*`\n\
         telemetry into a live registry, over the same call on a plain engine (the base), per\n\
         round; outcomes are asserted equal:\n"
    );
    head("n (δ tokens) | plain engine | observed engine | observed ÷ plain");
    for ((_, toks, ..), t) in sizes.iter().zip(timed.chunks(5)) {
        let ratio = fmt_ratio(t[4].ratio(&t[3]));
        println!("| {} | {} | {} | {ratio} |", toks.len(), fmt_cell(&t[3]), fmt_cell(&t[4]));
    }
    println!();
    timed
}

/// X2 — time vs. DTD size k at fixed document size.
fn table_scaling_k() -> Vec<Timed> {
    println!("## Table X2 — scaling in DTD size k (generated non-recursive DTDs)\n");

    let cases: Vec<_> = [8usize, 16, 32, 64, 128]
        .into_iter()
        .map(|m| {
            let params = DtdGenParams { elements: m, max_model_atoms: 6, ..Default::default() };
            let analysis = DtdGen::new(2024, params).generate();
            let doc = stripped(DocGen::new(&analysis, 5).generate(3000), 5);
            let n = delta_len(&doc, &analysis);
            let checker = CheckEngine::new(analysis);
            assert!(pv_of(&checker, &doc));
            (m, checker, doc, n)
        })
        .collect();
    let rows = cases
        .iter()
        .map(|(_, checker, doc, n)| {
            let k = checker.analysis().stats.k;
            Row::new("scaling_k", format!("ecrecognizer/{k}"), || pv_of(checker, doc)).elements(*n)
        })
        .collect();
    let timed = timing::run(rows);

    head("m (elements) | k (occurrences) | doc tokens | ECRecognizer | per token");
    for ((m, checker, _, n), t) in cases.iter().zip(&timed) {
        let k = checker.analysis().stats.k;
        println!("| {m} | {k} | {n} | {} | {} |", fmt_cell(t), fmt_per_item(t, *n));
    }
    println!();
    timed
}

/// A valid dissertation of `elements` element nodes (at least 16): a
/// tenth of them nested parts, each closed by its summary, around one
/// unit of paragraphs — the DTD's one shape, since a part holds one part
/// or one unit. (The grammar walk of `DocGen` takes `part | unit` at
/// random, so its chains end after a few parts, at ~60 elements.)
fn dissertation(elements: usize) -> Document {
    let parts = elements / 10;
    let paras = elements - 4 - 2 * parts;
    let mut xml = String::from("<thesis><title>On potential validity</title>");
    xml.push_str(&"<part>".repeat(parts));
    xml.push_str("<unit><title>Results</title>");
    xml.push_str(&"<para>text</para>".repeat(paras));
    xml.push_str("</unit>");
    xml.push_str(&"<summary>recap</summary></part>".repeat(parts));
    xml.push_str("</thesis>");
    pv_xml::parse(&xml).expect("well-formed")
}

/// X3 — cost vs. depth bound D on PV-strong DTDs: the adversarial T2
/// chain (Example 6; 24 b-children need 22 elisions) and a dissertation
/// of 1,000 elements, 200 of them stripped, whose stripped parts need
/// elisions through the part chain.
fn table_depth() -> Vec<Timed> {
    println!("## Table X3 — depth bound D on PV-strong DTDs\n");

    let (t2, th) = (BuiltinDtd::T2.analysis(), BuiltinDtd::Dissertation.analysis());
    let chain = pv_xml::parse(&format!("<a>{}</a>", "<b/>".repeat(24))).unwrap();
    let mut thesis = dissertation(1000);
    assert_eq!(thesis.element_count(), 1000, "dissertation1k is named for its size");
    Mutator::new(3).delete_random_markup(&mut thesis, 200);
    assert_eq!(thesis.element_count(), 800, "a fifth of dissertation1k is stripped");
    let documents = [
        (&t2, &chain, "t2_chain24", &[2, 8, 22, 64][..]),
        (&th, &thesis, "dissertation1k", &[4, 16, 64]),
    ];
    let cases: Vec<_> = documents
        .into_iter()
        .flat_map(|(analysis, doc, label, depths)| {
            depths.iter().map(move |&d| {
                let checker = CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(d));
                (label, doc, d, checker)
            })
        })
        .collect();
    let rows = cases
        .iter()
        .map(|(label, doc, d, checker)| {
            Row::new("depth_bound", format!("{label}/{d}"), || pv_of(checker, doc))
        })
        .collect();
    let timed = timing::run(rows);

    head("document | elements | D | accepted | subs created | time");
    for ((label, doc, d, checker), t) in cases.iter().zip(&timed) {
        let out = checker.check_document(doc);
        let (ok, subs) = (out.is_potentially_valid(), out.stats.subs_created);
        let n = doc.element_count();
        println!("| {label} | {n} | {d} | {ok} | {subs} | {} |", fmt_cell(t));
    }
    println!();
    timed
}

/// X4 — incremental editing guard costs (Theorem 2 + Proposition 3), and
/// guarded edits applied through an editor session, undo journal
/// included: one text update, and a 1,000-edit trace. Since the journal
/// replaced whole-document snapshots an edit costs O(edit), so the
/// per-edit cells must stay flat as the document grows 100×. The two
/// editor queries run on the markup guard's parent: the tag palette over
/// its middle child, and autocomplete after its last.
fn table_incremental() -> Vec<Timed> {
    println!("## Table X4 — incremental guard costs on a growing TEI document\n");

    let analysis = BuiltinDtd::TeiLite.analysis();
    let checker = CheckEngine::new(analysis.clone());
    let targets = [100usize, 1000, 10000];
    let docs: Vec<Document> = targets.iter().map(|&t| corpus::tei(t)).collect();
    // An editor session on the same document, and the first text node
    // its edits rewrite.
    let session = |target| {
        let session = pv_editor::EditorSession::open(&analysis, corpus::tei(target))
            .expect("TEI corpus is PV");
        let doc = session.document();
        let text = doc.descendants(doc.root()).find(|&n| doc.text(n).is_some());
        (session, text.expect("corpus has text"))
    };

    let mut rows = Vec::new();
    for (&target, doc) in targets.iter().zip(&docs) {
        let p = doc.elements().find(|&n| doc.name(n) == Some("p")).expect("corpus has paragraphs");
        let parent = doc.parent(p).unwrap();
        let c = &checker;
        let id = |name| format!("{name}/{target}");
        rows.push(Row::new("incremental", id("text_update_o1"), || {
            c.check_text_update().preserves_pv()
        }));
        rows.push(Row::new("incremental", id("text_insert_o1"), move || {
            c.check_text_insertion(doc, p).preserves_pv()
        }));
        rows.push(Row::new("incremental", id("markup_insert_2ecpv"), move || {
            c.check_markup_insertion(doc, p, parent).preserves_pv()
        }));
        rows.push(Row::new("incremental", id("full_recheck"), move || pv_of(c, doc)));
        let (mut one, t) = session(target);
        rows.push(Row::new("incremental", id("editor_text_update"), move || {
            one.update_text(t, "brown fox").expect("text update never rejected")
        }));
        let (mut trace, t) = session(target);
        rows.push(Row::new("incremental", id("editor_trace_1k_edits"), move || {
            for i in 0..1000 {
                let text = if i % 2 == 0 { "alpha" } else { "beta" };
                trace.update_text(t, text).expect("text update never rejected");
            }
        }));
        let middle = doc.children(parent).len() / 2;
        rows.push(Row::new("incremental", id("palette"), move || {
            let mut stats = RecognizerStats::default();
            allowed_wraps(c, doc, parent, middle..middle + 1, &mut stats)
        }));
        rows.push(Row::new("incremental", id("autocomplete"), move || {
            expected_next_for_node(c, doc, parent)
        }));
    }
    let timed = timing::run(rows);

    head("doc elements | text update (O(1)) | text insert (O(1)) | markup insert (2×ECPV) | full recheck | applied text update | 1k-edit trace, per edit | palette | autocomplete");
    for (doc, t) in docs.iter().zip(timed.chunks(8)) {
        let mut cells: Vec<String> = t[..5].iter().map(fmt_cell).collect();
        cells.push(fmt_per_item(&t[5], 1000));
        cells.extend(t[6..].iter().map(fmt_cell));
        println!("| {} | {} |", doc.element_count(), cells.join(" | "));
    }
    println!();
    timed
}

/// X8 — memoized checking across the repetitive → adversarial corpora.
fn table_memo() -> Vec<Timed> {
    println!("## Table X8 — memoized checking (repetitive → adversarial corpora)\n");
    println!(
        "~10k-element corpora over the `repetitive` DTD family, `repetitive<d>` with d distinct\n\
         `s` shapes, then the stripped play document; `off` disables the transition cache,\n\
         `warm` re-checks with a populated cache (the editor regime), `cold` clears the cache\n\
         inside the timed loop. The hit rate counts child symbols; `transitions` is the engine\n\
         cache's size after the cold pass. Outcomes (verdict + all work counters) are asserted\n\
         bit-identical in every cell. Speedup is off ÷ warm, and cold ÷ off the cold pass's\n\
         cost; both ratios are taken per round.\n"
    );

    let repetitive = corpus::repetitive_analysis();
    let mut corpora: Vec<_> = workloads::MEMO_DISTINCT_SWEEP
        .into_iter()
        .map(|distinct| {
            let label = match distinct {
                usize::MAX => "adversarial".to_owned(),
                d => format!("repetitive{d}"),
            };
            (label, repetitive.clone(), workloads::memo_doc(distinct))
        })
        .collect();
    corpora.push(("play".to_owned(), BuiltinDtd::Play.analysis(), workloads::parallel_doc()));
    // Per corpus: the memo-off reference, an engine warmed by one pass,
    // one whose cache every call clears, and the warming pass's stats.
    let engines: Vec<_> = corpora
        .iter()
        .map(|(label, analysis, doc)| {
            let off = memo_off(analysis.clone());
            let (warm, cold) =
                (CheckEngine::new(analysis.clone()), CheckEngine::new(analysis.clone()));
            let expect = off.check_document(doc);
            assert_eq!(warm.check_document(doc), expect, "{label}: cold pass");
            let stats = warm.memo_stats().expect("memo is on");
            assert_eq!(warm.check_document(doc), expect, "{label}: warm pass");
            (off, warm, cold, stats)
        })
        .collect();

    let mut rows = Vec::new();
    for ((label, _, doc), (off, warm, cold, _)) in corpora.iter().zip(&engines) {
        let n = doc.element_count();
        let id = |regime| format!("{label}_{regime}/{n}");
        rows.push(Row::new("memo", id("off"), || pv_of(off, doc)).elements(n));
        rows.push(Row::new("memo", id("on_warm"), || pv_of(warm, doc)).elements(n));
        let clear_and_check = || {
            cold.memo_clear();
            pv_of(cold, doc)
        };
        rows.push(Row::new("memo", id("on_cold"), clear_and_check).elements(n));
    }
    let timed = timing::run(rows);

    head("corpus | nodes | cold hit rate | transitions | off/node | warm/node | speedup | cold/node | cold ÷ off");
    for (((label, _, doc), (.., stats)), t) in corpora.iter().zip(&engines).zip(timed.chunks(3)) {
        let n = doc.element_count();
        let (hits, entries) = (100.0 * stats.hit_rate(), stats.entries);
        let per_node = |t| fmt_per_item(t, n);
        let (speedup, cold_cost) = (fmt_ratio(t[0].ratio(&t[1])), fmt_ratio(t[2].ratio(&t[0])));
        let (off, warm, cold) = (per_node(&t[0]), per_node(&t[1]), per_node(&t[2]));
        println!(
            "| {label} | {n} | {hits:.1}% | {entries} | {off} | {warm} | {speedup} | {cold} | {cold_cost} |"
        );
    }
    println!();
    timed
}

/// X5 — DTD classes at a fixed document size.
fn table_classes() -> Vec<Timed> {
    println!(
        "## Table X5 — recognizer cost by DTD recursion class \
         (generated 16-element DTDs, ~2,000-token documents)\n"
    );

    let cases: Vec<_> = [
        (DtdClass::NonRecursive, "non_recursive"),
        (DtdClass::PvWeakRecursive, "pv_weak"),
        (DtdClass::PvStrongRecursive, "pv_strong"),
    ]
    .into_iter()
    .map(|(class, label)| {
        let params = DtdGenParams { elements: 16, class, ..Default::default() };
        // The grammar walk repeats a star at most 64 times, so a DTD
        // without nested repetition caps its documents: seed 99's stop
        // at 58 tokens. Seed 227 is the first whose three DTDs all give
        // 1,800–2,300 tokens for 1,000 elements asked.
        let analysis = DtdGen::new(227, params).generate();
        let doc = stripped(DocGen::new(&analysis, 17).generate(1000), 17);
        let n = delta_len(&doc, &analysis);
        assert!((1_800..=2_300).contains(&n), "{label}: {n} δ tokens, not ~2,000");
        let checker = CheckEngine::new(analysis);
        let out = checker.check_document(&doc);
        assert!(out.is_potentially_valid());
        (class, label, checker, doc, n, out.stats.subs_created)
    })
    .collect();
    let rows = cases
        .iter()
        .map(|(_, label, checker, doc, ..)| {
            Row::new("dtd_classes", format!("check/{label}"), || pv_of(checker, doc))
        })
        .collect();
    let timed = timing::run(rows);

    head("class | m | k | doc tokens | check time | per token | subs created");
    for ((class, _, checker, _, n, subs), t) in cases.iter().zip(&timed) {
        let stats = &checker.analysis().stats;
        let (time, per) = (fmt_cell(t), fmt_per_item(t, *n));
        println!("| {class} | {} | {} | {n} | {time} | {per} | {subs} |", stats.m, stats.k);
    }
    println!();
    timed
}

/// X7 — batched checking on one persistent pool (pv-par), one document
/// per task, against the sequential check of one large document; every
/// row lexes its documents' text as it checks them.
fn table_parallel() -> Vec<Timed> {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("## Table X7 — batched checking (persistent pool, one document per task, play DTD)\n");
    println!(
        "host CPUs available: {cores} — speedup is overhead-bounded once jobs exceed this;\n\
         speedup is jobs 1 ÷ jobs N, per round\n"
    );

    let checker = CheckEngine::new(BuiltinDtd::Play.analysis());
    // One pool for the whole table, as in a process; `jobs` caps how many
    // of its workers a region uses.
    let pool = Pool::new(workloads::PARALLEL_JOBS.into_iter().max().unwrap_or(1));
    // Every row takes text in, as `pvx check`, `CHECK` and `BATCH` do, so
    // each time includes lexing.
    let doc = workloads::parallel_doc();
    let n = delta_len(&doc, checker.analysis());
    let text = doc.to_xml();
    // Irregular documents, then the mixed batch whose first document is
    // about ten times the size of the others.
    let batches: Vec<_> = [
        ("batch_checking", "irregular batch", workloads::parallel_batch()),
        ("mixed_batch", "mixed batch", workloads::mixed_batch()),
    ]
    .into_iter()
    .map(|(group, label, docs)| {
        let total: usize = docs.iter().map(|d| d.element_count()).sum();
        let docs: Arc<Vec<String>> = Arc::new(docs.iter().map(Document::to_xml).collect());
        let expect: Vec<_> =
            docs.iter().map(|d| Ok(checker.check_document(&pv_xml::parse(d).unwrap()))).collect();
        let identical: Vec<bool> = workloads::PARALLEL_JOBS
            .iter()
            .map(|&jobs| checker.check_batch_pooled(&docs, &pool, jobs) == expect)
            .collect();
        (group, label, docs, identical, total)
    })
    .collect();

    // The one-document row gets an engine of its own: its warm cache then
    // holds that document's transitions, not the batches' as well.
    let single = CheckEngine::new(checker.analysis().clone());
    assert!(single.check_str(&text, true).is_ok_and(|o| o.is_potentially_valid()));
    let (checker, pool) = (&checker, &pool);
    let sequential = Row::new("parallel_scaling", format!("sequential/{n}"), || {
        single.check_str(&text, true).is_ok_and(|o| o.is_potentially_valid())
    });
    let mut rows = vec![sequential.elements(n)];
    for (group, _, docs, _, total) in &batches {
        for jobs in workloads::PARALLEL_JOBS {
            let batch = move || checker.check_batch_pooled(docs, pool, jobs).len();
            rows.push(
                Row::new(group, format!("jobs{jobs}/{}", docs.len()), batch).elements(*total),
            );
        }
    }
    let timed = timing::run(rows);

    head("workload | jobs | time | speedup vs jobs 1 | outcome identical");
    println!(
        "| one document, {n} δ tokens, `check_str` | — | {} | — | — |",
        fmt_cell(&timed[0])
    );
    let chunks = timed[1..].chunks(workloads::PARALLEL_JOBS.len());
    for ((_, label, docs, identical, total), t) in batches.iter().zip(chunks) {
        for ((jobs, ok), tj) in workloads::PARALLEL_JOBS.iter().zip(identical).zip(t) {
            let (time, speedup) = (fmt_cell(tj), fmt_ratio(t[0].ratio(tj)));
            let workload = format!("{label}: {} docs, {total} elements", docs.len());
            println!("| {workload} | {jobs} | {time} | {speedup} | {ok} |");
        }
    }
    println!();
    timed
}

/// X9 — recognizer completeness against the exact Earley oracle: the
/// exhaustive bounded sweeps and the adversarial recursive families, with
/// the budget-exactness telemetry that certifies each row, then the
/// timed cost of complete recognition on those families and sweeps.
fn table_completeness() -> Vec<Timed> {
    use pv_grammar::oracle::EarleyOracle;
    use pv_workload::sweep;

    println!("## Table X9 — recognizer completeness vs. exact Earley oracle\n");
    head("space | k | pairs | divergences | budget-denied docs");

    let bounded = |analysis: &DtdAnalysis| {
        CheckEngine::with_policy(analysis.clone(), DepthPolicy::Bounded(64))
    };
    let row = |label: &str, k: usize, dtds: &[DtdAnalysis], docs: &[Document]| {
        let mut divergences = 0usize;
        let mut denied_docs = 0usize;
        for analysis in dtds {
            let checker = bounded(analysis);
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
        println!("| {label} | {k} | {} | {divergences} | {denied_docs} |", dtds.len() * docs.len());
    };

    let dtds1 = sweep::enumerate_dtds(1, &sweep::model_catalogue(1));
    row("exhaustive sweep", 1, &dtds1, &sweep::enumerate_documents(1, 6));
    let dtds2 = sweep::enumerate_dtds(2, &sweep::model_catalogue(2));
    row("exhaustive sweep", 2, &dtds2, &sweep::enumerate_documents(2, 5));
    let models = sweep::model_catalogue_small(3);
    row(
        "exhaustive sweep (trimmed catalogue)",
        3,
        &sweep::enumerate_dtds(3, &models),
        &sweep::enumerate_documents(3, 4),
    );

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

    // Timed: one pass over each certified recursive family's documents,
    // the k = 2 sweep on the recognizer alone (engines built inside, as
    // the suite does), and the oracle-inclusive k = 1 differential.
    let families: Vec<_> = [(8usize, 4usize), (32, 1), (4, 8)]
        .into_iter()
        .map(|(depth, fanout)| {
            let checker = bounded(&corpus::recursive_analysis(depth, fanout));
            (format!("recursive/d{depth}_f{fanout}"), checker, corpus::recursive(depth, fanout))
        })
        .collect();
    let (docs1, docs2) = (sweep::enumerate_documents(1, 5), sweep::enumerate_documents(2, 4));
    let mut rows: Vec<Row> = families
        .iter()
        .map(|(id, checker, docs)| {
            let nodes = docs.iter().map(|d| d.element_count()).sum();
            let pass = || docs.iter().filter(|d| pv_of(checker, d)).count();
            Row::new("completeness", id.as_str(), pass).elements(nodes)
        })
        .collect();
    let sweep_k2 = || {
        let accepted =
            |checker: Arc<CheckEngine>| docs2.iter().filter(|d| pv_of(&checker, d)).count();
        dtds2.iter().map(|a| accepted(bounded(a))).sum::<usize>()
    };
    rows.push(
        Row::new("completeness", "sweep_k2_recognizer", sweep_k2)
            .elements(dtds2.len() * docs2.len()),
    );
    let sweep_k1 = || {
        let diverging = |a| EarleyOracle::new(a).divergences(&bounded(a), &docs1).len();
        dtds1.iter().map(diverging).sum::<usize>()
    };
    rows.push(
        Row::new("completeness", "sweep_k1_differential", sweep_k1)
            .elements(dtds1.len() * docs1.len()),
    );
    let timed = timing::run(rows);

    head("timed workload | units | time | per unit");
    for t in &timed {
        let units = t.elements.unwrap_or(1) as usize;
        println!("| {} | {units} | {} | {} |", t.id, fmt_cell(t), fmt_per_item(t, units));
    }
    println!(
        "\nunits are element nodes for `recursive/*` and (DTD, document) pairs for the sweeps\n"
    );
    timed
}

/// X11 — the static analyzer (`pvx analyze`): per-builtin class,
/// determinism and budget certificate, and the certificate's claim held
/// on a speculation-heavy document: a certified DTD's check at the
/// default budget denies no speculation (`specs_denied` reads 0).
fn table_analyze() -> Vec<Timed> {
    use pv_dtd::StaticReport;

    println!("## Table X11 — static DTD analysis: budget certificates\n");

    let analyses: Vec<_> = BuiltinDtd::ALL.iter().map(|b| (b, b.analysis())).collect();
    let rows = analyses
        .iter()
        .map(|(b, analysis)| {
            let id = format!("certify_{}", b.name().replace('-', "_"));
            Row::new("analyze", id, || pv_dtd::budget::certify(analysis).is_certified())
        })
        .collect();
    let timed = timing::run(rows);

    head("builtin | class | 1-unambiguous | full budget | static bound | verdict | specs_denied | certify");
    for ((b, analysis), t) in analyses.iter().zip(&timed) {
        let report = StaticReport::analyze(analysis);
        let verdict = if report.budget.is_certified() { "certified" } else { "flagged" };
        // A speculation-heavy in-progress document: the builtin corpus
        // with 20% of its markup stripped (generated for the tiny paper
        // DTDs that have no corpus builder).
        let doc = corpus::for_builtin(**b, 4000)
            .unwrap_or_else(|| DocGen::new(analysis, 11).generate(400));
        let out = CheckEngine::new(analysis.clone()).check_document(&stripped(doc, 9));
        println!(
            "| {} | {} | {} | {} | {} | {verdict} | {} | {} |",
            b.name(),
            analysis.rec.class,
            report.deterministic(),
            report.budget.full_budget,
            report.budget.static_bound.map_or("—".to_owned(), |s| s.to_string()),
            out.stats.specs_denied,
            fmt_cell(t),
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
    timed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn arguments_resolve_before_any_table_runs() {
        let Ok(Command::Run { tables, json: None }) = parse(&[]) else { panic!("a full run") };
        assert_eq!(tables.len(), TABLES.len());
        let Ok(Command::Run { tables, json }) =
            parse(&["-t", "memo", "--table", "depth", "--json", "d"])
        else {
            panic!("a run of two tables")
        };
        assert_eq!(tables.iter().map(|t| t.name).collect::<Vec<_>>(), ["memo", "depth"]);
        assert_eq!(json, Some(PathBuf::from("d")));

        for bad in [&["--table", "all"][..], &["--table", "nosuch"], &["-t", "memo", "-t", "x"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("unknown table") && err.contains("completeness"), "{err}");
        }
        assert!(parse(&["--table"]).unwrap_err().contains("known: examples"));
        assert!(parse(&["--json"]).unwrap_err().contains("--json needs a directory"));
        assert!(parse(&["--bogus"]).is_err());
        assert!(matches!(parse(&["--list"]), Ok(Command::List)));
        assert!(matches!(parse(&["-h"]), Ok(Command::Help)));
    }

    #[test]
    fn each_timed_table_has_its_own_file() {
        let mut files: Vec<_> = TABLES.iter().filter_map(|t| t.file).collect();
        files.sort_unstable();
        files.dedup();
        assert_eq!(files.len(), 9);
    }

    #[test]
    fn examples_table_runs() {
        // Smoke test: the most assertion-dense table must not panic.
        assert!(table_examples().is_empty());
    }
}
