//! Recursive DTDs and the depth bound: the paper's Examples 5 and 6.
//!
//! Shows the three-way classification (non-recursive / PV-weak / PV-strong,
//! Definitions 6–8), why PV-strong recursion forces a depth bound on the
//! greedy recognizer (Figure 7's would-be infinite loop), the monotone
//! effect of the bound, and the exact Earley baseline for comparison.
//!
//! Run with: `cargo run --example recursive_dtds`

use potential_validity::prelude::*;
use pv_grammar::{EarleyRecognizer, Grammar, GrammarMode};

fn main() {
    println!("== recursion classification of the built-in corpus ==");
    for b in BuiltinDtd::ALL {
        let a = b.analysis();
        println!(
            "  {:<12} m={:<3} k={:<3} class={}",
            b.name(),
            a.stats.m,
            a.stats.k,
            a.rec.class
        );
    }

    // Example 5: T1 = a → (a | b*). PV-strong: the recognizer would chase
    // elided <a>s forever without a bound.
    println!("\n== Example 5 (T1: <!ELEMENT a (a | b*)>) ==");
    let t1 = BuiltinDtd::T1.analysis();
    let doc = pv_xml::parse("<a><b/><b/></a>").unwrap();
    for policy in [DepthPolicy::Auto, DepthPolicy::Bounded(2), DepthPolicy::Bounded(0)] {
        let checker = CheckEngine::with_policy(t1.clone(), policy);
        let out = checker.check_document(&doc);
        println!(
            "  policy {:?} (budget {}): accepted={} subs_created={}",
            policy,
            checker.depth(),
            out.is_potentially_valid(),
            out.stats.subs_created
        );
    }

    // Example 6: T2 = a → ((a | b), b). One elided <a> per extra <b>.
    println!("\n== Example 6 (T2: <!ELEMENT a ((a | b), b)>) ==");
    let t2 = BuiltinDtd::T2.analysis();
    for n in [2usize, 3, 5, 8] {
        let xml = format!("<a>{}</a>", "<b/>".repeat(n));
        let doc = pv_xml::parse(&xml).unwrap();
        print!("  {n} b-children: accepted at budget ");
        let mut first = None;
        for d in 0..=(n as u32) {
            let checker = CheckEngine::with_policy(t2.clone(), DepthPolicy::Bounded(d));
            if checker.check_document(&doc).is_potentially_valid() {
                first = Some(d);
                break;
            }
        }
        match first {
            Some(d) => println!("{d} (monotone in D: deeper budgets accept too)"),
            None => println!("none up to {n}"),
        }
    }

    // The Earley baseline needs no bound — it is exact for any DTD class,
    // just slower (that asymmetry is the paper's whole point).
    println!("\n== exact Earley baseline on T2 ==");
    let g = Grammar::new(&t2.dtd, t2.root, GrammarMode::PotentialValidity);
    let earley = EarleyRecognizer::new(&g);
    for n in [2usize, 8, 32] {
        let xml = format!("<a>{}</a>", "<b/>".repeat(n));
        let doc = pv_xml::parse(&xml).unwrap();
        let toks = Tokens::delta(&doc, doc.root(), &t2.dtd).unwrap();
        let (ok, stats) = earley.accepts_with_stats(&toks);
        println!("  {n:>2} b-children: accepted={ok} earley_items={}", stats.items);
    }

    // A realistic PV-strong schema: the dissertation DTD.
    println!("\n== realistic PV-strong DTD (dissertation) ==");
    let th = BuiltinDtd::Dissertation.analysis();
    let checker = CheckEngine::new(th.clone());
    // A floating paragraph deep under nothing: needs part/unit elisions.
    let doc = pv_xml::parse("<thesis><para>conclusions first</para></thesis>").unwrap();
    println!(
        "  bare <para> under <thesis>: potentially valid = {}",
        checker.check_document(&doc).is_potentially_valid()
    );
    // And a hard violation: <summary> before the part content.
    let doc = pv_xml::parse("<thesis><summary>s</summary><para>p</para></thesis>").unwrap();
    println!(
        "  <summary> before content:   potentially valid = {}",
        checker.check_document(&doc).is_potentially_valid()
    );
}
