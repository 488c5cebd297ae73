//! Quickstart: the paper's running example, end to end.
//!
//! Reproduces Example 1 / Example 2 / Figure 3 of the ICDE 2006 paper:
//! two near-identical encodings of the same sentence, one merely
//! *incomplete* (potentially valid), one *broken* (no insertion of markup
//! can ever fix it) — and the automatically constructed completion for the
//! fixable one.
//!
//! Run with: `cargo run --example quickstart`

use potential_validity::prelude::*;

fn main() {
    // The paper's Figure 1 DTD:
    //   <!ELEMENT r (a+)>            <!ELEMENT a (b?, (c | f), d)>
    //   <!ELEMENT b (d | f)>         <!ELEMENT c (#PCDATA)>
    //   <!ELEMENT d (#PCDATA | e)*>  <!ELEMENT e EMPTY>
    //   <!ELEMENT f (c, e)>
    let analysis = BuiltinDtd::Figure1.analysis();
    println!("DTD (Figure 1), root <r>, class: {}\n{}", analysis.rec.class, analysis.dtd);

    let checker = CheckEngine::new(analysis.clone());

    // Example 1, string w: <b>, then <e>, then <c> — the order contradicts
    // a's content model (b?, (c|f), d) and no markup insertion can fix it.
    let w = pv_xml::parse(
        "<r><a><b>A quick brown</b><e></e><c> fox jumps over a lazy</c> dog</a></r>",
    )
    .unwrap();
    let outcome = checker.check_document(&w);
    println!("string w: potentially valid? {}", outcome.is_potentially_valid());
    if let Some(v) = &outcome.violation {
        println!("  reason: {v}");
    }

    // Example 1, string s: same text, <e> after the character data — an
    // incomplete encoding that two <d> insertions complete (Figure 3).
    let s = pv_xml::parse(
        "<r><a><b>A quick brown</b><c> fox jumps over a lazy</c> dog<e></e></a></r>",
    )
    .unwrap();
    let outcome = checker.check_document(&s);
    println!("string s: potentially valid? {}", outcome.is_potentially_valid());

    // Definition 2 made concrete: build the extension witness ω.
    let tokens = Tokens::delta(&s, s.root(), &analysis.dtd).unwrap();
    let witness = complete_tokens(&tokens, &analysis.dtd, analysis.root)
        .expect("s is potentially valid, so a witness exists");
    println!(
        "completion needs {} inserted element(s); completed structure (• marks insertions):",
        witness.inserted_count()
    );
    println!("  {}", witness.render_marked(&analysis.dtd));

    // And the completed token string is valid — Theorem 1 round trip.
    assert!(pv_grammar::validator::validate_tokens(
        &witness.tokens(),
        &analysis.dtd,
        analysis.root
    ));
    println!("witness validates: true");
}
