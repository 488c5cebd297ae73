//! End-to-end tests of the `pvx` command implementations against
//! on-disk-style inputs (documents carrying their DTD in the internal
//! subset — the self-contained file format the tool is built around).

use pv_cli::{
    cmd_analyze, cmd_check, cmd_classify, cmd_complete, cmd_lint, cmd_validate, resolve_dtd,
    CheckOpts, DtdContext, Status,
};
use pv_core::depth::DepthPolicy;
use pv_par::Pool;
use std::sync::Arc;

const FIG1_SUBSET: &str = "
<!ELEMENT r (a+)><!ELEMENT a (b?, (c | f), d)><!ELEMENT b (d | f)>
<!ELEMENT c (#PCDATA)><!ELEMENT d (#PCDATA | e)*><!ELEMENT e EMPTY><!ELEMENT f (c, e)>
";

fn doc_with_subset(body: &str) -> pv_xml::Document {
    pv_xml::parse(&format!("<!DOCTYPE r [{FIG1_SUBSET}]>\n{body}")).unwrap()
}

/// `pvx check` on one document, on a two-worker pool.
fn check(
    ctx: &DtdContext,
    name: &str,
    doc: &pv_xml::Document,
    opts: &CheckOpts,
) -> (String, Status) {
    cmd_check(ctx, name, &Arc::new(doc.clone()), opts, &Pool::new(2))
}

#[test]
fn check_via_internal_subset() {
    let doc = doc_with_subset("<r><a><b>x</b><c>y</c> dog<e/></a></r>");
    let ctx = resolve_dtd(None, None, None, Some(&doc)).unwrap();
    assert_eq!(ctx.source, "internal subset");
    let (report, status) = check(&ctx, "s.xml", &doc, &CheckOpts::default());
    assert_eq!(status, Status::Ok);
    assert!(report.contains("POTENTIALLY VALID"));
    assert!(report.contains("non-recursive"));
}

#[test]
fn check_failure_names_the_symbol() {
    let doc = doc_with_subset("<r><a><b>x</b><e/><c>y</c></a></r>");
    let ctx = resolve_dtd(None, None, None, Some(&doc)).unwrap();
    let (report, status) = check(&ctx, "w.xml", &doc, &CheckOpts { jobs: 2, ..CheckOpts::default() });
    assert_eq!(status, Status::Failed);
    assert!(report.contains("<c>"), "{report}");
    assert!(report.contains("deletion or renaming"), "{report}");
}

#[test]
fn validate_and_complete_pipeline() {
    // An in-progress file: invalid, potentially valid, completable.
    let doc = doc_with_subset("<r><a><b>x</b><c>y</c> dog<e/></a></r>");
    let ctx = resolve_dtd(None, None, None, Some(&doc)).unwrap();
    assert_eq!(cmd_validate(&ctx, "f", &doc, false).1, Status::Failed);
    let (report, status) = cmd_complete(&ctx, "f", &doc);
    assert_eq!(status, Status::Ok);
    assert!(report.contains("completed document:"), "{report}");
    // The completed document inside the report must itself validate.
    let completed_xml = report.lines().last().unwrap();
    let completed = pv_xml::parse(completed_xml).unwrap();
    assert_eq!(cmd_validate(&ctx, "c", &completed, false).1, Status::Ok);
}

#[test]
fn explicit_root_respects_usability() {
    // Re-rooting Figure 1 at `a` makes `r` unreachable and therefore
    // unusable — the paper's Section 3.3 precondition; the tool refuses
    // with a precise message rather than checking under broken
    // assumptions.
    let doc = pv_xml::parse(&format!(
        "<!DOCTYPE r [{FIG1_SUBSET}]>\n<a><b>x</b><c>y</c><d/></a>"
    ))
    .unwrap();
    let err = match resolve_dtd(None, Some("a"), None, Some(&doc)) {
        Err(e) => e,
        Ok(_) => panic!("expected a usability error"),
    };
    assert!(err.contains("unusable"), "{err}");

    // With a DTD trimmed to the fragment, sub-root checking works.
    let frag_subset = "
        <!ELEMENT a (b?, (c | f), d)><!ELEMENT b (d | f)>
        <!ELEMENT c (#PCDATA)><!ELEMENT d (#PCDATA | e)*>
        <!ELEMENT e EMPTY><!ELEMENT f (c, e)>";
    let doc = pv_xml::parse(&format!(
        "<!DOCTYPE a [{frag_subset}]>\n<a><b>x</b><c>y</c><d/></a>"
    ))
    .unwrap();
    let ctx = resolve_dtd(None, None, None, Some(&doc)).unwrap();
    let (_, status) = check(&ctx, "frag", &doc, &CheckOpts::default());
    assert_eq!(status, Status::Ok);
}

#[test]
fn classify_every_builtin() {
    for b in pv_dtd::builtin::BuiltinDtd::ALL {
        let ctx = resolve_dtd(None, None, Some(b.name()), None).unwrap();
        let (report, status) = cmd_classify(&ctx);
        assert_eq!(status, Status::Ok, "{}", b.name());
        assert!(report.contains("class:"), "{report}");
    }
}

#[test]
fn lint_flags_pv_strong_builtins() {
    for name in ["t1", "t2", "dissertation"] {
        let ctx = resolve_dtd(None, None, Some(name), None).unwrap();
        let (report, _) = cmd_lint(&ctx);
        assert!(report.contains("PV-strong"), "{name}: {report}");
    }
}

/// `pvx analyze` exit codes are part of the CLI contract: 0 = budget
/// certified, 1 = flagged (analysis ran, certification refused). The
/// third code (2 = error) is the usual `die` path for unresolvable DTDs.
#[test]
fn analyze_exit_codes_track_certification() {
    let certified = ["figure1", "xhtml-basic", "tei-lite", "play"];
    let flagged = ["t1", "t2", "dissertation"];
    for name in certified {
        let ctx = resolve_dtd(None, None, Some(name), None).unwrap();
        let (report, status) = cmd_analyze(&ctx, false);
        assert_eq!(status, Status::Ok, "{name}: {report}");
        assert!(report.contains("verdict: certified"), "{name}: {report}");
        assert!(report.contains("budget: certified"), "{name}: {report}");
    }
    for name in flagged {
        let ctx = resolve_dtd(None, None, Some(name), None).unwrap();
        let (report, status) = cmd_analyze(&ctx, false);
        assert_eq!(status, Status::Failed, "{name}: {report}");
        assert!(report.contains("verdict: flagged"), "{name}: {report}");
        assert!(report.contains("witness chain:"), "{name}: {report}");
    }
}

/// The JSON schema is stable and machine-readable: every key the CI
/// analyze-smoke job greps for must be present, on one line.
#[test]
fn analyze_json_schema_is_stable() {
    let ctx = resolve_dtd(None, None, Some("figure1"), None).unwrap();
    let (report, status) = cmd_analyze(&ctx, true);
    assert_eq!(status, Status::Ok);
    assert_eq!(report.lines().count(), 1, "JSON output must be one line: {report}");
    for key in [
        "\"ok\":", "\"dtd\":", "\"root\":", "\"class\":", "\"elements\":",
        "\"deterministic\":", "\"ambiguous\":", "\"budget\":", "\"certified\":",
        "\"applied\":", "\"full\":", "\"static_bound\":", "\"reason\":", "\"witness\":",
    ] {
        assert!(report.contains(key), "missing {key}: {report}");
    }
    assert!(report.contains("\"certified\":true"), "{report}");

    let (flagged, status) = cmd_analyze(&resolve_dtd(None, None, Some("t1"), None).unwrap(), true);
    assert_eq!(status, Status::Failed);
    assert!(flagged.contains("\"certified\":false"), "{flagged}");
    assert!(flagged.contains("\"reason\":\""), "{flagged}");
}

/// `pvx check -v` appends the one-line analysis summary; without the
/// flag the report is unchanged.
#[test]
fn check_verbose_appends_analysis_summary() {
    let doc = doc_with_subset("<r><a><b>x</b><c>y</c> dog<e/></a></r>");
    let ctx = resolve_dtd(None, None, None, Some(&doc)).unwrap();
    let quiet = check(&ctx, "s.xml", &doc, &CheckOpts::default()).0;
    assert!(!quiet.contains("analysis:"), "{quiet}");
    let verbose = check(
        &ctx,
        "s.xml",
        &doc,
        &CheckOpts { verbose: true, ..CheckOpts::default() },
    )
    .0;
    assert!(verbose.contains("analysis:"), "{verbose}");
    assert!(verbose.contains("certified budget"), "{verbose}");
    assert!(verbose.contains("deterministic"), "{verbose}");
}

#[test]
fn bounded_depth_flag_reaches_the_checker() {
    let doc = pv_xml::parse(
        "<!DOCTYPE a [<!ELEMENT a ((a | b), b)><!ELEMENT b EMPTY>]>\n<a><b/><b/><b/></a>",
    )
    .unwrap();
    let ctx = resolve_dtd(None, None, None, Some(&doc)).unwrap();
    assert_eq!(
        check(&ctx, "t", &doc, &CheckOpts { depth: DepthPolicy::Bounded(0), ..CheckOpts::default() }).1,
        Status::Failed
    );
    assert_eq!(
        check(
            &ctx,
            "t",
            &doc,
            &CheckOpts { depth: DepthPolicy::Bounded(1), memo: false, ..CheckOpts::default() }
        )
        .1,
        Status::Ok
    );
}
