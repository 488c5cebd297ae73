//! End-to-end tests of the `pvx` command implementations against
//! on-disk-style inputs (documents carrying their DTD in the internal
//! subset — the self-contained file format the tool is built around).

use pv_cli::{
    cmd_analyze, cmd_check, cmd_check_remote, cmd_check_stream_remote, cmd_classify,
    cmd_complete, cmd_lint, cmd_validate, resolve_dtd, CheckOpts, Status,
};
use pv_core::depth::DepthPolicy;
use pv_service::{Client, Endpoint, Server};

const FIG1_SUBSET: &str = "
<!ELEMENT r (a+)><!ELEMENT a (b?, (c | f), d)><!ELEMENT b (d | f)>
<!ELEMENT c (#PCDATA)><!ELEMENT d (#PCDATA | e)*><!ELEMENT e EMPTY><!ELEMENT f (c, e)>
";

/// `body` behind a DOCTYPE carrying Figure 1's DTD as its internal subset.
fn with_subset(body: &str) -> String {
    format!("<!DOCTYPE r [{FIG1_SUBSET}]>\n{body}")
}

fn doc_with_subset(body: &str) -> pv_xml::Document {
    pv_xml::parse(&with_subset(body)).unwrap()
}

/// `pvx check DOC` with no DTD flags: the DTD is the document's own.
fn check(name: &str, xml: &str, opts: &CheckOpts) -> (String, Status) {
    cmd_check(None, None, None, name, xml, opts)
}

#[test]
fn check_via_internal_subset() {
    let xml = with_subset("<r><a><b>x</b><c>y</c> dog<e/></a></r>");
    let ctx = resolve_dtd(None, None, None, Some(&pv_xml::parse(&xml).unwrap())).unwrap();
    assert_eq!(ctx.source, "internal subset");
    let (report, status) = check("s.xml", &xml, &CheckOpts::default());
    assert_eq!(status, Status::Ok);
    assert!(report.contains("POTENTIALLY VALID"));
    assert!(report.contains("non-recursive"));
}

#[test]
fn check_failure_names_the_symbol() {
    let xml = with_subset("<r><a><b>x</b><e/><c>y</c></a></r>");
    let (report, status) = check("w.xml", &xml, &CheckOpts::default());
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
    let xml = format!("<!DOCTYPE a [{frag_subset}]>\n<a><b>x</b><c>y</c><d/></a>");
    let (_, status) = check("frag", &xml, &CheckOpts::default());
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
    let xml = with_subset("<r><a><b>x</b><c>y</c> dog<e/></a></r>");
    let quiet = check("s.xml", &xml, &CheckOpts::default()).0;
    assert!(!quiet.contains("analysis:"), "{quiet}");
    let verbose_opts = CheckOpts { verbose: true, ..CheckOpts::default() };
    let verbose = check("s.xml", &xml, &verbose_opts).0;
    assert!(verbose.contains("analysis:"), "{verbose}");
    assert!(verbose.contains("certified budget"), "{verbose}");
    assert!(verbose.contains("deterministic"), "{verbose}");
}

#[test]
fn bounded_depth_flag_reaches_the_checker() {
    let doc = "<!DOCTYPE a [<!ELEMENT a ((a | b), b)><!ELEMENT b EMPTY>]>\n<a><b/><b/><b/></a>";
    let bounded =
        |depth, memo| CheckOpts { depth: DepthPolicy::Bounded(depth), memo, ..CheckOpts::default() };
    assert_eq!(check("t", doc, &bounded(0, true)).1, Status::Failed);
    assert_eq!(check("t", doc, &bounded(1, false)).1, Status::Ok);
}

/// A malformed document is an error (exit 2) however the DTD would have
/// been found. With no DTD flags and no DOCTYPE, the missing DTD is
/// reported first: the prolog is all that is read before the DTD
/// resolves. A DOCTYPE cut short is malformed in the prolog itself, and
/// a document with a DTD is reported at the lexer's byte offset.
#[test]
fn malformed_documents_without_a_dtd_exit_2() {
    let opts = CheckOpts::default();
    let (report, status) = check("m.xml", "<r><a><b>x</b></a>", &opts);
    assert_eq!((status, status.code()), (Status::Error, 2));
    assert_eq!(
        report,
        "m.xml: document has no <!DOCTYPE …> and no --dtd/--builtin was given\n"
    );
    let (report, status) = check("m.xml", "<!DOCTYPE r [<!ELEMENT r (a+)>", &opts);
    assert_eq!((status, status.code()), (Status::Error, 2));
    assert!(report.starts_with("m.xml: not well-formed: "), "{report}");
    let xml = with_subset("<r><a><b>x</b></a>");
    let (report, status) = check("m.xml", &xml, &opts);
    assert_eq!((status, status.code()), (Status::Error, 2));
    let expect = pv_xml::parse(&xml).unwrap_err();
    assert_eq!(report, format!("m.xml: not well-formed: {expect}\n"));
    let json = CheckOpts { json: true, ..CheckOpts::default() };
    let (line, status) = check("m.xml", &xml, &json);
    assert_eq!(status, Status::Error);
    assert!(line.starts_with("{\"doc\":\"m.xml\",\"ok\":false,\"error\":\"not well-formed: "), "{line}");
}

/// `pvx check --remote` ships a malformed document unparsed: the server
/// reports it, and the check still exits 2 with the server's message.
#[test]
fn malformed_remote_documents_exit_2() {
    let server = Server::bind(&Endpoint::parse("127.0.0.1:0"), 1).unwrap();
    let mut client = Client::connect_endpoint(server.endpoint()).unwrap();
    let handle = client.load_builtin("figure1").unwrap().handle;
    let xml = "<r><a><b>x</b></a>";
    let expect = pv_xml::parse(xml).unwrap_err();
    let (report, status) = cmd_check_remote(&mut client, &handle, "m.xml", xml, &CheckOpts::default());
    assert_eq!((status, status.code()), (Status::Error, 2));
    assert_eq!(report, format!("m.xml: server error: document is not well-formed: {expect}\n"));
    // The connection stays usable.
    let good = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let (report, status) = cmd_check_remote(&mut client, &handle, "g.xml", good, &CheckOpts::default());
    assert_eq!(status, Status::Ok, "{report}");
    client.shutdown().unwrap();
    server.join();
}

/// `pvx check --stream --remote` with a zero chunk size is an error, not
/// a panic (`chunks(0)` panics, and a zero-length block would end the
/// upload), and the same connection then streams a document normally.
#[test]
fn remote_stream_check_rejects_zero_chunk_size() {
    let server = Server::bind(&Endpoint::parse("127.0.0.1:0"), 1).unwrap();
    let mut client = Client::connect_endpoint(server.endpoint()).unwrap();
    let handle = client.load_builtin("figure1").unwrap().handle;
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let opts = CheckOpts::default();
    let (report, status) = cmd_check_stream_remote(&mut client, &handle, "z.xml", xml, 0, &opts);
    assert_eq!(status, Status::Error);
    assert!(
        report.contains("chunk size must be at least 1 byte"),
        "{report}"
    );
    let (report, status) = cmd_check_stream_remote(&mut client, &handle, "z.xml", xml, 7, &opts);
    assert_eq!(status, Status::Ok, "{report}");
    assert!(report.contains("POTENTIALLY VALID"), "{report}");
    client.shutdown().unwrap();
    server.join();
}
