//! End-to-end tests of the `pvx` command implementations against
//! on-disk-style inputs (documents carrying their DTD in the internal
//! subset — the self-contained file format the tool is built around).

use pv_cli::{
    cmd_analyze, cmd_classify, cmd_complete, cmd_lint, cmd_validate, resolve_dtd, CheckOpts,
    CheckRun, Status,
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
    CheckRun::new(None, None, None, None, *opts).check(name, &mut xml.as_bytes())
}

/// `pvx check --builtin figure1 --remote` on `client`'s server.
fn remote_check(client: &mut Client, name: &str, xml: &str, opts: &CheckOpts) -> (String, Status) {
    CheckRun::new(None, None, Some("figure1"), Some(client), *opts).check(name, &mut xml.as_bytes())
}

#[test]
fn check_via_internal_subset() {
    let xml = with_subset("<r><a><b>x</b><c>y</c> dog<e/></a></r>");
    let ctx = resolve_dtd(None, None, None, pv_xml::parse(&xml).unwrap().doctype.as_ref()).unwrap();
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
    let ctx = resolve_dtd(None, None, None, doc.doctype.as_ref()).unwrap();
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
    let err = match resolve_dtd(None, Some("a"), None, doc.doctype.as_ref()) {
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
    let xml = "<r><a><b>x</b></a>";
    let expect = pv_xml::parse(xml).unwrap_err();
    let (report, status) = remote_check(&mut client, "m.xml", xml, &CheckOpts::default());
    assert_eq!((status, status.code()), (Status::Error, 2));
    assert_eq!(report, format!("m.xml: server error: document is not well-formed: {expect}\n"));
    // The connection stays usable.
    let good = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let (report, status) = remote_check(&mut client, "g.xml", good, &CheckOpts::default());
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
    let xml = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let stream = |chunk| CheckOpts { stream: Some(chunk), ..CheckOpts::default() };
    let (report, status) = remote_check(&mut client, "z.xml", xml, &stream(0));
    assert_eq!(status, Status::Error);
    assert!(
        report.contains("chunk size must be at least 1 byte"),
        "{report}"
    );
    let (report, status) = remote_check(&mut client, "z.xml", xml, &stream(7));
    assert_eq!(status, Status::Ok, "{report}");
    assert!(report.contains("POTENTIALLY VALID"), "{report}");
    client.shutdown().unwrap();
    server.join();
}

/// `pvx check --stream --chunk-size N` reads chunks of at most N bytes
/// into a buffer that grows only as bytes arrive: the largest chunk size
/// is not an allocation of that size, and it gives the report a 64 KiB
/// chunk gives, for a document that checks and for one that does not.
#[test]
fn stream_check_with_the_largest_chunk_size_reads_what_is_there() {
    let opts = CheckOpts::default();
    for body in ["<r><a><b>x</b><c>y</c> dog<e/></a></r>", "<r><a><b>x</b><e/><c>y</c></a></r>"] {
        let xml = with_subset(body);
        let stream = |chunk| {
            let opts = CheckOpts { stream: Some(chunk), ..opts };
            CheckRun::new(None, None, None, None, opts).check("s.xml", &mut xml.as_bytes())
        };
        let (report, status) = stream(usize::MAX);
        assert_eq!((report.clone(), status), stream(64 * 1024));
        assert_ne!(status, Status::Error, "{report}");
    }
}

/// `pvx lint` judges the declared content models, as XML appendix E
/// states determinism: a repeated alternative is two positions for one
/// symbol, and `(a?, a)` is ambiguous too, though `pvx analyze`, which
/// judges the PV-normalized models, calls it deterministic. Each report
/// says which model it judged.
#[test]
fn lint_judges_declared_models() {
    for (model, ambiguous) in [
        ("(a | a)", true),
        ("(a, (b | b))", true),
        ("(a?, a)", true),
        ("((a, b) | (a, c))", true),
        ("(a, (b | c))", false),
    ] {
        let src = format!(
            "<!ELEMENT top (r, a, b, c)><!ELEMENT r {model}>
             <!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
        );
        let ctx = resolve_dtd(Some(&src), Some("top"), None, None).unwrap();
        let (report, status) = cmd_lint(&ctx);
        assert_eq!(status, Status::Ok, "{model}: {report}");
        assert_eq!(
            report.contains("declared content model of <r> is not 1-unambiguous"),
            ambiguous,
            "{model}: {report}"
        );
        assert_eq!(report.contains("clean: no findings"), !ambiguous, "{model}: {report}");
        let (analysis, _) = cmd_analyze(&ctx, false);
        assert!(analysis.contains("determinism (PV-normalized models):"), "{analysis}");
        if model == "(a?, a)" {
            assert!(analysis.contains("all 5 content models 1-unambiguous"), "{analysis}");
        }
    }
}

/// `pvx check` in every mode (local, `--stream`, `--remote`, `--stream
/// --remote`), with the DTD from every source (`--builtin`, `--dtd` with
/// `--root`, the internal subset), on a potentially valid document, one
/// that is not, a malformed one and one with no DOCTYPE: every mode
/// gives the local check's verdict, violation, counters and status. The
/// DTD rule runs on the client, so a document with no DTD is refused
/// with the same report everywhere.
#[test]
fn every_mode_and_dtd_source_gives_the_local_verdict() {
    let server = Server::bind(&Endpoint::parse("127.0.0.1:0"), 1).unwrap();
    let mut client = Client::connect_endpoint(server.endpoint()).unwrap();
    let pv = "<r><a><b>x</b><c>y</c> dog<e/></a></r>";
    let docs = [
        with_subset(pv),
        with_subset("<r><a><b>x</b><e/><c>y</c></a></r>"),
        with_subset("<r><a><b>x</b></a>"),
        pv.to_owned(),
    ];
    let sources = [
        (Some("figure1"), None, None),
        (None, Some(FIG1_SUBSET), Some("r")),
        (None, None, None),
    ];
    for (builtin, dtd_src, root) in sources {
        for xml in &docs {
            for json in [false, true] {
                let opts = |stream| CheckOpts { json, stream, ..CheckOpts::default() };
                let (local, local_status) =
                    CheckRun::new(dtd_src, root, builtin, None, opts(None))
                        .check("d.xml", &mut xml.as_bytes());
                let runs = [
                    CheckRun::new(dtd_src, root, builtin, None, opts(Some(7)))
                        .check("d.xml", &mut xml.as_bytes()),
                    CheckRun::new(dtd_src, root, builtin, Some(&mut client), opts(None))
                        .check("d.xml", &mut xml.as_bytes()),
                    CheckRun::new(dtd_src, root, builtin, Some(&mut client), opts(Some(7)))
                        .check("d.xml", &mut xml.as_bytes()),
                ];
                let case =
                    format!("builtin={builtin:?} dtd={} json={json} xml={xml}", dtd_src.is_some());
                let modes = ["--stream", "--remote", "--stream --remote"];
                for (mode, (report, status)) in modes.iter().zip(runs) {
                    assert_eq!(status, local_status, "{mode} {case}: {report} against {local}");
                    if status == Status::Error {
                        let no_dtd = builtin.is_none() && dtd_src.is_none();
                        if no_dtd && !xml.starts_with("<!DOCTYPE") {
                            assert_eq!(report, local, "{mode} {case}");
                        }
                        continue;
                    }
                    if json {
                        let (got, want) = (
                            pv_service::json::parse(report.trim_end()).unwrap(),
                            pv_service::json::parse(local.trim_end()).unwrap(),
                        );
                        let keys = ["potentially_valid", "verdict", "violation_text"];
                        for key in keys.into_iter().chain(["class", "depth"]) {
                            assert_eq!(
                                format!("{:?}", got.get(key)),
                                format!("{:?}", want.get(key)),
                                "{mode} {case}: {key}"
                            );
                        }
                        let outcome = |v: &pv_service::json::Json| {
                            pv_service::json::read_outcome(v.get("outcome").unwrap()).unwrap()
                        };
                        assert_eq!(outcome(&got), outcome(&want), "{mode} {case}");
                    }
                }
            }
        }
    }
    client.shutdown().unwrap();
    server.join();
}

/// A document generated as it is read: Figure 1's DTD in the prolog, then
/// `<r>`, `groups` groups (one of them not potentially valid) and `</r>`.
/// It records the largest read it is asked for.
struct Generated {
    groups: usize,
    /// The next piece: 0 is the prolog and `<r>`, `1..=groups` the
    /// groups, `groups + 1` the end tag.
    step: usize,
    pending: Vec<u8>,
    at: usize,
    largest: usize,
}

impl Generated {
    fn new(groups: usize) -> Self {
        Generated { groups, step: 0, pending: Vec::new(), at: 0, largest: 0 }
    }

    fn piece(&self, step: usize) -> Option<Vec<u8>> {
        let bytes = match step {
            0 => with_subset("<r>"),
            s if s == self.groups - self.groups / 10 => "<a><b>x</b><e/><c>y</c></a>".to_owned(),
            s if s <= self.groups => "<a><b>lorem ipsum</b><c>dolor</c> sit<e/></a>".to_owned(),
            s if s == self.groups + 1 => "</r>".to_owned(),
            _ => return None,
        };
        Some(bytes.into_bytes())
    }
}

impl std::io::Read for Generated {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest = self.largest.max(buf.len());
        while self.at == self.pending.len() {
            let Some(piece) = self.piece(self.step) else { return Ok(0) };
            (self.pending, self.at) = (piece, 0);
            self.step += 1;
        }
        let n = buf.len().min(self.pending.len() - self.at);
        buf[..n].copy_from_slice(&self.pending[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Both streamed modes read a multi-MiB document as they go, never more
/// than one chunk at a time, and report what the in-memory check of the
/// same bytes reports: verdict, violation and counters.
#[test]
fn streamed_checks_read_one_chunk_at_a_time() {
    const GROUPS: usize = 60_000;
    const CHUNK: usize = 4096;
    let mut xml = String::new();
    std::io::Read::read_to_string(&mut Generated::new(GROUPS), &mut xml).unwrap();
    assert!(xml.len() > 2 << 20, "{} bytes", xml.len());
    let opts = |stream| CheckOpts { json: true, stream, ..CheckOpts::default() };
    let (whole, status) =
        CheckRun::new(None, None, None, None, opts(None)).check("g.xml", &mut xml.as_bytes());
    assert_eq!(status, Status::Failed, "{whole}");
    let whole = pv_service::json::parse(whole.trim_end()).unwrap();

    let server = Server::bind(&Endpoint::parse("127.0.0.1:0"), 1).unwrap();
    let mut client = Client::connect_endpoint(server.endpoint()).unwrap();
    for remote in [false, true] {
        let mut input = Generated::new(GROUPS);
        let client = remote.then_some(&mut client);
        let (report, status) =
            CheckRun::new(None, None, None, client, opts(Some(CHUNK))).check("g.xml", &mut input);
        assert_eq!(status, Status::Failed, "remote={remote}: {report}");
        assert!(input.largest <= CHUNK, "remote={remote}: a read of {} bytes", input.largest);
        let got = pv_service::json::parse(report.trim_end()).unwrap();
        for key in ["verdict", "violation_text", "class", "depth"] {
            let (got, want) = (format!("{:?}", got.get(key)), format!("{:?}", whole.get(key)));
            assert_eq!(got, want, "remote={remote}: {key}");
        }
        let outcome = |v: &pv_service::json::Json| {
            pv_service::json::read_outcome(v.get("outcome").unwrap()).unwrap()
        };
        assert_eq!(outcome(&got), outcome(&whole), "remote={remote}");
    }
    client.shutdown().unwrap();
    server.join();
}
