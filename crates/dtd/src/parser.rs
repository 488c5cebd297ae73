//! Parser for DTD internal subsets (`<!ELEMENT>`, `<!ATTLIST>`, `<!ENTITY>`,
//! comments, processing instructions).
//!
//! Only `<!ELEMENT>` declarations carry meaning for potential validity
//! (paper, footnote 3); attribute lists and general entities are recorded
//! verbatim. Parameter entities (`<!ENTITY % n "v">` / `%n;`) are expanded
//! textually with depth and size limits, because realistic document-centric
//! DTDs (TEI, XHTML) lean on them heavily.
//!
//! Deviations from the strict XML grammar, chosen to accept the paper's own
//! examples: a bare `#PCDATA` content spec (Figure 1 writes
//! `<!ELEMENT c #PCDATA>`) is accepted as `(#PCDATA)`.

use crate::ast::{AttlistDecl, ContentSpec, Cp, Dtd, ElemId, ElementDecl};
use crate::error::{DtdError, DtdErrorKind};
use crate::Result;
use std::collections::HashMap;

/// Maximum expanded size of the subset after parameter-entity substitution.
const MAX_EXPANSION: usize = 4 << 20;
/// Maximum nesting depth of parameter-entity expansion.
const MAX_PE_DEPTH: usize = 32;

impl Dtd {
    /// Parses a DTD internal subset (the text between `[` and `]` of a
    /// `<!DOCTYPE>`, or a standalone `.dtd` file body).
    pub fn parse(src: &str) -> Result<Dtd> {
        let expanded = expand_parameter_entities(src)?;
        let raw = scan_declarations(&expanded)?;
        resolve(raw)
    }
}

// ---------------------------------------------------------------------------
// Phase 1: parameter-entity expansion
// ---------------------------------------------------------------------------

fn expand_parameter_entities(src: &str) -> Result<String> {
    let mut pes: HashMap<String, String> = HashMap::new();
    let mut out = String::with_capacity(src.len());
    // Stack of pending inputs: (chars, depth).
    let mut stack: Vec<(Vec<char>, usize, usize)> = vec![(src.chars().collect(), 0, 0)];

    while let Some((chars, mut pos, depth)) = stack.pop() {
        while pos < chars.len() {
            let c = chars[pos];
            if c == '%' {
                // Possible PE reference: %name;
                let mut j = pos + 1;
                while j < chars.len() && is_name_char(chars[j]) {
                    j += 1;
                }
                if j > pos + 1 && j < chars.len() && chars[j] == ';' {
                    let name: String = chars[pos + 1..j].iter().collect();
                    let Some(value) = pes.get(&name) else {
                        return Err(DtdError::new(
                            DtdErrorKind::UnknownParameterEntity(name),
                            0,
                        ));
                    };
                    if depth + 1 > MAX_PE_DEPTH {
                        return Err(DtdError::new(DtdErrorKind::EntityExpansionLimit, 0));
                    }
                    // Resume the current input later; expand value first.
                    stack.push((chars, j + 1, depth));
                    stack.push((value.chars().collect(), 0, depth + 1));
                    break;
                }
                out.push(c);
                pos += 1;
            } else if c == '<' && starts_with(&chars, pos, "<!ENTITY") {
                // Record a parameter entity (general entities copied through).
                let decl_start = pos;
                let mut j = pos + "<!ENTITY".len();
                j = skip_ws(&chars, j);
                let is_pe = j < chars.len() && chars[j] == '%';
                if is_pe {
                    j = skip_ws(&chars, j + 1);
                    let name_start = j;
                    while j < chars.len() && is_name_char(chars[j]) {
                        j += 1;
                    }
                    let name: String = chars[name_start..j].iter().collect();
                    j = skip_ws(&chars, j);
                    let quote = *chars.get(j).ok_or_else(eof)?;
                    if quote != '"' && quote != '\'' {
                        return Err(DtdError::new(
                            DtdErrorKind::Unexpected("entity value (expected quote)".into()),
                            0,
                        ));
                    }
                    j += 1;
                    let val_start = j;
                    while j < chars.len() && chars[j] != quote {
                        j += 1;
                    }
                    if j >= chars.len() {
                        return Err(eof());
                    }
                    let value: String = chars[val_start..j].iter().collect();
                    j = skip_ws(&chars, j + 1);
                    if chars.get(j) != Some(&'>') {
                        return Err(DtdError::new(
                            DtdErrorKind::Unexpected("'>' ending entity declaration".into()),
                            0,
                        ));
                    }
                    pes.insert(name, value);
                    pos = j + 1;
                } else {
                    // General entity: copy the whole declaration through
                    // (up to the closing '>', respecting quotes).
                    let mut k = decl_start;
                    let mut in_quote: Option<char> = None;
                    while k < chars.len() {
                        let ch = chars[k];
                        match in_quote {
                            Some(q) if ch == q => in_quote = None,
                            None if ch == '"' || ch == '\'' => in_quote = Some(ch),
                            None if ch == '>' => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    if k >= chars.len() {
                        return Err(eof());
                    }
                    out.extend(&chars[decl_start..=k]);
                    pos = k + 1;
                }
            } else {
                out.push(c);
                pos += 1;
            }
            if out.len() > MAX_EXPANSION {
                return Err(DtdError::new(DtdErrorKind::EntityExpansionLimit, 0));
            }
        }
    }
    Ok(out)
}

fn starts_with(chars: &[char], pos: usize, s: &str) -> bool {
    s.chars().enumerate().all(|(i, c)| chars.get(pos + i) == Some(&c))
}

fn skip_ws(chars: &[char], mut pos: usize) -> usize {
    while matches!(chars.get(pos), Some(' ' | '\t' | '\r' | '\n')) {
        pos += 1;
    }
    pos
}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | ':' | '-' | '.') || !c.is_ascii()
}

fn eof() -> DtdError {
    DtdError::new(DtdErrorKind::UnexpectedEof, 0)
}

// ---------------------------------------------------------------------------
// Phase 2: declaration scanning
// ---------------------------------------------------------------------------

struct RawDtd {
    /// (name, content-model text, offset)
    elements: Vec<(String, String, usize)>,
    attlists: Vec<AttlistDecl>,
}

fn scan_declarations(src: &str) -> Result<RawDtd> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let mut elements = Vec::new();
    let mut attlists = Vec::new();

    while pos < bytes.len() {
        match bytes[pos] {
            b' ' | b'\t' | b'\r' | b'\n' => pos += 1,
            b'<' if src[pos..].starts_with("<!--") => {
                let end = src[pos + 4..]
                    .find("-->")
                    .ok_or_else(eof)?;
                pos += 4 + end + 3;
            }
            b'<' if src[pos..].starts_with("<?") => {
                let end = src[pos + 2..].find("?>").ok_or_else(eof)?;
                pos += 2 + end + 2;
            }
            b'<' if src[pos..].starts_with("<!ELEMENT") => {
                let decl_off = pos;
                pos += "<!ELEMENT".len();
                pos = skip_ws_b(src, pos);
                let (name, p) = scan_name(src, pos)?;
                pos = skip_ws_b(src, p);
                let end = find_decl_end(src, pos)?;
                let model = src[pos..end].trim().to_owned();
                elements.push((name, model, decl_off));
                pos = end + 1;
            }
            b'<' if src[pos..].starts_with("<!ATTLIST") => {
                pos += "<!ATTLIST".len();
                pos = skip_ws_b(src, pos);
                let (name, p) = scan_name(src, pos)?;
                pos = p;
                let end = find_decl_end(src, pos)?;
                attlists.push(AttlistDecl {
                    element: name.into(),
                    raw: src[pos..end].trim().to_owned(),
                });
                pos = end + 1;
            }
            b'<' if src[pos..].starts_with("<!ENTITY") => {
                // Only general entities survive phase 1; skip them.
                let end = find_decl_end(src, pos)?;
                pos = end + 1;
            }
            b'<' if src[pos..].starts_with("<!NOTATION") => {
                let end = find_decl_end(src, pos)?;
                pos = end + 1;
            }
            _ => {
                return Err(DtdError::new(
                    DtdErrorKind::Unexpected(format!(
                        "{:?} in DTD",
                        &src[pos..src.len().min(pos + 12)]
                    )),
                    pos,
                ))
            }
        }
    }
    Ok(RawDtd { elements, attlists })
}

fn skip_ws_b(src: &str, mut pos: usize) -> usize {
    let b = src.as_bytes();
    while matches!(b.get(pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        pos += 1;
    }
    pos
}

fn scan_name(src: &str, pos: usize) -> Result<(String, usize)> {
    let rest = &src[pos..];
    let end = rest
        .char_indices()
        .find(|&(_, c)| !is_name_char(c))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    if end == 0 {
        return Err(DtdError::new(
            DtdErrorKind::Unexpected(format!("{:?} (expected a name)", &rest[..rest.len().min(8)])),
            pos,
        ));
    }
    Ok((rest[..end].to_owned(), pos + end))
}

/// Finds the `>` ending a declaration, respecting quoted strings.
fn find_decl_end(src: &str, mut pos: usize) -> Result<usize> {
    let bytes = src.as_bytes();
    let mut in_quote: Option<u8> = None;
    while pos < bytes.len() {
        let c = bytes[pos];
        match in_quote {
            Some(q) if c == q => in_quote = None,
            None if c == b'"' || c == b'\'' => in_quote = Some(c),
            None if c == b'>' => return Ok(pos),
            _ => {}
        }
        pos += 1;
    }
    Err(eof())
}

// ---------------------------------------------------------------------------
// Phase 3: content-model parsing and name resolution
// ---------------------------------------------------------------------------

fn resolve(raw: RawDtd) -> Result<Dtd> {
    // Collect declared names first so models can reference forward.
    let mut index: HashMap<&str, ElemId> = HashMap::new();
    for (i, (name, _, off)) in raw.elements.iter().enumerate() {
        if index.insert(name.as_str(), ElemId(i as u32)).is_some() {
            return Err(DtdError::new(
                DtdErrorKind::DuplicateDeclaration(name.clone()),
                *off,
            ));
        }
    }

    let mut elements = Vec::with_capacity(raw.elements.len());
    for (name, model, off) in &raw.elements {
        let content = ModelParser { src: model, pos: 0, index: &index, decl_offset: *off }
            .parse_spec()?;
        elements.push(ElementDecl { name: name.as_str().into(), content });
    }
    Ok(Dtd::from_parts(elements, raw.attlists))
}

struct ModelParser<'a> {
    src: &'a str,
    pos: usize,
    index: &'a HashMap<&'a str, ElemId>,
    decl_offset: usize,
}

impl<'a> ModelParser<'a> {
    fn err(&self, msg: impl Into<String>) -> DtdError {
        DtdError::new(DtdErrorKind::BadContentModel(msg.into()), self.decl_offset)
    }

    fn skip_ws(&mut self) {
        self.pos = skip_ws_b(self.src, self.pos);
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_spec(mut self) -> Result<ContentSpec> {
        self.skip_ws();
        if self.src[self.pos..].starts_with("EMPTY") {
            self.pos += 5;
            self.expect_end()?;
            return Ok(ContentSpec::Empty);
        }
        if self.src[self.pos..].starts_with("ANY") {
            self.pos += 3;
            self.expect_end()?;
            return Ok(ContentSpec::Any);
        }
        // Paper's Figure 1 writes a bare `#PCDATA`.
        if self.src[self.pos..].starts_with("#PCDATA") {
            self.pos += "#PCDATA".len();
            self.expect_end()?;
            return Ok(ContentSpec::PcdataOnly);
        }
        if !self.eat(b'(') {
            return Err(self.err("expected '(', EMPTY, ANY or #PCDATA"));
        }
        self.skip_ws();
        if self.src[self.pos..].starts_with("#PCDATA") {
            self.pos += "#PCDATA".len();
            return self.parse_mixed_tail();
        }
        let cp = self.parse_group_body()?;
        let cp = self.parse_suffix(cp);
        self.expect_end()?;
        Ok(ContentSpec::Children(cp))
    }

    /// After `(#PCDATA`: either `)` (+ optional `*`) or `| name | … )*`.
    fn parse_mixed_tail(mut self) -> Result<ContentSpec> {
        self.skip_ws();
        let mut names = Vec::new();
        while self.eat(b'|') {
            self.skip_ws();
            if self.src[self.pos..].starts_with("#PCDATA") {
                return Err(DtdError::new(DtdErrorKind::MisplacedPcdata, self.decl_offset));
            }
            let id = self.parse_element_name()?;
            names.push(id);
            self.skip_ws();
        }
        if !self.eat(b')') {
            return Err(self.err("expected ')' in mixed content"));
        }
        let starred = self.eat(b'*');
        if !names.is_empty() && !starred {
            return Err(self.err("mixed content with elements requires a trailing '*'"));
        }
        self.expect_end()?;
        if names.is_empty() {
            Ok(ContentSpec::PcdataOnly)
        } else {
            Ok(ContentSpec::Mixed(names))
        }
    }

    /// Parses the inside of a parenthesized group, after the `(`.
    /// Consumes the closing `)` but not a suffix.
    fn parse_group_body(&mut self) -> Result<Cp> {
        self.skip_ws();
        let first = self.parse_cp()?;
        self.skip_ws();
        match self.peek() {
            Some(b')') => {
                self.pos += 1;
                // `(x)` — a group of one: keep the inner particle.
                Ok(first)
            }
            Some(sep @ (b',' | b'|')) => {
                let mut items = vec![first];
                while self.eat(sep) {
                    self.skip_ws();
                    items.push(self.parse_cp()?);
                    self.skip_ws();
                }
                if !self.eat(b')') {
                    return Err(self.err("expected ')'"));
                }
                Ok(if sep == b',' { Cp::Seq(items) } else { Cp::Choice(items) })
            }
            Some(c) => Err(self.err(format!("unexpected {:?} in group", c as char))),
            None => Err(self.err("unterminated group")),
        }
    }

    /// Parses one content particle: `name`, `(group)`, with optional suffix.
    fn parse_cp(&mut self) -> Result<Cp> {
        self.skip_ws();
        let base = if self.eat(b'(') {
            self.parse_group_body()?
        } else if self.src[self.pos..].starts_with("#PCDATA") {
            return Err(DtdError::new(DtdErrorKind::MisplacedPcdata, self.decl_offset));
        } else {
            Cp::Name(self.parse_element_name()?)
        };
        Ok(self.parse_suffix(base))
    }

    fn parse_suffix(&mut self, cp: Cp) -> Cp {
        match self.peek() {
            Some(b'?') => {
                self.pos += 1;
                Cp::Opt(Box::new(cp))
            }
            Some(b'*') => {
                self.pos += 1;
                Cp::Star(Box::new(cp))
            }
            Some(b'+') => {
                self.pos += 1;
                Cp::Plus(Box::new(cp))
            }
            _ => cp,
        }
    }

    fn parse_element_name(&mut self) -> Result<ElemId> {
        let (name, p) = scan_name(self.src, self.pos)
            .map_err(|_| self.err("expected an element name"))?;
        self.pos = p;
        self.index.get(name.as_str()).copied().ok_or_else(|| {
            DtdError::new(DtdErrorKind::UndeclaredElement(name), self.decl_offset)
        })
    }

    fn expect_end(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err(format!("trailing {:?}", &self.src[self.pos..])))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1 DTD, verbatim (including the nonstandard
    /// `<!ELEMENT c #PCDATA>` spelling).
    const FIGURE1: &str = r#"
        <!ELEMENT r (a+)>
        <!ELEMENT a (b?, (c | f), d)>
        <!ELEMENT b ( d | f)>
        <!ELEMENT c #PCDATA>
        <!ELEMENT d (#PCDATA | e)*>
        <!ELEMENT e EMPTY>
        <!ELEMENT f (c, e)>
    "#;

    #[test]
    fn parses_figure1() {
        let dtd = Dtd::parse(FIGURE1).unwrap();
        assert_eq!(dtd.len(), 7);
        let r = dtd.id("r").unwrap();
        assert_eq!(dtd.model_to_string(r), "(a+)");
        let a = dtd.id("a").unwrap();
        assert_eq!(dtd.model_to_string(a), "(b?, (c | f), d)");
        let c = dtd.id("c").unwrap();
        assert_eq!(dtd.element(c).content, ContentSpec::PcdataOnly);
        let d = dtd.id("d").unwrap();
        assert!(matches!(&dtd.element(d).content, ContentSpec::Mixed(v) if v.len() == 1));
        let e = dtd.id("e").unwrap();
        assert_eq!(dtd.element(e).content, ContentSpec::Empty);
        let f = dtd.id("f").unwrap();
        assert_eq!(dtd.model_to_string(f), "(c, e)");
    }

    #[test]
    fn roundtrips_through_render() {
        let dtd = Dtd::parse(FIGURE1).unwrap();
        let dtd2 = Dtd::parse(&dtd.to_dtd_string()).unwrap();
        assert_eq!(dtd.to_dtd_string(), dtd2.to_dtd_string());
    }

    #[test]
    fn paper_t1_and_t2() {
        let t1 = Dtd::parse("<!ELEMENT a (a | b*)><!ELEMENT b EMPTY>").unwrap();
        assert_eq!(t1.model_to_string(t1.id("a").unwrap()), "(a | b*)");
        let t2 = Dtd::parse("<!ELEMENT a ((a | b), b)><!ELEMENT b EMPTY>").unwrap();
        assert_eq!(t2.model_to_string(t2.id("a").unwrap()), "((a | b), b)");
    }

    #[test]
    fn nested_groups_and_suffixes() {
        let d = Dtd::parse(
            "<!ELEMENT x (a, (b* | (c, d*, e)*))>
             <!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>
             <!ELEMENT d EMPTY><!ELEMENT e EMPTY>",
        )
        .unwrap();
        assert_eq!(d.model_to_string(d.id("x").unwrap()), "(a, (b* | (c, d*, e)*))");
    }

    #[test]
    fn any_and_empty() {
        let d = Dtd::parse("<!ELEMENT a ANY><!ELEMENT b EMPTY>").unwrap();
        assert_eq!(d.element(d.id("a").unwrap()).content, ContentSpec::Any);
        assert_eq!(d.element(d.id("b").unwrap()).content, ContentSpec::Empty);
    }

    #[test]
    fn pcdata_only_variants() {
        for src in ["<!ELEMENT a (#PCDATA)>", "<!ELEMENT a (#PCDATA)*>", "<!ELEMENT a #PCDATA>"] {
            let d = Dtd::parse(src).unwrap();
            assert_eq!(d.element(d.id("a").unwrap()).content, ContentSpec::PcdataOnly, "{src}");
        }
    }

    #[test]
    fn mixed_requires_star() {
        assert!(matches!(
            Dtd::parse("<!ELEMENT a (#PCDATA | b)><!ELEMENT b EMPTY>")
                .unwrap_err()
                .kind,
            DtdErrorKind::BadContentModel(_)
        ));
    }

    #[test]
    fn pcdata_not_first_rejected() {
        assert!(matches!(
            Dtd::parse("<!ELEMENT a (b | #PCDATA)*><!ELEMENT b EMPTY>")
                .unwrap_err()
                .kind,
            DtdErrorKind::MisplacedPcdata
        ));
    }

    #[test]
    fn undeclared_reference_rejected() {
        assert!(matches!(
            Dtd::parse("<!ELEMENT a (zz)>").unwrap_err().kind,
            DtdErrorKind::UndeclaredElement(n) if n == "zz"
        ));
    }

    #[test]
    fn duplicate_declaration_rejected() {
        assert!(matches!(
            Dtd::parse("<!ELEMENT a EMPTY><!ELEMENT a ANY>").unwrap_err().kind,
            DtdErrorKind::DuplicateDeclaration(_)
        ));
    }

    #[test]
    fn attlist_recorded_but_inert() {
        let d = Dtd::parse(
            r#"<!ELEMENT a EMPTY>
               <!ATTLIST a id ID #REQUIRED type (x|y) "x">"#,
        )
        .unwrap();
        assert_eq!(d.attlists.len(), 1);
        assert_eq!(&*d.attlists[0].element, "a");
        assert!(d.attlists[0].raw.contains("#REQUIRED"));
    }

    #[test]
    fn comments_and_pis_skipped() {
        let d = Dtd::parse("<!-- c --><?pi data?><!ELEMENT a EMPTY>").unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn parameter_entities_expand() {
        let d = Dtd::parse(
            r#"<!ENTITY % inline "(b | i)*">
               <!ELEMENT p %inline;>
               <!ELEMENT b EMPTY><!ELEMENT i EMPTY>"#,
        )
        .unwrap();
        assert_eq!(d.model_to_string(d.id("p").unwrap()), "(b | i)*");
    }

    #[test]
    fn nested_parameter_entities() {
        let d = Dtd::parse(
            r#"<!ENTITY % base "b | i">
               <!ENTITY % inline "(%base;)*">
               <!ELEMENT p %inline;>
               <!ELEMENT b EMPTY><!ELEMENT i EMPTY>"#,
        )
        .unwrap();
        assert_eq!(d.model_to_string(d.id("p").unwrap()), "(b | i)*");
    }

    #[test]
    fn unknown_parameter_entity_rejected() {
        assert!(matches!(
            Dtd::parse("<!ELEMENT p %nope;>").unwrap_err().kind,
            DtdErrorKind::UnknownParameterEntity(_)
        ));
    }

    #[test]
    fn recursive_pe_hits_limit() {
        // Self-referential PE should hit the depth limit, not hang.
        let err = Dtd::parse(r#"<!ENTITY % a "x %b; y"><!ENTITY % b "%a;"><!ELEMENT p (%a;)>"#)
            .unwrap_err();
        assert!(matches!(
            err.kind,
            DtdErrorKind::EntityExpansionLimit | DtdErrorKind::UnknownParameterEntity(_)
        ));
    }

    #[test]
    fn general_entity_passes_through() {
        let d = Dtd::parse(r#"<!ENTITY copy "&#169;"><!ELEMENT a EMPTY>"#).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Dtd::parse("hello").is_err());
        assert!(Dtd::parse("<!ELEMENT>").is_err());
        assert!(Dtd::parse("<!ELEMENT a (b,>").is_err());
    }

    #[test]
    fn group_of_one_simplifies() {
        let d = Dtd::parse("<!ELEMENT a ((b))><!ELEMENT b EMPTY>").unwrap();
        assert_eq!(
            d.element(d.id("a").unwrap()).content,
            ContentSpec::Children(Cp::Name(ElemId(1)))
        );
    }

    #[test]
    fn whitespace_tolerant() {
        let d = Dtd::parse("<!ELEMENT  a  ( b? ,\n ( c |  d ) )  ><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>").unwrap();
        assert_eq!(d.model_to_string(d.id("a").unwrap()), "(b?, (c | d))");
    }
}
