//! A test-only reference XML lexer: an independent judge of `pv_xml`'s one
//! lexer, the push parser that both streaming and `pv_xml::parse` run on.
//!
//! [`reference_trace`] scans the whole input with a cursor and an explicit
//! open-element stack, and renders the torture suite's canonical trace:
//! one line per tree node in document order — `S:` start tag with its
//! attributes, `E:` end tag, `T:` text node, `C:` comment, `P:` processing
//! instruction; a self-closing tag is an `S:` line plus an `E:` line. A
//! broken input yields the well-formedness error with its byte offset. It
//! shares no code with `pv_xml`'s lexer beyond the public `pv_xml::escape`
//! helpers and `XmlError::new`.

use pv_xml::escape::{is_name_char, is_name_start, resolve_reference, validate_name};
use pv_xml::{XmlError, XmlErrorKind};
use std::fmt::Write;

type Result<T> = std::result::Result<T, XmlError>;

/// The canonical trace of `input`, or its well-formedness error.
pub fn reference_trace(input: &str) -> Result<String> {
    Cursor { src: input, pos: 0, out: String::new() }.document()
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    out: String,
}

impl<'a> Cursor<'a> {
    // ---- low-level cursor ----------------------------------------------

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            Err(self.err_unexpected(&format!("input (expected {s:?})")))
        }
    }

    fn err_unexpected(&self, what: &str) -> XmlError {
        XmlError::new(XmlErrorKind::Unexpected(what.to_owned()), self.pos)
    }

    fn err_eof(&self) -> XmlError {
        XmlError::new(XmlErrorKind::UnexpectedEof, self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Offset of `needle` from the cursor, or end of input at the cursor.
    fn find(&self, needle: &str) -> Result<usize> {
        self.src[self.pos..].find(needle).ok_or_else(|| self.err_eof())
    }

    /// Consumes an XML name and returns it.
    fn name(&mut self) -> Result<&'a str> {
        let src = self.src;
        let rest = &src[self.pos..];
        let mut chars = rest.char_indices();
        if !matches!(chars.next(), Some((_, c)) if is_name_start(c)) {
            let shown = rest.chars().take(8).collect();
            return Err(XmlError::new(XmlErrorKind::InvalidName(shown), self.pos));
        }
        let len = chars.find(|&(_, c)| !is_name_char(c)).map_or(rest.len(), |(i, _)| i);
        self.bump(len);
        Ok(&rest[..len])
    }

    // ---- document structure --------------------------------------------

    fn document(mut self) -> Result<String> {
        // Optional XML declaration.
        if self.starts_with("<?xml") {
            let close = self.find("?>")?;
            self.bump(close + 2);
        }
        // Prolog misc + doctype.
        let mut doctype_seen = false;
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.comment_body()?;
            } else if self.starts_with("<!DOCTYPE") {
                if doctype_seen {
                    return Err(self.err_unexpected("second <!DOCTYPE"));
                }
                self.doctype()?;
                doctype_seen = true;
            } else if self.starts_with("<?") {
                self.pi_body()?;
            } else {
                break;
            }
        }
        self.skip_ws();
        match self.peek() {
            Some(b'<') => {}
            Some(_) => return Err(self.err_unexpected("character data before the root element")),
            None => return Err(XmlError::new(XmlErrorKind::NoRootElement, self.pos)),
        }

        // Root element and content, with an explicit open-element stack.
        let mut open: Vec<&'a str> = Vec::new();
        let mut root_seen = false;
        loop {
            if open.is_empty() && root_seen {
                // Trailing misc only.
                self.skip_ws();
                if self.pos >= self.src.len() {
                    return Ok(self.out);
                }
                if self.starts_with("<!--") {
                    self.comment_body()?;
                } else if self.starts_with("<?") {
                    self.pi_body()?;
                } else {
                    return Err(XmlError::new(XmlErrorKind::TrailingContent, self.pos));
                }
                continue;
            }
            match self.peek() {
                None => {
                    let kind = match open.last() {
                        Some(name) => XmlErrorKind::UnclosedTag((*name).to_owned()),
                        None => XmlErrorKind::NoRootElement,
                    };
                    return Err(XmlError::new(kind, self.pos));
                }
                Some(b'<') if self.starts_with("</") => {
                    self.bump(2);
                    let close_pos = self.pos;
                    let name = self.name()?;
                    self.skip_ws();
                    self.expect(">")?;
                    let Some(open_name) = open.pop() else {
                        let kind = XmlErrorKind::UnopenedTag(name.to_owned());
                        return Err(XmlError::new(kind, close_pos));
                    };
                    if open_name != name {
                        let kind = XmlErrorKind::MismatchedTag {
                            open: open_name.to_owned(),
                            close: name.to_owned(),
                        };
                        return Err(XmlError::new(kind, close_pos));
                    }
                    writeln!(self.out, "E:{name}").unwrap();
                }
                Some(b'<') if self.starts_with("<!--") => {
                    let text = self.comment_body()?;
                    writeln!(self.out, "C:{text:?}").unwrap();
                }
                Some(b'<') if self.starts_with("<![CDATA[") => {
                    self.bump("<![CDATA[".len());
                    let end = self.find("]]>")?;
                    let src = self.src;
                    let text = &src[self.pos..self.pos + end];
                    self.bump(end + 3);
                    if open.is_empty() {
                        return Err(self.err_unexpected("CDATA outside root"));
                    }
                    writeln!(self.out, "T:{text:?}").unwrap();
                }
                Some(b'<') if self.starts_with("<?") => {
                    let (target, data) = self.pi_body()?;
                    if !open.is_empty() {
                        writeln!(self.out, "P:{target} {data:?}").unwrap();
                    }
                }
                Some(b'<') if self.starts_with("<!") => {
                    return Err(self.err_unexpected("markup declaration inside content"));
                }
                Some(b'<') => {
                    // Start tag.
                    self.bump(1);
                    let name_pos = self.pos;
                    let name = self.name()?;
                    validate_name(name, name_pos)?;
                    let attrs = self.attributes()?;
                    let self_closing = self.starts_with("/>");
                    self.expect(if self_closing { "/>" } else { ">" })?;
                    if open.is_empty() {
                        if root_seen {
                            return Err(XmlError::new(XmlErrorKind::TrailingContent, name_pos));
                        }
                        root_seen = true;
                    }
                    write!(self.out, "S:{name}").unwrap();
                    for (attr, value) in &attrs {
                        write!(self.out, " {attr}={value:?}").unwrap();
                    }
                    self.out.push('\n');
                    if self_closing {
                        writeln!(self.out, "E:{name}").unwrap();
                    } else {
                        open.push(name);
                    }
                }
                Some(_) => {
                    // Character data (must be inside the root).
                    if open.is_empty() {
                        return Err(self.err_unexpected("character data outside the root"));
                    }
                    let text = self.char_data()?;
                    writeln!(self.out, "T:{text:?}").unwrap();
                }
            }
        }
    }

    /// Character data up to the next `<` (or end of input), references
    /// resolved.
    fn char_data(&mut self) -> Result<String> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => return Ok(out),
                Some(b'&') => out.push(self.reference()?),
                Some(_) => {
                    let src = self.src;
                    let rest = &src[self.pos..];
                    let stop = rest.find(['<', '&']).unwrap_or(rest.len());
                    out.push_str(&rest[..stop]);
                    self.bump(stop);
                }
            }
        }
    }

    /// Resolves the reference whose `&` is at the cursor; its body runs to
    /// the next `;` anywhere in the rest of the input.
    fn reference(&mut self) -> Result<char> {
        let amp = self.pos;
        self.bump(1);
        let semi = self.find(";")?;
        let ch = resolve_reference(&self.src[self.pos..self.pos + semi], amp)?;
        self.bump(semi + 1);
        Ok(ch)
    }

    /// The attribute list of a start tag, up to (not including) `>` or
    /// `/>`, values resolved.
    fn attributes(&mut self) -> Result<Vec<(&'a str, String)>> {
        let mut attrs: Vec<(&'a str, String)> = Vec::new();
        loop {
            let before = self.pos;
            self.skip_ws();
            match self.peek() {
                Some(b'>') => return Ok(attrs),
                Some(b'/') if self.starts_with("/>") => return Ok(attrs),
                None => return Err(self.err_eof()),
                Some(_) if self.pos == before => {
                    return Err(self.err_unexpected("attribute (missing whitespace?)"))
                }
                Some(_) => {}
            }
            let name_pos = self.pos;
            let name = self.name()?;
            if attrs.iter().any(|(n, _)| *n == name) {
                let kind = XmlErrorKind::DuplicateAttribute(name.to_owned());
                return Err(XmlError::new(kind, name_pos));
            }
            self.skip_ws();
            self.expect("=")?;
            self.skip_ws();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => q,
                _ => return Err(self.err_unexpected("attribute value (expected quote)")),
            };
            self.bump(1);
            let mut value = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err_eof()),
                    Some(q) if q == quote => break,
                    Some(b'<') => return Err(self.err_unexpected("'<' in attribute value")),
                    Some(b'&') => value.push(self.reference()?),
                    Some(_) => {
                        let src = self.src;
                        let rest = &src[self.pos..];
                        let stop = rest.find([quote as char, '&', '<']).unwrap_or(rest.len());
                        value.push_str(&rest[..stop]);
                        self.bump(stop);
                    }
                }
            }
            self.bump(1); // the closing quote
            attrs.push((name, value));
        }
    }

    /// `<!-- … -->`, returning the body. Rejects `--` inside.
    fn comment_body(&mut self) -> Result<&'a str> {
        self.expect("<!--")?;
        let end = self.find("-->")?;
        let src = self.src;
        let body = &src[self.pos..self.pos + end];
        if body.contains("--") {
            return Err(self.err_unexpected("'--' inside comment"));
        }
        self.bump(end + 3);
        Ok(body)
    }

    /// `<?target data?>`, the data's leading whitespace trimmed.
    fn pi_body(&mut self) -> Result<(&'a str, &'a str)> {
        self.expect("<?")?;
        let target = self.name()?;
        let end = self.find("?>")?;
        let src = self.src;
        let data = src[self.pos..self.pos + end].trim_start();
        self.bump(end + 2);
        Ok((target, data))
    }

    /// `<!DOCTYPE name …>`. The internal subset is scanned with minimal
    /// structure — quoted strings and comments may hide a `]` — and is not
    /// part of the trace.
    fn doctype(&mut self) -> Result<()> {
        self.expect("<!DOCTYPE")?;
        self.skip_ws();
        self.name()?;
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(self.err_eof()),
                Some(b'>') => {
                    self.bump(1);
                    return Ok(());
                }
                Some(b'[') => {
                    self.bump(1);
                    let mut depth = 0usize;
                    loop {
                        match self.peek() {
                            None => return Err(self.err_eof()),
                            Some(b']') if depth == 0 => break,
                            Some(q @ (b'"' | b'\'')) => self.skip_quoted(q),
                            Some(b'<') if self.starts_with("<!--") => {
                                self.comment_body()?;
                            }
                            Some(b'<') => {
                                depth += 1;
                                self.bump(1);
                            }
                            Some(b'>') => {
                                depth = depth.saturating_sub(1);
                                self.bump(1);
                            }
                            Some(_) => self.bump(1),
                        }
                    }
                    self.expect("]")?;
                }
                Some(q @ (b'"' | b'\'')) => self.skip_quoted(q),
                // SYSTEM / PUBLIC keywords etc.
                Some(_) => self.bump(1),
            }
        }
    }

    /// Skips a quoted literal from its opening quote through the closing
    /// one (or to end of input).
    fn skip_quoted(&mut self, quote: u8) {
        self.bump(1);
        while let Some(c) = self.peek() {
            self.bump(1);
            if c == quote {
                break;
            }
        }
    }
}
