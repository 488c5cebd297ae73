//! Streaming (push/SAX-style) front end: the crate's one XML lexer.
//!
//! [`PushParser`] accepts the document as byte chunks ([`PushParser::push`])
//! and hands out [`Event`]s as soon as they are complete, holding only the
//! open-element name stack plus the bytes of the one construct currently
//! in flight. A chunk boundary may fall anywhere — mid-tag, mid-name,
//! inside an attribute value, between the bytes of a UTF-8 sequence — and
//! the lexer simply reports "need more input" until the construct
//! completes.
//!
//! Events reach the caller two ways, from one state machine:
//! [`PushParser::drain`] pushes every event the buffered input completes
//! into a sink closure, and [`PushParser::next_event`] pulls one at a time.
//! Both give the same events and errors, and they may be mixed on one
//! parser.
//!
//! ## Events and the tree
//!
//! [`crate::parse`] builds its tree from these events, so the event stream
//! and the tree agree by construction: one event chain per arena node, in
//! allocation order (element starts, one text chain per maximal
//! character-data run, one per CDATA section, comments and PIs inside the
//! root). Prolog and trailing misc are consumed but produce no events, so
//! the tree has no nodes for them. Events and errors (kind and byte offset)
//! do not depend on where the chunk boundaries fall. `parse` runs the same
//! machine over the caller's string in place, with end of input known from
//! the start: one chunking among all the others.
//! `tests/stream_torture.rs` holds all of this against an independent
//! test-side reference lexer over random documents, all chunkings, and all
//! truncations, through both entry points.
//!
//! ## Memory
//!
//! Residency is `O(depth + largest single markup construct + chunk)`:
//! character data streams out in pieces (it never accumulates), while tags,
//! comments, CDATA sections, references and the doctype are buffered only
//! until their terminating delimiter arrives. (An unterminated reference or
//! giant comment therefore buffers until its delimiter — a reference body
//! runs to the next `;` anywhere in the rest of the input, so only that `;`
//! or the end of input settles it.) Constructs interrupted
//! by a chunk boundary re-parse from their first byte when more input
//! arrives, so fixed `c`-byte chunks cost O(construct²/c) time per
//! construct (pathological 1-byte feeding O(construct²)) but never change
//! the result; [`crate::parse`] never re-parses, because its whole input
//! is present from the start. Truncated input surfaces as a clean
//! [`XmlErrorKind::UnexpectedEof`]-family error after
//! [`PushParser::finish`] — never as a wrong event stream.
//!
//! ## Throughput
//!
//! The hot path is built around these techniques:
//!
//! * **Pushed events** — [`PushParser::drain`] runs the machine over
//!   everything buffered and calls its sink once per event, with one
//!   prologue per call (sticky error, compaction) instead of one
//!   `Result<Option<Event>>` round trip per event. A failure
//!   travels boxed inside the machine, so a step that yields a flag or a
//!   byte returns in two words rather than seven.
//! * **Amortized compaction** — consumed bytes are dropped from the input
//!   buffer only when they outnumber the unconsumed remainder, so the
//!   total bytes ever memmoved is bounded by the total bytes consumed
//!   (O(1) per input byte) instead of O(remainder) per *event*. The
//!   buffer's allocation stays within ~2× the unconsumed high-water mark;
//!   [`PushParser::peak_buffered`] reports the unconsumed bytes, which is
//!   the residency claim that matters.
//! * **Skip-scanning** — character data finds the next `<`/`&` eight bytes
//!   at a time (a word-at-a-time zero-byte test in safe Rust), attribute
//!   values scan bytes to the closing quote, and names scan bytes rather
//!   than decode characters: every delimiter is ASCII and every non-ASCII
//!   character is a name character, so byte scans are exact on UTF-8.
//! * **Zero-copy text and a name arena** — a character-data segment with
//!   no references is emitted as a borrowed range of the input (never
//!   copied into scratch), and open-element names live concatenated in
//!   one rotating arena (`names` + per-level start offsets) instead of one
//!   heap `String` per open element.

use crate::error::{XmlError, XmlErrorKind};
use crate::escape::{is_name_byte, is_name_start_byte, resolve_reference};
use crate::tree::{Attribute, Doctype};
use crate::Result;
use std::collections::HashSet;
use std::ops::Range;

/// One SAX-style event. Borrows from the parser's internal buffers; the
/// borrow ends at the next [`PushParser`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// A start tag (or an empty-element tag when `self_closing`; no
    /// matching [`Event::End`] is emitted for those).
    Start {
        /// Element name.
        name: &'a str,
        /// Parsed attributes, references resolved.
        attrs: &'a [Attribute],
        /// `true` for `<x/>` — open and close in one event.
        self_closing: bool,
    },
    /// An end tag (already verified to match the open element).
    End {
        /// Element name.
        name: &'a str,
    },
    /// A piece of character data. One maximal run (or one CDATA section)
    /// corresponds to one text *node* of the tree [`crate::parse`] builds
    /// and arrives as one or more pieces; `first` marks the piece that
    /// begins the node.
    Text {
        /// Resolved character data (empty only for an empty CDATA section,
        /// which becomes an empty text node).
        piece: &'a str,
        /// `true` iff this piece starts a new text node.
        first: bool,
    },
    /// A comment inside the root element (prolog/trailing comments are
    /// consumed silently; the tree keeps no node for them).
    Comment {
        /// Comment body.
        text: &'a str,
    },
    /// A processing instruction inside the root element.
    Pi {
        /// PI target.
        target: &'a str,
        /// PI data (leading whitespace trimmed).
        data: &'a str,
    },
}

/// Where the state machine stands between events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    /// At absolute offset 0: an XML declaration may start here.
    #[default]
    Decl,
    /// Prolog misc + doctype, before the root element.
    Prolog,
    /// Inside the document: expecting markup or character data.
    Content,
    /// Mid character-data run.
    CharData,
    /// After the root element closed: trailing misc only.
    Epilog,
    /// Document complete.
    Done,
}

/// Internal control flow: a step either needs more input or fails.
enum Halt {
    /// The current construct extends past the buffered input.
    More,
    /// A well-formedness error (final), boxed so that a step yielding a
    /// flag or a byte returns in two words rather than seven.
    Fail(Box<XmlError>),
}

impl From<XmlError> for Halt {
    fn from(e: XmlError) -> Self {
        Halt::Fail(Box::new(e))
    }
}

type Step<T> = std::result::Result<T, Halt>;

/// An event with borrow-free payload locations, produced by the state
/// machine and turned into a borrowing [`Event`] by [`Lexer::event`].
enum Raw {
    Start { name: Range<usize>, self_closing: bool },
    /// End tag; `start` is the popped name's offset into the name arena
    /// (the arena is truncated back to it by the *next* step, so the
    /// borrow in [`Event::End`] stays valid).
    End { start: usize },
    TextScratch { first: bool },
    TextBuf { piece: Range<usize>, first: bool },
    Comment { text: Range<usize> },
    Pi { target: Range<usize>, data: Range<usize> },
}

/// A resumable push parser: feed byte chunks, drain or pull events. See
/// the [module docs](self).
pub struct PushParser {
    /// Buffered, validated input not yet compacted away; `lx.base` is the
    /// absolute offset of `buf[0]` in the original byte stream.
    buf: String,
    /// Up to 3 bytes of a UTF-8 sequence split by a chunk boundary.
    utf8_tail: Vec<u8>,
    eof: bool,
    failed: Option<XmlError>,
    peak_buffered: usize,
    lx: Lexer,
}

/// Everything the state machine keeps between events, apart from the
/// input itself: [`PushParser`] runs it over its buffer, [`lex`] over a
/// caller's string.
#[derive(Default)]
struct Lexer {
    /// Absolute offset of the input's first byte.
    base: usize,
    /// Committed cursor into the input: everything before it belongs to
    /// fully parsed constructs. An attempt that runs out of input
    /// restarts here.
    pos: usize,
    mode: Mode,
    /// Open element names, concatenated (the name arena): element `i`'s
    /// name spans `names[name_starts[i]..name_starts[i + 1]]` (to the
    /// arena's end for the innermost). The only per-depth state the
    /// lexer holds, and allocation-free at steady state.
    names: String,
    /// Per-open-element start offsets into `names`.
    name_starts: Vec<usize>,
    /// Pending arena truncation: a popped end-tag name is kept alive for
    /// the borrow in [`Event::End`] and reclaimed by the next step.
    name_trunc: Option<usize>,
    root_seen: bool,
    doctype: Option<Doctype>,
    /// Scratch for the text piece being assembled. Only reference
    /// resolution writes here; plain character data is emitted as a
    /// borrowed range of the input without copying.
    text: String,
    text_emitted: bool,
    /// `true` once the current character-data run has emitted a piece.
    run_started: bool,
    /// Scratch for the attribute list of the current start tag.
    attrs: Vec<Attribute>,
}

impl Default for PushParser {
    fn default() -> Self {
        Self::new()
    }
}

impl PushParser {
    /// A fresh parser.
    pub fn new() -> Self {
        PushParser {
            buf: String::new(),
            utf8_tail: Vec::new(),
            eof: false,
            failed: None,
            peak_buffered: 0,
            lx: Lexer::default(),
        }
    }

    /// Appends a chunk of input. Invalid UTF-8 is reported by the next
    /// [`PushParser::drain`] or [`PushParser::next_event`] call (chunk
    /// boundaries may split a multi-byte sequence; only genuinely
    /// malformed bytes fail).
    pub fn push(&mut self, chunk: &[u8]) {
        debug_assert!(!self.eof, "push after finish");
        if self.failed.is_some() {
            return;
        }
        if self.utf8_tail.is_empty() {
            self.append(chunk);
        } else {
            let mut bytes = std::mem::take(&mut self.utf8_tail);
            bytes.extend_from_slice(chunk);
            self.append(&bytes);
        }
        // Residency only grows here: events consume bytes and compaction
        // drops consumed ones, so sampling after each push (split UTF-8
        // tail included) catches the true maximum.
        self.peak_buffered = self.peak_buffered.max(self.pending());
    }

    /// Validates `bytes` and appends them to the buffer, parking an
    /// incomplete trailing UTF-8 sequence in the tail.
    fn append(&mut self, bytes: &[u8]) {
        match std::str::from_utf8(bytes) {
            Ok(s) => self.buf.push_str(s),
            Err(e) => {
                let (valid, rest) = bytes.split_at(e.valid_up_to());
                // from_utf8 already proved this prefix valid.
                self.buf.push_str(std::str::from_utf8(valid).expect("validated prefix"));
                if e.error_len().is_some() {
                    self.failed = Some(XmlError::new(
                        XmlErrorKind::Unexpected("invalid UTF-8".to_owned()),
                        self.lx.base + self.buf.len(),
                    ));
                } else {
                    self.utf8_tail = rest.to_vec();
                }
            }
        }
    }

    /// Buffered-but-unconsumed bytes, including any split UTF-8 tail.
    /// Once the lexer has asked for more input, this is the construct in
    /// flight, which the next attempt re-lexes from its first byte.
    #[inline]
    fn pending(&self) -> usize {
        self.buf.len() - self.lx.pos + self.utf8_tail.len()
    }

    /// Signals end of input. Later [`PushParser::drain`] or
    /// [`PushParser::next_event`] calls deliver the remaining events and
    /// then report completion (or the truncation error).
    pub fn finish(&mut self) {
        self.eof = true;
        if !self.utf8_tail.is_empty() && self.failed.is_none() {
            // The stream ended between the bytes of one character.
            self.failed = Some(XmlError::new(
                XmlErrorKind::UnexpectedEof,
                self.lx.base + self.buf.len(),
            ));
        }
    }

    /// `true` once the whole document (including trailing misc) has been
    /// accepted. Only meaningful after [`PushParser::finish`].
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.lx.mode == Mode::Done
    }

    /// The captured `<!DOCTYPE>` (available once the prolog has been
    /// consumed — at the latest when the first event arrives).
    #[inline]
    pub fn doctype(&self) -> Option<&Doctype> {
        self.lx.doctype.as_ref()
    }

    /// High-water mark of buffered-but-unconsumed bytes — including any
    /// UTF-8 sequence split across a chunk boundary — over the whole
    /// parse, excluding the open-name arena. This is a true maximum:
    /// residency only grows inside [`PushParser::push`] and is sampled
    /// there after every append (even when bytes are parked in the UTF-8
    /// tail); events only consume. The buffer's *allocation* may lag
    /// behind consumption by up to one compaction interval (~2× this
    /// figure); see the module docs on amortized compaction.
    #[inline]
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Current open-element depth.
    #[inline]
    pub fn depth(&self) -> usize {
        self.lx.name_starts.len()
    }

    /// Hands every event the buffered input completes to `sink`, in
    /// order, and returns once the lexer needs more input or (after
    /// [`PushParser::finish`]) the document is complete.
    ///
    /// Gives exactly the events [`PushParser::next_event`] would, and the
    /// same sticky error, but with one entry per call instead of one per
    /// event. Each event's borrow ends when `sink` returns.
    pub fn drain(&mut self, sink: impl FnMut(Event<'_>)) -> Result<()> {
        self.prologue()?;
        let done = self.lx.drive(&self.buf, self.eof, sink);
        if let Err(e) = &done {
            self.failed = Some(e.clone());
        }
        done
    }

    /// Pulls the next complete event.
    ///
    /// * `Ok(Some(event))` — one event; the borrow ends at the next call.
    /// * `Ok(None)` before [`PushParser::finish`] — the next construct is
    ///   incomplete; push more input.
    /// * `Ok(None)` after `finish` — the document parsed to completion
    ///   ([`PushParser::is_complete`] is `true`).
    /// * `Err(e)` — well-formedness error, the same (kind and byte offset)
    ///   at every chunking of the input. The error is sticky.
    pub fn next_event(&mut self) -> Result<Option<Event<'_>>> {
        self.prologue()?;
        match self.lx.step(&self.buf, self.eof) {
            Ok(Some(raw)) => Ok(Some(self.lx.event(&self.buf, raw))),
            Ok(None) => Ok(None),
            Err(Halt::More) => {
                debug_assert!(!self.eof, "More at eof is unreachable");
                Ok(None)
            }
            Err(Halt::Fail(e)) => {
                self.failed = Some((*e).clone());
                Err(*e)
            }
        }
    }

    /// What every entry into the machine does first: replay a sticky
    /// error, then compact the buffer.
    fn prologue(&mut self) -> Result<()> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        // Amortized compaction: drop consumed input only once it
        // outweighs the unconsumed remainder, so every byte is memmoved
        // at most once on average (an unconditional drain per entry is
        // O(remainder) per entry — quadratic over a large document).
        // Absolute offsets survive via `base`.
        let pos = self.lx.pos;
        if pos > 0 && pos >= self.buf.len() - pos {
            self.buf.drain(..pos);
            self.lx.base += pos;
            self.lx.pos = 0;
        }
        Ok(())
    }
}

/// Lexes a complete document held in memory, handing each event to
/// `sink`, and returns the captured `<!DOCTYPE>`. The machine runs over
/// `input` in place with end of input known from the start, so nothing
/// is copied, re-validated or re-lexed; events and errors are those of a
/// [`PushParser`] fed `input` in any chunking. [`crate::parse`] is this
/// plus a tree builder.
pub fn lex(input: &str, sink: impl FnMut(Event<'_>)) -> Result<Option<Doctype>> {
    let mut lx = Lexer::default();
    lx.drive(input, true, sink)?;
    debug_assert_eq!(lx.mode, Mode::Done);
    Ok(lx.doctype)
}

impl Lexer {
    /// Runs the machine over `s` (all of the input not yet compacted
    /// away; `eof` once nothing follows it) and hands each event to
    /// `sink`, until `s` runs dry, the document ends, or an error
    /// surfaces.
    fn drive(&mut self, s: &str, eof: bool, mut sink: impl FnMut(Event<'_>)) -> Result<()> {
        loop {
            match self.step(s, eof) {
                Ok(Some(raw)) => sink(self.event(s, raw)),
                Ok(None) => return Ok(()),
                Err(Halt::More) => {
                    debug_assert!(!eof, "More at eof is unreachable");
                    return Ok(());
                }
                Err(Halt::Fail(e)) => return Err(*e),
            }
        }
    }

    /// Reclaims what the previous event borrowed, then runs the machine
    /// from the committed cursor until one event is complete.
    #[inline]
    fn step(&mut self, s: &str, eof: bool) -> Step<Option<Raw>> {
        if let Some(n) = self.name_trunc.take() {
            self.names.truncate(n);
        }
        if self.text_emitted {
            self.text.clear();
            self.text_emitted = false;
        }
        Machine { s, eof, p: self.pos, lx: self }.run()
    }

    /// The event `raw` describes, borrowing `s` (the input the machine ran
    /// over) and the lexer's arena and scratch until the next step.
    #[inline]
    fn event<'a>(&'a mut self, s: &'a str, raw: Raw) -> Event<'a> {
        match raw {
            Raw::Start { name, self_closing } => {
                Event::Start { name: &s[name], attrs: &self.attrs, self_closing }
            }
            Raw::End { start } => {
                self.name_trunc = Some(start);
                Event::End { name: &self.names[start..] }
            }
            Raw::TextScratch { first } => {
                self.text_emitted = true;
                Event::Text { piece: &self.text, first }
            }
            Raw::TextBuf { piece, first } => Event::Text { piece: &s[piece], first },
            Raw::Comment { text } => Event::Comment { text: &s[text] },
            Raw::Pi { target, data } => Event::Pi { target: &s[target], data: &s[data] },
        }
    }
}

/// The index of the first `<` or `&` in `bytes`, testing eight bytes at
/// a time: a word XORed with a needle repeated in every byte has a zero
/// byte exactly where the needle is, and `(v - 0x01…01) & !v & 0x80…80`
/// flags the lowest zero byte exactly (a borrow only runs toward higher
/// bytes, so later flags may be spurious but never earlier ones). Words
/// load little-endian, so the lowest flagged bit is the first match.
fn find_markup(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const LT: u64 = ONES * b'<' as u64;
    const AMP: u64 = ONES * b'&' as u64;
    let zero_bytes = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        let hits = zero_bytes(w ^ LT) | zero_bytes(w ^ AMP);
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    words.remainder().iter().position(|&b| b == b'<' || b == b'&').map(|i| at + i)
}

/// The working state of one machine run: an immutable view of the input
/// plus the lexer state, with a local uncommitted cursor `p`.
struct Machine<'m> {
    s: &'m str,
    eof: bool,
    /// Working cursor (uncommitted).
    p: usize,
    lx: &'m mut Lexer,
}

impl Machine<'_> {
    // ---- cursor helpers ---------------------------------------------------

    #[inline]
    fn abs(&self) -> usize {
        self.lx.base + self.p
    }

    #[inline]
    fn commit(&mut self) {
        self.lx.pos = self.p;
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.p).copied()
    }

    /// Like `peek`, but `None` only at true end of input; running out of
    /// *buffered* input asks for more.
    #[inline]
    fn peek_or(&self) -> Step<Option<u8>> {
        match self.peek() {
            Some(b) => Ok(Some(b)),
            None if self.eof => Ok(None),
            None => Err(Halt::More),
        }
    }

    /// Three-valued `starts_with`: undecidable prefixes ask for more input
    /// (at eof they resolve to a plain mismatch).
    fn lit(&self, t: &str) -> Step<bool> {
        let rest = &self.s.as_bytes()[self.p..];
        if rest.len() >= t.len() {
            return Ok(rest.starts_with(t.as_bytes()));
        }
        if !self.eof && t.as_bytes().starts_with(rest) {
            Err(Halt::More)
        } else {
            Ok(false)
        }
    }

    fn expect_lit(&mut self, t: &str) -> Step<()> {
        if self.lit(t)? {
            self.p += t.len();
            Ok(())
        } else {
            Err(self.err_unexpected(&format!("input (expected {t:?})")))
        }
    }

    fn err_unexpected(&self, what: &str) -> Halt {
        self.fail(XmlErrorKind::Unexpected(what.to_owned()), self.abs())
    }

    fn err_eof(&self) -> Halt {
        self.fail(XmlErrorKind::UnexpectedEof, self.abs())
    }

    fn fail(&self, kind: XmlErrorKind, at: usize) -> Halt {
        XmlError::new(kind, at).into()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.p += 1;
        }
    }

    /// Finds `needle` from the cursor, returning its offset relative to the
    /// cursor. Not-found means "more input" until eof, then
    /// `UnexpectedEof` at the cursor.
    fn find(&self, needle: &str) -> Step<usize> {
        match self.s[self.p..].find(needle) {
            Some(i) => Ok(i),
            None if self.eof => Err(self.err_eof()),
            None => Err(Halt::More),
        }
    }

    /// Consumes an XML name, returning its byte range in the input.
    fn name(&mut self) -> Step<Range<usize>> {
        let start = self.p;
        let rest = &self.s.as_bytes()[start..];
        if !rest.first().is_some_and(|&b| is_name_start_byte(b)) {
            // The InvalidName message carries the next (up to) 8
            // characters; wait for them (or eof) so the error does not
            // depend on the chunking.
            let rest = &self.s[start..];
            if !self.eof && rest.chars().take(8).count() < 8 {
                return Err(Halt::More);
            }
            return Err(
                self.fail(XmlErrorKind::InvalidName(rest.chars().take(8).collect()), self.abs())
            );
        }
        match rest[1..].iter().position(|&b| !is_name_byte(b)) {
            Some(len) => {
                self.p = start + 1 + len;
                Ok(start..self.p)
            }
            // The name runs to the end of the input: complete only at eof.
            None if self.eof => {
                self.p = self.s.len();
                Ok(start..self.p)
            }
            None => Err(Halt::More),
        }
    }

    /// Resolves a `&…;` reference at the cursor (which sits on the `&`).
    /// The body runs to the next `;`, wherever it is.
    fn reference(&mut self) -> Step<char> {
        let amp = self.abs();
        self.p += 1; // past '&'
        let semi = match self.s[self.p..].find(';') {
            Some(i) => i,
            // The ';' may arrive in any later chunk; only eof settles
            // that there is none.
            None if self.eof => return Err(self.err_eof()),
            None => return Err(Halt::More),
        };
        let body = &self.s[self.p..self.p + semi];
        let ch = resolve_reference(body, amp)?;
        self.p += semi + 1;
        Ok(ch)
    }

    // ---- the machine ------------------------------------------------------

    /// Runs until one event is complete, the document ends, input runs dry,
    /// or a well-formedness error surfaces.
    fn run(&mut self) -> Step<Option<Raw>> {
        loop {
            match self.lx.mode {
                Mode::Decl => self.decl()?,
                Mode::Prolog => self.prolog()?,
                Mode::Content => {
                    if let Some(raw) = self.content()? {
                        return Ok(Some(raw));
                    }
                }
                Mode::CharData => {
                    if let Some(raw) = self.char_data()? {
                        return Ok(Some(raw));
                    }
                }
                Mode::Epilog => self.epilog()?,
                Mode::Done => return Ok(None),
            }
        }
    }

    /// Optional XML declaration — recognized only as the very first bytes,
    /// by the exact `<?xml` prefix.
    fn decl(&mut self) -> Step<()> {
        debug_assert_eq!(self.abs(), 0);
        if self.lit("<?xml")? {
            let close = self.find("?>")?;
            self.p += close + 2;
            self.commit();
        }
        self.lx.mode = Mode::Prolog;
        Ok(())
    }

    /// Prolog misc + doctype; produces no events (the tree keeps no nodes
    /// for these).
    fn prolog(&mut self) -> Step<()> {
        loop {
            self.skip_ws();
            self.commit();
            if self.lit("<!--")? {
                self.comment_body()?;
                self.commit();
            } else if self.lit("<!DOCTYPE")? {
                if self.lx.doctype.is_some() {
                    return Err(self.err_unexpected("second <!DOCTYPE"));
                }
                let dt = self.doctype_decl()?;
                self.lx.doctype = Some(dt);
                self.commit();
            } else if self.lit("<?")? {
                self.pi_body()?;
                self.commit();
            } else {
                break;
            }
        }
        self.skip_ws();
        self.commit();
        match self.peek_or()? {
            Some(b'<') => {
                self.lx.mode = Mode::Content;
                Ok(())
            }
            Some(_) => Err(self.err_unexpected("character data before the root element")),
            None => Err(self.fail(XmlErrorKind::NoRootElement, self.abs())),
        }
    }

    /// One content construct, markup dispatched in a fixed order: end tag,
    /// comment, CDATA, PI, other `<!`, start tag. Returns `None` when the
    /// construct produced no event (a PI outside the root, or a mode
    /// switch).
    fn content(&mut self) -> Step<Option<Raw>> {
        match self.peek_or()? {
            None => {
                return Err(if let Some(&st) = self.lx.name_starts.last() {
                    self.fail(
                        XmlErrorKind::UnclosedTag(self.lx.names[st..].to_owned()),
                        self.abs(),
                    )
                } else {
                    self.fail(XmlErrorKind::NoRootElement, self.abs())
                });
            }
            Some(b'<') => {}
            Some(_) => {
                if self.lx.name_starts.is_empty() {
                    return Err(self.err_unexpected("character data outside the root"));
                }
                self.lx.mode = Mode::CharData;
                self.lx.run_started = false;
                self.lx.text.clear();
                return Ok(None);
            }
        }
        if self.lit("</")? {
            self.p += 2;
            let close_pos = self.abs();
            let name = self.name()?;
            self.skip_ws();
            self.expect_lit(">")?;
            let Some(&st) = self.lx.name_starts.last() else {
                return Err(
                    self.fail(XmlErrorKind::UnopenedTag(self.s[name].to_owned()), close_pos)
                );
            };
            if self.lx.names[st..] != self.s[name.clone()] {
                let open = self.lx.names[st..].to_owned();
                let close = self.s[name].to_owned();
                return Err(self.fail(XmlErrorKind::MismatchedTag { open, close }, close_pos));
            }
            self.lx.name_starts.pop();
            self.commit();
            if self.lx.name_starts.is_empty() {
                self.lx.mode = Mode::Epilog;
            }
            // The arena still holds the popped name (truncated by the
            // next step, after the event's borrow ends).
            Ok(Some(Raw::End { start: st }))
        } else if self.lit("<!--")? {
            let text = self.comment_body()?;
            self.commit();
            if self.lx.name_starts.is_empty() {
                // Unreachable (the prolog consumes pre-root comments and
                // the epilog post-root ones); keep it an error, not a panic.
                return Err(self.err_unexpected("comment outside root"));
            }
            Ok(Some(Raw::Comment { text }))
        } else if self.lit("<![CDATA[")? {
            self.p += "<![CDATA[".len();
            let end = self.find("]]>")?;
            let piece = self.p..self.p + end;
            self.p += end + 3;
            if self.lx.name_starts.is_empty() {
                return Err(self.err_unexpected("CDATA outside root"));
            }
            self.commit();
            Ok(Some(Raw::TextBuf { piece, first: true }))
        } else if self.lit("<?")? {
            let (target, data) = self.pi_body()?;
            self.commit();
            if !self.lx.name_starts.is_empty() {
                Ok(Some(Raw::Pi { target, data }))
            } else {
                Ok(None)
            }
        } else if self.lit("<!")? {
            Err(self.err_unexpected("markup declaration inside content"))
        } else {
            // Start tag.
            self.p += 1;
            let name_pos = self.abs();
            let name = self.name()?;
            self.attributes()?;
            let self_closing = if self.lit("/>")? {
                self.p += 2;
                true
            } else {
                self.expect_lit(">")?;
                false
            };
            if self.lx.name_starts.is_empty() {
                if self.lx.root_seen {
                    return Err(self.fail(XmlErrorKind::TrailingContent, name_pos));
                }
                self.lx.root_seen = true;
            }
            self.commit();
            if !self_closing {
                self.lx.name_starts.push(self.lx.names.len());
                self.lx.names.push_str(&self.s[name.clone()]);
            } else if self.lx.name_starts.is_empty() {
                self.lx.mode = Mode::Epilog;
            }
            Ok(Some(Raw::Start { name, self_closing }))
        }
    }

    /// Advances a character-data run. A segment with no references is
    /// emitted as a borrowed range of the input in one skip-scan (no
    /// copy); only reference resolution goes through the text scratch,
    /// whose resolved progress is committed so a multi-chunk run never
    /// re-parses.
    fn char_data(&mut self) -> Step<Option<Raw>> {
        loop {
            match self.peek() {
                Some(b'<') => {
                    self.lx.mode = Mode::Content;
                    self.commit();
                    return Ok(self.flush_piece());
                }
                Some(b'&') => match self.reference() {
                    Ok(ch) => {
                        self.lx.text.push(ch);
                        self.commit();
                    }
                    Err(Halt::More) => {
                        // Hold at the '&'; ship what we have so far.
                        self.p = self.lx.pos;
                        return match self.flush_piece() {
                            Some(raw) => Ok(Some(raw)),
                            None => Err(Halt::More),
                        };
                    }
                    Err(fail) => return Err(fail),
                },
                Some(_) => {
                    // Skip-scan to the next delimiter classifies the whole
                    // segment (the needles are ASCII, so scanning raw
                    // UTF-8 bytes is exact).
                    let rest = &self.s.as_bytes()[self.p..];
                    let stop = find_markup(rest).unwrap_or(rest.len());
                    if self.lx.text.is_empty() {
                        // No reference resolved into scratch: ship the
                        // segment as a borrowed range, zero-copy. The
                        // cursor state re-enters this match on the next
                        // event to classify whatever stopped the scan.
                        let piece = self.p..self.p + stop;
                        self.p += stop;
                        self.commit();
                        let first = !self.lx.run_started;
                        self.lx.run_started = true;
                        return Ok(Some(Raw::TextBuf { piece, first }));
                    }
                    self.lx.text.push_str(&self.s[self.p..self.p + stop]);
                    self.p += stop;
                    self.commit();
                }
                None if !self.eof => {
                    return match self.flush_piece() {
                        Some(raw) => Ok(Some(raw)),
                        None => Err(Halt::More),
                    };
                }
                None => {
                    // True end of input mid-run: emit the tail piece, then
                    // let Content report the unclosed tag.
                    self.lx.mode = Mode::Content;
                    return Ok(self.flush_piece());
                }
            }
        }
    }

    /// Emits the pending text piece if it is non-empty.
    fn flush_piece(&mut self) -> Option<Raw> {
        if self.lx.text.is_empty() {
            return None;
        }
        let first = !self.lx.run_started;
        self.lx.run_started = true;
        Some(Raw::TextScratch { first })
    }

    /// Trailing misc after the root element.
    fn epilog(&mut self) -> Step<()> {
        loop {
            self.skip_ws();
            self.commit();
            if self.peek_or()?.is_none() {
                self.lx.mode = Mode::Done;
                return Ok(());
            }
            if self.lit("<!--")? {
                self.comment_body()?;
                self.commit();
            } else if self.lit("<?")? {
                self.pi_body()?;
                self.commit();
            } else {
                return Err(self.fail(XmlErrorKind::TrailingContent, self.abs()));
            }
        }
    }

    /// The attribute list of a start tag, filling the attribute scratch.
    /// Repeated names are caught in a hash set of the tag's names (the
    /// default hasher: the names come from the document), so a tag with
    /// N attributes costs O(N) rather than O(N²).
    fn attributes(&mut self) -> Step<()> {
        self.lx.attrs.clear();
        let mut seen = HashSet::new();
        loop {
            let before = self.p;
            self.skip_ws();
            match self.peek_or()? {
                None => return Err(self.err_eof()),
                Some(b'>') => break,
                Some(b'/') if self.lit("/>")? => break,
                Some(_) => {
                    if self.p == before {
                        return Err(self.err_unexpected("attribute (missing whitespace?)"));
                    }
                    let name_pos = self.abs();
                    let name = self.name()?;
                    let s = self.s;
                    let name = &s[name];
                    if !seen.insert(name) {
                        return Err(self.fail(
                            XmlErrorKind::DuplicateAttribute(name.to_owned()),
                            name_pos,
                        ));
                    }
                    self.skip_ws();
                    self.expect_lit("=")?;
                    self.skip_ws();
                    let quote = match self.peek_or()? {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err_unexpected("attribute value (expected quote)")),
                    };
                    self.p += 1;
                    let mut value = String::new();
                    loop {
                        match self.peek_or()? {
                            None => return Err(self.err_eof()),
                            Some(q) if q == quote => {
                                self.p += 1;
                                break;
                            }
                            Some(b'<') => {
                                return Err(self.err_unexpected("'<' in attribute value"))
                            }
                            Some(b'&') => value.push(self.reference()?),
                            Some(_) => {
                                let rest = &self.s.as_bytes()[self.p..];
                                let stop = rest
                                    .iter()
                                    .position(|&b| b == quote || b == b'&' || b == b'<')
                                    .unwrap_or(rest.len());
                                value.push_str(&self.s[self.p..self.p + stop]);
                                self.p += stop;
                            }
                        }
                    }
                    self.lx.attrs.push(Attribute { name: name.into(), value });
                }
            }
        }
        Ok(())
    }

    /// `<!-- … -->` (rejecting inner `--`), returning the body range.
    fn comment_body(&mut self) -> Step<Range<usize>> {
        self.expect_lit("<!--")?;
        let end = self.find("-->")?;
        let body = self.p..self.p + end;
        if self.s[body.clone()].contains("--") {
            return Err(self.err_unexpected("'--' inside comment"));
        }
        self.p += end + 3;
        Ok(body)
    }

    /// `<?target data?>`, returning target and trimmed data ranges.
    fn pi_body(&mut self) -> Step<(Range<usize>, Range<usize>)> {
        self.expect_lit("<?")?;
        let target = self.name()?;
        let end = self.find("?>")?;
        let raw = &self.s[self.p..self.p + end];
        let trimmed = raw.len() - raw.trim_start().len();
        let data = self.p + trimmed..self.p + end;
        self.p += end + 2;
        Ok((target, data))
    }

    /// `<!DOCTYPE name [subset]?>`, capturing the internal subset verbatim.
    fn doctype_decl(&mut self) -> Step<Doctype> {
        self.expect_lit("<!DOCTYPE")?;
        self.skip_ws();
        let name = self.name()?;
        let name = self.s[name].to_owned();
        let mut internal_subset = None;
        loop {
            self.skip_ws();
            match self.peek_or()? {
                Some(b'>') => {
                    self.p += 1;
                    break;
                }
                Some(b'[') => {
                    self.p += 1;
                    let start = self.p;
                    // The internal subset may contain quoted strings and
                    // comments with ']' inside; scan with minimal structure.
                    let mut depth = 0usize;
                    loop {
                        match self.peek_or()? {
                            None => return Err(self.err_eof()),
                            Some(b']') if depth == 0 => break,
                            Some(q @ (b'"' | b'\'')) => {
                                self.p += 1;
                                while let Some(c) = self.peek_or()? {
                                    self.p += 1;
                                    if c == q {
                                        break;
                                    }
                                }
                            }
                            Some(b'<') if self.lit("<!--")? => {
                                self.comment_body()?;
                            }
                            Some(b'<') => {
                                depth += 1;
                                self.p += 1;
                            }
                            Some(b'>') => {
                                depth = depth.saturating_sub(1);
                                self.p += 1;
                            }
                            Some(_) => self.p += 1,
                        }
                    }
                    internal_subset = Some(self.s[start..self.p].to_owned());
                    self.expect_lit("]")?;
                }
                Some(q @ (b'"' | b'\'')) => {
                    self.p += 1;
                    while let Some(c) = self.peek_or()? {
                        self.p += 1;
                        if c == q {
                            break;
                        }
                    }
                }
                Some(_) => {
                    // SYSTEM / PUBLIC keywords etc.
                    self.p += 1;
                }
                None => return Err(self.err_eof()),
            }
        }
        Ok(Doctype { name, internal_subset })
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    /// Collects the full event trace of `input` fed in `chunk`-byte pieces.
    fn events(input: &str, chunk: usize) -> Result<Vec<String>> {
        let mut p = PushParser::new();
        let mut out = Vec::new();
        let bytes = input.as_bytes();
        let mut fed = 0;
        let mut finished = false;
        loop {
            while let Some(ev) = p.next_event()? {
                out.push(format!("{ev:?}"));
            }
            if p.is_complete() {
                return Ok(out);
            }
            if fed < bytes.len() {
                let end = (fed + chunk.max(1)).min(bytes.len());
                p.push(&bytes[fed..end]);
                fed = end;
            } else if !finished {
                p.finish();
                finished = true;
            } else {
                unreachable!("parser neither complete nor erroring after finish");
            }
        }
    }

    #[test]
    fn event_trace_stable_across_chunkings() {
        let doc = r#"<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r (a)>]>
<r a="x &amp; y"><a>one &lt; two<!-- note --><?pi data?><![CDATA[raw <>&]]></a> tail<b/></r> "#;
        let whole = events(doc, doc.len()).unwrap();
        // Tinier chunks split text runs into more pieces; merge continuation
        // pieces into their `first` piece before comparing traces.
        let stitch = |evs: Vec<String>| -> Vec<String> {
            let mut out: Vec<String> = Vec::new();
            for e in evs {
                if e.starts_with("Text") && e.contains("first: false") {
                    out.last_mut().expect("continuation follows a first piece").push_str(&e);
                } else {
                    out.push(e);
                }
            }
            out
        };
        let reference = stitch(whole.clone());
        for chunk in [1, 2, 3, 5, 7, 16, 64] {
            let got = stitch(events(doc, chunk).unwrap());
            assert_eq!(got.len(), reference.len(), "chunk={chunk}");
        }
        assert!(whole.iter().any(|e| e.contains("raw <>&")));
    }

    #[test]
    fn errors_are_chunking_invariant() {
        for bad in [
            "<r><a></b></r>",
            "<r/><x/>",
            "</r>",
            "",
            "<r>&nope;</r>",
            "<r a='1' a='2'/>",
            "<r><!-- a -- b --></r>",
            "<1r/>",
            "<r x?",
            "<r><a>",
            "<r>text",
            "text<r/>",
            "<r a=x>",
            "<r><![CDATA[never closed</r>",
        ] {
            let whole = events(bad, bad.len()).unwrap_err();
            for chunk in [1, 2, 3] {
                let split = events(bad, chunk).unwrap_err();
                assert_eq!(split, whole, "input={bad:?} chunk={chunk}");
            }
        }
    }

    #[test]
    fn doctype_captured() {
        let mut p = PushParser::new();
        p.push(b"<!DOCTYPE r [<!ELEMENT r EMPTY>]><r/>");
        p.finish();
        while p.next_event().unwrap().is_some() {}
        assert!(p.is_complete());
        let dt = p.doctype().unwrap();
        assert_eq!(dt.name, "r");
        assert!(dt.internal_subset.as_deref().unwrap().contains("EMPTY"));
    }

    #[test]
    fn text_streams_in_pieces_with_first_flags() {
        let mut p = PushParser::new();
        let mut saw = Vec::new();
        p.push(b"<r>ab");
        while let Some(ev) = p.next_event().unwrap() {
            if let Event::Text { piece, first } = ev {
                saw.push((piece.to_owned(), first));
            }
        }
        p.push(b"cd</r>");
        p.finish();
        while let Some(ev) = p.next_event().unwrap() {
            if let Event::Text { piece, first } = ev {
                saw.push((piece.to_owned(), first));
            }
        }
        assert!(p.is_complete());
        assert_eq!(saw, vec![("ab".to_owned(), true), ("cd".to_owned(), false)]);
    }

    #[test]
    fn truncation_errors_are_chunking_invariant() {
        let doc = "<r><a>text &amp; more</a><b x=\"1\"/><!-- c --></r>";
        for cut in 0..doc.len() {
            let whole = events(&doc[..cut], cut).unwrap_err();
            let by_byte = events(&doc[..cut], 1).unwrap_err();
            assert_eq!(by_byte, whole, "cut={cut}");
        }
    }

    #[test]
    fn split_utf8_sequences_reassemble() {
        let doc = "<r>héllo wörld — ☺</r>".to_owned();
        let whole = events(&doc, doc.len()).unwrap();
        let by_byte = events(&doc, 1).unwrap();
        let text = |evs: &[String]| {
            evs.iter().filter(|e| e.starts_with("Text")).cloned().collect::<String>()
        };
        assert!(text(&whole).contains('☺'));
        assert_eq!(text(&by_byte).matches('☺').count(), 1);
        assert_eq!(whole.first(), by_byte.first());
    }

    #[test]
    fn next_event_and_drain_mix_on_one_parser_and_share_a_sticky_error() {
        // Markup events verbatim, text as one concatenation: chunking
        // moves text piece boundaries and nothing else.
        fn record(ev: Event<'_>, marks: &mut Vec<String>, text: &mut String) {
            match ev {
                Event::Text { piece, .. } => text.push_str(piece),
                ev => marks.push(format!("{ev:?}")),
            }
        }
        let doc = "<r><a>x &amp; y</a><!--c--><b k='v'/>tail</r>";
        let (mut marks, mut text) = (Vec::new(), String::new());
        let mut p = PushParser::new();
        p.push(doc.as_bytes());
        p.finish();
        p.drain(|ev| record(ev, &mut marks, &mut text)).unwrap();
        assert_eq!(marks.len(), 6);
        assert_eq!(text, "x & ytail");
        for chunk in [1, 2, 5, doc.len()] {
            // Alternate entry points chunk by chunk: pull one event, then
            // drain the rest.
            let (mut got, mut got_text) = (Vec::new(), String::new());
            let mut p = PushParser::new();
            for piece in doc.as_bytes().chunks(chunk) {
                p.push(piece);
                if let Some(ev) = p.next_event().unwrap() {
                    record(ev, &mut got, &mut got_text);
                }
                p.drain(|ev| record(ev, &mut got, &mut got_text)).unwrap();
            }
            p.finish();
            p.drain(|ev| record(ev, &mut got, &mut got_text)).unwrap();
            assert!(p.is_complete());
            assert_eq!((&got, &got_text), (&marks, &text), "chunk={chunk}");
        }
        // An error met by either entry point is replayed by both.
        let bad = "<r><a></b></r>";
        let expect = events(bad, bad.len()).unwrap_err();
        let mut p = PushParser::new();
        p.push(bad.as_bytes());
        assert!(matches!(p.next_event(), Ok(Some(Event::Start { name: "r", .. }))));
        let mut after = 0;
        assert_eq!(p.drain(|_| after += 1).unwrap_err(), expect);
        assert_eq!(after, 1, "<a> precedes the mismatch");
        assert_eq!(p.next_event().unwrap_err(), expect);
        assert_eq!(p.drain(|_| after += 1).unwrap_err(), expect);
        let mut p = PushParser::new();
        p.push(bad.as_bytes());
        assert_eq!(p.drain(|_| {}).unwrap_err(), expect);
        assert_eq!(p.next_event().unwrap_err(), expect);
        assert_eq!(after, 1, "no event after the error");
    }

    #[test]
    fn find_markup_matches_a_byte_scan() {
        // Every needle position in every length from 0 to 24, with
        // non-ASCII bytes (UTF-8 lead and continuation bytes, and 0xBC,
        // 0xA6 — '<' and '&' with the high bit set) around the needles.
        let filler = [b'a', 0xC3, 0xBC, 0xE8, 0xA9, 0xA6, b' ', 0xFF];
        for len in 0..=24 {
            let base: Vec<u8> = (0..len).map(|i| filler[i % filler.len()]).collect();
            assert_eq!(find_markup(&base), None, "len={len}");
            for at in 0..len {
                for needle in [b'<', b'&'] {
                    let mut bytes = base.clone();
                    bytes[at] = needle;
                    let expect = bytes.iter().position(|&b| b == b'<' || b == b'&');
                    assert_eq!(find_markup(&bytes), expect, "len={len} at={at}");
                    // A second needle later never moves the first match.
                    for later in at + 1..len {
                        let mut two = bytes.clone();
                        two[later] = b'<' ^ b'&' ^ needle;
                        assert_eq!(find_markup(&two), Some(at), "len={len} at={at}");
                    }
                }
            }
        }
    }

    #[test]
    fn peak_buffered_stays_small_on_large_streams() {
        // A document much larger than any single construct: residency must
        // track the construct size, not the document size.
        let mut p = PushParser::new();
        p.push(b"<r>");
        let chunk = "x".repeat(1024);
        for _ in 0..256 {
            p.push(chunk.as_bytes());
            while p.next_event().unwrap().is_some() {}
        }
        p.push(b"</r>");
        p.finish();
        while p.next_event().unwrap().is_some() {}
        assert!(p.is_complete());
        assert!(p.peak_buffered() < 8 * 1024, "peak={}", p.peak_buffered());
    }
}
