//! A small streaming (SAX-style) XML reader — the workspace's one
//! tokenizer and its one loop.
//!
//! The reader covers the XML subset needed for filtering workloads: element
//! structure, attributes, character data, CDATA sections, comments,
//! processing instructions, the XML declaration, a DOCTYPE prolog (skipped),
//! and the five predefined entities plus numeric character references. It
//! reports errors as a structured [`XmlErrorKind`] with a byte offset,
//! checks tag balance, and enforces per-document resource budgets
//! ([`ParserLimits`]) so hostile inputs (depth bombs, entity floods,
//! megabyte attribute values) fail fast instead of exhausting the process.
//!
//! **One push loop.** [`Reader::read`] reads a document into an
//! [`ElementVisitor`]: an `enter` per start tag, an `attribute` per
//! attribute, a `text` per run of character data, a `leave` per end tag
//! or `/>`. Start and end tags are read inline in the loop; anything else
//! (text, CDATA, comments, processing instructions, DOCTYPE, the end of
//! input) is the one out-of-line step. The flat store engines match
//! ([`PathDoc`](crate::PathDoc)), the tree the oracle and the generator
//! use ([`Document`](crate::Document)) and the element-only read of a
//! memo-on match ([`PathDoc::visit_bytes`](crate::PathDoc::visit_bytes))
//! are all visitors of this loop; a visitor that leaves the
//! `attribute` and `text` hooks empty pays for the checks only.
//!
//! **Checked, not decoded.** A name is a slice of the input. An attribute
//! value or a text run arrives as an [`Escaped`]: a slice of the input
//! whose references have all been checked and charged to the budget, and
//! which is decoded only if the visitor asks. The reader's own state
//! (open-tag stack, the current tag's attribute names) is byte spans of
//! the input; a `String` is built only to describe an error.
//!
//! **One scan per start tag.** A start tag is read whole when its `<` is
//! reached: the name (then `enter`), then each attribute with every check
//! (name, `=`, quotes, value length, each reference resolved and charged
//! to the budget, duplicates) and its `attribute` call, then `>` or `/>`
//! (and the `leave` of `<a/>`). A fault in the tag so arrives after the
//! tag's `enter` and the `attribute` calls before it.

use crate::access::ElementVisitor;
use crate::limits::ParserLimits;
use crate::tree::NodeId;
use std::borrow::Cow;
use std::fmt;

/// What went wrong while parsing a document — the structured half of
/// [`XmlError`].
///
/// Syntax violations and resource-limit violations are distinct variants
/// so the ingest pipeline can distinguish a malformed publisher from a
/// hostile one (see [`XmlError::is_limit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Input ended inside the named construct (comment, CDATA section,
    /// DOCTYPE declaration, processing instruction, attribute value, …).
    Unterminated(&'static str),
    /// Input ended while the named element was still open.
    UnexpectedEof(String),
    /// `</found>` closed an element opened as `<expected>`.
    MismatchedEndTag {
        /// The open element that should have been closed.
        expected: String,
        /// The name actually found in the end tag.
        found: String,
    },
    /// An end tag with no open element.
    UnmatchedEndTag(String),
    /// A second root element.
    MultipleRoots,
    /// The named content (character data, CDATA) appeared outside the root.
    ContentOutsideRoot(&'static str),
    /// A name was required (element, attribute) but not found.
    InvalidName,
    /// A static syntax violation (expected `>`, quote, …).
    Syntax(&'static str),
    /// Missing `=` after the named attribute.
    ExpectedEquals(String),
    /// The named attribute appeared twice on one element.
    DuplicateAttribute(String),
    /// Non-UTF-8 bytes in the named context.
    InvalidUtf8(&'static str),
    /// Reference to an entity the parser does not define.
    UnknownEntity(String),
    /// A numeric character reference that is not a valid scalar value.
    InvalidCharRef(String),
    /// A document with no elements.
    EmptyDocument,
    /// Element nesting exceeded [`ParserLimits::max_depth`].
    DepthLimitExceeded(usize),
    /// Document exceeded [`ParserLimits::max_document_bytes`].
    DocumentTooLarge(usize),
    /// One element carried more than [`ParserLimits::max_attributes`].
    TooManyAttributes(usize),
    /// An attribute value exceeded
    /// [`ParserLimits::max_attribute_value_len`].
    AttributeValueTooLong(usize),
    /// A name exceeded [`ParserLimits::max_name_len`].
    NameTooLong(usize),
    /// More references decoded than
    /// [`ParserLimits::max_entity_expansions`].
    EntityExpansionLimit(usize),
    /// A byte stream ended in the middle of a document.
    StreamTruncated,
    /// Unparseable content between documents on a stream (stray end tags,
    /// leftovers of an oversized document).
    StreamDesync,
    /// A document stream gave up after this many consecutive failures.
    TooManyFailures(usize),
    /// An I/O error while reading a stream.
    Io(String),
}

impl fmt::Display for XmlErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlErrorKind::Unterminated(what) => write!(f, "unterminated {what}"),
            XmlErrorKind::UnexpectedEof(open) => {
                write!(f, "unexpected end of input: <{open}> not closed")
            }
            XmlErrorKind::MismatchedEndTag { expected, found } => write!(
                f,
                "mismatched end tag: expected </{expected}>, found </{found}>"
            ),
            XmlErrorKind::UnmatchedEndTag(name) => {
                write!(f, "end tag </{name}> with no open element")
            }
            XmlErrorKind::MultipleRoots => f.write_str("document has more than one root element"),
            XmlErrorKind::ContentOutsideRoot(what) => {
                write!(f, "{what} outside of root element")
            }
            XmlErrorKind::InvalidName => f.write_str("expected a name"),
            XmlErrorKind::Syntax(msg) => f.write_str(msg),
            XmlErrorKind::ExpectedEquals(attr) => {
                write!(f, "expected '=' after attribute name '{attr}'")
            }
            XmlErrorKind::DuplicateAttribute(name) => write!(f, "duplicate attribute '{name}'"),
            XmlErrorKind::InvalidUtf8(what) => write!(f, "invalid UTF-8 in {what}"),
            XmlErrorKind::UnknownEntity(ent) => write!(f, "unknown entity '&{ent};'"),
            XmlErrorKind::InvalidCharRef(ent) => {
                write!(f, "invalid character reference '&{ent};'")
            }
            XmlErrorKind::EmptyDocument => f.write_str("empty document"),
            XmlErrorKind::DepthLimitExceeded(limit) => {
                write!(f, "element nesting deeper than the limit of {limit}")
            }
            XmlErrorKind::DocumentTooLarge(limit) => {
                write!(f, "document exceeds the limit of {limit} bytes")
            }
            XmlErrorKind::TooManyAttributes(limit) => {
                write!(f, "element has more than {limit} attributes")
            }
            XmlErrorKind::AttributeValueTooLong(limit) => {
                write!(f, "attribute value exceeds the limit of {limit} bytes")
            }
            XmlErrorKind::NameTooLong(limit) => {
                write!(f, "name exceeds the limit of {limit} bytes")
            }
            XmlErrorKind::EntityExpansionLimit(limit) => {
                write!(f, "more than {limit} entity references in one document")
            }
            XmlErrorKind::StreamTruncated => f.write_str("stream ended inside a document"),
            XmlErrorKind::StreamDesync => f.write_str("unparseable content between documents"),
            XmlErrorKind::TooManyFailures(n) => {
                write!(f, "{n} consecutive malformed documents on the stream")
            }
            XmlErrorKind::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

/// Error produced while parsing an XML document: a structured kind plus
/// the byte offset at which it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset at which the error occurred. For errors yielded by a
    /// [`DocumentStream`](crate::DocumentStream) the offset is
    /// stream-absolute (relative to the first byte ever read), otherwise
    /// it is relative to the document's own first byte.
    pub pos: usize,
    /// What went wrong.
    pub kind: XmlErrorKind,
}

impl XmlError {
    /// Creates an error at a byte offset.
    pub fn new(pos: usize, kind: XmlErrorKind) -> Self {
        XmlError { pos, kind }
    }

    /// True if the error is a resource-limit violation ([`ParserLimits`])
    /// rather than a syntax error.
    pub fn is_limit(&self) -> bool {
        matches!(
            self.kind,
            XmlErrorKind::DepthLimitExceeded(_)
                | XmlErrorKind::DocumentTooLarge(_)
                | XmlErrorKind::TooManyAttributes(_)
                | XmlErrorKind::AttributeValueTooLong(_)
                | XmlErrorKind::NameTooLong(_)
                | XmlErrorKind::EntityExpansionLimit(_)
        )
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.pos, self.kind)
    }
}

impl std::error::Error for XmlError {}

/// A span of the input, `start..end`.
type Span = (usize, usize);

/// An attribute value or a run of character data as the input holds it:
/// valid UTF-8, every reference in it checked and charged to the
/// document's budget, nothing decoded yet.
#[derive(Debug, Clone, Copy)]
pub struct Escaped<'a> {
    raw: &'a str,
    /// `raw` holds a reference, so decoding it builds a new string.
    refs: bool,
}

impl<'a> Escaped<'a> {
    /// The decoded text: borrowed from the input unless a reference had
    /// to be decoded.
    pub fn decode(&self) -> Cow<'a, str> {
        if !self.refs {
            return Cow::Borrowed(self.raw);
        }
        let mut out = String::with_capacity(self.raw.len());
        self.decode_into(&mut out);
        Cow::Owned(out)
    }

    /// Appends the decoded text to `out`.
    pub fn decode_into(&self, out: &mut String) {
        if self.refs {
            references(self.raw, 0, &mut 0, usize::MAX, Some(out))
                .expect("the references were checked when they were read");
        } else {
            out.push_str(self.raw);
        }
    }
}

/// The two allocations a [`Reader`] works in: byte spans, not slices, so
/// they carry no lifetime and a [`PathDoc`](crate::PathDoc) lends the same
/// pair to the reader of every document.
#[derive(Debug, Default)]
pub(crate) struct ReaderBuffers {
    /// Names of the open elements (balance checking).
    stack: Vec<Span>,
    /// Names of the attributes of the start tag being read, for the
    /// duplicate check.
    attrs: Vec<Span>,
}

impl ReaderBuffers {
    /// Heap held, in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.stack.capacity() + self.attrs.capacity()) * std::mem::size_of::<Span>()
    }
}

/// Streaming reader over a byte slice, pushing what it reads into an
/// [`ElementVisitor`].
///
/// ```
/// use pxf_xml::{ElementVisitor, Escaped, NodeId, Reader};
///
/// /// What the reader shows, one string per call but `leave`.
/// #[derive(Default)]
/// struct Seen(Vec<String>);
///
/// impl ElementVisitor for Seen {
///     fn enter(&mut self, _: NodeId, tag: &str) {
///         self.0.push(format!("<{tag}"));
///     }
///     fn attribute(&mut self, name: &str, value: Escaped<'_>) {
///         self.0.push(format!("{name}={}", value.decode()));
///     }
///     fn text(&mut self, text: Escaped<'_>) {
///         self.0.push(text.decode().into_owned());
///     }
///     fn leave(&mut self) {}
/// }
///
/// let mut seen = Seen::default();
/// let elements = Reader::new(b"<a x=\"1&amp;2\"><b/>hi</a>").read(&mut seen);
/// assert_eq!(elements, Ok(2));
/// assert_eq!(seen.0, ["<a", "x=1&2", "<b", "hi"]);
/// ```
pub struct Reader<'a> {
    input: &'a [u8],
    /// The input as text, if all of it is valid UTF-8 (checked once, when
    /// the reader is made): a piece is then a slice of it. Otherwise each
    /// piece is validated where it is read — invalid bytes are an error
    /// only in a name, value or text, not in a comment.
    text: Option<&'a str>,
    pos: usize,
    bufs: ReaderBuffers,
    seen_root: bool,
    limits: ParserLimits,
    /// Entity/character references decoded so far (budgeted).
    expansions: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over raw document bytes with default limits.
    pub fn new(input: &'a [u8]) -> Self {
        Reader::with_limits(input, ParserLimits::default())
    }

    /// Creates a reader enforcing the given resource budget.
    pub fn with_limits(input: &'a [u8], limits: ParserLimits) -> Self {
        Reader::with_buffers(input, limits, ReaderBuffers::default())
    }

    /// Like [`Self::with_limits`], working in buffers an earlier reader
    /// gave back ([`Self::into_buffers`]); whatever they hold is dropped.
    pub(crate) fn with_buffers(
        input: &'a [u8],
        limits: ParserLimits,
        mut bufs: ReaderBuffers,
    ) -> Self {
        bufs.stack.clear();
        bufs.attrs.clear();
        // An oversized document is refused by `read`, unread.
        let too_large = input.len() > limits.max_document_bytes;
        Reader {
            input,
            text: if too_large {
                None
            } else {
                std::str::from_utf8(input).ok()
            },
            pos: 0,
            bufs,
            seen_root: false,
            limits,
            expansions: 0,
        }
    }

    /// Gives the reader's buffers back for the next document.
    pub(crate) fn into_buffers(self) -> ReaderBuffers {
        self.bufs
    }

    /// The name a span of the input holds, for an error message (the span
    /// was checked when it was recorded).
    fn name_at(&self, (start, end): Span) -> String {
        String::from_utf8_lossy(&self.input[start..end]).into_owned()
    }

    /// The input bytes `start..end` as text, if they are valid UTF-8. (In
    /// a valid input, a range is valid exactly when it starts and ends on
    /// character boundaries.)
    #[inline]
    fn str_at(&self, start: usize, end: usize) -> Option<&'a str> {
        match self.text {
            Some(text) => text.get(start..end),
            None => std::str::from_utf8(&self.input[start..end]).ok(),
        }
    }

    /// A span the reader has already found to be valid UTF-8. Its
    /// fallback is never taken, and it cannot panic, so a visitor that
    /// drops what it is given does not pay for it.
    #[inline]
    fn checked_str(&self, (start, end): Span) -> &'a str {
        self.str_at(start, end).unwrap_or_default()
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    /// Advances to the next `byte` (or the end of input); true if found.
    fn seek(&mut self, byte: u8) -> bool {
        match self.input[self.pos..].iter().position(|&b| b == byte) {
            Some(i) => {
                self.pos += i;
                true
            }
            None => {
                self.pos = self.input.len();
                false
            }
        }
    }

    /// Advances past `needle`, erroring if the input ends first.
    fn skip_until(&mut self, needle: &[u8], what: &'static str) -> Result<(), XmlError> {
        while self.seek(needle[0]) {
            if self.starts_with(needle) {
                self.pos += needle.len();
                return Ok(());
            }
            self.pos += 1;
        }
        fail(self.pos, XmlErrorKind::Unterminated(what))
    }

    /// Reads the document into `visitor`, to its end or its first fault.
    /// Each start tag is an [`ElementVisitor::enter`], its element
    /// numbered in document order from 0, then an
    /// [`ElementVisitor::attribute`] per attribute; each run of character
    /// data or CDATA content inside the root is an
    /// [`ElementVisitor::text`] (whitespace-only runs are not); each end
    /// tag or `/>` is an [`ElementVisitor::leave`]. A value or a run is
    /// checked and its references charged to the budget before its call,
    /// but decoded only if the visitor asks. A document that fails does
    /// so after the calls for what was read before the fault, so a
    /// visitor must be ready to discard what it did. Returns the number
    /// of elements entered.
    pub fn read<V: ElementVisitor>(&mut self, visitor: &mut V) -> Result<usize, XmlError> {
        let max = self.limits.max_document_bytes;
        if self.input.len() > max {
            return fail(max, XmlErrorKind::DocumentTooLarge(max));
        }
        let input = self.input;
        let mut elements: NodeId = 0;
        loop {
            // Start and end tags are read here, inline; anything else is
            // `other`'s.
            let pos = self.pos;
            if input.get(pos) == Some(&b'<') {
                match input.get(pos + 1) {
                    Some(b'/') => {
                        self.end_tag(pos + 2)?;
                        visitor.leave();
                        continue;
                    }
                    Some(&b) if CLASS[b as usize] & NAME_START != 0 => {
                        self.start_tag(pos + 1, elements, visitor)?;
                        elements += 1;
                        continue;
                    }
                    _ => {}
                }
            }
            if self.other(visitor)? {
                return Ok(elements as usize);
            }
        }
    }

    /// Whatever at `pos` is not a start or end tag: character data, a
    /// processing instruction, comment, CDATA section or DOCTYPE, or a `<`
    /// that fails as a start tag without a name. True at the end of
    /// input.
    #[inline(never)]
    fn other<V: ElementVisitor>(&mut self, visitor: &mut V) -> Result<bool, XmlError> {
        let input = self.input;
        let start = self.pos;
        if start >= input.len() {
            return match self.bufs.stack.last() {
                Some(&open) => fail(start, XmlErrorKind::UnexpectedEof(self.name_at(open))),
                None => Ok(true),
            };
        }
        if input[start] != b'<' {
            self.seek(b'<');
            if input[start..self.pos].iter().all(u8::is_ascii_whitespace) {
                return Ok(false);
            }
            if self.bufs.stack.is_empty() {
                return fail(start, XmlErrorKind::ContentOutsideRoot("character data"));
            }
            let refs = input[start..self.pos].contains(&b'&');
            visitor.text(self.escaped(start, self.pos, refs)?);
            return Ok(false);
        }
        if self.starts_with(b"<?") {
            self.pos += 2;
            self.skip_until(b"?>", "processing instruction")?;
        } else if self.starts_with(b"<!--") {
            self.pos += 4;
            self.skip_until(b"-->", "comment")?;
        } else if self.starts_with(b"<![CDATA[") {
            self.pos += 9;
            self.skip_until(b"]]>", "CDATA section")?;
            let end = self.pos - 3;
            if self.bufs.stack.is_empty() {
                return fail(self.pos, XmlErrorKind::ContentOutsideRoot("CDATA"));
            }
            if !input[start + 9..end].iter().all(u8::is_ascii_whitespace) {
                let Some(raw) = self.str_at(start + 9, end) else {
                    return fail(self.pos, XmlErrorKind::InvalidUtf8("CDATA"));
                };
                visitor.text(Escaped { raw, refs: false });
            }
        } else if self.starts_with(b"<!DOCTYPE") || self.starts_with(b"<!doctype") {
            self.skip_doctype()?;
        } else {
            let fault = self.tag_name(start + 1);
            return Err(fault.expect_err("`read` takes each `<` a name starts after"));
        }
        Ok(false)
    }

    /// Skips a DOCTYPE declaration, including an internal subset in `[...]`.
    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        self.pos += 9; // "<!DOCTYPE"
        let mut depth = 0usize;
        while self.pos < self.input.len() {
            match self.input[self.pos] {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        fail(self.pos, XmlErrorKind::Unterminated("DOCTYPE declaration"))
    }

    /// The checks a start tag whose name starts at `at` makes before its
    /// `enter`: root uniqueness, depth, the name itself. The name, and
    /// the offset after it.
    #[inline(always)]
    fn tag_name(&self, at: usize) -> Result<(&'a str, usize), XmlError> {
        if self.seen_root && self.bufs.stack.is_empty() {
            return fail(at, XmlErrorKind::MultipleRoots);
        }
        let limits = self.limits;
        if self.bufs.stack.len() >= limits.max_depth {
            return fail(at, XmlErrorKind::DepthLimitExceeded(limits.max_depth));
        }
        let end = scan_name(self.input, at, limits.max_name_len)?;
        match self.str_at(at, end) {
            Some(tag) => Ok((tag, end)),
            None => fail(end, XmlErrorKind::InvalidUtf8("name")),
        }
    }

    /// `<name …>` or `<name …/>` whose name starts at `at`, read whole into
    /// `visitor`: `enter` once the name is read, then the attributes, then
    /// the `leave` of `<name/>`.
    #[inline(always)]
    fn start_tag<V: ElementVisitor>(
        &mut self,
        at: usize,
        id: NodeId,
        visitor: &mut V,
    ) -> Result<(), XmlError> {
        let (tag, end) = self.tag_name(at)?;
        visitor.enter(id, tag);
        // Most tags end right after their name.
        let input = self.input;
        match input.get(end) {
            Some(b'>') => {
                self.pos = end + 1;
                self.seen_root = true;
                self.bufs.stack.push((at, end));
            }
            Some(b'/') if input.get(end + 1) == Some(&b'>') => {
                self.pos = end + 2;
                self.seen_root = true;
                visitor.leave();
            }
            _ => self.read_attributes((at, end), visitor)?,
        }
        Ok(())
    }

    /// The rest of the start tag whose name is `tag`: each attribute,
    /// checked in full (its references too, charged to the budget) and
    /// handed to `visitor` undecoded, then `>` or `/>`.
    #[inline(never)]
    fn read_attributes<V: ElementVisitor>(
        &mut self,
        tag: Span,
        visitor: &mut V,
    ) -> Result<(), XmlError> {
        self.bufs.attrs.clear();
        let input = self.input;
        let mut pos = tag.1;
        loop {
            pos = skip_ws(input, pos);
            match input.get(pos) {
                Some(b'>') => {
                    self.pos = pos + 1;
                    self.seen_root = true;
                    self.bufs.stack.push(tag);
                    return Ok(());
                }
                Some(b'/') if input.get(pos + 1) == Some(&b'>') => {
                    self.pos = pos + 2;
                    self.seen_root = true;
                    visitor.leave();
                    return Ok(());
                }
                Some(b'/') => {
                    let e = "expected '>' after '/' in empty-element tag";
                    return fail(pos + 1, XmlErrorKind::Syntax(e));
                }
                Some(_) => pos = self.read_attribute(pos, visitor)?,
                None => return fail(pos, XmlErrorKind::Unterminated("start tag")),
            }
        }
    }

    /// The `name="value"` at `pos`, checked, recorded and handed to
    /// `visitor`; the offset after it.
    #[inline]
    fn read_attribute<V: ElementVisitor>(
        &mut self,
        pos: usize,
        visitor: &mut V,
    ) -> Result<usize, XmlError> {
        let (input, limits) = (self.input, self.limits);
        if self.bufs.attrs.len() >= limits.max_attributes {
            return fail(pos, XmlErrorKind::TooManyAttributes(limits.max_attributes));
        }
        let name = (pos, scan_name(input, pos, limits.max_name_len)?);
        if self.text.is_none() && std::str::from_utf8(&input[name.0..name.1]).is_err() {
            return fail(name.1, XmlErrorKind::InvalidUtf8("name"));
        }
        let pos = skip_ws(input, name.1);
        if input.get(pos) != Some(&b'=') {
            return fail(pos, XmlErrorKind::ExpectedEquals(self.name_at(name)));
        }
        let pos = skip_ws(input, pos + 1);
        let quote = match input.get(pos) {
            Some(&q @ (b'"' | b'\'')) => q,
            _ => return fail(pos, XmlErrorKind::Syntax("expected quoted attribute value")),
        };
        let start = pos + 1;
        let mut refs = false;
        let Some(len) = input[start..].iter().position(|&b| {
            refs |= b == b'&';
            b == quote
        }) else {
            return fail(input.len(), XmlErrorKind::Unterminated("attribute value"));
        };
        if len > limits.max_attribute_value_len {
            let limit = limits.max_attribute_value_len;
            return fail(start, XmlErrorKind::AttributeValueTooLong(limit));
        }
        let value = (start, start + len);
        // With the whole input valid UTF-8, a value is too: it starts and
        // ends beside a quote, so on character boundaries.
        if self.text.is_none() || refs {
            self.escaped(value.0, value.1, refs)?;
        }
        let pos = value.1 + 1;
        let seen = &self.bufs.attrs;
        if seen
            .iter()
            .any(|&(s, e)| input[s..e] == input[name.0..name.1])
        {
            return fail(pos, XmlErrorKind::DuplicateAttribute(self.name_at(name)));
        }
        self.bufs.attrs.push(name);
        let raw = self.checked_str(value);
        visitor.attribute(self.checked_str(name), Escaped { raw, refs });
        Ok(pos)
    }

    /// `</name>` whose name starts at `at`: the name must close the
    /// innermost open element.
    #[inline(always)]
    fn end_tag(&mut self, at: usize) -> Result<(), XmlError> {
        let input = self.input;
        // The usual case, the open name and then `>`, needs no name scan:
        // the name's checks were made when it opened.
        if let Some(&(start, end)) = self.bufs.stack.last() {
            let close = at + (end - start);
            if input.get(close) == Some(&b'>') && input[at..close] == input[start..end] {
                self.pos = close + 1;
                self.bufs.stack.pop();
                return Ok(());
            }
        }
        let end = scan_name(input, at, self.limits.max_name_len)?;
        let Some(name) = self.str_at(at, end) else {
            return fail(end, XmlErrorKind::InvalidUtf8("name"));
        };
        let pos = skip_ws(input, end);
        if input.get(pos) != Some(&b'>') {
            return fail(pos, XmlErrorKind::Syntax("expected '>' in end tag"));
        }
        self.pos = pos + 1;
        match self.bufs.stack.pop() {
            Some((s, e)) if input[s..e] == input[at..end] => Ok(()),
            Some(open) => fail(
                self.pos,
                XmlErrorKind::MismatchedEndTag {
                    expected: self.name_at(open),
                    found: name.to_string(),
                },
            ),
            None => fail(self.pos, XmlErrorKind::UnmatchedEndTag(name.to_string())),
        }
    }

    /// The value or run at bytes `start..end`, checked: valid UTF-8, and —
    /// if it holds a reference (`refs`) — each reference well formed and
    /// charged against the document's expansion budget.
    #[inline]
    fn escaped(&mut self, start: usize, end: usize, refs: bool) -> Result<Escaped<'a>, XmlError> {
        let Some(raw) = self.str_at(start, end) else {
            return fail(start, XmlErrorKind::InvalidUtf8("character data"));
        };
        if refs {
            let limit = self.limits.max_entity_expansions;
            references(raw, start, &mut self.expansions, limit, None)?;
        }
        Ok(Escaped { raw, refs })
    }
}

/// Walks the references in `s`, the run at input offset `start`: each must
/// end in `;`, be charged to the budget (`expansions` of `limit`) and name
/// one of the five predefined entities or a Unicode scalar value; an error
/// names the `&` of the offending reference, in the document. With `out`,
/// the run is also decoded into it.
fn references(
    s: &str,
    start: usize,
    expansions: &mut usize,
    limit: usize,
    mut out: Option<&mut String>,
) -> Result<(), XmlError> {
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        if let Some(out) = out.as_deref_mut() {
            out.push_str(&rest[..amp]);
        }
        let pos = start + (s.len() - rest.len()) + amp;
        let after = &rest[amp + 1..];
        let semi = after.find(';').ok_or(XmlError {
            pos,
            kind: XmlErrorKind::Unterminated("entity reference"),
        })?;
        *expansions += 1;
        if *expansions > limit {
            return Err(XmlError::new(
                pos,
                XmlErrorKind::EntityExpansionLimit(limit),
            ));
        }
        let ent = &after[..semi];
        let c = match ent {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ if ent.starts_with('#') => {
                let code = if let Some(hex) = ent.strip_prefix("#x").or(ent.strip_prefix("#X")) {
                    u32::from_str_radix(hex, 16).ok()
                } else {
                    ent[1..].parse::<u32>().ok()
                };
                code.and_then(char::from_u32).ok_or_else(|| XmlError {
                    pos,
                    kind: XmlErrorKind::InvalidCharRef(ent.to_string()),
                })?
            }
            _ => {
                return Err(XmlError {
                    pos,
                    kind: XmlErrorKind::UnknownEntity(ent.to_string()),
                })
            }
        };
        if let Some(out) = out.as_deref_mut() {
            out.push(c);
        }
        rest = &after[semi + 1..];
    }
    if let Some(out) = out {
        out.push_str(rest);
    }
    Ok(())
}

/// The error `kind` at byte `pos`.
fn fail<T>(pos: usize, kind: XmlErrorKind) -> Result<T, XmlError> {
    Err(XmlError::new(pos, kind))
}

/// The end of the name that starts at `start`, its length checked; not
/// yet checked to be UTF-8.
#[inline(always)]
fn scan_name(input: &[u8], start: usize, max_len: usize) -> Result<usize, XmlError> {
    match input.get(start) {
        Some(&b) if CLASS[b as usize] & NAME_START != 0 => {}
        _ => return fail(start, XmlErrorKind::InvalidName),
    }
    let rest = &input[start + 1..];
    let end = start
        + 1
        + rest
            .iter()
            .position(|&b| CLASS[b as usize] & NAME == 0)
            .unwrap_or(rest.len());
    if end - start > max_len {
        return fail(start, XmlErrorKind::NameTooLong(max_len));
    }
    Ok(end)
}

/// The first offset from `pos` that is not XML whitespace.
#[inline(always)]
fn skip_ws(input: &[u8], mut pos: usize) -> usize {
    while input
        .get(pos)
        .is_some_and(|&b| CLASS[b as usize] & SPACE != 0)
    {
        pos += 1;
    }
    pos
}

/// Byte classes: [`NAME_START`] and [`NAME`] for the bytes a name starts
/// with and continues with (every byte from 0x80 up, so a name never ends
/// inside a UTF-8 sequence), [`SPACE`] for XML whitespace.
static CLASS: [u8; 256] = {
    let mut class = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        if byte.is_ascii_alphabetic() || byte == b'_' || byte == b':' || byte >= 0x80 {
            class[b] |= NAME_START | NAME;
        }
        if byte.is_ascii_digit() || byte == b'-' || byte == b'.' {
            class[b] |= NAME;
        }
        if matches!(byte, b' ' | b'\t' | b'\n' | b'\r') {
            class[b] |= SPACE;
        }
        b += 1;
    }
    class
};
const NAME_START: u8 = 1;
const NAME: u8 = 2;
const SPACE: u8 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    /// One visitor call. `End` carries the name the recorder's own stack
    /// of open names gives.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Call {
        Start(String),
        Attr(String, String),
        End(String),
        Text(String),
    }

    fn start(name: &str) -> Call {
        Call::Start(name.into())
    }

    fn end(name: &str) -> Call {
        Call::End(name.into())
    }

    fn attr(name: &str, value: &str) -> Call {
        Call::Attr(name.into(), value.into())
    }

    fn text(run: &str) -> Call {
        Call::Text(run.into())
    }

    /// Records every call, values and runs decoded, and whether each
    /// decoded value or run still borrows the input.
    #[derive(Default)]
    struct Recorder {
        open: Vec<String>,
        calls: Vec<Call>,
        borrowed: Vec<bool>,
    }

    impl ElementVisitor for Recorder {
        fn enter(&mut self, _: NodeId, tag: &str) {
            self.open.push(tag.to_string());
            self.calls.push(start(tag));
        }
        fn attribute(&mut self, name: &str, value: Escaped<'_>) {
            let value = value.decode();
            self.borrowed.push(matches!(value, Cow::Borrowed(_)));
            self.calls.push(attr(name, &value));
        }
        fn text(&mut self, run: Escaped<'_>) {
            let run = run.decode();
            self.borrowed.push(matches!(run, Cow::Borrowed(_)));
            self.calls.push(text(&run));
        }
        fn leave(&mut self) {
            let name = self.open.pop().expect("a leave without an enter");
            self.calls.push(Call::End(name));
        }
    }

    fn calls(input: &str) -> Result<Vec<Call>, XmlError> {
        calls_limited(input, ParserLimits::default())
    }

    fn calls_limited(input: &str, limits: ParserLimits) -> Result<Vec<Call>, XmlError> {
        let mut seen = Recorder::default();
        Reader::with_limits(input.as_bytes(), limits).read(&mut seen)?;
        Ok(seen.calls)
    }

    #[test]
    fn basic_document() {
        // An empty-element tag is a start and its own end.
        assert_eq!(
            calls("<a><b>text</b><c/></a>").unwrap(),
            [
                start("a"),
                start("b"),
                text("text"),
                end("b"),
                start("c"),
                end("c"),
                end("a")
            ]
        );
    }

    #[test]
    fn elements_are_counted_and_numbered_in_document_order() {
        struct Ids(Vec<NodeId>);
        impl ElementVisitor for Ids {
            fn enter(&mut self, id: NodeId, _: &str) {
                self.0.push(id);
            }
            fn leave(&mut self) {}
        }
        let mut ids = Ids(Vec::new());
        let read = Reader::new(b"<a><b/>t<c><d/></c></a>").read(&mut ids);
        assert_eq!(read, Ok(4));
        assert_eq!(ids.0, [0, 1, 2, 3]);
    }

    #[test]
    fn attributes_parsed() {
        assert_eq!(
            calls(r#"<a x="1" y='two'/>"#).unwrap(),
            [start("a"), attr("x", "1"), attr("y", "two"), end("a")]
        );
    }

    #[test]
    fn entities_decoded() {
        let seen = calls("<a>&lt;hi&gt; &amp; &#65;&#x42;</a>").unwrap();
        assert_eq!(seen[1], text("<hi> & AB"));
        let seen = calls(r#"<a v="&quot;q&apos;"/>"#).unwrap();
        assert_eq!(seen[1], attr("v", "\"q'"));
    }

    #[test]
    fn prolog_comments_cdata() {
        let src = r#"<?xml version="1.0"?>
            <!DOCTYPE a [<!ELEMENT a (b)>]>
            <!-- top comment -->
            <a><!-- inner --><![CDATA[raw <stuff> & more]]></a>"#;
        assert_eq!(
            calls(src).unwrap(),
            [start("a"), text("raw <stuff> & more"), end("a")]
        );
    }

    #[test]
    fn whitespace_text_suppressed() {
        let seen = calls("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(seen, [start("a"), start("b"), end("b"), end("a")]);
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(matches!(
            calls("<a><b></a></b>").unwrap_err().kind,
            XmlErrorKind::MismatchedEndTag { .. }
        ));
        assert!(matches!(
            calls("<a>").unwrap_err().kind,
            XmlErrorKind::UnexpectedEof(_)
        ));
        assert!(matches!(
            calls("</a>").unwrap_err().kind,
            XmlErrorKind::UnmatchedEndTag(_)
        ));
    }

    #[test]
    fn multiple_roots_rejected() {
        assert_eq!(
            calls("<a/><b/>").unwrap_err().kind,
            XmlErrorKind::MultipleRoots
        );
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(calls("hello<a/>").is_err());
        assert!(calls("<a/>tail").is_err());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert_eq!(
            calls(r#"<a x="1" x="2"/>"#).unwrap_err().kind,
            XmlErrorKind::DuplicateAttribute("x".into())
        );
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "<a",
            "<a x>",
            "<a x=>",
            "<a x=1>",
            "<a x=\"1>",
            "<1a/>",
            "<a>&bogus;</a>",
            "<a>&#xZZ;</a>",
            "<a>&unterminated</a>",
            "<!-- never closed",
            "<a><![CDATA[x</a>",
        ] {
            assert!(calls(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn error_positions() {
        let err = calls("<a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched end tag"));
        assert!(err.pos > 0);
    }

    #[test]
    fn namespaced_names_pass_through() {
        let seen = calls("<ns:a ns:x=\"1\"><ns:b/></ns:a>").unwrap();
        assert_eq!(seen[..2], [start("ns:a"), attr("ns:x", "1")]);
    }

    #[test]
    fn depth_limit_enforced() {
        let limits = ParserLimits {
            max_depth: 4,
            ..ParserLimits::default()
        };
        let ok = "<a><a><a><a/></a></a></a>";
        assert!(calls_limited(ok, limits).is_ok());
        let deep = "<a><a><a><a><a/></a></a></a></a>";
        let err = calls_limited(deep, limits).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::DepthLimitExceeded(4));
        assert!(err.is_limit());
    }

    #[test]
    fn document_size_limit_enforced() {
        let limits = ParserLimits {
            max_document_bytes: 16,
            ..ParserLimits::default()
        };
        assert!(calls_limited("<a/>", limits).is_ok());
        let err = calls_limited("<a>0123456789012345</a>", limits).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::DocumentTooLarge(16));
    }

    #[test]
    fn attribute_limits_enforced() {
        let limits = ParserLimits {
            max_attributes: 2,
            max_attribute_value_len: 4,
            ..ParserLimits::default()
        };
        assert!(calls_limited(r#"<a x="1" y="2"/>"#, limits).is_ok());
        assert_eq!(
            calls_limited(r#"<a x="1" y="2" z="3"/>"#, limits)
                .unwrap_err()
                .kind,
            XmlErrorKind::TooManyAttributes(2)
        );
        assert_eq!(
            calls_limited(r#"<a x="12345"/>"#, limits).unwrap_err().kind,
            XmlErrorKind::AttributeValueTooLong(4)
        );
    }

    #[test]
    fn name_length_limit_enforced() {
        let limits = ParserLimits {
            max_name_len: 8,
            ..ParserLimits::default()
        };
        assert!(calls_limited("<abcdefgh/>", limits).is_ok());
        assert_eq!(
            calls_limited("<abcdefghi/>", limits).unwrap_err().kind,
            XmlErrorKind::NameTooLong(8)
        );
    }

    #[test]
    fn entity_expansion_budget_enforced() {
        let limits = ParserLimits {
            max_entity_expansions: 3,
            ..ParserLimits::default()
        };
        assert!(calls_limited("<a>&amp;&lt;&gt;</a>", limits).is_ok());
        // Budget is per document, across text runs and attribute values.
        let err = calls_limited(r#"<a v="&amp;&amp;">&amp;&amp;</a>"#, limits).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::EntityExpansionLimit(3));
    }

    #[test]
    fn limit_errors_carry_in_bounds_positions() {
        let limits = ParserLimits::strict();
        let mut deep = String::new();
        for _ in 0..100 {
            deep.push_str("<d>");
        }
        let err = calls_limited(&deep, limits).unwrap_err();
        assert!(err.pos <= deep.len());
        assert!(err.is_limit());
    }

    #[test]
    fn undecoded_values_and_text_borrow_the_input() {
        let mut seen = Recorder::default();
        let src = br#"<a x="plain" y="a&amp;b">run<![CDATA[<c>]]>&lt;</a>"#;
        Reader::new(src).read(&mut seen).unwrap();
        assert_eq!(
            seen.calls[1..6],
            [
                attr("x", "plain"),
                attr("y", "a&b"),
                text("run"),
                text("<c>"),
                text("<")
            ]
        );
        assert_eq!(seen.borrowed, [true, false, true, true, false]);
    }

    #[test]
    fn a_malformed_start_tag_fails_after_its_enter() {
        let mut seen = Recorder::default();
        let err = Reader::new(b"<a x=\"1\" x=\"2\"/>").read(&mut seen);
        assert_eq!(
            err.unwrap_err().kind,
            XmlErrorKind::DuplicateAttribute("x".into())
        );
        assert_eq!(seen.calls, [start("a"), attr("x", "1")]);
    }

    #[test]
    fn entity_errors_name_the_offending_reference() {
        // Every error is placed at the `&` of its own reference, not at an
        // offset relative to whatever followed the previous one.
        for (src, pos, kind) in [
            (
                "<a>&amp;&bogus;</a>",
                8,
                XmlErrorKind::UnknownEntity("bogus".into()),
            ),
            (
                "<a>xx&amp;yy&#xZZ;</a>",
                12,
                XmlErrorKind::InvalidCharRef("#xZZ".into()),
            ),
            (
                r#"<a v="&lt;&nope;"/>"#,
                10,
                XmlErrorKind::UnknownEntity("nope".into()),
            ),
            (
                "<a>&gt;&gt;&open</a>",
                11,
                XmlErrorKind::Unterminated("entity reference"),
            ),
        ] {
            assert_eq!(calls(src).unwrap_err(), XmlError::new(pos, kind), "{src}");
        }
        let limits = ParserLimits {
            max_entity_expansions: 2,
            ..ParserLimits::default()
        };
        assert_eq!(
            calls_limited("<a>&amp;x&amp;y&amp;</a>", limits).unwrap_err(),
            XmlError::new(15, XmlErrorKind::EntityExpansionLimit(2))
        );
    }

    #[test]
    fn recycled_buffers_forget_the_previous_document() {
        // The first document fails with two elements open and one
        // attribute name recorded.
        let mut r = Reader::new(b"<a><b x=\"1\" <");
        assert!(r.read(&mut Recorder::default()).is_err());
        let bufs = r.into_buffers();
        let mut r = Reader::with_buffers(b"<x x=\"1\"/>", ParserLimits::default(), bufs);
        let mut seen = Recorder::default();
        assert_eq!(r.read(&mut seen), Ok(1));
        assert_eq!(seen.calls, [start("x"), attr("x", "1"), end("x")]);
    }
}
