//! A small streaming (SAX-style) XML pull parser — the workspace's one
//! tokenizer.
//!
//! The parser covers the XML subset needed for filtering workloads: element
//! structure, attributes, character data, CDATA sections, comments,
//! processing instructions, the XML declaration, a DOCTYPE prolog (skipped),
//! and the five predefined entities plus numeric character references. It
//! reports errors as a structured [`XmlErrorKind`] with a byte offset,
//! checks tag balance, and enforces per-document resource budgets
//! ([`ParserLimits`]) so hostile inputs (depth bombs, entity floods,
//! megabyte attribute values) fail fast instead of exhausting the process.
//!
//! Events borrow: a name is a slice of the input, a value or a text run
//! too unless a reference had to be decoded, and the reader's own state
//! (open-tag stack, the current tag's attribute names) is byte spans of
//! the input; a `String` is built only to describe an error. The flat
//! store engines match ([`PathDoc`](crate::PathDoc)) and the tree the
//! oracle and the generator use ([`Document`](crate::Document)) are both
//! filled from these events.

use crate::limits::ParserLimits;
use std::borrow::Cow;
use std::fmt;

/// A parsing event produced by [`Reader::next_event`]. Values and text
/// are `Cow::Owned` only when an entity or character reference was
/// decoded.
///
/// A start tag arrives in pieces: [`Event::Start`] when its name has been
/// read, one [`Event::Attribute`] per attribute as each is read and
/// checked, and — for `<name/>` — the [`Event::End`] that closes it. A
/// malformed tag so fails *after* its `Start` was delivered; consumers
/// discard what they built when an error arrives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name`: an element opens. Its attributes follow, then its content.
    Start {
        /// Element name.
        name: &'a str,
    },
    /// One attribute of the element opened by the last [`Event::Start`],
    /// in document order.
    Attribute {
        /// Attribute name (qualified, prefixes are kept verbatim).
        name: &'a str,
        /// Decoded attribute value.
        value: Cow<'a, str>,
    },
    /// `</name>`, or the `/>` of an empty-element tag.
    End {
        /// Element name.
        name: &'a str,
    },
    /// Character data between tags (entity-decoded) or the content of a
    /// CDATA section. Whitespace-only runs are suppressed.
    Text(Cow<'a, str>),
    /// End of input.
    Eof,
}

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

/// The two allocations a [`Reader`] works in: byte spans, not slices, so
/// they carry no lifetime and [`PathDoc::parse_into`](crate::PathDoc::parse_into)
/// lends the same pair to the reader of every document.
#[derive(Debug, Default)]
pub(crate) struct ReaderBuffers {
    /// Names of the open elements (balance checking).
    stack: Vec<Span>,
    /// Attribute names of the start tag being read (duplicate checking).
    attr_names: Vec<Span>,
}

impl ReaderBuffers {
    /// Heap held, in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.stack.capacity() + self.attr_names.capacity()) * std::mem::size_of::<Span>()
    }
}

/// Streaming pull parser over a byte slice.
///
/// ```
/// use pxf_xml::{Event, Reader};
/// let mut r = Reader::new(b"<a x=\"1&amp;2\"><b/>hi</a>");
/// assert_eq!(r.next_event().unwrap(), Event::Start { name: "a" });
/// assert!(matches!(r.next_event().unwrap(), Event::Attribute { name: "x", value } if value == "1&2"));
/// assert_eq!(r.next_event().unwrap(), Event::Start { name: "b" });
/// assert_eq!(r.next_event().unwrap(), Event::End { name: "b" });
/// assert!(matches!(r.next_event().unwrap(), Event::Text(t) if t == "hi"));
/// assert_eq!(r.next_event().unwrap(), Event::End { name: "a" });
/// assert_eq!(r.next_event().unwrap(), Event::Eof);
/// ```
pub struct Reader<'a> {
    input: &'a [u8],
    /// The input as text, if all of it is valid UTF-8 (checked once,
    /// before the first event): a piece is then a slice of it. Otherwise
    /// each piece is validated where it is read — invalid bytes are an
    /// error only in a name, value or text, not in a comment.
    text: Option<&'a str>,
    pos: usize,
    bufs: ReaderBuffers,
    /// The start tag whose attributes are being read: its name and the
    /// name's offset. `None` between tags.
    tag: Option<(&'a str, usize)>,
    done: bool,
    seen_root: bool,
    limits: ParserLimits,
    /// Entity/character references decoded so far (budgeted).
    expansions: usize,
    /// Whole-document size checked on the first `next_event` call.
    size_checked: bool,
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
        bufs.attr_names.clear();
        Reader {
            input,
            text: None,
            pos: 0,
            bufs,
            tag: None,
            done: false,
            seen_root: false,
            limits,
            expansions: 0,
            size_checked: false,
        }
    }

    /// Gives the reader's buffers back for the next document.
    pub(crate) fn into_buffers(self) -> ReaderBuffers {
        self.bufs
    }

    /// The resource budget this reader enforces.
    pub fn limits(&self) -> &ParserLimits {
        &self.limits
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        XmlError {
            pos: self.pos,
            kind,
        }
    }

    /// The name a span of the input holds, for an error message (the span
    /// was checked when it was recorded).
    fn name_at(&self, (start, end): Span) -> String {
        String::from_utf8_lossy(&self.input[start..end]).into_owned()
    }

    /// The input bytes `start..end` as text, if they are valid UTF-8.
    fn str_at(&self, start: usize, end: usize) -> Option<&'a str> {
        match self.text.and_then(|text| text.get(start..end)) {
            Some(s) => Some(s),
            None => std::str::from_utf8(&self.input[start..end]).ok(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
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
        Err(self.error(XmlErrorKind::Unterminated(what)))
    }

    /// Returns the next event, or an error on malformed input.
    pub fn next_event(&mut self) -> Result<Event<'a>, XmlError> {
        if !self.size_checked {
            self.size_checked = true;
            if self.input.len() > self.limits.max_document_bytes {
                return Err(XmlError::new(
                    self.limits.max_document_bytes,
                    XmlErrorKind::DocumentTooLarge(self.limits.max_document_bytes),
                ));
            }
            self.text = std::str::from_utf8(self.input).ok();
        }
        if let Some((name, at)) = self.tag {
            if let Some(event) = self.next_in_start_tag(name, at)? {
                return Ok(event);
            }
        }
        let input = self.input;
        loop {
            if self.done {
                return Ok(Event::Eof);
            }
            if self.pos >= input.len() {
                if let Some(&open) = self.bufs.stack.last() {
                    return Err(self.error(XmlErrorKind::UnexpectedEof(self.name_at(open))));
                }
                self.done = true;
                return Ok(Event::Eof);
            }
            if input[self.pos] == b'<' {
                match input.get(self.pos + 1) {
                    Some(b'/') => return self.parse_end_tag(),
                    Some(b'?') => {
                        self.pos += 2;
                        self.skip_until(b"?>", "processing instruction")?;
                        continue;
                    }
                    Some(b'!') if self.starts_with(b"<!--") => {
                        self.pos += 4;
                        self.skip_until(b"-->", "comment")?;
                        continue;
                    }
                    Some(b'!') if self.starts_with(b"<![CDATA[") => {
                        self.pos += 9;
                        let start = self.pos;
                        self.skip_until(b"]]>", "CDATA section")?;
                        let end = self.pos - 3;
                        if self.bufs.stack.is_empty() {
                            return Err(self.error(XmlErrorKind::ContentOutsideRoot("CDATA")));
                        }
                        if !input[start..end].iter().all(u8::is_ascii_whitespace) {
                            let s = self
                                .str_at(start, end)
                                .ok_or_else(|| self.error(XmlErrorKind::InvalidUtf8("CDATA")))?;
                            return Ok(Event::Text(Cow::Borrowed(s)));
                        }
                        continue;
                    }
                    Some(b'!')
                        if self.starts_with(b"<!DOCTYPE") || self.starts_with(b"<!doctype") =>
                    {
                        self.skip_doctype()?;
                        continue;
                    }
                    // Anything else must be a start tag (`<!x` fails on
                    // its name).
                    _ => return self.open_start_tag(),
                }
            }
            // Character data.
            let start = self.pos;
            self.seek(b'<');
            let raw = &input[start..self.pos];
            if raw.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            if self.bufs.stack.is_empty() {
                return Err(XmlError::new(
                    start,
                    XmlErrorKind::ContentOutsideRoot("character data"),
                ));
            }
            let decoded = self.decode_entities(start, self.pos)?;
            return Ok(Event::Text(decoded));
        }
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
        Err(self.error(XmlErrorKind::Unterminated("DOCTYPE declaration")))
    }

    /// `<name`: checks root uniqueness and depth, reads the name.
    fn open_start_tag(&mut self) -> Result<Event<'a>, XmlError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        if self.seen_root && self.bufs.stack.is_empty() {
            return Err(self.error(XmlErrorKind::MultipleRoots));
        }
        if self.bufs.stack.len() >= self.limits.max_depth {
            return Err(self.error(XmlErrorKind::DepthLimitExceeded(self.limits.max_depth)));
        }
        let at = self.pos;
        let name = self.parse_name()?;
        self.bufs.attr_names.clear();
        self.tag = Some((name, at));
        Ok(Event::Start { name })
    }

    /// The next piece of the start tag `<name` (whose name sits at offset
    /// `at`): an attribute, the `End` of an empty-element tag, or `None`
    /// once `>` opened the element's content.
    fn next_in_start_tag(
        &mut self,
        name: &'a str,
        at: usize,
    ) -> Result<Option<Event<'a>>, XmlError> {
        self.skip_ws();
        match self.peek() {
            Some(b'>') => {
                self.pos += 1;
                self.seen_root = true;
                self.bufs.stack.push((at, at + name.len()));
                self.tag = None;
                Ok(None)
            }
            Some(b'/') => {
                self.pos += 1;
                if self.peek() != Some(b'>') {
                    return Err(self.error(XmlErrorKind::Syntax(
                        "expected '>' after '/' in empty-element tag",
                    )));
                }
                self.pos += 1;
                self.seen_root = true;
                self.tag = None;
                Ok(Some(Event::End { name }))
            }
            Some(_) => self.parse_attribute().map(Some),
            None => Err(self.error(XmlErrorKind::Unterminated("start tag"))),
        }
    }

    fn parse_attribute(&mut self) -> Result<Event<'a>, XmlError> {
        if self.bufs.attr_names.len() >= self.limits.max_attributes {
            return Err(self.error(XmlErrorKind::TooManyAttributes(self.limits.max_attributes)));
        }
        let input = self.input;
        let at = self.pos;
        let name = self.parse_name()?;
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return Err(self.error(XmlErrorKind::ExpectedEquals(name.to_string())));
        }
        self.pos += 1;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.error(XmlErrorKind::Syntax("expected quoted attribute value"))),
        };
        self.pos += 1;
        let vstart = self.pos;
        if !self.seek(quote) {
            return Err(self.error(XmlErrorKind::Unterminated("attribute value")));
        }
        if self.pos - vstart > self.limits.max_attribute_value_len {
            return Err(XmlError::new(
                vstart,
                XmlErrorKind::AttributeValueTooLong(self.limits.max_attribute_value_len),
            ));
        }
        let value = self.decode_entities(vstart, self.pos)?;
        self.pos += 1;
        let seen = &self.bufs.attr_names;
        if seen.iter().any(|&(s, e)| input[s..e] == *name.as_bytes()) {
            return Err(self.error(XmlErrorKind::DuplicateAttribute(name.to_string())));
        }
        self.bufs.attr_names.push((at, at + name.len()));
        Ok(Event::Attribute { name, value })
    }

    fn parse_end_tag(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += 2; // "</"
        let name = self.parse_name()?;
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.error(XmlErrorKind::Syntax("expected '>' in end tag")));
        }
        self.pos += 1;
        match self.bufs.stack.pop() {
            Some((s, e)) if self.input[s..e] == *name.as_bytes() => Ok(Event::End { name }),
            Some(open) => Err(self.error(XmlErrorKind::MismatchedEndTag {
                expected: self.name_at(open),
                found: name.to_string(),
            })),
            None => Err(self.error(XmlErrorKind::UnmatchedEndTag(name.to_string()))),
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => self.pos += 1,
            _ => return Err(self.error(XmlErrorKind::InvalidName)),
        }
        let rest = &self.input[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| !is_name_char(b))
            .unwrap_or(rest.len());
        if self.pos - start > self.limits.max_name_len {
            return Err(XmlError::new(
                start,
                XmlErrorKind::NameTooLong(self.limits.max_name_len),
            ));
        }
        self.str_at(start, self.pos)
            .ok_or_else(|| self.error(XmlErrorKind::InvalidUtf8("name")))
    }

    /// Decodes the five predefined entities and numeric character
    /// references of the run at bytes `start..end`, charging each
    /// reference against the document's expansion budget. A run without
    /// references is returned as it stands in the input.
    fn decode_entities(&mut self, start: usize, end: usize) -> Result<Cow<'a, str>, XmlError> {
        let s = self.str_at(start, end).ok_or(XmlError {
            pos: start,
            kind: XmlErrorKind::InvalidUtf8("character data"),
        })?;
        if !s.as_bytes().contains(&b'&') {
            return Ok(Cow::Borrowed(s));
        }
        let mut out = String::with_capacity(s.len());
        let mut rest = s;
        while let Some(amp) = rest.find('&') {
            out.push_str(&rest[..amp]);
            // Errors name the `&` of the offending reference, in the document.
            let pos = start + (s.len() - rest.len()) + amp;
            let after = &rest[amp + 1..];
            let semi = after.find(';').ok_or(XmlError {
                pos,
                kind: XmlErrorKind::Unterminated("entity reference"),
            })?;
            self.expansions += 1;
            if self.expansions > self.limits.max_entity_expansions {
                return Err(XmlError::new(
                    pos,
                    XmlErrorKind::EntityExpansionLimit(self.limits.max_entity_expansions),
                ));
            }
            let ent = &after[..semi];
            match ent {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ if ent.starts_with('#') => {
                    let code = if let Some(hex) = ent.strip_prefix("#x").or(ent.strip_prefix("#X"))
                    {
                        u32::from_str_radix(hex, 16).ok()
                    } else {
                        ent[1..].parse::<u32>().ok()
                    };
                    let c = code.and_then(char::from_u32).ok_or_else(|| XmlError {
                        pos,
                        kind: XmlErrorKind::InvalidCharRef(ent.to_string()),
                    })?;
                    out.push(c);
                }
                _ => {
                    return Err(XmlError {
                        pos,
                        kind: XmlErrorKind::UnknownEntity(ent.to_string()),
                    })
                }
            }
            rest = &after[semi + 1..];
        }
        out.push_str(rest);
        Ok(Cow::Owned(out))
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.') || b >= 0x80
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<Event<'_>>, XmlError> {
        events_limited(input, ParserLimits::default())
    }

    fn events_limited(input: &str, limits: ParserLimits) -> Result<Vec<Event<'_>>, XmlError> {
        let mut r = Reader::with_limits(input.as_bytes(), limits);
        let mut out = Vec::new();
        loop {
            let e = r.next_event()?;
            let eof = e == Event::Eof;
            out.push(e);
            if eof {
                return Ok(out);
            }
        }
    }

    #[test]
    fn basic_document() {
        let ev = events("<a><b>text</b><c/></a>").unwrap();
        assert_eq!(ev.len(), 8);
        assert_eq!(ev[0], Event::Start { name: "a" });
        assert!(matches!(&ev[2], Event::Text(t) if t == "text"));
        // An empty-element tag is a start and its own end.
        assert_eq!(ev[4], Event::Start { name: "c" });
        assert_eq!(ev[5], Event::End { name: "c" });
        assert_eq!(ev[6], Event::End { name: "a" });
    }

    #[test]
    fn attributes_parsed() {
        let ev = events(r#"<a x="1" y='two'/>"#).unwrap();
        let attr = |name, value: &'static str| Event::Attribute {
            name,
            value: Cow::Borrowed(value),
        };
        assert_eq!(
            ev,
            [
                Event::Start { name: "a" },
                attr("x", "1"),
                attr("y", "two"),
                Event::End { name: "a" },
                Event::Eof
            ]
        );
    }

    #[test]
    fn entities_decoded() {
        let ev = events("<a>&lt;hi&gt; &amp; &#65;&#x42;</a>").unwrap();
        assert!(matches!(&ev[1], Event::Text(t) if t == "<hi> & AB"));
        let ev = events(r#"<a v="&quot;q&apos;"/>"#).unwrap();
        assert!(matches!(&ev[1], Event::Attribute { name: "v", value } if value == "\"q'"));
    }

    #[test]
    fn prolog_comments_cdata() {
        let src = r#"<?xml version="1.0"?>
            <!DOCTYPE a [<!ELEMENT a (b)>]>
            <!-- top comment -->
            <a><!-- inner --><![CDATA[raw <stuff> & more]]></a>"#;
        let ev = events(src).unwrap();
        assert_eq!(ev[0], Event::Start { name: "a" });
        assert!(matches!(&ev[1], Event::Text(t) if t == "raw <stuff> & more"));
    }

    #[test]
    fn whitespace_text_suppressed() {
        let ev = events("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(ev.len(), 5); // start a, start b, end b, end a, eof
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(matches!(
            events("<a><b></a></b>").unwrap_err().kind,
            XmlErrorKind::MismatchedEndTag { .. }
        ));
        assert!(matches!(
            events("<a>").unwrap_err().kind,
            XmlErrorKind::UnexpectedEof(_)
        ));
        assert!(matches!(
            events("</a>").unwrap_err().kind,
            XmlErrorKind::UnmatchedEndTag(_)
        ));
    }

    #[test]
    fn multiple_roots_rejected() {
        assert_eq!(
            events("<a/><b/>").unwrap_err().kind,
            XmlErrorKind::MultipleRoots
        );
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(events("hello<a/>").is_err());
        assert!(events("<a/>tail").is_err());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert_eq!(
            events(r#"<a x="1" x="2"/>"#).unwrap_err().kind,
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
            assert!(events(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn error_positions() {
        let err = events("<a></b>").unwrap_err();
        assert!(err.to_string().contains("mismatched end tag"));
        assert!(err.pos > 0);
    }

    #[test]
    fn namespaced_names_pass_through() {
        let ev = events("<ns:a ns:x=\"1\"><ns:b/></ns:a>").unwrap();
        assert_eq!(ev[0], Event::Start { name: "ns:a" });
        assert!(matches!(&ev[1], Event::Attribute { name: "ns:x", .. }));
    }

    #[test]
    fn depth_limit_enforced() {
        let limits = ParserLimits {
            max_depth: 4,
            ..ParserLimits::default()
        };
        let ok = "<a><a><a><a/></a></a></a>";
        assert!(events_limited(ok, limits).is_ok());
        let deep = "<a><a><a><a><a/></a></a></a></a>";
        let err = events_limited(deep, limits).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::DepthLimitExceeded(4));
        assert!(err.is_limit());
    }

    #[test]
    fn document_size_limit_enforced() {
        let limits = ParserLimits {
            max_document_bytes: 16,
            ..ParserLimits::default()
        };
        assert!(events_limited("<a/>", limits).is_ok());
        let err = events_limited("<a>0123456789012345</a>", limits).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::DocumentTooLarge(16));
    }

    #[test]
    fn attribute_limits_enforced() {
        let limits = ParserLimits {
            max_attributes: 2,
            max_attribute_value_len: 4,
            ..ParserLimits::default()
        };
        assert!(events_limited(r#"<a x="1" y="2"/>"#, limits).is_ok());
        assert_eq!(
            events_limited(r#"<a x="1" y="2" z="3"/>"#, limits)
                .unwrap_err()
                .kind,
            XmlErrorKind::TooManyAttributes(2)
        );
        assert_eq!(
            events_limited(r#"<a x="12345"/>"#, limits)
                .unwrap_err()
                .kind,
            XmlErrorKind::AttributeValueTooLong(4)
        );
    }

    #[test]
    fn name_length_limit_enforced() {
        let limits = ParserLimits {
            max_name_len: 8,
            ..ParserLimits::default()
        };
        assert!(events_limited("<abcdefgh/>", limits).is_ok());
        assert_eq!(
            events_limited("<abcdefghi/>", limits).unwrap_err().kind,
            XmlErrorKind::NameTooLong(8)
        );
    }

    #[test]
    fn entity_expansion_budget_enforced() {
        let limits = ParserLimits {
            max_entity_expansions: 3,
            ..ParserLimits::default()
        };
        assert!(events_limited("<a>&amp;&lt;&gt;</a>", limits).is_ok());
        // Budget is per document, across text runs and attribute values.
        let err = events_limited(r#"<a v="&amp;&amp;">&amp;&amp;</a>"#, limits).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::EntityExpansionLimit(3));
    }

    #[test]
    fn limit_errors_carry_in_bounds_positions() {
        let limits = ParserLimits::strict();
        let mut deep = String::new();
        for _ in 0..100 {
            deep.push_str("<d>");
        }
        let err = events_limited(&deep, limits).unwrap_err();
        assert!(err.pos <= deep.len());
        assert!(err.is_limit());
    }

    #[test]
    fn undecoded_values_and_text_borrow_the_input() {
        let ev = events(r#"<a x="plain" y="a&amp;b">run<![CDATA[<c>]]>&lt;</a>"#).unwrap();
        assert!(matches!(
            &ev[1],
            Event::Attribute {
                value: Cow::Borrowed("plain"),
                ..
            }
        ));
        assert!(matches!(&ev[2], Event::Attribute { value: Cow::Owned(v), .. } if v == "a&b"));
        assert!(matches!(&ev[3], Event::Text(Cow::Borrowed("run"))));
        assert!(matches!(&ev[4], Event::Text(Cow::Borrowed("<c>"))));
        assert!(matches!(&ev[5], Event::Text(Cow::Owned(t)) if t == "<"));
    }

    #[test]
    fn a_malformed_start_tag_fails_after_its_start_event() {
        let mut r = Reader::new(b"<a x=\"1\" x=\"2\"/>");
        assert_eq!(r.next_event().unwrap(), Event::Start { name: "a" });
        assert!(matches!(r.next_event().unwrap(), Event::Attribute { .. }));
        assert_eq!(
            r.next_event().unwrap_err().kind,
            XmlErrorKind::DuplicateAttribute("x".into())
        );
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
            assert_eq!(events(src).unwrap_err(), XmlError::new(pos, kind), "{src}");
        }
        let limits = ParserLimits {
            max_entity_expansions: 2,
            ..ParserLimits::default()
        };
        assert_eq!(
            events_limited("<a>&amp;x&amp;y&amp;</a>", limits).unwrap_err(),
            XmlError::new(15, XmlErrorKind::EntityExpansionLimit(2))
        );
    }

    #[test]
    fn recycled_buffers_forget_the_previous_document() {
        // The first document fails with two elements open and one
        // attribute name recorded.
        let mut r = Reader::new(b"<a><b x=\"1\" <");
        while r.next_event().is_ok() {}
        let bufs = r.into_buffers();
        let mut r = Reader::with_buffers(b"<x x=\"1\"/>", ParserLimits::default(), bufs);
        let mut n = 0;
        while r.next_event().unwrap() != Event::Eof {
            n += 1;
        }
        assert_eq!(n, 3);
    }
}
