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
//! (open-tag stack, the current tag's attributes) is byte spans of the
//! input; a `String` is built only to describe an error. The flat store
//! engines match ([`PathDoc`](crate::PathDoc)) and the tree the oracle and
//! the generator use ([`Document`](crate::Document)) are both filled from
//! these events.
//!
//! **One scan per start tag.** A start tag is read whole when its `<` is
//! reached: the name, then each attribute with every check (name, `=`,
//! quotes, value length, each reference resolved and charged to the
//! budget, duplicates), recorded as spans in the buffer the duplicate
//! check keeps. [`Event::Start`], each [`Event::Attribute`] and the
//! [`Event::End`] of `<a/>` are then handed out from that buffer, and a
//! value is decoded only when its `Attribute` event is taken. A fault in
//! the tag arrives where it did when tags were read piece by piece: after
//! the `Start` and the attributes before it, with the same kind and
//! offset. A consumer that wants element structure only
//! ([`PathDoc::visit_bytes`](crate::PathDoc::visit_bytes)) reads through
//! `Reader::read_elements` instead: start and end tags are read inline
//! there, no event is built for them and no value is decoded.

use crate::access::ElementVisitor;
use crate::limits::ParserLimits;
use crate::tree::NodeId;
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

/// One attribute of the start tag read last, every check made.
#[derive(Debug, Clone, Copy)]
struct Attr {
    name: Span,
    value: Span,
    /// The value holds a reference, so handing it out decodes it.
    refs: bool,
}

/// The two allocations a [`Reader`] works in: byte spans, not slices, so
/// they carry no lifetime and [`PathDoc::parse_into`](crate::PathDoc::parse_into)
/// lends the same pair to the reader of every document.
#[derive(Debug, Default)]
pub(crate) struct ReaderBuffers {
    /// Names of the open elements (balance checking).
    stack: Vec<Span>,
    /// Attributes of the start tag read last: the duplicate check reads
    /// their names, and its [`Event::Attribute`]s are handed out from here.
    attrs: Vec<Attr>,
}

impl ReaderBuffers {
    /// Heap held, in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.stack.capacity() * std::mem::size_of::<Span>()
            + self.attrs.capacity() * std::mem::size_of::<Attr>()
    }
}

/// What the start tag read last still has to hand out after its
/// attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Nothing: the reader is between tags, or the tag opened with `>`
    /// and has handed out its last attribute.
    Nothing,
    /// Attributes only; the tag opened with `>`.
    Open,
    /// The [`Event::End`] of `<name/>`.
    Close,
    /// The tag's fault, after the attributes before it.
    Fault,
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
    /// The input as text, if all of it is valid UTF-8 (checked once, when
    /// the reader is made): a piece is then a slice of it. Otherwise each
    /// piece is validated where it is read — invalid bytes are an error
    /// only in a name, value or text, not in a comment.
    text: Option<&'a str>,
    pos: usize,
    bufs: ReaderBuffers,
    /// What is left to hand out of the start tag read last: its
    /// attributes from `bufs.attrs[next_attr..]`, then what this says.
    pending: Pending,
    next_attr: usize,
    /// The name of the start tag read last.
    tag: &'a str,
    /// The error [`Pending::Fault`] hands out.
    fault: Option<XmlError>,
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
        // An oversized document is refused by the first event, unread.
        let too_large = input.len() > limits.max_document_bytes;
        let fault = too_large.then(|| {
            XmlError::new(
                limits.max_document_bytes,
                XmlErrorKind::DocumentTooLarge(limits.max_document_bytes),
            )
        });
        Reader {
            input,
            text: if too_large {
                None
            } else {
                std::str::from_utf8(input).ok()
            },
            pos: 0,
            bufs,
            pending: if too_large {
                Pending::Fault
            } else {
                Pending::Nothing
            },
            next_attr: 0,
            tag: "",
            fault,
            seen_root: false,
            limits,
            expansions: 0,
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

    /// The name a span of the input holds, for an error message (the span
    /// was checked when it was recorded).
    fn name_at(&self, (start, end): Span) -> String {
        String::from_utf8_lossy(&self.input[start..end]).into_owned()
    }

    /// The input bytes `start..end` as text, if they are valid UTF-8.
    #[inline]
    fn str_at(&self, start: usize, end: usize) -> Option<&'a str> {
        match self.text.and_then(|text| text.get(start..end)) {
            Some(s) => Some(s),
            None => std::str::from_utf8(&self.input[start..end]).ok(),
        }
    }

    /// A span the reader has already found to be valid UTF-8.
    #[inline]
    fn checked_str(&self, (start, end): Span) -> &'a str {
        self.str_at(start, end)
            .expect("the span was checked when it was read")
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

    /// Returns the next event, or an error on malformed input.
    #[inline(always)]
    pub fn next_event(&mut self) -> Result<Event<'a>, XmlError> {
        if self.pending == Pending::Nothing {
            self.next_markup()
        } else {
            self.next_pending()
        }
    }

    /// Reads the document as element structure only, into `visitor`: each
    /// start tag is an [`ElementVisitor::enter`], its element numbered in
    /// document order from 0, and each end tag or `/>` an
    /// [`ElementVisitor::leave`]. Attributes and text are checked exactly
    /// as [`Self::next_event`] checks them, but no value is decoded; the
    /// error, if any, is the one `next_event` would return, after the same
    /// calls. Returns the number of elements entered.
    pub(crate) fn read_elements<V: ElementVisitor>(
        &mut self,
        visitor: &mut V,
    ) -> Result<usize, XmlError> {
        let input = self.input;
        let mut elements: NodeId = 0;
        loop {
            // Start and end tags are read here, inline, so no event is
            // built for them; anything else is `next_event`'s. A tag's
            // attributes are dropped undecoded, and a fault among them is
            // the next event's error.
            if self.pending == Pending::Nothing {
                let pos = self.pos;
                if input.get(pos) == Some(&b'<') {
                    match input.get(pos + 1) {
                        Some(b'/') => {
                            self.end_tag(pos + 2)?;
                            visitor.leave();
                            continue;
                        }
                        Some(&b) if CLASS[b as usize] & NAME_START != 0 => {
                            visitor.enter(elements, self.start_tag(pos + 1)?);
                            elements += 1;
                            self.skip_attributes();
                            if self.pending == Pending::Close {
                                self.pending = Pending::Nothing;
                                visitor.leave();
                            }
                            continue;
                        }
                        _ => {}
                    }
                }
            }
            match self.next_event()? {
                Event::Start { name } => {
                    visitor.enter(elements, name);
                    elements += 1;
                    self.skip_attributes();
                }
                Event::End { .. } => visitor.leave(),
                Event::Attribute { .. } | Event::Text(_) => {}
                Event::Eof => return Ok(elements as usize),
            }
        }
    }

    /// Drops the attributes of the start tag just read, undecoded.
    #[inline(always)]
    fn skip_attributes(&mut self) {
        self.next_attr = self.bufs.attrs.len();
        if self.pending == Pending::Open {
            self.pending = Pending::Nothing;
        }
    }

    /// The next piece of the start tag read last: an attribute, decoded
    /// now, then the `End` of `<name/>` or the tag's fault.
    #[inline(always)]
    fn next_pending(&mut self) -> Result<Event<'a>, XmlError> {
        if let Some(&Attr { name, value, refs }) = self.bufs.attrs.get(self.next_attr) {
            self.next_attr += 1;
            if self.next_attr == self.bufs.attrs.len() && self.pending == Pending::Open {
                self.pending = Pending::Nothing;
            }
            let raw = self.checked_str(value);
            let value = if refs {
                let mut out = String::with_capacity(raw.len());
                references(raw, value.0, &mut 0, usize::MAX, Some(&mut out))
                    .expect("the references were checked when the tag was read");
                Cow::Owned(out)
            } else {
                Cow::Borrowed(raw)
            };
            let name = self.checked_str(name);
            return Ok(Event::Attribute { name, value });
        }
        match std::mem::replace(&mut self.pending, Pending::Nothing) {
            Pending::Close => Ok(Event::End { name: self.tag }),
            Pending::Fault => Err(self.fault.take().expect("a fault was recorded")),
            Pending::Open | Pending::Nothing => self.next_markup(),
        }
    }

    /// The next event from the markup or text at `pos`.
    #[inline(always)]
    fn next_markup(&mut self) -> Result<Event<'a>, XmlError> {
        loop {
            let pos = self.pos;
            match (self.input.get(pos), self.input.get(pos + 1)) {
                (Some(b'<'), Some(b'/')) => {
                    return self.end_tag(pos + 2).map(|name| Event::End { name })
                }
                (Some(b'<'), Some(&b)) if CLASS[b as usize] & NAME_START != 0 => {
                    return self.start_tag(pos + 1).map(|name| Event::Start { name })
                }
                _ => {
                    if let Some(event) = self.other()? {
                        return Ok(event);
                    }
                }
            }
        }
    }

    /// Whatever at `pos` is not a start or end tag: the end of input,
    /// character data, a processing instruction, comment, CDATA section
    /// or DOCTYPE — `None` for what is skipped (whitespace, comments, …) —
    /// or a `<` that fails as a start tag without a name.
    #[inline(never)]
    fn other(&mut self) -> Result<Option<Event<'a>>, XmlError> {
        let input = self.input;
        let start = self.pos;
        if start >= input.len() {
            return match self.bufs.stack.last() {
                Some(&open) => fail(start, XmlErrorKind::UnexpectedEof(self.name_at(open))),
                None => Ok(Some(Event::Eof)),
            };
        }
        if input[start] != b'<' {
            self.seek(b'<');
            if input[start..self.pos].iter().all(u8::is_ascii_whitespace) {
                return Ok(None);
            }
            if self.bufs.stack.is_empty() {
                return fail(start, XmlErrorKind::ContentOutsideRoot("character data"));
            }
            return Ok(Some(Event::Text(self.decode_entities(start, self.pos)?)));
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
                let Some(s) = self.str_at(start + 9, end) else {
                    return fail(self.pos, XmlErrorKind::InvalidUtf8("CDATA"));
                };
                return Ok(Some(Event::Text(Cow::Borrowed(s))));
            }
        } else if self.starts_with(b"<!DOCTYPE") || self.starts_with(b"<!doctype") {
            self.skip_doctype()?;
        } else {
            let name = self.start_tag(start + 1)?;
            return Ok(Some(Event::Start { name }));
        }
        Ok(None)
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

    /// `<name …>` or `<name …/>` whose name starts at `at`, read whole:
    /// root uniqueness and depth, the name, then every attribute with
    /// every check. A fault before the name is read is this call's error;
    /// one after it waits in `pending`, behind the attributes before it.
    #[inline(always)]
    fn start_tag(&mut self, at: usize) -> Result<&'a str, XmlError> {
        // Past the `<` whatever happens: a caller that reads on after an
        // error gets further.
        self.pos = at;
        if self.seen_root && self.bufs.stack.is_empty() {
            return fail(at, XmlErrorKind::MultipleRoots);
        }
        let limits = self.limits;
        if self.bufs.stack.len() >= limits.max_depth {
            return fail(at, XmlErrorKind::DepthLimitExceeded(limits.max_depth));
        }
        let input = self.input;
        let end = scan_name(input, at, limits.max_name_len)?;
        let Some(tag) = self.str_at(at, end) else {
            return fail(end, XmlErrorKind::InvalidUtf8("name"));
        };
        self.tag = tag;
        // Most tags end right after their name.
        match input.get(end) {
            Some(b'>') => {
                self.pos = end + 1;
                self.seen_root = true;
                self.bufs.stack.push((at, end));
            }
            Some(b'/') if input.get(end + 1) == Some(&b'>') => {
                self.pos = end + 2;
                self.seen_root = true;
                self.bufs.attrs.clear();
                self.next_attr = 0;
                self.pending = Pending::Close;
            }
            _ => {
                self.pos = end;
                self.pending = self.read_attributes((at, end));
            }
        }
        Ok(tag)
    }

    /// The rest of the start tag whose name is `name`: each attribute,
    /// checked in full (its references too, charged to the budget) and
    /// recorded in `bufs.attrs` undecoded, then `>` or `/>`. Says what
    /// [`Self::next_pending`] hands out after the attributes.
    #[inline(never)]
    fn read_attributes(&mut self, name: Span) -> Pending {
        self.bufs.attrs.clear();
        self.next_attr = 0;
        let mut pos = self.pos;
        let closed = loop {
            pos = skip_ws(self.input, pos);
            match self.input.get(pos) {
                Some(b'>') => break Ok(false),
                Some(b'/') if self.input.get(pos + 1) == Some(&b'>') => break Ok(true),
                Some(b'/') => {
                    let e = "expected '>' after '/' in empty-element tag";
                    break fail(pos + 1, XmlErrorKind::Syntax(e));
                }
                Some(_) => match self.read_attribute(pos) {
                    Ok(next) => pos = next,
                    Err(e) => break Err(e),
                },
                None => break fail(pos, XmlErrorKind::Unterminated("start tag")),
            }
        };
        self.pos = pos;
        match closed {
            Ok(true) => {
                self.pos += 2;
                self.seen_root = true;
                Pending::Close
            }
            Ok(false) => {
                self.pos += 1;
                self.seen_root = true;
                self.bufs.stack.push(name);
                match self.bufs.attrs.is_empty() {
                    true => Pending::Nothing,
                    false => Pending::Open,
                }
            }
            Err(e) => {
                self.fault = Some(e);
                Pending::Fault
            }
        }
    }

    /// The `name="value"` at `pos`, checked and recorded; the offset
    /// after it.
    #[inline]
    fn read_attribute(&mut self, pos: usize) -> Result<usize, XmlError> {
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
            let Some(s) = self.str_at(value.0, value.1) else {
                return fail(start, XmlErrorKind::InvalidUtf8("character data"));
            };
            if refs {
                let limit = limits.max_entity_expansions;
                references(s, start, &mut self.expansions, limit, None)?;
            }
        }
        let pos = value.1 + 1;
        let seen = &self.bufs.attrs;
        if seen
            .iter()
            .any(|a| input[a.name.0..a.name.1] == input[name.0..name.1])
        {
            return fail(pos, XmlErrorKind::DuplicateAttribute(self.name_at(name)));
        }
        self.bufs.attrs.push(Attr { name, value, refs });
        Ok(pos)
    }

    /// `</name>` whose name starts at `at`: the name must close the
    /// innermost open element.
    #[inline(always)]
    fn end_tag(&mut self, at: usize) -> Result<&'a str, XmlError> {
        self.pos = at;
        let input = self.input;
        // The usual case, the open name and then `>`, needs no name scan:
        // the name's checks were made when it opened.
        if let Some(&(start, end)) = self.bufs.stack.last() {
            let close = at + (end - start);
            if input.get(close) == Some(&b'>') && input[at..close] == input[start..end] {
                self.pos = close + 1;
                self.bufs.stack.pop();
                return Ok(self.checked_str((start, end)));
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
            Some((s, e)) if input[s..e] == input[at..end] => Ok(name),
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
        let limit = self.limits.max_entity_expansions;
        references(s, start, &mut self.expansions, limit, Some(&mut out))?;
        Ok(Cow::Owned(out))
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
