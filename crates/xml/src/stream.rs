//! Streaming over concatenated XML documents, with malformed-input
//! recovery.
//!
//! Input without framing — documents concatenated back-to-back or separated
//! by whitespace in one file or pipe (`pxf match --stream`), not always
//! well-formed — says nowhere where a document ends. [`DocumentStream`]
//! scans such a byte stream for document boundaries (tracking element
//! depth through comments, CDATA, processing instructions, DOCTYPE
//! declarations and quoted attribute values) and yields each complete
//! document's raw bytes for the consumer to parse (into its own reused
//! [`PathDoc`](crate::PathDoc)) or match.
//!
//! A malformed document does **not** terminate the stream: the error is
//! reported with its stream-absolute byte offset and the scanner resyncs
//! to the next top-level document. Stray top-level end tags and documents
//! that exceed [`ParserLimits::max_document_bytes`] are reported once per
//! garbage run and skipped. After [`MAX_CONSECUTIVE_FAILURES`] failures
//! in a row the stream fuses: its input is nothing but garbage.

use crate::limits::ParserLimits;
use crate::reader::{XmlError, XmlErrorKind};
use std::io::{BufRead, Read};

/// Consecutive failures after which a [`DocumentStream`] yields one
/// [`XmlErrorKind::TooManyFailures`] error and ends; also the run of
/// unparseable `DOC` frames that closes a broker connection.
pub const MAX_CONSECUTIVE_FAILURES: usize = 64;

/// Splitter over the documents in a byte stream.
///
/// ```
/// use pxf_xml::DocumentStream;
/// let mut stream = DocumentStream::new(&b"<a><b/></a>\n<c/> <d>x</d>"[..]);
/// let mut docs = Vec::new();
/// while let Some(bytes) = stream.next_raw() {
///     docs.push(bytes.unwrap());
/// }
/// assert_eq!(docs.len(), 3);
/// assert_eq!(docs[0], b"<a><b/></a>");
/// ```
///
/// The splitter cuts at tag-depth 0 and does not parse: a document that is
/// balanced but malformed comes out as bytes, its consumer's parse fails,
/// and the consumer reports the outcome back so the failure cap stays
/// *consecutive*. Boundary-level garbage yields an `Err` item (which the
/// stream counts itself) and the stream resyncs past it:
///
/// ```
/// use pxf_xml::{DocumentStream, ParserLimits, PathDoc};
/// let mut stream = DocumentStream::new(&b"<a></b> </stray> <ok/>"[..]);
/// let mut store = PathDoc::default();
/// let mut roots = Vec::new();
/// while let Some(item) = stream.next_raw() {
///     let Ok(bytes) = item else { continue };
///     match store.parse_into(&bytes, ParserLimits::default()) {
///         Ok(()) => {
///             stream.note_success();
///             roots.push(store.tag(0).to_string());
///         }
///         Err(_) => stream.note_failure(),
///     }
/// }
/// assert_eq!(roots, ["ok"]);
/// assert_eq!(stream.recovered(), 2);
/// ```
pub struct DocumentStream<R: Read> {
    input: R,
    buffer: Vec<u8>,
    /// Bytes of `buffer` already scanned by the boundary scanner.
    scanned: usize,
    scanner: Scanner,
    done: bool,
    limits: ParserLimits,
    consecutive_failures: usize,
    /// Failure cap hit: yield one final error, then fuse.
    exhausted: bool,
    /// Stream-absolute offset of `buffer[0]` (bytes consumed so far).
    base: usize,
    /// No more input will arrive: the reader hit EOF, or a push-mode
    /// caller declared the stream complete via [`Self::finish`].
    input_eof: bool,
    /// True while skipping the tail of a desynced or oversized document;
    /// suppresses repeated errors for one garbage run.
    in_garbage: bool,
    /// Malformed documents and garbage runs resynced past so far.
    recovered: usize,
    /// Scan byte by byte ([`Self::scan_bytewise`]): the reference the
    /// skipping scan is checked against.
    #[cfg(test)]
    bytewise: bool,
}

/// Boundary scanner state.
#[derive(Debug, Default)]
struct Scanner {
    depth: i64,
    /// Have we seen the first start tag of the current document?
    started: bool,
    /// An end tag took `depth` negative: the stream is desynced and the
    /// current tag (once it closes) must be reported, not yielded.
    stray: bool,
    mode: Mode,
}

impl Scanner {
    /// Advances over byte `b`, the buffer's byte before offset `end`, where
    /// a hit ends. Inlined: a call per stop byte costs the skipping scan
    /// about a third of its time.
    #[inline(always)]
    fn step(&mut self, b: u8, end: usize) -> Option<ScanHit> {
        match self.mode {
            Mode::Text => {
                if b == b'<' {
                    self.mode = Mode::Open;
                }
            }
            Mode::Open => match b {
                b'!' => self.mode = Mode::Bang(0),
                b'?' => self.mode = Mode::Pi(false),
                b'/' => {
                    // End tag.
                    self.depth -= 1;
                    if self.depth < 0 {
                        // More closes than opens: desynced. Swallow
                        // this tag and report the desync point.
                        self.depth = 0;
                        self.stray = true;
                    }
                    self.mode = Mode::Tag(None);
                }
                _ => {
                    self.depth += 1;
                    self.started = true;
                    self.mode = Mode::Tag(None);
                }
            },
            Mode::Bang(n) => match (n, b) {
                (0, b'-') => self.mode = Mode::Bang(1),
                (1, b'-') => self.mode = Mode::Comment(0),
                (0, b'[') => self.mode = Mode::Bang(2),
                (2, _) => {
                    // inside "<![CDATA[" prefix; count to the second '['
                    if b == b'[' {
                        self.mode = Mode::Cdata(0);
                    }
                }
                (0, _) => self.mode = Mode::Doctype(0),
                _ => self.mode = Mode::Doctype(0),
            },
            Mode::Comment(dashes) => {
                self.mode = match (dashes, b) {
                    (2, b'>') => Mode::Text,
                    (_, b'-') => Mode::Comment((dashes + 1).min(2)),
                    _ => Mode::Comment(0),
                }
            }
            Mode::Cdata(brackets) => {
                self.mode = match (brackets, b) {
                    (2, b'>') => Mode::Text,
                    (_, b']') => Mode::Cdata((brackets + 1).min(2)),
                    _ => Mode::Cdata(0),
                }
            }
            Mode::Doctype(depth) => {
                self.mode = match b {
                    b'[' => Mode::Doctype(depth + 1),
                    b']' => Mode::Doctype(depth.saturating_sub(1)),
                    b'>' if depth == 0 => Mode::Text,
                    _ => Mode::Doctype(depth),
                }
            }
            Mode::Pi(saw_q) => {
                self.mode = match (saw_q, b) {
                    (true, b'>') => Mode::Text,
                    (_, b'?') => Mode::Pi(true),
                    _ => Mode::Pi(false),
                }
            }
            Mode::Tag(Some(q)) => {
                if b == q {
                    self.mode = Mode::Tag(None);
                }
            }
            Mode::Tag(None) => match b {
                b'"' | b'\'' => self.mode = Mode::Tag(Some(b)),
                b'/' => self.mode = Mode::TagSlash,
                b'>' => {
                    self.mode = Mode::Text;
                    if self.stray {
                        self.stray = false;
                        return Some(ScanHit::Stray(end));
                    }
                    if self.started && self.depth == 0 {
                        return Some(ScanHit::Doc(end));
                    }
                }
                _ => {}
            },
            Mode::TagSlash => match b {
                b'>' => {
                    // Self-closing tag: undo the depth increment.
                    self.depth -= 1;
                    self.mode = Mode::Text;
                    if self.stray {
                        self.stray = false;
                        return Some(ScanHit::Stray(end));
                    }
                    if self.started && self.depth == 0 {
                        return Some(ScanHit::Doc(end));
                    }
                }
                b'"' | b'\'' => self.mode = Mode::Tag(Some(b)),
                b'/' => {}
                _ => self.mode = Mode::Tag(None),
            },
        }
        None
    }
}

/// What the boundary scanner found.
enum ScanHit {
    /// Offset one past the end of a complete document.
    Doc(usize),
    /// Offset one past a stray top-level end tag (desync point).
    Stray(usize),
}

/// Outcome of polling the bytes buffered so far ([`DocumentStream::poll_raw_at`]).
///
/// This is the push-mode counterpart of [`DocumentStream::next_raw_at`]:
/// the caller [`feed`](DocumentStream::feed)s whatever bytes it has and
/// then polls until `NeedInput`, without ever blocking on a reader.
#[derive(Debug)]
pub enum PollDoc {
    /// A complete document: its stream-absolute start offset plus its raw
    /// bytes (leading inter-document whitespace included).
    Doc(usize, Vec<u8>),
    /// A boundary-level failure: desync, an oversized garbage run, a
    /// truncated trailer after [`DocumentStream::finish`], or the
    /// consecutive-failure cap fusing the stream. Unless the stream is
    /// now over, polling continues past it.
    Fail(XmlError),
    /// No complete document in the buffered bytes: feed more input (or
    /// call [`DocumentStream::finish`] if there is none).
    NeedInput,
    /// The stream is over: finished and fully drained, or fused by the
    /// failure cap. All further polls return `End`.
    End,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Mode {
    #[default]
    Text,
    /// Inside a tag (`<...>`), with the current quote byte if any.
    Tag(Option<u8>),
    Comment(u8), // number of consecutive '-' seen (0..=2)
    Cdata(u8),   // number of consecutive ']' seen (0..=2)
    /// `<!DOCTYPE …>` with bracket nesting depth.
    Doctype(u8),
    Pi(bool), // saw '?'
    /// Just saw `<` — classifying the construct.
    Open,
    /// Saw `<!` — could be comment, CDATA, or DOCTYPE.
    Bang(u8),
    /// Inside a tag, previous byte was `/` (possible self-close).
    TagSlash,
}

impl<R: Read> DocumentStream<R> {
    /// Creates a stream over a reader with default [`ParserLimits`].
    pub fn new(input: R) -> Self {
        DocumentStream::with_limits(input, ParserLimits::default())
    }

    /// Creates a stream enforcing the given per-document resource budget.
    pub fn with_limits(input: R, limits: ParserLimits) -> Self {
        DocumentStream {
            input,
            buffer: Vec::with_capacity(8 * 1024),
            scanned: 0,
            scanner: Scanner::default(),
            done: false,
            limits,
            consecutive_failures: 0,
            exhausted: false,
            base: 0,
            input_eof: false,
            in_garbage: false,
            recovered: 0,
            #[cfg(test)]
            bytewise: false,
        }
    }

    /// Number of malformed documents and garbage runs resynced past.
    pub fn recovered(&self) -> usize {
        self.recovered
    }

    /// Stream-absolute offset of the next unconsumed byte.
    pub fn stream_position(&self) -> usize {
        self.base
    }

    /// Records a successful document against the consecutive-failure cap.
    ///
    /// The stream hands out raw bytes ([`next_raw`](Self::next_raw),
    /// [`poll_raw_at`](Self::poll_raw_at)) and never learns on its own
    /// whether they parsed: the caller that parses or matches them calls
    /// this (and [`note_failure`](Self::note_failure)) so the cap stays
    /// *consecutive*; otherwise scanner-level failures count cumulatively
    /// over the stream's whole lifetime.
    pub fn note_success(&mut self) {
        self.consecutive_failures = 0;
    }

    /// Records a document-level failure (parse or downstream) against the
    /// consecutive-failure cap.
    pub fn note_failure(&mut self) {
        self.consecutive_failures += 1;
        self.recovered += 1;
        if self.consecutive_failures >= MAX_CONSECUTIVE_FAILURES {
            self.exhausted = true;
        }
    }

    /// Scans newly buffered bytes; returns the byte offset one past the end
    /// of a complete document or stray end tag, if one is now present.
    /// A run of bytes none of which can change the scanner's mode is
    /// skipped whole: text up to the next `<`, a tag up to its next quote,
    /// `/` or `>`, a quoted value up to its closing quote.
    fn scan(&mut self) -> Option<ScanHit> {
        #[cfg(test)]
        if self.bytewise {
            return self.scan_bytewise();
        }
        let s = &mut self.scanner;
        while self.scanned < self.buffer.len() {
            let rest = &self.buffer[self.scanned..];
            let run = match s.mode {
                Mode::Text => rest.iter().position(|&b| b == b'<'),
                Mode::Tag(None) => rest
                    .iter()
                    .position(|&b| matches!(b, b'"' | b'\'' | b'/' | b'>')),
                Mode::Tag(Some(q)) => rest.iter().position(|&b| b == q),
                _ => Some(0),
            };
            let Some(run) = run else {
                self.scanned = self.buffer.len();
                break;
            };
            self.scanned += run + 1;
            if let Some(hit) = s.step(rest[run], self.scanned) {
                return Some(hit);
            }
        }
        None
    }

    /// The byte-at-a-time scan [`Self::scan`] must agree with.
    #[cfg(test)]
    fn scan_bytewise(&mut self) -> Option<ScanHit> {
        while self.scanned < self.buffer.len() {
            let b = self.buffer[self.scanned];
            self.scanned += 1;
            if let Some(hit) = self.scanner.step(b, self.scanned) {
                return Some(hit);
            }
        }
        None
    }

    /// Drains `n` scanned bytes and resets the boundary scanner.
    fn consume(&mut self, n: usize) -> Vec<u8> {
        let bytes = self.buffer[..n].to_vec();
        self.buffer.drain(..n);
        self.base += n;
        self.scanned = 0;
        self.scanner = Scanner::default();
        bytes
    }

    /// Appends bytes to the scan buffer (push-mode ingest). The bytes need
    /// not align with document boundaries — a document may span any number
    /// of `feed` calls, and one call may carry several documents.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Declares the end of input for push-mode use: after this, a buffered
    /// partial document is reported as [`XmlErrorKind::StreamTruncated`]
    /// and polling reaches [`PollDoc::End`].
    pub fn finish(&mut self) {
        self.input_eof = true;
    }

    /// Push-mode boundary check: discards any bytes buffered past the last
    /// complete document and resets the boundary scanner, so the next
    /// [`Self::feed`] starts at a document boundary — for a caller whose
    /// input must end on one. Returns `Some(dropped)` when the discard
    /// swallowed a real partial document — counted against the
    /// consecutive-failure cap — and `None` when the buffer was empty,
    /// whitespace padding, or the tail of an already-reported garbage run.
    pub fn discard_partial(&mut self) -> Option<usize> {
        let len = self.buffer.len();
        if len == 0 {
            return None;
        }
        let real = !self.in_garbage && self.buffer.iter().any(|b| !b.is_ascii_whitespace());
        self.consume(len);
        self.in_garbage = false;
        if real {
            self.note_failure();
            Some(len)
        } else {
            None
        }
    }

    /// Polls the bytes buffered so far for the next complete document,
    /// without reading from the underlying input. Push-mode callers
    /// alternate [`Self::feed`] and `poll_raw_at` (polling until
    /// [`PollDoc::NeedInput`] after each feed); the blocking
    /// [`Self::next_raw_at`] is this poll plus a read on `NeedInput`.
    ///
    /// Raw-path consumers remain responsible for the failure-cap contract:
    /// call [`Self::note_success`] / [`Self::note_failure`] per delivered
    /// document, exactly as with [`Self::next_raw`].
    pub fn poll_raw_at(&mut self) -> PollDoc {
        if self.done {
            return PollDoc::End;
        }
        if self.exhausted {
            self.done = true;
            return PollDoc::Fail(XmlError::new(
                self.base,
                XmlErrorKind::TooManyFailures(MAX_CONSECUTIVE_FAILURES),
            ));
        }
        loop {
            match self.scan() {
                Some(ScanHit::Doc(end)) => {
                    let start = self.base;
                    let bytes = self.consume(end);
                    self.in_garbage = false;
                    return PollDoc::Doc(start, bytes);
                }
                Some(ScanHit::Stray(end)) => {
                    let pos = self.base;
                    self.consume(end);
                    if self.in_garbage {
                        // Tail of an already-reported bad run: skip quietly.
                        continue;
                    }
                    self.in_garbage = true;
                    self.note_failure();
                    return PollDoc::Fail(XmlError::new(pos, XmlErrorKind::StreamDesync));
                }
                None => {}
            }
            // No boundary in the buffered bytes yet. A well-formed document
            // must fit the byte budget — otherwise drop the run and resync.
            if self.buffer.len() > self.limits.max_document_bytes {
                let pos = self.base;
                let len = self.buffer.len();
                self.consume(len);
                let already = self.in_garbage;
                self.in_garbage = true;
                if already {
                    continue;
                }
                self.note_failure();
                return PollDoc::Fail(XmlError::new(
                    pos,
                    XmlErrorKind::DocumentTooLarge(self.limits.max_document_bytes),
                ));
            }
            if self.input_eof {
                self.done = true;
                // Trailing garbage or an incomplete document?
                if !self.in_garbage && self.buffer.iter().any(|b| !b.is_ascii_whitespace()) {
                    return PollDoc::Fail(XmlError::new(
                        self.base + self.buffer.len(),
                        XmlErrorKind::StreamTruncated,
                    ));
                }
                return PollDoc::End;
            }
            return PollDoc::NeedInput;
        }
    }
}

impl DocumentStream<std::io::Empty> {
    /// Creates a push-mode stream with no underlying reader: all input
    /// arrives through [`Self::feed`] and documents come out of
    /// [`Self::poll_raw_at`]. Its one caller is the benchmark's `xml.scan`
    /// layer, which times the boundary scan alone; concatenated input is
    /// read through [`Self::new`], and a length-framed document needs no scan.
    pub fn push_mode(limits: ParserLimits) -> Self {
        DocumentStream::with_limits(std::io::empty(), limits)
    }
}

impl<R: BufRead> DocumentStream<R> {
    /// Yields the raw bytes of the next complete document on the stream
    /// without parsing them — the boundary scanner alone decides where one
    /// document ends. This is the ingest hook: feed the returned bytes
    /// straight to a matcher (e.g. `Matcher::match_bytes`), which parses
    /// them into its own reused store.
    pub fn next_raw(&mut self) -> Option<Result<Vec<u8>, XmlError>> {
        self.next_raw_at().map(|r| r.map(|(_, bytes)| bytes))
    }

    /// Like [`next_raw`](Self::next_raw), but also returns the
    /// stream-absolute byte offset at which the document starts, so
    /// per-document parse errors can be reported relative to the whole
    /// stream.
    pub fn next_raw_at(&mut self) -> Option<Result<(usize, Vec<u8>), XmlError>> {
        loop {
            match self.poll_raw_at() {
                PollDoc::Doc(start, bytes) => return Some(Ok((start, bytes))),
                PollDoc::Fail(e) => return Some(Err(e)),
                PollDoc::End => return None,
                PollDoc::NeedInput => {
                    let mut chunk = [0u8; 4096];
                    match self.input.read(&mut chunk) {
                        Ok(0) => self.input_eof = true,
                        Ok(n) => self.buffer.extend_from_slice(&chunk[..n]),
                        Err(e) => {
                            self.done = true;
                            return Some(Err(XmlError::new(
                                self.base,
                                XmlErrorKind::Io(e.to_string()),
                            )));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PathDoc;
    use pxf_rng::Rng;
    use pxf_workload::{Regime, XmlGenerator};

    /// The consumer side of the raw-ingest contract: the next document's
    /// bytes parsed into a fresh store, the outcome noted against the
    /// failure cap, and a parse error made stream-absolute.
    fn next_doc<R: BufRead>(stream: &mut DocumentStream<R>) -> Option<Result<PathDoc, XmlError>> {
        let limits = stream.limits;
        Some(stream.next_raw_at()?.and_then(|(start, bytes)| {
            match PathDoc::parse_with_limits(&bytes, limits) {
                Ok(doc) => {
                    stream.note_success();
                    Ok(doc)
                }
                Err(mut e) => {
                    stream.note_failure();
                    e.pos += start;
                    Err(e)
                }
            }
        }))
    }

    fn items<R: BufRead>(mut stream: DocumentStream<R>) -> Vec<Result<PathDoc, XmlError>> {
        std::iter::from_fn(|| next_doc(&mut stream)).collect()
    }

    fn collect(input: &str) -> Result<Vec<PathDoc>, XmlError> {
        items(DocumentStream::new(input.as_bytes()))
            .into_iter()
            .collect()
    }

    #[test]
    fn multiple_documents() {
        let docs = collect("<a><b/></a><c/>\n  <d>text</d>").unwrap();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[0].len(), 2);
        assert_eq!(docs[1].tag(0), "c");
        assert_eq!(docs[2].text(0), "text");
    }

    #[test]
    fn single_document() {
        let docs = collect("<root><x/></root>").unwrap();
        assert_eq!(docs.len(), 1);
    }

    #[test]
    fn empty_stream() {
        assert!(collect("").unwrap().is_empty());
        assert!(collect("   \n  ").unwrap().is_empty());
    }

    #[test]
    fn prolog_and_comments_between_documents() {
        let input = r#"<?xml version="1.0"?><a/><!-- separator --><b/>"#;
        let docs = collect(input).unwrap();
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn tricky_content_does_not_confuse_boundaries() {
        // '>' inside attribute values, CDATA with tags, comments with tags.
        let input = r#"<a x="1>2"><!-- <fake> --><![CDATA[</a>]]></a><b/>"#;
        let docs = collect(input).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].value_of(0, "x"), Some("1>2"));
    }

    #[test]
    fn self_closing_roots() {
        let docs = collect("<a/><b/><c/>").unwrap();
        assert_eq!(docs.len(), 3);
    }

    #[test]
    fn doctype_with_internal_subset() {
        let input = "<!DOCTYPE a [<!ELEMENT a (b)> ]><a><b/></a><c/>";
        let docs = collect(input).unwrap();
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn incomplete_document_is_an_error() {
        let result = collect("<a><b/>");
        let err = result.unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::StreamTruncated);
    }

    #[test]
    fn malformed_document_reports_parse_error() {
        let mut stream = DocumentStream::new(&b"<a></b> <ok/>"[..]);
        // Boundary scanner pairs <a> with </b> (depth math), the parser
        // then rejects the mismatch.
        let first = next_doc(&mut stream).unwrap();
        assert!(first.is_err());
    }

    #[test]
    fn stream_resyncs_past_malformed_documents() {
        let input = "<a></b> <ok/> <broken x=></broken> <fine><y/></fine>";
        let items = items(DocumentStream::new(input.as_bytes()));
        assert_eq!(items.len(), 4);
        assert!(items[0].is_err());
        assert_eq!(items[1].as_ref().unwrap().tag(0), "ok");
        assert!(items[2].is_err());
        assert_eq!(items[3].as_ref().unwrap().tag(0), "fine");
    }

    #[test]
    fn stray_end_tags_are_reported_once_and_skipped() {
        let input = "<a/> </x></y></z> <b/>";
        let mut stream = DocumentStream::new(input.as_bytes());
        assert_eq!(next_doc(&mut stream).unwrap().unwrap().tag(0), "a");
        // One desync error for the whole </x></y></z> run.
        let err = next_doc(&mut stream).unwrap().unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::StreamDesync);
        assert_eq!(next_doc(&mut stream).unwrap().unwrap().tag(0), "b");
        assert!(next_doc(&mut stream).is_none());
        assert_eq!(stream.recovered(), 1);
    }

    #[test]
    fn parse_errors_carry_stream_absolute_offsets() {
        // The second document is malformed; its error position must point
        // into the stream, past the first document, not into a private
        // per-document buffer.
        let input = "<first/><second></first></second>";
        let mut stream = DocumentStream::new(input.as_bytes());
        assert!(next_doc(&mut stream).unwrap().is_ok());
        let err = next_doc(&mut stream).unwrap().unwrap_err();
        let expected_at = input.find("</first>").unwrap() + "</first".len();
        assert!(
            err.pos > "<first/>".len(),
            "offset {} not stream-absolute",
            err.pos
        );
        assert_eq!(err.pos, expected_at + 1);
    }

    #[test]
    fn entity_errors_carry_stream_absolute_offsets() {
        // The error names the `&` of the second reference of the run, in
        // the stream: past the first document, the separating blank and
        // the reference that decoded.
        let input = "<first/> <a>&amp;&bogus;</a><last/>";
        let mut stream = DocumentStream::new(input.as_bytes());
        assert!(next_doc(&mut stream).unwrap().is_ok());
        assert_eq!(
            next_doc(&mut stream).unwrap().unwrap_err(),
            XmlError::new(
                input.find("&bogus;").unwrap(),
                XmlErrorKind::UnknownEntity("bogus".into())
            )
        );
        assert_eq!(next_doc(&mut stream).unwrap().unwrap().tag(0), "last");
    }

    #[test]
    fn oversized_document_is_dropped_and_stream_recovers() {
        let limits = ParserLimits {
            max_document_bytes: 64,
            ..ParserLimits::default()
        };
        let mut input = String::from("<a>");
        for _ in 0..50 {
            input.push_str("<x>");
        }
        input.push_str("<b/> <after/>");
        let items = items(DocumentStream::with_limits(input.as_bytes(), limits));
        // One DocumentTooLarge error for the bomb, then the stream either
        // resyncs (if a clean boundary follows) or ends quietly.
        assert!(items
            .iter()
            .any(|r| matches!(r, Err(e) if e.kind == XmlErrorKind::DocumentTooLarge(64))));
        assert!(items
            .iter()
            .all(|r| r.is_err() || !r.as_ref().unwrap().is_empty()));
    }

    #[test]
    fn consecutive_failure_cap_fuses_the_stream() {
        // Ten malformed documents past the cap: one per-document error
        // each up to it, one TooManyFailures, then the stream ends.
        const CAP: usize = MAX_CONSECUTIVE_FAILURES;
        let input = "<a x=></a>".repeat(CAP + 10);
        let items = items(DocumentStream::new(input.as_bytes()));
        assert_eq!(items.len(), CAP + 1);
        assert!(items[..CAP].iter().all(|r| r.is_err()));
        assert_eq!(
            items[CAP].as_ref().unwrap_err().kind,
            XmlErrorKind::TooManyFailures(CAP)
        );
    }

    #[test]
    fn successes_reset_the_failure_cap() {
        // Runs of one failure short of the cap, each ended by a success:
        // three times the cap in failures, and the stream never fuses.
        const CAP: usize = MAX_CONSECUTIVE_FAILURES;
        let input = format!("{}<ok/>", "<a x=></a>".repeat(CAP - 1)).repeat(3);
        let items = items(DocumentStream::new(input.as_bytes()));
        assert_eq!(items.len(), 3 * CAP);
        assert_eq!(items.iter().filter(|r| r.is_ok()).count(), 3);
    }

    #[test]
    fn chunk_boundaries_do_not_matter() {
        // Feed one byte at a time through a BufRead with capacity 1.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        impl BufRead for OneByte<'_> {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                Ok(self.0)
            }
            fn consume(&mut self, _amt: usize) {}
        }
        let input = br#"<a x="<">1</a><b><c/></b>"#;
        let docs = items(DocumentStream::new(OneByte(input)));
        assert_eq!(docs.len(), 2);
        assert!(docs.iter().all(|d| d.is_ok()));
    }

    /// The raw-ingest failure-cap contract (the PR-8 ingest bugfix): a
    /// long-lived raw-path consumer that reports per-document outcomes via
    /// `note_success`/`note_failure` keeps the cap *consecutive* — sparse
    /// garbage interleaved with good documents never fuses the stream, and
    /// `recovered()` counts exactly the failed documents and garbage runs.
    #[test]
    fn raw_ingest_contract_keeps_failure_cap_consecutive() {
        // 150 units, each: a parse-level bad document (clean boundary, bad
        // attribute syntax), a good document, and a scanner-level stray
        // end tag. Far more total failures than the cap of 64.
        let input = "<bad x=></bad><good/></zz> ".repeat(150);
        let mut stream = DocumentStream::new(input.as_bytes());
        let (mut good, mut parse_failures, mut desyncs) = (0usize, 0usize, 0usize);
        let mut fused = false;
        while let Some(item) = stream.next_raw() {
            match item {
                Ok(bytes) => match PathDoc::parse(&bytes) {
                    Ok(_) => {
                        stream.note_success();
                        good += 1;
                    }
                    Err(_) => {
                        stream.note_failure();
                        parse_failures += 1;
                    }
                },
                Err(e) => {
                    fused |= matches!(e.kind, XmlErrorKind::TooManyFailures(_));
                    desyncs += 1;
                }
            }
        }
        assert!(!fused, "interleaved successes must keep the stream unfused");
        assert_eq!(good, 150);
        assert_eq!(parse_failures, 150);
        assert_eq!(desyncs, 150);
        // Exact accounting: every bad document and every garbage run.
        assert_eq!(stream.recovered(), 300);
    }

    /// Pins what a raw-path consumer that never calls `note_success` gets:
    /// scanner-level failures accumulate over the stream's lifetime, so
    /// sparse garbage spuriously fuses a long-lived stream despite plenty
    /// of good documents.
    #[test]
    fn raw_ingest_without_success_notes_fuses_spuriously() {
        let input = "</zz> <good/> ".repeat(100);
        let mut stream = DocumentStream::new(input.as_bytes());
        let mut good = 0usize;
        let mut fused = false;
        while let Some(item) = stream.next_raw() {
            match item {
                Ok(_) => good += 1, // contract violation: no note_success
                Err(e) => fused |= matches!(e.kind, XmlErrorKind::TooManyFailures(_)),
            }
        }
        assert!(fused, "cumulative counting hits the cap of 64");
        assert!(good < 100, "the fuse cut the stream short");
    }

    #[test]
    fn push_mode_feed_and_poll_across_chunk_boundaries() {
        let input = b"<a x=\"1>2\"><b/></a> <c/><d>t</d>";
        let mut stream = DocumentStream::push_mode(ParserLimits::default());
        let mut docs: Vec<Vec<u8>> = Vec::new();
        // Feed in 5-byte chunks; poll to quiescence after every feed.
        for chunk in input.chunks(5) {
            stream.feed(chunk);
            loop {
                match stream.poll_raw_at() {
                    PollDoc::Doc(_, bytes) => docs.push(bytes),
                    PollDoc::NeedInput => break,
                    other => panic!("unexpected poll outcome: {other:?}"),
                }
            }
        }
        stream.finish();
        loop {
            match stream.poll_raw_at() {
                PollDoc::Doc(_, bytes) => docs.push(bytes),
                PollDoc::End => break,
                other => panic!("unexpected poll outcome: {other:?}"),
            }
        }
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[0], b"<a x=\"1>2\"><b/></a>");
        assert_eq!(docs[2], b"<d>t</d>");
    }

    #[test]
    fn discard_partial_resyncs_to_a_document_boundary() {
        let mut stream = DocumentStream::push_mode(ParserLimits::default());
        stream.feed(b"<a><b"); // frame ends inside a document
        assert!(matches!(stream.poll_raw_at(), PollDoc::NeedInput));
        assert_eq!(stream.discard_partial(), Some(5));
        assert_eq!(stream.recovered(), 1);
        // The next feed starts clean — the leftover "<a><b" must not
        // concatenate with it.
        stream.feed(b"<c/>");
        match stream.poll_raw_at() {
            PollDoc::Doc(_, bytes) => assert_eq!(bytes, b"<c/>"),
            other => panic!("expected a document, got {other:?}"),
        }
        // Empty and whitespace-only buffers discard quietly.
        assert_eq!(stream.discard_partial(), None);
        stream.feed(b"  \n");
        assert_eq!(stream.discard_partial(), None);
        assert_eq!(stream.recovered(), 1);
    }

    #[test]
    fn push_mode_reports_truncation_then_ends() {
        let mut stream = DocumentStream::push_mode(ParserLimits::default());
        stream.feed(b"<a/> <unfinished><x/>");
        assert!(matches!(stream.poll_raw_at(), PollDoc::Doc(0, _)));
        assert!(matches!(stream.poll_raw_at(), PollDoc::NeedInput));
        stream.finish();
        match stream.poll_raw_at() {
            PollDoc::Fail(e) => assert_eq!(e.kind, XmlErrorKind::StreamTruncated),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert!(matches!(stream.poll_raw_at(), PollDoc::End));
        assert!(matches!(stream.poll_raw_at(), PollDoc::End));
    }

    #[test]
    fn next_raw_at_reports_document_offsets() {
        let mut stream = DocumentStream::new(&b"<a/> <b/>"[..]);
        let (at_a, bytes_a) = stream.next_raw_at().unwrap().unwrap();
        assert_eq!(at_a, 0);
        assert_eq!(bytes_a, b"<a/>");
        // The second chunk starts right after the first document's last
        // byte; the separating whitespace belongs to it.
        let (at_b, bytes_b) = stream.next_raw_at().unwrap().unwrap();
        assert_eq!(at_b, 4);
        assert_eq!(bytes_b, b" <b/>");
        assert!(stream.next_raw_at().is_none());
    }

    /// What a push-mode consumer saw, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Doc(usize, Vec<u8>),
        Fail(XmlError),
        Discarded(Option<usize>),
        End,
    }

    /// Polls to quiescence; the consumer accepts each document with
    /// probability `accept`.
    fn poll_all(
        stream: &mut DocumentStream<std::io::Empty>,
        rng: &mut Rng,
        accept: f64,
        seen: &mut Vec<Seen>,
    ) {
        loop {
            match stream.poll_raw_at() {
                PollDoc::Doc(at, bytes) => {
                    // The consumer's verdicts, drawn alike for both scans.
                    if rng.gen_bool(accept) {
                        stream.note_success();
                    } else {
                        stream.note_failure();
                    }
                    seen.push(Seen::Doc(at, bytes));
                }
                PollDoc::Fail(e) => seen.push(Seen::Fail(e)),
                PollDoc::NeedInput => return,
                PollDoc::End => return seen.push(Seen::End),
            }
        }
    }

    /// Feeds `input` at seeded chunk splits, polling to quiescence after
    /// each and now and then discarding a partial document,
    /// then finishes: everything the consumer saw, with the stream's final
    /// `recovered()` and `stream_position()`.
    fn drive(
        input: &[u8],
        limits: ParserLimits,
        accept: f64,
        seed: u64,
        bytewise: bool,
    ) -> (Vec<Seen>, usize, usize) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut stream = DocumentStream::push_mode(limits);
        stream.bytewise = bytewise;
        let mut seen = Vec::new();
        let scale = *rng.choose(&[1, 16, 512, 8192]);
        let mut at = 0;
        while at < input.len() {
            let end = (at + 1 + rng.gen_index(scale)).min(input.len());
            stream.feed(&input[at..end]);
            at = end;
            poll_all(&mut stream, &mut rng, accept, &mut seen);
            if rng.gen_bool(0.02) {
                seen.push(Seen::Discarded(stream.discard_partial()));
                poll_all(&mut stream, &mut rng, accept, &mut seen);
            }
        }
        stream.finish();
        poll_all(&mut stream, &mut rng, accept, &mut seen);
        (seen, stream.recovered(), stream.stream_position())
    }

    /// Generated documents with the constructs that hide `<` or `>` from
    /// a splitter inside and between them, stray end tags, loose markup
    /// bytes, and sometimes a truncated trailer.
    fn arb_stream(rng: &mut Rng, docs: &[String]) -> Vec<u8> {
        const HIDING: &[&str] = &[
            "<!-- a -- b -> c <x> -- -->",
            "<![CDATA[ ]] <y> ]>] ]]] ]]>",
            "<?pi a ? b > c ?? >?>",
            "<!DOCTYPE a [<!ELEMENT a (b)> <!ENTITY e \"[>]\"> [ [ ] ] ]>",
            "<q x=\"1>2/3'4\" y='5>\"/6'/>",
            "<q x='/>'>t</q>",
        ];
        const LOOSE: &[&str] = &[
            "</stray>", "</a></b>", "<", ">", "\"", "'", "/", "<!", "<!-", "<![", "<?", "]]>",
            "-->",
        ];
        let mut out = Vec::new();
        for _ in 0..rng.gen_range(1..24usize) {
            match rng.gen_index(10) {
                0..=5 => {
                    let mut doc = rng.choose(docs).clone().into_bytes();
                    for _ in 0..rng.gen_index(4) {
                        let ends: Vec<usize> = (0..doc.len()).filter(|&i| doc[i] == b'>').collect();
                        let at = ends[rng.gen_index(ends.len())] + 1;
                        doc.splice(at..at, rng.choose(HIDING).bytes());
                    }
                    out.extend(doc);
                }
                6 | 7 => out.extend(rng.choose(HIDING).bytes()),
                8 => out.extend(rng.choose(LOOSE).bytes()),
                _ => out.extend(&b" \n\t"[..rng.gen_index(4)]),
            }
        }
        for _ in 0..rng.gen_index(3) {
            let at = rng.gen_index(out.len() + 1);
            out.insert(at, *rng.choose(b"<>/\"'-]?![ "));
        }
        if rng.gen_bool(0.3) {
            let doc = rng.choose(docs).as_bytes();
            out.extend(&doc[..rng.gen_index(doc.len())]);
        }
        out
    }

    /// The skipping scan against today's byte-at-a-time one on seeded
    /// streams of generated NITF and PSD documents, hidden markup and
    /// damage, on markup-heavy byte soup, and on runs of more documents
    /// than the failure cap that the consumer all rejects: the same
    /// documents at the same offsets, the same errors, the same final
    /// state.
    #[test]
    fn skipping_scan_agrees_with_the_bytewise_reference() {
        let docs: Vec<String> = [Regime::nitf(), Regime::psd()]
            .iter()
            .flat_map(|r| XmlGenerator::new(&r.dtd, r.xml.clone()).generate_batch(32))
            .map(|doc| doc.to_xml())
            .collect();
        let mut rng = Rng::seed_from_u64(0x5ca9);
        let mut kinds = std::collections::HashSet::new();
        let mut found = 0;
        for case in 0..240 {
            let (input, accept): (Vec<u8>, f64) = match case % 6 {
                5 => (
                    (0..rng.gen_index(4096))
                        .map(|_| *rng.choose(b"<>/=\"'&;![]-?ab c\t\n"))
                        .collect(),
                    0.8,
                ),
                4 => {
                    let n = MAX_CONSECUTIVE_FAILURES + rng.gen_index(16);
                    let run = (0..n).flat_map(|_| rng.choose(&docs).clone().into_bytes());
                    (run.collect(), 0.0)
                }
                _ => (arb_stream(&mut rng, &docs), 0.8),
            };
            let limits = ParserLimits {
                max_document_bytes: *rng.choose(&[usize::MAX, 4096, 300]),
                ..ParserLimits::default()
            };
            let seed = rng.next_u64();
            let skipping = drive(&input, limits, accept, seed, false);
            let reference = drive(&input, limits, accept, seed, true);
            if skipping != reference {
                let at = skipping
                    .0
                    .iter()
                    .zip(&reference.0)
                    .position(|(a, b)| a != b);
                panic!("case {case}: first difference at outcome {at:?}");
            }
            for seen in &skipping.0 {
                match seen {
                    Seen::Doc(..) => found += 1,
                    Seen::Fail(e) => {
                        kinds.insert(std::mem::discriminant(&e.kind));
                    }
                    _ => {}
                }
            }
        }
        // The mix reached every boundary-level failure.
        let want = [
            XmlErrorKind::StreamDesync,
            XmlErrorKind::DocumentTooLarge(0),
            XmlErrorKind::StreamTruncated,
            XmlErrorKind::TooManyFailures(0),
        ];
        assert!(want
            .iter()
            .all(|k| kinds.contains(&std::mem::discriminant(k))));
        assert!(found > 1_000, "{found} documents");
    }
}
