//! The broker's framed line protocol.
//!
//! Everything on the wire is a UTF-8 line terminated by `\n`, except the
//! document payload of a `DOC` frame, which is a raw byte run of the
//! length announced on the command line. Keeping the framing this simple
//! means the broker can be driven by `nc` for debugging, and a client
//! needs no parser beyond `read_line` + `read_exact`.
//!
//! Client → server commands:
//!
//! ```text
//! SUB <xpath>            register a subscription; reply `+SUB <id>`
//! UNSUB <id>             drop a subscription;     reply `+UNSUB <id>`
//! DOC <len> <tag>\n<len raw bytes>
//!                        ingest one document;     reply `+DOC <seq> <tag>`,
//!                        then `-ERR DOC` if it does not parse
//! STATS                  broker counters;         reply `+STATS k=v ...`
//! QUIT                   close this connection;   reply `+BYE`
//! SHUTDOWN               stop the whole broker;   reply `+SHUTDOWN`
//! ```
//!
//! Server → client replies are `+`-prefixed on success, `-ERR <kind>
//! <detail>` on failure, plus one asynchronous message type:
//!
//! ```text
//! MATCH <seq> <tag> <n> <id> <id> ...
//! ```
//!
//! delivered to each subscriber owning at least one matching expression.
//! `seq` is the broker-global ingest sequence number; within one
//! connection `MATCH` sequence numbers are strictly ascending — document
//! delivery order equals ingest order (the FIFO guarantee this PR fixes
//! in the in-process example too). `tag` is the client-chosen opaque
//! token from the `DOC` line, echoed back so load generators can compute
//! per-document latency without a clock on the broker.

/// A parsed client command (the `DOC` payload itself is read separately
/// by the connection reader, after parsing the command line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `SUB <xpath>` — register `xpath` for this connection.
    Sub(String),
    /// `UNSUB <id>` — drop subscription `id` (must belong to this connection).
    Unsub(u32),
    /// `DOC <len> <tag>` — `len` raw payload bytes follow the newline.
    Doc {
        /// Payload length in bytes.
        len: usize,
        /// Opaque client token echoed in `+DOC` and `MATCH` lines.
        tag: String,
    },
    /// `STATS` — dump broker counters.
    Stats,
    /// `QUIT` — close this connection after a `+BYE`.
    Quit,
    /// `SHUTDOWN` — gracefully stop the broker (drains in-flight docs).
    Shutdown,
}

/// Why a command line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Stable machine-readable kind (first token after `-ERR`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl ProtocolError {
    fn new(kind: &'static str, detail: impl Into<String>) -> Self {
        ProtocolError {
            kind,
            detail: detail.into(),
        }
    }

    /// Renders the error as a `-ERR` wire line (no trailing newline).
    pub fn to_wire(&self) -> String {
        format!("-ERR {} {}", self.kind, self.detail)
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.detail, self.kind)
    }
}

impl std::error::Error for ProtocolError {}

impl Command {
    /// Parses one command line (without its trailing newline).
    pub fn parse(line: &str) -> Result<Command, ProtocolError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r),
            None => (line, ""),
        };
        match verb {
            "SUB" => {
                if rest.trim().is_empty() {
                    return Err(ProtocolError::new("SUB", "missing xpath expression"));
                }
                Ok(Command::Sub(rest.to_string()))
            }
            "UNSUB" => {
                let id = rest.trim().parse::<u32>().map_err(|_| {
                    ProtocolError::new("UNSUB", format!("bad subscription id {rest:?}"))
                })?;
                Ok(Command::Unsub(id))
            }
            "DOC" => {
                let (len_str, tag) = rest
                    .split_once(' ')
                    .ok_or_else(|| ProtocolError::new("DOC", "usage: DOC <len> <tag>"))?;
                let len = len_str
                    .parse::<usize>()
                    .map_err(|_| ProtocolError::new("DOC", format!("bad length {len_str:?}")))?;
                if tag.is_empty() || tag.contains(' ') {
                    return Err(ProtocolError::new(
                        "DOC",
                        "tag must be a single non-empty token",
                    ));
                }
                Ok(Command::Doc {
                    len,
                    tag: tag.to_string(),
                })
            }
            "STATS" => Ok(Command::Stats),
            "QUIT" => Ok(Command::Quit),
            "SHUTDOWN" => Ok(Command::Shutdown),
            other => Err(ProtocolError::new(
                "COMMAND",
                format!("unknown command {other:?}"),
            )),
        }
    }
}

/// A parsed server→client line, as seen by clients (the benchmark and
/// the e2e tests use this; the broker itself only encodes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+SUB <id>`
    SubOk(u32),
    /// `+UNSUB <id>`
    UnsubOk(u32),
    /// `+DOC <seq> <tag>` — the document was accepted into the ingest queue.
    DocOk {
        /// Broker-global ingest sequence number.
        seq: u64,
        /// The client's tag, echoed.
        tag: String,
    },
    /// `+STATS k=v ...`
    Stats(Vec<(String, String)>),
    /// `+BYE`
    Bye,
    /// `+SHUTDOWN`
    ShutdownOk,
    /// `-ERR <kind> <detail>`
    Err {
        /// Machine-readable error kind.
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// `MATCH <seq> <tag> <n> <id...>` — asynchronous match notification.
    Match {
        /// Broker-global ingest sequence number of the matching document.
        seq: u64,
        /// The publisher's tag for the document.
        tag: String,
        /// Matching subscription ids owned by this connection.
        ids: Vec<u32>,
    },
}

impl Reply {
    /// Parses one reply line (without its trailing newline).
    pub fn parse(line: &str) -> Result<Reply, ProtocolError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let bad = |detail: String| ProtocolError::new("REPLY", detail);
        let mut toks = line.split(' ');
        let head = toks.next().unwrap_or("");
        match head {
            "+SUB" => {
                let id = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(format!("malformed +SUB: {line:?}")))?;
                Ok(Reply::SubOk(id))
            }
            "+UNSUB" => {
                let id = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(format!("malformed +UNSUB: {line:?}")))?;
                Ok(Reply::UnsubOk(id))
            }
            "+DOC" => {
                let seq = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(format!("malformed +DOC: {line:?}")))?;
                let tag = toks
                    .next()
                    .ok_or_else(|| bad(format!("malformed +DOC: {line:?}")))?
                    .to_string();
                Ok(Reply::DocOk { seq, tag })
            }
            "+STATS" => {
                let mut kv = Vec::new();
                for tok in toks {
                    let (k, v) = tok
                        .split_once('=')
                        .ok_or_else(|| bad(format!("malformed +STATS token {tok:?}")))?;
                    kv.push((k.to_string(), v.to_string()));
                }
                Ok(Reply::Stats(kv))
            }
            "+BYE" => Ok(Reply::Bye),
            "+SHUTDOWN" => Ok(Reply::ShutdownOk),
            "-ERR" => {
                let kind = toks
                    .next()
                    .ok_or_else(|| bad(format!("malformed -ERR: {line:?}")))?
                    .to_string();
                let detail = toks.collect::<Vec<_>>().join(" ");
                Ok(Reply::Err { kind, detail })
            }
            "MATCH" => {
                let seq = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(format!("malformed MATCH: {line:?}")))?;
                let tag = toks
                    .next()
                    .ok_or_else(|| bad(format!("malformed MATCH: {line:?}")))?
                    .to_string();
                let n: usize = toks
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| bad(format!("malformed MATCH: {line:?}")))?;
                let ids = toks
                    .map(|t| t.parse::<u32>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| bad(format!("malformed MATCH ids: {line:?}")))?;
                if ids.len() != n {
                    return Err(bad(format!(
                        "MATCH announced {n} ids but carried {}",
                        ids.len()
                    )));
                }
                Ok(Reply::Match { seq, tag, ids })
            }
            _ => Err(bad(format!("unknown reply {line:?}"))),
        }
    }

    /// Renders the reply as a wire line (no trailing newline).
    pub fn to_wire(&self) -> String {
        match self {
            Reply::SubOk(id) => format!("+SUB {id}"),
            Reply::UnsubOk(id) => format!("+UNSUB {id}"),
            Reply::DocOk { seq, tag } => format!("+DOC {seq} {tag}"),
            Reply::Stats(kv) => {
                let mut s = String::from("+STATS");
                for (k, v) in kv {
                    s.push(' ');
                    s.push_str(k);
                    s.push('=');
                    s.push_str(v);
                }
                s
            }
            Reply::Bye => "+BYE".to_string(),
            Reply::ShutdownOk => "+SHUTDOWN".to_string(),
            Reply::Err { kind, detail } => format!("-ERR {kind} {detail}"),
            Reply::Match { seq, tag, ids } => {
                let mut wire = None;
                render_match_lines(
                    *seq,
                    tag,
                    ids.iter().copied(),
                    |_| Some(0),
                    |_, line| wire = Some(line),
                );
                // No ids: the line is its header alone.
                wire.unwrap_or_else(|| {
                    let head = header_room(*seq, tag, 0);
                    MatchLine::new(0, head, head, head).finish(head, *seq, tag)
                })
            }
        }
    }
}

/// `DIGITS[n]` is `n`'s four decimal digits, zero-padded, as the bytes of a
/// little-endian `u32`: an id's last eight digits are two lookups.
static DIGITS: [u32; 10_000] = {
    let mut table = [0u32; 10_000];
    let mut n = 0;
    while n < 10_000 {
        let d = [n / 1000, n / 100 % 10, n / 10 % 10, n % 10];
        table[n] = u32::from_le_bytes([
            b'0' + d[0] as u8,
            b'0' + d[1] as u8,
            b'0' + d[2] as u8,
            b'0' + d[3] as u8,
        ]);
        n += 1;
    }
    table
};

/// Ids of up to this many digits are written by one 8-byte store: the
/// separating space and the digits.
const PACKED_DIGITS: usize = 7;

/// Number of decimal digits of `v`.
fn decimal_width(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Bytes in front of the first id: `MATCH <seq> <tag> <n>` for `n` ids,
/// the widest count any owner's line of the document can carry.
fn header_room(seq: u64, tag: &str, n: usize) -> usize {
    "MATCH ".len() + decimal_width(seq) + 1 + tag.len() + 1 + decimal_width(n as u64)
}

/// The digit count of `id` and the range of ids that share it.
fn digit_range(id: u32) -> (usize, u64, u64) {
    let digits = decimal_width(id.into());
    let hi = 10u64.pow(digits as u32);
    (digits, if digits == 1 { 0 } else { hi / 10 }, hi)
}

/// An owner's `MATCH` line, parked while another owner's is filled.
struct MatchLine {
    owner: u64,
    /// Header room, then ` <id>` per id up to `at`; zeroed past it.
    bytes: Vec<u8>,
    at: usize,
    count: usize,
    /// Length the line may grow to: room for every id of the document
    /// from the one that opened it on.
    limit: usize,
}

impl MatchLine {
    fn new(owner: u64, head: usize, len: usize, limit: usize) -> MatchLine {
        MatchLine {
            owner,
            bytes: vec![0; len],
            at: head,
            count: 0,
            limit,
        }
    }

    /// Writes `MATCH <seq> <tag> <count>` into the `head` bytes of room,
    /// against the first id; a count narrower than the room leaves a gap in
    /// front, cut by one shift.
    fn finish(self, head: usize, seq: u64, tag: &str) -> String {
        let mut bytes = self.bytes;
        bytes.truncate(self.at);
        let mut start = decimal_before(&mut bytes, head, self.count as u64);
        for part in [b" ".as_slice(), tag.as_bytes(), b" "] {
            start -= part.len();
            bytes[start..start + part.len()].copy_from_slice(part);
        }
        start = decimal_before(&mut bytes, start, seq);
        start -= b"MATCH ".len();
        bytes[start..start + 6].copy_from_slice(b"MATCH ");
        bytes.drain(..start);
        String::from_utf8(bytes).expect("a MATCH line is its UTF-8 tag plus ASCII")
    }
}

/// Writes ` <id>` (`digits` wide) at `at` where the one-store path cannot:
/// the line must grow first (up to `limit`), or the id is ≥ 10⁷.
#[cold]
fn push_slow(bytes: &mut Vec<u8>, at: usize, limit: usize, id: u32, digits: usize) {
    let need = at + 8.max(1 + digits);
    if bytes.len() < need {
        bytes.resize((2 * bytes.len()).clamp(need, limit), 0);
    }
    bytes[at] = b' ';
    let mut rest = id;
    for digit in bytes[at + 1..at + 1 + digits].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
}

/// Writes `v` in decimal to end at `end`; returns where it starts.
fn decimal_before(bytes: &mut [u8], mut end: usize, mut v: u64) -> usize {
    loop {
        end -= 1;
        bytes[end] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return end;
        }
    }
}

/// Renders the `MATCH <seq> <tag> <n> <id> <id> ...` lines of one
/// document in one pass over `ids`, one line per owner holding any: the one
/// place a `MATCH` line's ids are written ([`Reply::to_wire`], with one
/// owner, and the delivery thread end here). `owner_of` names an id's
/// owner, `None` to leave the id out; each finished line goes to `emit`
/// with its owner, its ids in the order given.
///
/// The line being filled lives in locals; when the owner changes it is
/// parked and the next owner's line resumed or opened, so one owner — the
/// common case — is one line. An id below 10⁷ is two table loads and one
/// 8-byte store, and the digit count is recomputed only when an id leaves
/// the current power of ten. The first line reserves room for every id at
/// the widest id's width, plus 8 bytes of slack for the wide store; a later
/// owner's line starts small and grows up to the same bound.
pub(crate) fn render_match_lines(
    seq: u64,
    tag: &str,
    ids: impl ExactSizeIterator<Item = u32> + Clone,
    owner_of: impl Fn(u32) -> Option<u64>,
    mut emit: impl FnMut(u64, String),
) {
    let n = ids.len();
    let widest = ids.clone().max().map_or(1, |id| decimal_width(id.into()));
    let head = header_room(seq, tag, n);
    let room = |ids: usize| head + ids * (1 + widest) + 8;
    let Some((first, owner)) = ids
        .clone()
        .enumerate()
        .find_map(|(i, id)| Some((i, owner_of(id)?)))
    else {
        return;
    };
    let MatchLine {
        mut owner,
        mut bytes,
        mut at,
        mut count,
        mut limit,
    } = MatchLine::new(owner, head, room(n - first), room(n - first));
    let mut parked: Vec<MatchLine> = Vec::new();
    let (mut digits, mut lo, mut hi) = digit_range(0);
    for (i, id) in ids.enumerate().skip(first) {
        let Some(id_owner) = owner_of(id) else {
            continue;
        };
        if id_owner != owner {
            let mut line = MatchLine {
                owner,
                bytes,
                at,
                count,
                limit,
            };
            match parked.iter_mut().find(|parked| parked.owner == id_owner) {
                Some(slot) => std::mem::swap(slot, &mut line),
                None => parked.push(std::mem::replace(
                    &mut line,
                    MatchLine::new(id_owner, head, room((n - i).min(16)), room(n - i)),
                )),
            }
            MatchLine {
                owner,
                bytes,
                at,
                count,
                limit,
            } = line;
        }
        if !(lo..hi).contains(&u64::from(id)) {
            (digits, lo, hi) = digit_range(id);
        }
        if digits <= PACKED_DIGITS && at + 8 <= bytes.len() {
            let eight = u64::from(DIGITS[(id / 10_000) as usize])
                | u64::from(DIGITS[(id % 10_000) as usize]) << 32;
            // Keep one of the leading zeros, as the space; the bytes past
            // the digits are overwritten by the next id or cut.
            let word = (eight >> (8 * (PACKED_DIGITS - digits))) & !0xff | u64::from(b' ');
            bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
        } else {
            push_slow(&mut bytes, at, limit, id, digits);
        }
        at += 1 + digits;
        count += 1;
    }
    let current = MatchLine {
        owner,
        bytes,
        at,
        count,
        limit,
    };
    for line in std::iter::once(current).chain(parked) {
        emit(line.owner, line.finish(head, seq, tag));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse() {
        assert_eq!(
            Command::parse("SUB /news//article[@k = \"v\"]").unwrap(),
            Command::Sub("/news//article[@k = \"v\"]".into())
        );
        assert_eq!(Command::parse("UNSUB 42\r\n").unwrap(), Command::Unsub(42));
        assert_eq!(
            Command::parse("DOC 128 d17").unwrap(),
            Command::Doc {
                len: 128,
                tag: "d17".into()
            }
        );
        assert_eq!(Command::parse("STATS").unwrap(), Command::Stats);
        assert_eq!(Command::parse("QUIT").unwrap(), Command::Quit);
        assert_eq!(Command::parse("SHUTDOWN").unwrap(), Command::Shutdown);
    }

    #[test]
    fn command_errors_carry_stable_kinds() {
        assert_eq!(Command::parse("SUB ").unwrap_err().kind, "SUB");
        assert_eq!(Command::parse("UNSUB x").unwrap_err().kind, "UNSUB");
        assert_eq!(Command::parse("DOC 12").unwrap_err().kind, "DOC");
        assert_eq!(Command::parse("DOC pig t").unwrap_err().kind, "DOC");
        assert_eq!(Command::parse("DOC 5 a b").unwrap_err().kind, "DOC");
        assert_eq!(Command::parse("NOPE").unwrap_err().kind, "COMMAND");
        assert!(Command::parse("NOPE")
            .unwrap_err()
            .to_wire()
            .starts_with("-ERR COMMAND"));
    }

    #[test]
    fn replies_round_trip() {
        let cases = vec![
            Reply::SubOk(7),
            Reply::UnsubOk(7),
            Reply::DocOk {
                seq: 991,
                tag: "t3".into(),
            },
            Reply::Stats(vec![
                ("epoch".into(), "12".into()),
                ("subs".into(), "100000".into()),
            ]),
            Reply::Bye,
            Reply::ShutdownOk,
            Reply::Err {
                kind: "DOC".into(),
                detail: "parse failed at byte 7".into(),
            },
            Reply::Match {
                seq: 5,
                tag: "d5".into(),
                ids: vec![1, 9, 33],
            },
            Reply::Match {
                seq: 6,
                tag: "d6".into(),
                ids: vec![],
            },
        ];
        for reply in cases {
            let wire = reply.to_wire();
            assert_eq!(Reply::parse(&wire).unwrap(), reply, "wire: {wire}");
        }
    }

    /// What `to_wire` did for a `MATCH` line before it had a renderer of
    /// its own: the standard formatter, one id at a time.
    fn match_line_by_format(seq: u64, tag: &str, ids: &[u32]) -> String {
        let mut s = format!("MATCH {seq} {tag} {}", ids.len());
        for id in ids {
            s.push_str(&format!(" {id}"));
        }
        s
    }

    #[test]
    fn match_line_equals_the_formatter_at_every_digit_boundary() {
        // 0, then 9…9 / 10…0 on either side of every width a u32 can have.
        let mut boundaries = vec![0u32];
        let mut power = 10u32;
        loop {
            boundaries.extend([power - 1, power]);
            match power.checked_mul(10) {
                Some(next) => power = next,
                None => break,
            }
        }
        boundaries.push(u32::MAX);
        assert_eq!(boundaries.len(), 20);
        assert!(boundaries.windows(2).all(|w| w[0] < w[1]));
        // Widening, narrowing and mixed orders: an id's width is its own,
        // not its neighbour's or the widest's.
        let mut descending = boundaries.clone();
        descending.reverse();
        let mixed = [u32::MAX, 0, 1_000_000_000, 9, 10, 999_999_999, 5];
        let singles: Vec<Vec<u32>> = boundaries.iter().map(|&id| vec![id]).collect();
        let lists = [vec![], boundaries.clone(), descending, mixed.to_vec()];
        for ids in lists.iter().chain(&singles) {
            let want = match_line_by_format(u64::MAX, "d7", ids);
            let reply = Reply::Match {
                seq: u64::MAX,
                tag: "d7".into(),
                ids: ids.clone(),
            };
            assert_eq!(reply.to_wire(), want);
            assert_eq!(Reply::parse(&want).unwrap(), reply);
        }
        let empty = Reply::Match {
            seq: 3,
            tag: "t".into(),
            ids: vec![],
        };
        assert_eq!(empty.to_wire(), "MATCH 3 t 0");
    }

    #[test]
    fn match_id_count_is_checked() {
        assert!(Reply::parse("MATCH 5 t 3 1 2").is_err());
        assert!(Reply::parse("MATCH 5 t 1 1 2").is_err());
    }
}
