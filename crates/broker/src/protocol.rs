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
//!                        ingest a document;       reply `+DOC <seq> <tag>`
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
            Reply::Match { seq, tag, ids } => match_line(*seq, tag, ids),
        }
    }
}

/// Renders `MATCH <seq> <tag> <n> <id> <id> ...`, the one place a `MATCH`
/// line is produced ([`Reply::to_wire`] and the delivery thread both end
/// here). A line carries thousands of ids, so the buffer is sized once
/// from the widest id, pre-filled with the separating spaces, and each
/// id's digits are written into place — no per-id allocation, no
/// formatting machinery.
pub(crate) fn match_line(seq: u64, tag: &str, ids: &[u32]) -> String {
    let width = |id: u32| id.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut out = format!("MATCH {seq} {tag} {}", ids.len()).into_bytes();
    let mut at = out.len();
    let widest = ids.iter().max().map_or(0, |&id| width(id));
    out.resize(at + ids.len() * (1 + widest), b' ');
    for &id in ids {
        let n = width(id);
        let mut rest = id;
        for digit in out[at + 1..at + 1 + n].iter_mut().rev() {
            *digit = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        at += 1 + n;
    }
    out.truncate(at);
    String::from_utf8(out).expect("a MATCH line is its UTF-8 tag plus ASCII")
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

    /// What `to_wire` did for a `MATCH` line before [`match_line`]: the
    /// standard formatter, one id at a time.
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
            assert_eq!(match_line(u64::MAX, "d7", ids), want);
            let reply = Reply::Match {
                seq: u64::MAX,
                tag: "d7".into(),
                ids: ids.clone(),
            };
            assert_eq!(reply.to_wire(), want);
            assert_eq!(Reply::parse(&want).unwrap(), reply);
        }
        assert_eq!(match_line(3, "t", &[]), "MATCH 3 t 0");
    }

    #[test]
    fn match_id_count_is_checked() {
        assert!(Reply::parse("MATCH 5 t 3 1 2").is_err());
        assert!(Reply::parse("MATCH 5 t 1 1 2").is_err());
    }
}
