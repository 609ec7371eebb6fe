//! Length-prefixed binary wire protocol.
//!
//! Every message is one *frame*: `[u32 len (LE)][u8 tag][payload]`,
//! where `len` counts the tag plus payload bytes. Strings, counts,
//! integers, WM values and tuples in a payload are laid out by
//! [`dps_wm::codec`], the one byte format the WAL and checkpoints use
//! too.
//! The format is self-contained (no external serialisation crate) and
//! versioned by construction: unknown tags decode to a typed error,
//! never a panic, and a frame is bounded by [`MAX_FRAME`] so a
//! corrupt or hostile peer cannot make the server allocate without
//! limit. A decoded `Rows` row costs one allocation, its attribute
//! vector: the codec interns each distinct name once per frame.

use std::io::{self, IoSlice, Read, Write};

use dps_wm::codec::{checked_len, put_data, put_str, put_tuple, put_u64, CodecError, Names, Reader};
use dps_wm::{Value, WmeData};

/// Upper bound on a frame's `len` field (1 MiB). A peer announcing
/// more is a protocol error, not an allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Typed error codes carried by [`Response::Err`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// Request not legal in the session's current state.
    BadState = 1,
    /// The transaction aborted (contention, stale id, validation).
    Aborted = 2,
    /// Malformed frame or unknown tag.
    Protocol = 3,
    /// The per-session transaction timeout fired.
    Timeout = 4,
    /// The server is draining; no new transactions.
    Draining = 5,
}

impl ErrCode {
    fn from_u8(b: u8) -> Option<ErrCode> {
        match b {
            1 => Some(ErrCode::BadState),
            2 => Some(ErrCode::Aborted),
            3 => Some(ErrCode::Protocol),
            4 => Some(ErrCode::Timeout),
            5 => Some(ErrCode::Draining),
            _ => None,
        }
    }
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a session. Must be the first frame on a connection; the
    /// server answers [`Response::Granted`] or
    /// [`Response::Overloaded`].
    Hello,
    /// Open an external transaction ([`Response::Ok`] with `seq = 0`).
    Begin,
    /// Buffer an insert of a tuple into the open transaction.
    Insert {
        /// Relation (class) name.
        class: String,
        /// Attribute/value pairs.
        attrs: Vec<(String, Value)>,
    },
    /// Buffer a removal of the tuple with this WME id.
    Remove {
        /// The tuple's WME id.
        id: u64,
    },
    /// Condition query: every live tuple of `class`, answered with
    /// [`Response::Rows`]. Legal inside a transaction only (the read
    /// is part of the transaction's footprint).
    Query {
        /// Relation (class) name.
        class: String,
    },
    /// Invoke the rule program: wait until the engine has quiesced on
    /// everything committed so far, answered with [`Response::Done`].
    Invoke,
    /// Commit the open transaction ([`Response::Ok`] carries the
    /// commit sequence number). With durability on, the
    /// acknowledgement can precede the commit's fsync by the in-flight
    /// group-commit batch; the server's drain ends with a final flush
    /// that makes every acknowledged commit durable.
    Commit,
    /// Abort the open transaction.
    Abort,
    /// Close the session gracefully (answered with [`Response::Bye`]).
    Bye,
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Session admitted.
    Granted {
        /// Server-assigned session id.
        session: u64,
    },
    /// Acknowledgement; for `Commit` the commit sequence number,
    /// otherwise 0. A commit acknowledgement means committed and
    /// visible, not yet necessarily durable (see [`Request::Commit`]).
    Ok {
        /// Commit sequence (0 when not a commit ack).
        seq: u64,
    },
    /// Query result rows.
    Rows {
        /// `(wme id, tuple)` pairs.
        rows: Vec<(u64, WmeData)>,
    },
    /// Rule program quiesced.
    Done {
        /// Total rule commits so far (cumulative, engine-wide).
        commits: u64,
    },
    /// Load shed: the request was not admitted. Retry after the hint.
    Overloaded {
        /// Client retry hint, milliseconds.
        retry_after_ms: u64,
    },
    /// Typed failure.
    Err {
        /// What failed.
        code: ErrCode,
        /// Human-readable detail.
        msg: String,
    },
    /// Session closed.
    Bye,
}

// Frame tags. Requests are 0x01..=0x09, responses 0x81..=0x87.
const T_HELLO: u8 = 0x01;
const T_BEGIN: u8 = 0x02;
const T_INSERT: u8 = 0x03;
const T_REMOVE: u8 = 0x04;
const T_QUERY: u8 = 0x05;
const T_INVOKE: u8 = 0x06;
const T_COMMIT: u8 = 0x07;
const T_ABORT: u8 = 0x08;
const T_BYE: u8 = 0x09;
const T_GRANTED: u8 = 0x81;
const T_OK: u8 = 0x82;
const T_ROWS: u8 = 0x83;
const T_DONE: u8 = 0x84;
const T_OVERLOADED: u8 = 0x85;
const T_ERR: u8 = 0x86;
const T_RBYE: u8 = 0x87;

fn perr(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("wire: {msg}"))
}

/// Runs a body encoder on `buf`. The codec refuses a length past
/// `u32::MAX` (a body far over [`MAX_FRAME`]) rather than truncate it;
/// the refusal leaves `buf` one byte over [`MAX_FRAME`], so
/// [`write_frame`] refuses it unsent, like any oversized body.
fn encode_into(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>) -> Result<(), CodecError>) {
    if encode(buf).is_err() {
        buf.resize(MAX_FRAME as usize + 1, 0);
    }
}

/// Decodes a whole body with `decode`: trailing bytes are an error too.
fn decode_from<'a, T>(
    buf: &'a [u8],
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> io::Result<T> {
    let mut r = Reader::new(buf);
    let msg = decode(&mut r).and_then(|msg| r.finish().map(|()| msg));
    msg.map_err(|e| perr(&e.to_string()))
}

/// Encodes a `Rows` body (tag, row count, `(id, tuple)` rows) into
/// `buf`. The one `Rows` encoder: [`Response::encode`] feeds it decoded
/// rows, the server feeds it working memory's tuples under the engine's
/// lock.
pub(crate) fn put_rows<'a>(buf: &mut Vec<u8>, rows: impl Iterator<Item = (u64, &'a WmeData)>) {
    encode_into(buf, |buf| {
        buf.push(T_ROWS);
        let count_at = buf.len();
        buf.extend_from_slice(&[0; 4]);
        let mut n = 0usize;
        for (id, data) in rows {
            put_u64(buf, id);
            put_data(buf, data)?;
            n += 1;
        }
        buf[count_at..count_at + 4].copy_from_slice(&checked_len(n)?.to_le_bytes());
        Ok(())
    });
}

impl Request {
    /// Encodes into a tag-plus-payload body (without the length
    /// prefix; [`write_frame`] adds it).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_into(&mut buf, |buf| {
            match self {
                Request::Hello => buf.push(T_HELLO),
                Request::Begin => buf.push(T_BEGIN),
                Request::Insert { class, attrs } => {
                    buf.push(T_INSERT);
                    put_tuple(buf, class, attrs.iter().map(|(k, v)| (k.as_str(), v)))?;
                }
                Request::Remove { id } => {
                    buf.push(T_REMOVE);
                    put_u64(buf, *id);
                }
                Request::Query { class } => {
                    buf.push(T_QUERY);
                    put_str(buf, class)?;
                }
                Request::Invoke => buf.push(T_INVOKE),
                Request::Commit => buf.push(T_COMMIT),
                Request::Abort => buf.push(T_ABORT),
                Request::Bye => buf.push(T_BYE),
            }
            Ok(())
        });
        buf
    }

    /// Decodes a tag-plus-payload body produced by [`Request::encode`].
    pub fn decode(buf: &[u8]) -> io::Result<Request> {
        decode_from(buf, |r| {
            Ok(match r.u8()? {
                T_HELLO => Request::Hello,
                T_BEGIN => Request::Begin,
                T_INSERT => {
                    let class = r.str()?.to_owned();
                    let n = r.u32()? as usize;
                    let mut attrs = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        attrs.push((r.str()?.to_owned(), r.value()?));
                    }
                    Request::Insert { class, attrs }
                }
                T_REMOVE => Request::Remove { id: r.u64()? },
                T_QUERY => Request::Query { class: r.str()?.to_owned() },
                T_INVOKE => Request::Invoke,
                T_COMMIT => Request::Commit,
                T_ABORT => Request::Abort,
                T_BYE => Request::Bye,
                t => return Err(CodecError::BadTag(t)),
            })
        })
    }
}

impl Response {
    /// Encodes into a tag-plus-payload body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let (tag, word) = match self {
            Response::Granted { session } => (T_GRANTED, *session),
            Response::Ok { seq } => (T_OK, *seq),
            Response::Done { commits } => (T_DONE, *commits),
            Response::Overloaded { retry_after_ms } => (T_OVERLOADED, *retry_after_ms),
            Response::Rows { rows } => {
                put_rows(&mut buf, rows.iter().map(|(id, d)| (*id, d)));
                return buf;
            }
            Response::Err { code, msg } => {
                encode_into(&mut buf, |buf| {
                    buf.extend_from_slice(&[T_ERR, *code as u8]);
                    put_str(buf, msg)
                });
                return buf;
            }
            Response::Bye => return vec![T_RBYE],
        };
        buf.push(tag);
        put_u64(&mut buf, word);
        buf
    }

    /// Decodes a tag-plus-payload body produced by
    /// [`Response::encode`].
    pub fn decode(buf: &[u8]) -> io::Result<Response> {
        decode_from(buf, |r| {
            Ok(match r.u8()? {
                T_GRANTED => Response::Granted { session: r.u64()? },
                T_OK => Response::Ok { seq: r.u64()? },
                T_ROWS => {
                    let n = r.u32()? as usize;
                    let mut rows = Vec::with_capacity(n.min(1024));
                    let mut names = Names::default();
                    for _ in 0..n {
                        rows.push((r.u64()?, r.data(&mut names)?));
                    }
                    Response::Rows { rows }
                }
                T_DONE => Response::Done { commits: r.u64()? },
                T_OVERLOADED => Response::Overloaded { retry_after_ms: r.u64()? },
                T_ERR => {
                    let code = r.u8()?;
                    let code = ErrCode::from_u8(code).ok_or(CodecError::BadTag(code))?;
                    Response::Err { code, msg: r.str()?.to_owned() }
                }
                T_RBYE => Response::Bye,
                t => return Err(CodecError::BadTag(t)),
            })
        })
    }
}

/// Writes one frame: length prefix plus body, handed to the writer
/// together (one vectored write when the writer takes it whole, so a
/// reader wakes once per frame). A body over [`MAX_FRAME`] is refused
/// with [`io::ErrorKind::InvalidInput`] and nothing is written.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("wire: frame body of {} bytes exceeds MAX_FRAME", body.len()),
        ));
    }
    let len = (body.len() as u32).to_le_bytes();
    let mut parts = [IoSlice::new(&len), IoSlice::new(body)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame body. `Ok(None)` means clean EOF at a frame
/// boundary; EOF mid-frame, an oversized length or a read timeout
/// surface as errors. A timeout before the frame's first byte keeps its
/// [`io::ErrorKind::TimedOut`] / [`io::ErrorKind::WouldBlock`] kind, so
/// callers can tell a slow peer from a dead one and read again. A
/// timeout after part of the frame was consumed is
/// [`io::ErrorKind::InvalidData`]: those bytes are gone, so a retry
/// would start mid-frame and the stream is out of step for good.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(perr("EOF inside frame header")),
            Ok(n) => got += n,
            Err(e) => retry_or_fail(e, got > 0)?,
        }
    }
    let n = u32::from_le_bytes(len);
    if n > MAX_FRAME {
        return Err(perr(&format!("frame length {n} exceeds MAX_FRAME")));
    }
    let mut body = vec![0u8; n as usize];
    let mut got = 0usize;
    while got < body.len() {
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(perr("EOF inside frame body")),
            Ok(k) => got += k,
            Err(e) => retry_or_fail(e, true)?,
        }
    }
    Ok(Some(body))
}

/// `Ok` for an interrupted read (retry it); otherwise `e`, except that
/// a timeout `mid_frame` (after part of the frame was consumed) becomes
/// an `InvalidData` error the caller must not retry.
fn retry_or_fail(e: io::Error, mid_frame: bool) -> io::Result<()> {
    match e.kind() {
        io::ErrorKind::Interrupted => Ok(()),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock if mid_frame => {
            Err(perr("read timed out inside a frame"))
        }
        _ => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_wm::Atom;

    fn roundtrip_req(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let body = resp.encode();
        assert_eq!(Response::decode(&body).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello);
        roundtrip_req(Request::Begin);
        roundtrip_req(Request::Insert {
            class: "delta".into(),
            attrs: vec![
                ("key".into(), Value::Int(42)),
                ("tag".into(), Value::Sym("pending".into())),
                ("note".into(), Value::Str("héllo".into())),
                ("frac".into(), Value::Float(0.25)),
                ("on".into(), Value::Bool(true)),
                ("nil".into(), Value::Nil),
            ],
        });
        roundtrip_req(Request::Remove { id: u64::MAX });
        roundtrip_req(Request::Query { class: "acc".into() });
        roundtrip_req(Request::Invoke);
        roundtrip_req(Request::Commit);
        roundtrip_req(Request::Abort);
        roundtrip_req(Request::Bye);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Granted { session: 7 });
        roundtrip_resp(Response::Ok { seq: 99 });
        roundtrip_resp(Response::Rows {
            rows: vec![
                (1, WmeData::new("acc").with("key", 3i64).with("total", 10i64)),
                (2, WmeData::new("acc").with("key", 4i64)),
            ],
        });
        roundtrip_resp(Response::Done { commits: 123 });
        roundtrip_resp(Response::Overloaded { retry_after_ms: 250 });
        roundtrip_resp(Response::Err { code: ErrCode::Aborted, msg: "doomed".into() });
        roundtrip_resp(Response::Bye);
    }

    #[test]
    fn frames_roundtrip_through_a_byte_stream() {
        let mut buf: Vec<u8> = Vec::new();
        let reqs = [
            Request::Hello,
            Request::Begin,
            Request::Insert { class: "t".into(), attrs: vec![("k".into(), Value::Int(1))] },
            Request::Commit,
            Request::Bye,
        ];
        for r in &reqs {
            write_frame(&mut buf, &r.encode()).unwrap();
        }
        let mut cur = io::Cursor::new(buf);
        for r in &reqs {
            let body = read_frame(&mut cur).unwrap().expect("frame");
            assert_eq!(&Request::decode(&body).unwrap(), r);
        }
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn strings_past_u16_round_trip() {
        let long = "x".repeat(70_000);
        roundtrip_req(Request::Insert {
            class: "note".into(),
            attrs: vec![("body".into(), Value::Str(long.as_str().into()))],
        });
        let row = WmeData::new("note").with("body", Value::Str(long.as_str().into()));
        roundtrip_resp(Response::Rows {
            rows: vec![(9, row)],
        });
    }

    /// Rows of two classes whose attribute names repeat across rows, one
    /// name shared by both classes, with symbol and string values.
    fn mixed_rows() -> Vec<(u64, WmeData)> {
        (0..40u64)
            .map(|i| {
                let data = if i % 3 == 0 {
                    let text = Value::Str("hé".into());
                    WmeData::new("note").with("owner", i as i64).with("text", text)
                } else {
                    WmeData::new("acc")
                        .with("owner", i as i64)
                        .with("tag", Value::Sym(if i % 2 == 0 { "even" } else { "odd" }.into()))
                };
                (i + 1, data)
            })
            .collect()
    }

    #[test]
    fn rows_with_repeated_and_distinct_names_round_trip() {
        roundtrip_resp(Response::Rows { rows: mixed_rows() });
        // More distinct names than a frame's name table keeps.
        let wide = (0..3 * Names::CAP)
            .fold(WmeData::new("wide"), |d, i| d.with(format!("a{i}").as_str(), i as i64));
        roundtrip_resp(Response::Rows { rows: vec![(1, wide.clone()), (2, wide)] });
        roundtrip_resp(Response::Rows { rows: Vec::new() });
    }

    #[test]
    fn decoded_names_and_symbols_are_the_interned_atoms() {
        let body = Response::Rows { rows: mixed_rows() }.encode();
        let Response::Rows { rows } = Response::decode(&body).unwrap() else {
            panic!("not rows")
        };
        let same = |a: &Atom, text: &str| {
            let b = Atom::from(text);
            assert!(a.is_interned() && b.is_interned());
            assert!(std::ptr::eq(a.as_str(), b.as_str()), "{a:?} is not the table's entry");
        };
        for (_, data) in &rows {
            same(&data.class, data.class.as_str());
            for (k, v) in data.attrs.iter() {
                same(k, k.as_str());
                if let Value::Sym(a) | Value::Str(a) = v {
                    same(a, a.as_str());
                }
            }
        }
    }

    #[test]
    fn invalid_utf8_is_rejected_in_names_and_values() {
        let row = WmeData::new("acc").with("key", 1i64);
        let body = Response::Rows { rows: vec![(1, row)] }.encode();
        // Class name, then attribute name: both decode through the
        // frame's name table and must still be checked.
        for name in ["acc", "key"] {
            let at = body.windows(3).position(|w| w == name.as_bytes()).unwrap();
            let mut bad = body.clone();
            bad[at] = 0xff;
            let err = Response::decode(&bad).unwrap_err();
            assert!(err.to_string().contains("UTF-8"), "{name}: {err}");
        }
        let mut bad = Request::Insert {
            class: "t".into(),
            attrs: vec![("k".into(), Value::Sym("v".into()))],
        }
        .encode();
        *bad.last_mut().unwrap() = 0xc3;
        assert!(Request::decode(&bad).is_err());
    }

    #[test]
    fn oversized_frames_are_refused_unwritten() {
        let mut out: Vec<u8> = Vec::new();
        let err = write_frame(&mut out, &vec![0; MAX_FRAME as usize + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing of a refused frame is written");
        write_frame(&mut out, &vec![0; MAX_FRAME as usize]).unwrap();
        let body = read_frame(&mut io::Cursor::new(out)).unwrap().unwrap();
        assert_eq!(body.len(), MAX_FRAME as usize);
    }

    /// A reader that hands out `bytes` a few at a time, then times out.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.at == self.bytes.len() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            let n = out.len().min(2).min(self.bytes.len() - self.at);
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_timeout_inside_a_frame_is_not_retryable() {
        let mut frame = Vec::new();
        write_frame(&mut frame, &Request::Begin.encode()).unwrap();
        let kind = |cut: usize| {
            let mut r = Trickle { bytes: frame[..cut].to_vec(), at: 0 };
            read_frame(&mut r).unwrap_err().kind()
        };
        // Before the first byte: an idle tick, safe to read again.
        assert_eq!(kind(0), io::ErrorKind::TimedOut);
        // Mid-header and mid-body: consumed bytes are lost.
        assert_eq!(kind(2), io::ErrorKind::InvalidData);
        assert_eq!(kind(4), io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_frames_error_cleanly() {
        // Unknown tag.
        assert!(Request::decode(&[0x7f]).is_err());
        assert!(Response::decode(&[0x7f]).is_err());
        // Truncated payload.
        assert!(Request::decode(&[T_REMOVE, 1, 2]).is_err());
        // Trailing garbage.
        let mut body = Request::Begin.encode();
        body.push(0);
        assert!(Request::decode(&body).is_err());
        // Oversized frame length.
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut io::Cursor::new(stream)).is_err());
        // EOF mid-frame.
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&8u32.to_le_bytes());
        stream.push(1);
        assert!(read_frame(&mut io::Cursor::new(stream)).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The bytes of a `session_zipf`-shaped `Insert` and a two-row
    /// `Rows` reply: a change here breaks every peer built before it.
    #[test]
    fn golden_bytes_are_unchanged() {
        let insert = Request::Insert {
            class: "delta".into(),
            attrs: vec![("key".into(), Value::Int(7)), ("v".into(), Value::Int(1))],
        };
        assert_eq!(
            hex(&insert.encode()),
            "030500000064656c746102000000030000006b65790207000000000000000100000076020100000000000\
            000"
        );
        let rows = Response::Rows {
            rows: vec![
                (1, WmeData::new("acc").with("key", 3i64).with("total", 10i64)),
                (2, WmeData::new("acc").with("key", 4i64).with("tag", Value::Sym("hot".into()))),
            ],
        };
        assert_eq!(
            hex(&rows.encode()),
            "830200000001000000000000000300000061636302000000030000006b657902030000000000000005000\
            000746f74616c020a0000000000000002000000000000000300000061636302000000030000006b657902\
            0400000000000000030000007461670403000000686f74"
        );
    }
}
