//! Signature exchange format.
//!
//! The paper's architecture (Fig. 3) has the server ship generated
//! signatures to devices. This is the wire format: a line-oriented,
//! versioned text encoding with tokens hex-encoded so arbitrary byte
//! content survives transport and remains human-auditable.
//!
//! ```text
//! LEAKSIG/1
//! sig 0 17
//! host ad-maker.info
//! tok rline 616e64726f696469643d
//! end
//! ```
//!
//! A host the whitespace-split `host` line cannot carry — the empty host
//! of a request without a `Host` header, or one containing whitespace —
//! is hex-encoded like a token instead (`hosthex 6164206d616b6572`, or a
//! bare `hosthex` for the empty host). Every other host keeps its plain
//! line, so sets without such hosts encode exactly as before.

use crate::signature::{ConjunctionSignature, Field, FieldToken, SignatureSet};
use leaksig_hash::{decode_hex, encode_hex};

/// Magic first line.
const MAGIC: &str = "LEAKSIG/1";

/// Wire-format decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// First line was not the expected magic.
    BadMagic,
    /// A line (1-based) could not be parsed.
    BadLine(usize, String),
    /// A `sig` block was missing its `end`.
    UnterminatedSignature,
    /// A signature had no tokens.
    EmptySignature(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "missing {MAGIC} header"),
            WireError::BadLine(n, l) => write!(f, "unparsable line {n}: {l:?}"),
            WireError::UnterminatedSignature => write!(f, "sig block missing `end`"),
            WireError::EmptySignature(id) => write!(f, "signature {id} has no tokens"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serialize a signature set.
pub fn encode(set: &SignatureSet) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    for sig in &set.signatures {
        out.push_str(&format!("sig {} {}\n", sig.id, sig.cluster_size));
        for host in &sig.hosts {
            if host.is_empty() || host.contains(char::is_whitespace) {
                out.push_str(format!("hosthex {}", encode_hex(host.as_bytes())).trim_end());
                out.push('\n');
            } else {
                out.push_str(&format!("host {host}\n"));
            }
        }
        for tok in &sig.tokens {
            out.push_str(&format!(
                "tok {} {} {}\n",
                tok.field.tag(),
                encode_hex(tok.bytes()),
                tok.order_hint()
            ));
        }
        out.push_str("end\n");
    }
    out
}

/// Parse a signature set.
pub fn decode(text: &str) -> Result<SignatureSet, WireError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, l)) if l.trim() == MAGIC => {}
        _ => return Err(WireError::BadMagic),
    }

    let mut signatures = Vec::new();
    let mut current: Option<ConjunctionSignature> = None;
    for (i, raw) in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let bad = || WireError::BadLine(lineno, line.to_string());
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("sig") => {
                if current.is_some() {
                    return Err(WireError::UnterminatedSignature);
                }
                let id: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let cluster_size: usize =
                    parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                current = Some(ConjunctionSignature {
                    id,
                    tokens: Vec::new(),
                    cluster_size,
                    hosts: Vec::new(),
                });
            }
            Some("host") => {
                let host = parts.next().ok_or_else(bad)?;
                current
                    .as_mut()
                    .ok_or_else(bad)?
                    .hosts
                    .push(host.to_string());
            }
            Some("hosthex") => {
                let bytes = decode_hex(parts.next().unwrap_or("")).map_err(|_| bad())?;
                let host = String::from_utf8(bytes).map_err(|_| bad())?;
                current.as_mut().ok_or_else(bad)?.hosts.push(host);
            }
            Some("tok") => {
                let field = parts.next().and_then(Field::from_tag).ok_or_else(bad)?;
                let hex = parts.next().ok_or_else(bad)?;
                let bytes = decode_hex(hex).map_err(|_| bad())?;
                if bytes.is_empty() {
                    return Err(bad());
                }
                // Optional third column: emission-order hint (older
                // producers omit it).
                let hint: u32 = match parts.next() {
                    Some(raw) => raw.parse().map_err(|_| bad())?,
                    None => 0,
                };
                current
                    .as_mut()
                    .ok_or_else(bad)?
                    .tokens
                    .push(FieldToken::with_hint(field, bytes, hint));
            }
            Some("end") => {
                let sig = current.take().ok_or_else(bad)?;
                if sig.tokens.is_empty() {
                    return Err(WireError::EmptySignature(sig.id));
                }
                signatures.push(sig);
            }
            _ => return Err(bad()),
        }
    }
    if current.is_some() {
        return Err(WireError::UnterminatedSignature);
    }
    Ok(SignatureSet { signatures })
}

/// Magic first line of the transport envelope.
const FRAME_MAGIC: &str = "LEAKFRAME/1";

/// Transport-envelope decode failure.
///
/// Unlike [`WireError`], which reports *structural* problems in a
/// signature set, a `FrameError` means the bytes themselves cannot be
/// trusted: they were truncated, extended, or corrupted between the
/// server and the device. A frame error must always be handled by
/// re-fetching, never by installing whatever half-parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first line is not a well-formed `LEAKFRAME/1 <len> <sha1>`.
    BadHeader,
    /// The payload length differs from the header's declared length
    /// (truncated or extended in flight).
    LengthMismatch {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload hashes to something other than the header digest.
    ChecksumMismatch,
    /// The payload is not valid UTF-8 (corruption hit a multi-byte run).
    BadUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadHeader => write!(f, "missing or mangled {FRAME_MAGIC} header"),
            FrameError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "frame length mismatch: header says {expected}, got {actual}"
                )
            }
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::BadUtf8 => write!(f, "frame payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wrap wire text in a checksummed transport envelope:
///
/// ```text
/// LEAKFRAME/1 <payload-byte-length> <sha1-hex-of-payload>
/// <payload...>
/// ```
///
/// The length catches truncation/extension cheaply; the SHA-1 digest
/// catches in-flight corruption. Returns bytes, not a `String`, because
/// the framed form is what travels over a fallible transport — the other
/// end must assume arbitrary mangling, including invalid UTF-8.
pub fn frame(payload: &str) -> Vec<u8> {
    frame_bytes(payload.as_bytes())
}

/// [`frame`] for arbitrary byte payloads.
///
/// The envelope discipline is identical — `LEAKFRAME/1 <len> <sha1>`
/// header, length check, digest check — but the payload is not required
/// to be UTF-8. The durable-state WAL uses this variant because journaled
/// packets carry raw header/body bytes.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{FRAME_MAGIC} {} {}\n",
        payload.len(),
        leaksig_hash::sha1_hex(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Longest well-formed `LEAKFRAME/1` header line, newline included:
/// magic + space + 20-digit length + space + 40 hex digits + `\n`,
/// rounded up. A stream that reaches this many bytes without a newline
/// is not a slow header — it is not a header at all.
pub const MAX_FRAME_HEADER: usize = 96;

/// One step of incremental frame reassembly — see [`unframe_partial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameProgress<'a> {
    /// The buffer holds a valid *prefix* of a frame; more bytes are
    /// needed. `need` is the total frame size (header + payload) once
    /// the header has been read, `None` while the header itself is
    /// still arriving. A reassembler can check `need` against its
    /// buffer budget and reject oversized declarations before
    /// buffering them.
    Incomplete {
        /// Total bytes the complete frame will occupy, when known.
        need: Option<usize>,
    },
    /// A complete, verified frame occupies the first `consumed` bytes
    /// of the buffer; bytes past `consumed` belong to the next message.
    Complete {
        /// The trusted payload.
        payload: &'a str,
        /// Bytes of the buffer this frame consumed.
        consumed: usize,
    },
}

/// Incremental (streaming) counterpart of [`unframe`], for frames
/// arriving over a socket in arbitrary slices.
///
/// The contract a connection reassembler needs is the three-way split
/// this function makes explicit:
///
/// * `Ok(Incomplete { .. })` — the bytes so far are a valid prefix of
///   some frame: **wait for more**. A merely-split frame must never be
///   treated as an attack.
/// * `Ok(Complete { payload, consumed })` — a whole frame verified;
///   trailing bytes (the start of the next message) are untouched.
/// * `Err(_)` — no continuation of these bytes can ever become a valid
///   frame: **reject the connection**. Raised as soon as the prefix
///   diverges from the magic, so a garbage preamble is refused on its
///   first byte, not after a full buffer of it.
///
/// Feeding a whole valid frame yields exactly [`unframe`]'s result; the
/// proptests below pin that equivalence for every split boundary.
pub fn unframe_partial(data: &[u8]) -> Result<FrameProgress<'_>, FrameError> {
    match unframe_bytes_partial(data)? {
        BytesProgress::Incomplete { need } => Ok(FrameProgress::Incomplete { need }),
        BytesProgress::Complete { payload, consumed } => {
            let payload = std::str::from_utf8(payload).map_err(|_| FrameError::BadUtf8)?;
            Ok(FrameProgress::Complete { payload, consumed })
        }
    }
}

/// One step of incremental *byte-payload* frame reassembly — the
/// `&[u8]` counterpart of [`FrameProgress`], produced by
/// [`unframe_bytes_partial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BytesProgress<'a> {
    /// Valid prefix of a frame; more bytes are needed. Same `need`
    /// semantics as [`FrameProgress::Incomplete`].
    Incomplete {
        /// Total bytes the complete frame will occupy, when known.
        need: Option<usize>,
    },
    /// A complete, checksum-verified frame occupies the first `consumed`
    /// bytes of the buffer.
    Complete {
        /// The trusted payload bytes.
        payload: &'a [u8],
        /// Bytes of the buffer this frame consumed.
        consumed: usize,
    },
}

/// Incremental verification of a [`frame_bytes`] envelope.
///
/// This is the scanner a WAL reader needs: called repeatedly on the
/// unconsumed tail of an append-only log it yields each complete frame in
/// turn, reports a torn final record as `Incomplete` (the crash window of
/// an interrupted append — recoverable by dropping the tail), and reports
/// bytes that can never become a frame (`Err`) so corruption is
/// distinguished from a clean tear.
pub fn unframe_bytes_partial(data: &[u8]) -> Result<BytesProgress<'_>, FrameError> {
    let Some(header) = frame_header(data)? else {
        return Ok(BytesProgress::Incomplete { need: None });
    };
    let total = header.body + header.len;
    if data.len() < total {
        return Ok(BytesProgress::Incomplete { need: Some(total) });
    }
    let payload = &data[header.body..total];
    if !leaksig_hash::verify_sha1_hex(payload, header.digest) {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(BytesProgress::Complete {
        payload,
        consumed: total,
    })
}

/// Verify and strip a transport envelope, returning the trusted payload.
///
/// The whole buffer must be exactly one frame: `unframe(data)` is
/// `Ok(payload)` precisely when [`unframe_partial`] reads one complete
/// frame that consumes every byte of `data`. Never panics on arbitrary
/// input; every mangling of a valid frame maps to a [`FrameError`] — a
/// missing header line to `BadHeader`, a truncated or extended payload to
/// `LengthMismatch`. Verification order is length first (cheap), digest
/// second, UTF-8 last.
pub fn unframe(data: &[u8]) -> Result<&str, FrameError> {
    let header = frame_header(data)?.ok_or(FrameError::BadHeader)?;
    let payload = &data[header.body..];
    if payload.len() != header.len {
        return Err(FrameError::LengthMismatch {
            expected: header.len,
            actual: payload.len(),
        });
    }
    if !leaksig_hash::verify_sha1_hex(payload, header.digest) {
        return Err(FrameError::ChecksumMismatch);
    }
    std::str::from_utf8(payload).map_err(|_| FrameError::BadUtf8)
}

/// A parsed `LEAKFRAME/1 <len> <sha1>` header line.
struct FrameHeader<'a> {
    /// Offset of the payload: the header line's length, newline included.
    body: usize,
    /// Declared payload length.
    len: usize,
    /// Declared SHA-1 digest of the payload, in hex.
    digest: &'a str,
}

/// The header line at the start of `data`, the one grammar both decoders
/// read: `Ok(None)` while the line is still arriving as a valid prefix of
/// a header, `Err` as soon as no continuation can become one.
fn frame_header(data: &[u8]) -> Result<Option<FrameHeader<'_>>, FrameError> {
    let magic = FRAME_MAGIC.as_bytes();
    // Reject divergence from the magic immediately, even mid-prefix:
    // the header must open with `LEAKFRAME/1 ` byte for byte.
    for (i, &b) in data.iter().take(magic.len() + 1).enumerate() {
        let want = if i < magic.len() { magic[i] } else { b' ' };
        if b != want {
            return Err(FrameError::BadHeader);
        }
    }
    let Some(newline) = data.iter().position(|&b| b == b'\n') else {
        if data.len() > MAX_FRAME_HEADER {
            return Err(FrameError::BadHeader);
        }
        return Ok(None);
    };
    let header = std::str::from_utf8(&data[..newline]).map_err(|_| FrameError::BadHeader)?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some(FRAME_MAGIC) {
        return Err(FrameError::BadHeader);
    }
    let len: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(FrameError::BadHeader)?;
    let digest = parts.next().ok_or(FrameError::BadHeader)?;
    if parts.next().is_some() {
        return Err(FrameError::BadHeader);
    }
    Ok(Some(FrameHeader {
        body: newline + 1,
        len,
        digest,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{signature_from_cluster, SignatureConfig};
    use leaksig_http::RequestBuilder;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    fn sample_set() -> SignatureSet {
        let a = RequestBuilder::get("/getad")
            .query("androidid", "f3a9c1d200b14e77")
            .cookie("sid=12345678")
            .destination(Ipv4Addr::new(203, 0, 113, 4), 80, "ad-maker.info")
            .build();
        let b = RequestBuilder::get("/getad")
            .query("androidid", "f3a9c1d200b14e77")
            .cookie("sid=12345678")
            .destination(Ipv4Addr::new(203, 0, 113, 4), 80, "ad-maker.info")
            .build();
        let sig = signature_from_cluster(7, &[&a, &b], &SignatureConfig::default()).unwrap();
        SignatureSet {
            signatures: vec![sig],
        }
    }

    #[test]
    fn round_trip() {
        let set = sample_set();
        let text = encode(&set);
        assert!(text.starts_with("LEAKSIG/1\n"));
        let back = decode(&text).unwrap();
        assert_eq!(back.len(), set.len());
        let (orig, dec) = (&set.signatures[0], &back.signatures[0]);
        assert_eq!(dec.id, orig.id);
        assert_eq!(dec.cluster_size, orig.cluster_size);
        assert_eq!(dec.hosts, orig.hosts);
        assert_eq!(dec.tokens.len(), orig.tokens.len());
        for (a, b) in dec.tokens.iter().zip(&orig.tokens) {
            assert_eq!(a.field, b.field);
            assert_eq!(a.bytes(), b.bytes());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(decode(""), Err(WireError::BadMagic)));
        assert!(matches!(decode("NOPE/9\n"), Err(WireError::BadMagic)));
        assert!(matches!(
            decode("LEAKSIG/1\nwat 1 2\n"),
            Err(WireError::BadLine(2, _))
        ));
        assert!(matches!(
            decode("LEAKSIG/1\nsig 0 1\ntok rline 6162\n"),
            Err(WireError::UnterminatedSignature)
        ));
        assert!(matches!(
            decode("LEAKSIG/1\nsig 0 1\nend\n"),
            Err(WireError::EmptySignature(0))
        ));
        assert!(matches!(
            decode("LEAKSIG/1\nsig 0 1\ntok nope 6162\nend\n"),
            Err(WireError::BadLine(3, _))
        ));
        assert!(matches!(
            decode("LEAKSIG/1\nsig 0 1\ntok rline zz\nend\n"),
            Err(WireError::BadLine(3, _))
        ));
        // Token outside a sig block.
        assert!(matches!(
            decode("LEAKSIG/1\ntok rline 6162\n"),
            Err(WireError::BadLine(2, _))
        ));
    }

    #[test]
    fn order_hints_survive_the_wire() {
        let set = sample_set();
        let back = decode(&encode(&set)).unwrap();
        for (a, b) in back.signatures[0]
            .tokens
            .iter()
            .zip(&set.signatures[0].tokens)
        {
            assert_eq!(a.order_hint(), b.order_hint());
        }
    }

    #[test]
    fn hintless_tok_lines_still_decode() {
        // Older producers emit `tok <field> <hex>` without the hint.
        let text = "LEAKSIG/1\nsig 0 2\ntok rline 616263646566676869\nend\n";
        let set = decode(text).unwrap();
        assert_eq!(set.signatures[0].tokens[0].order_hint(), 0);
        assert_eq!(set.signatures[0].tokens[0].bytes(), b"abcdefghi");
    }

    #[test]
    fn decoded_signatures_still_match() {
        let set = sample_set();
        let back = decode(&encode(&set)).unwrap();
        let probe = RequestBuilder::get("/getad")
            .query("androidid", "f3a9c1d200b14e77")
            .cookie("sid=12345678")
            .destination(Ipv4Addr::new(203, 0, 113, 4), 80, "ad-maker.info")
            .build();
        assert!(back.signatures[0].matches(&probe));
    }

    #[test]
    fn error_display() {
        assert!(WireError::BadMagic.to_string().contains("LEAKSIG/1"));
        assert!(WireError::EmptySignature(3).to_string().contains('3'));
    }

    #[test]
    fn frame_round_trip() {
        let text = encode(&sample_set());
        let framed = frame(&text);
        assert!(framed.starts_with(b"LEAKFRAME/1 "));
        assert_eq!(unframe(&framed).unwrap(), text);
        // The empty payload frames too (an empty set is a valid ship).
        assert_eq!(unframe(&frame("")).unwrap(), "");
    }

    #[test]
    fn unframe_detects_truncation_extension_and_corruption() {
        let text = encode(&sample_set());
        let framed = frame(&text);

        // Truncation anywhere in the payload → length mismatch.
        assert!(matches!(
            unframe(&framed[..framed.len() - 3]),
            Err(FrameError::LengthMismatch { .. })
        ));
        // Extension → length mismatch too.
        let mut longer = framed.clone();
        longer.extend_from_slice(b"xx");
        assert!(matches!(
            unframe(&longer),
            Err(FrameError::LengthMismatch { .. })
        ));
        // A same-length byte flip in the payload → checksum mismatch.
        let mut flipped = framed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x41;
        assert_eq!(unframe(&flipped), Err(FrameError::ChecksumMismatch));
        // A mangled header → BadHeader, not a panic.
        let mut bad_header = framed.clone();
        bad_header[0] = b'X';
        assert_eq!(unframe(&bad_header), Err(FrameError::BadHeader));
        // Garbage and the degenerate empty input.
        assert_eq!(unframe(b""), Err(FrameError::BadHeader));
        assert_eq!(unframe(b"LEAKFRAME/1"), Err(FrameError::BadHeader));
        assert_eq!(
            unframe(b"LEAKFRAME/1 zz da39\npayload"),
            Err(FrameError::BadHeader)
        );
    }

    #[test]
    fn unframe_partial_reassembles_at_every_boundary() {
        let text = encode(&sample_set());
        let framed = frame(&text);
        for cut in 0..framed.len() {
            match unframe_partial(&framed[..cut]) {
                Ok(FrameProgress::Incomplete { need }) => {
                    if let Some(total) = need {
                        assert_eq!(total, framed.len(), "cut {cut}: wrong need hint");
                    }
                }
                other => panic!("cut {cut}: prefix of a valid frame gave {other:?}"),
            }
        }
        let Ok(FrameProgress::Complete { payload, consumed }) = unframe_partial(&framed) else {
            panic!("whole frame must complete");
        };
        assert_eq!(payload, text);
        assert_eq!(consumed, framed.len());
    }

    #[test]
    fn unframe_partial_leaves_trailing_bytes_for_the_next_message() {
        let text = encode(&sample_set());
        let mut two = frame(&text);
        let first_len = two.len();
        two.extend_from_slice(&frame(""));
        let Ok(FrameProgress::Complete { payload, consumed }) = unframe_partial(&two) else {
            panic!("first frame must complete");
        };
        assert_eq!(payload, text);
        assert_eq!(consumed, first_len);
        let Ok(FrameProgress::Complete { payload, .. }) = unframe_partial(&two[consumed..]) else {
            panic!("second frame must complete");
        };
        assert_eq!(payload, "");
    }

    #[test]
    fn unframe_partial_rejects_garbage_on_the_first_divergent_byte() {
        // A preamble that is not the magic fails immediately, even as a
        // single byte — the reassembler never waits on garbage.
        assert_eq!(unframe_partial(b"X"), Err(FrameError::BadHeader));
        assert_eq!(unframe_partial(b"\xff\x00junk"), Err(FrameError::BadHeader));
        // A valid magic with a mangled rest of the header fails once the
        // newline arrives...
        assert_eq!(
            unframe_partial(b"LEAKFRAME/1 zz da39\n"),
            Err(FrameError::BadHeader)
        );
        // ...and a headerless flood fails once it exceeds the cap.
        let flood = [b' '; MAX_FRAME_HEADER + 1];
        let mut long = b"LEAKFRAME/1".to_vec();
        long.extend_from_slice(&flood);
        assert_eq!(unframe_partial(&long), Err(FrameError::BadHeader));
        // A checksum mismatch is malformed, not incomplete.
        let mut framed = frame("hello");
        let last = framed.len() - 1;
        framed[last] ^= 0x41;
        assert_eq!(unframe_partial(&framed), Err(FrameError::ChecksumMismatch));
        // The empty buffer is simply incomplete.
        assert_eq!(
            unframe_partial(b""),
            Ok(FrameProgress::Incomplete { need: None })
        );
    }

    #[test]
    fn frame_bytes_round_trips_non_utf8_payloads() {
        // A payload no &str can hold: raw header/body bytes as the WAL
        // journals them.
        let payload: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let framed = frame_bytes(&payload);
        let Ok(BytesProgress::Complete {
            payload: got,
            consumed,
        }) = unframe_bytes_partial(&framed)
        else {
            panic!("whole byte frame must complete");
        };
        assert_eq!(got, &payload[..]);
        assert_eq!(consumed, framed.len());
        // The UTF-8 scanner refuses the same bytes rather than lying.
        assert_eq!(unframe_partial(&framed), Err(FrameError::BadUtf8));
    }

    #[test]
    fn byte_frames_concatenate_like_a_wal() {
        // Three frames appended back to back scan out in order, and a
        // torn final frame reads as Incomplete — the recoverable tail —
        // not as corruption.
        let records: [&[u8]; 3] = [b"alpha", &[0xff, 0x00, 0x7f], b""];
        let mut log = Vec::new();
        for r in records {
            log.extend_from_slice(&frame_bytes(r));
        }
        let torn_start = log.len();
        log.extend_from_slice(&frame_bytes(b"torn-away-record")[..10]);

        let mut at = 0;
        let mut seen: Vec<Vec<u8>> = Vec::new();
        loop {
            match unframe_bytes_partial(&log[at..]) {
                Ok(BytesProgress::Complete { payload, consumed }) => {
                    seen.push(payload.to_vec());
                    at += consumed;
                }
                Ok(BytesProgress::Incomplete { .. }) => break,
                Err(e) => panic!("scan hit {e} at offset {at}"),
            }
        }
        assert_eq!(at, torn_start, "scan stops exactly at the torn tail");
        assert_eq!(seen, records.map(|r| r.to_vec()));

        // Same-length corruption inside an earlier frame is *not* a tear:
        // the scanner must refuse it loudly.
        let mut rotted = log.clone();
        rotted[frame_bytes(b"alpha").len() + 30] ^= 0x55;
        let first = frame_bytes(b"alpha").len();
        assert!(matches!(
            unframe_bytes_partial(&rotted[first..]),
            Err(FrameError::ChecksumMismatch)
        ));
    }

    /// Whitespace a forgiving header parser would skip.
    const WS: [&str; 5] = ["", " ", "\t", "  ", "\r"];

    /// The draws [`near_frame`] builds a frame from.
    type NearFrame = (
        Vec<u8>,
        (usize, usize, usize, usize),
        usize,
        bool,
        usize,
        Vec<u8>,
    );

    /// A frame of `payload` (ASCII) whose header may carry stray
    /// whitespace (`ws`: before the magic, after it, after the length and
    /// at the end, each an index into [`WS`]), a declared length off by
    /// `len_skew − 1` and another payload's digest, and whose payload may
    /// be cut short by `cut` bytes or run on by `extra`.
    fn near_frame((payload, ws, len_skew, wrong_digest, cut, extra): NearFrame) -> Vec<u8> {
        let len = (payload.len() + len_skew).saturating_sub(1);
        let digest = if wrong_digest {
            leaksig_hash::sha1_hex(b"another payload")
        } else {
            leaksig_hash::sha1_hex(&payload)
        };
        let (lead, sep1, sep2, tail) = (WS[ws.0], WS[ws.1], WS[ws.2], WS[ws.3]);
        let mut out = format!("{lead}{FRAME_MAGIC}{sep1}{len}{sep2}{digest}{tail}\n").into_bytes();
        out.extend_from_slice(&payload[..payload.len().saturating_sub(cut)]);
        out.extend_from_slice(&extra);
        out
    }

    /// `unframe` succeeds exactly when the streaming decoder reads one
    /// complete frame that uses every byte, with the same payload, and
    /// refuses a header exactly when the streaming decoder does (or is
    /// still waiting for the header line).
    fn assert_unframe_is_one_whole_frame(data: &[u8]) {
        let partial = unframe_partial(data);
        let whole = match partial {
            Ok(FrameProgress::Complete { payload, consumed }) if consumed == data.len() => {
                Some(payload)
            }
            _ => None,
        };
        let got = unframe(data);
        assert_eq!(got.as_ref().ok().copied(), whole, "{data:?}: {partial:?}");
        let bad_header = matches!(
            partial,
            Err(FrameError::BadHeader) | Ok(FrameProgress::Incomplete { need: None })
        );
        assert_eq!(
            got == Err(FrameError::BadHeader),
            bad_header,
            "{data:?}: {partial:?}"
        );
    }

    #[test]
    fn unframe_reads_the_streaming_header_grammar() {
        let good = frame("hello");
        // A leading space or a tab after the magic: the streaming decoder
        // refuses both on the first divergent byte, so `unframe` must too.
        let lead = [b" ".as_slice(), &good].concat();
        let tab = [b"LEAKFRAME/1\t".as_slice(), &good[12..]].concat();
        for data in [&lead, &tab] {
            assert_eq!(unframe(data), Err(FrameError::BadHeader));
            assert_unframe_is_one_whole_frame(data);
        }
        assert_unframe_is_one_whole_frame(&good);
        assert_eq!(unframe(&good), Ok("hello"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn unframe_is_the_streaming_decoder_on_the_whole_buffer(
            data in prop_oneof![
                (
                    proptest::collection::vec(0u8..128, 0..12),
                    (0usize..5, 0usize..5, 0usize..5, 0usize..5),
                    0usize..3,
                    any::<bool>(),
                    0usize..3,
                    proptest::collection::vec(any::<u8>(), 0..3),
                )
                    .prop_map(near_frame),
                proptest::collection::vec(any::<u8>(), 0..40),
            ],
        ) {
            assert_unframe_is_one_whole_frame(&data);
        }
    }

    #[test]
    fn frame_error_display() {
        assert!(FrameError::BadHeader.to_string().contains("LEAKFRAME/1"));
        assert!(FrameError::LengthMismatch {
            expected: 9,
            actual: 4
        }
        .to_string()
        .contains('9'));
        assert!(FrameError::ChecksumMismatch
            .to_string()
            .contains("checksum"));
        assert!(FrameError::BadUtf8.to_string().contains("UTF-8"));
    }
}
