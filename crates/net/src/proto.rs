//! The collection frontier's wire grammar.
//!
//! Two message families cross a connection:
//!
//! * **`LEAKBATCH/1`** — client → server packet ingest. A checksummed
//!   length-prefixed envelope in the style of `LEAKFRAME/1`
//!   ([`leaksig_core::wire::frame`]), carrying raw captured wire images
//!   tagged with their capture destination:
//!
//!   ```text
//!   LEAKBATCH/1 <count> <body-len> <sha1-hex>\n
//!   rec <ipv4> <port> <len>\n<len raw bytes>      (× count)
//!   ```
//!
//!   The SHA-1 covers the body (every record). Record payloads are raw
//!   bytes — they may contain newlines, NULs, anything — so each is
//!   length-prefixed, never delimiter-framed.
//!
//! * **Control lines** — single `\n`-terminated ASCII lines. Client →
//!   server: `SYNC <have>\n` asks for a signature set newer than
//!   version `have`. Server → client ([`Reply`]): `ACK`, `ERR`, `BUSY`,
//!   `CURRENT`, or `VERSION <v>\n` followed by a full `LEAKFRAME/1`
//!   envelope of the published wire text.
//!
//! [`decode_batch_partial_ref`] mirrors
//! [`leaksig_core::wire::unframe_partial`]'s three-way contract —
//! *incomplete* (wait for more bytes), *complete* (consume exactly this
//! many), *malformed* (reject the connection) — so a server can feed it
//! arbitrary read slices and get whole-buffer-identical decodes.

use std::net::Ipv4Addr;
use std::str::FromStr;

/// Magic token opening every batch envelope.
pub const BATCH_MAGIC: &str = "LEAKBATCH/1";

/// Prefix of the client's sync control line.
pub const SYNC_PREFIX: &str = "SYNC ";

/// Longest well-formed batch header or control line, including the
/// newline. Buffers exceeding this without a newline are malformed — a
/// reader never buffers unbounded garbage hunting for one.
pub const MAX_CONTROL_LINE: usize = 96;

/// One captured wire image heading for
/// [`leaksig_device::CollectionServer::ingest_raw`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Raw request bytes exactly as captured (untrusted).
    pub raw: Vec<u8>,
    /// Capture destination address.
    pub ip: Ipv4Addr,
    /// Capture destination port.
    pub port: u16,
}

impl BatchRecord {
    /// A record carrying `packet`'s own wire image and destination.
    pub fn from_packet(packet: &leaksig_http::HttpPacket) -> Self {
        BatchRecord {
            raw: packet.to_bytes(),
            ip: packet.destination.ip,
            port: packet.destination.port,
        }
    }
}

/// Encode records into one `LEAKBATCH/1` envelope.
pub fn encode_batch(records: &[BatchRecord]) -> Vec<u8> {
    let mut body = Vec::new();
    for r in records {
        body.extend_from_slice(format!("rec {} {} {}\n", r.ip, r.port, r.raw.len()).as_bytes());
        body.extend_from_slice(&r.raw);
    }
    let mut out = format!(
        "{BATCH_MAGIC} {} {} {}\n",
        records.len(),
        body.len(),
        leaksig_hash::sha1_hex(&body)
    )
    .into_bytes();
    out.extend_from_slice(&body);
    out
}

/// Why a batch envelope was rejected. Every variant means *close the
/// connection*: the stream position is unrecoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// The header diverges from the grammar (bad magic, unparsable
    /// counts, oversized header line).
    BadHeader,
    /// The declared body length exceeds the receiver's buffer budget.
    TooLarge {
        /// Declared body length in bytes.
        declared: usize,
    },
    /// The body arrived but its SHA-1 does not match the header.
    ChecksumMismatch,
    /// The checksum held but the records inside do not parse cleanly or
    /// do not tile the body exactly.
    BadRecord,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::BadHeader => write!(f, "missing or mangled {BATCH_MAGIC} header"),
            BatchError::TooLarge { declared } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds the buffer budget"
                )
            }
            BatchError::ChecksumMismatch => write!(f, "batch body does not match its checksum"),
            BatchError::BadRecord => write!(f, "batch body is not a clean tiling of records"),
        }
    }
}

impl std::error::Error for BatchError {}

/// One captured wire image *borrowed* from the receive buffer: the
/// zero-copy twin of [`BatchRecord`], produced by
/// [`decode_batch_partial_ref`]. Valid while the buffer it was decoded
/// from is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecordRef<'a> {
    /// Raw request bytes exactly as captured (untrusted), borrowed from
    /// the envelope body.
    pub raw: &'a [u8],
    /// Capture destination address.
    pub ip: Ipv4Addr,
    /// Capture destination port.
    pub port: u16,
}

/// Streaming decode state for one batch envelope. Record payloads stay
/// in the receive buffer instead of being copied out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchProgressRef<'a> {
    /// Valid so far but not all there. `need` is the total envelope
    /// size once the header has been seen, `None` while even the header
    /// is still arriving.
    Incomplete {
        /// Total bytes (from the start of the envelope) needed, if known.
        need: Option<usize>,
    },
    /// A whole envelope decoded without copying any payload.
    Complete {
        /// The decoded record views, in wire order, borrowing `data`.
        records: Vec<BatchRecordRef<'a>>,
        /// Bytes of the buffer consumed by this envelope.
        consumed: usize,
    },
}

/// Incrementally decode a batch envelope from the front of `data`.
///
/// `max_body` bounds the declared body length ([`BatchError::TooLarge`]
/// past it) so a hostile header cannot command unbounded buffering.
/// Identical to decoding the whole buffer at once: feeding prefixes
/// returns `Incomplete` until the full envelope is present, never a
/// different verdict. Record payloads are returned as slices into
/// `data`, so the ingest hot path hands them straight to the detector
/// without materialising a `Vec` per record.
pub fn decode_batch_partial_ref(
    data: &[u8],
    max_body: usize,
) -> Result<BatchProgressRef<'_>, BatchError> {
    let magic = BATCH_MAGIC.as_bytes();
    // Reject divergence from the magic immediately, even mid-prefix.
    for (i, &b) in data.iter().take(magic.len() + 1).enumerate() {
        let want = if i < magic.len() { magic[i] } else { b' ' };
        if b != want {
            return Err(BatchError::BadHeader);
        }
    }
    let Some(newline) = data.iter().position(|&b| b == b'\n') else {
        if data.len() >= MAX_CONTROL_LINE {
            return Err(BatchError::BadHeader);
        }
        return Ok(BatchProgressRef::Incomplete { need: None });
    };
    if newline >= MAX_CONTROL_LINE {
        return Err(BatchError::BadHeader);
    }
    let header = std::str::from_utf8(&data[..newline]).map_err(|_| BatchError::BadHeader)?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some(BATCH_MAGIC) {
        return Err(BatchError::BadHeader);
    }
    let count: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(BatchError::BadHeader)?;
    let body_len: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(BatchError::BadHeader)?;
    let digest = parts.next().ok_or(BatchError::BadHeader)?;
    if parts.next().is_some() {
        return Err(BatchError::BadHeader);
    }
    if body_len > max_body {
        return Err(BatchError::TooLarge { declared: body_len });
    }
    // Each record costs at least its `rec` line: a count wildly out of
    // proportion to the body is malformed before the body even arrives.
    if count > body_len {
        return Err(BatchError::BadRecord);
    }
    let body_start = newline + 1;
    let total = body_start + body_len;
    if data.len() < total {
        return Ok(BatchProgressRef::Incomplete { need: Some(total) });
    }
    let body = &data[body_start..total];
    if !leaksig_hash::verify_sha1_hex(body, digest) {
        return Err(BatchError::ChecksumMismatch);
    }
    let mut records = Vec::with_capacity(count);
    let mut pos = 0usize;
    for _ in 0..count {
        let rest = &body[pos..];
        let nl = rest
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(BatchError::BadRecord)?;
        if nl >= MAX_CONTROL_LINE {
            return Err(BatchError::BadRecord);
        }
        let line = std::str::from_utf8(&rest[..nl]).map_err(|_| BatchError::BadRecord)?;
        let mut parts = line.split_whitespace();
        if parts.next() != Some("rec") {
            return Err(BatchError::BadRecord);
        }
        let ip = parts
            .next()
            .and_then(|s| Ipv4Addr::from_str(s).ok())
            .ok_or(BatchError::BadRecord)?;
        let port: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(BatchError::BadRecord)?;
        let len: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(BatchError::BadRecord)?;
        if parts.next().is_some() {
            return Err(BatchError::BadRecord);
        }
        let payload_start = pos + nl + 1;
        let payload_end = payload_start
            .checked_add(len)
            .ok_or(BatchError::BadRecord)?;
        if payload_end > body.len() {
            return Err(BatchError::BadRecord);
        }
        records.push(BatchRecordRef {
            raw: &body[payload_start..payload_end],
            ip,
            port,
        });
        pos = payload_end;
    }
    if pos != body_len {
        return Err(BatchError::BadRecord);
    }
    Ok(BatchProgressRef::Complete {
        records,
        consumed: total,
    })
}

/// Encode the client's sync control line.
pub fn encode_sync(have: u64) -> String {
    format!("{SYNC_PREFIX}{have}\n")
}

/// Parse a sync control line (without the trailing newline).
pub fn parse_sync(line: &str) -> Option<u64> {
    let rest = line.strip_prefix(SYNC_PREFIX)?;
    let mut words = rest.split_whitespace();
    let have: u64 = words.next()?.parse().ok()?;
    // Reject internal garbage like "SYNC 1 2".
    words.next().is_none().then_some(have)
}

/// A server → client control line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The batch was processed; per-record admission verdict counts
    /// (matching [`leaksig_device::IngestOutcome`] buckets).
    Ack {
        /// Records parsed, admitted, and queued.
        admitted: u64,
        /// Records refused by the per-source token bucket.
        rate_limited: u64,
        /// Records quarantined (malformed HTTP, poison re-ingest).
        quarantined: u64,
        /// Records sacrificed by the shed policy.
        shed: u64,
    },
    /// The connection cap is reached; the server closes after this.
    Busy,
    /// The device's signature set is already current.
    Current,
    /// A newer set follows as a `LEAKFRAME/1` envelope at this version.
    Version(u64),
    /// Protocol violation; the server closes after this.
    Err(String),
}

impl Reply {
    /// Encode as one control line (including the newline).
    pub fn encode(&self) -> String {
        match self {
            Reply::Ack {
                admitted,
                rate_limited,
                quarantined,
                shed,
            } => format!("ACK {admitted} {rate_limited} {quarantined} {shed}\n"),
            Reply::Busy => "BUSY\n".to_string(),
            Reply::Current => "CURRENT\n".to_string(),
            Reply::Version(v) => format!("VERSION {v}\n"),
            Reply::Err(reason) => format!("ERR {reason}\n"),
        }
    }

    /// Parse one control line (without the trailing newline).
    pub fn parse(line: &str) -> Option<Reply> {
        let mut parts = line.split_whitespace();
        let reply = match parts.next()? {
            "ACK" => {
                let mut next = || parts.next().and_then(|s| s.parse::<u64>().ok());
                Reply::Ack {
                    admitted: next()?,
                    rate_limited: next()?,
                    quarantined: next()?,
                    shed: next()?,
                }
            }
            "BUSY" => Reply::Busy,
            "CURRENT" => Reply::Current,
            "VERSION" => Reply::Version(parts.next()?.parse().ok()?),
            "ERR" => return Some(Reply::Err(line.get(4..).unwrap_or("").trim().to_string())),
            _ => return None,
        };
        parts.next().is_none().then_some(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<BatchRecord> {
        vec![
            BatchRecord {
                raw: b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
                ip: Ipv4Addr::new(203, 0, 113, 5),
                port: 80,
            },
            BatchRecord {
                raw: b"binary\x00payload\nwith newlines".to_vec(),
                ip: Ipv4Addr::new(198, 51, 100, 9),
                port: 8080,
            },
            BatchRecord {
                raw: Vec::new(),
                ip: Ipv4Addr::LOCALHOST,
                port: 1,
            },
        ]
    }

    #[test]
    fn batch_roundtrips_at_every_split() {
        let recs = records();
        let wire = encode_batch(&recs);
        for cut in 0..wire.len() {
            match decode_batch_partial_ref(&wire[..cut], 1 << 20) {
                Ok(BatchProgressRef::Incomplete { need }) => {
                    if let Some(need) = need {
                        assert_eq!(need, wire.len(), "need hint must be exact at cut {cut}");
                    }
                }
                other => panic!("prefix of {cut} bytes must be incomplete, got {other:?}"),
            }
        }
        let mut with_trailer = wire.clone();
        with_trailer.extend_from_slice(b"SYNC 3\n");
        let Ok(BatchProgressRef::Complete { records, consumed }) =
            decode_batch_partial_ref(&with_trailer, 1 << 20)
        else {
            panic!("full envelope must decode");
        };
        let views: Vec<(&[u8], Ipv4Addr, u16)> =
            records.iter().map(|r| (r.raw, r.ip, r.port)).collect();
        let want: Vec<(&[u8], Ipv4Addr, u16)> =
            recs.iter().map(|r| (&r.raw[..], r.ip, r.port)).collect();
        assert_eq!(views, want);
        assert_eq!(consumed, wire.len(), "trailer belongs to the next message");
    }

    #[test]
    fn empty_batch_roundtrips() {
        let wire = encode_batch(&[]);
        let Ok(BatchProgressRef::Complete { records, consumed }) =
            decode_batch_partial_ref(&wire, 1 << 20)
        else {
            panic!("empty batch must decode");
        };
        assert!(records.is_empty());
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn malformed_batches_are_rejected_not_buffered() {
        // First divergent byte is enough.
        assert_eq!(
            decode_batch_partial_ref(b"X", 1 << 20),
            Err(BatchError::BadHeader)
        );
        assert_eq!(
            decode_batch_partial_ref(b"\xff\xfe\xfd", 1 << 20),
            Err(BatchError::BadHeader)
        );
        // A headerless flood larger than any legal line is malformed.
        let flood = vec![b'L'; MAX_CONTROL_LINE + 1];
        assert_eq!(
            decode_batch_partial_ref(&flood, 1 << 20),
            Err(BatchError::BadHeader)
        );
        // Oversized declared body is refused before it is buffered.
        let wire = encode_batch(&records());
        assert!(matches!(
            decode_batch_partial_ref(&wire, 4),
            Err(BatchError::TooLarge { .. })
        ));
        // A flipped body byte fails the checksum.
        let mut bad = wire.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(
            decode_batch_partial_ref(&bad, 1 << 20),
            Err(BatchError::ChecksumMismatch)
        );
        // A checksum-consistent but record-inconsistent body is refused:
        // re-frame a garbage body under a correct digest.
        let body = b"not a record tiling";
        let forged = format!(
            "{BATCH_MAGIC} 1 {} {}\n",
            body.len(),
            leaksig_hash::sha1_hex(body)
        );
        let mut forged = forged.into_bytes();
        forged.extend_from_slice(body);
        assert_eq!(
            decode_batch_partial_ref(&forged, 1 << 20),
            Err(BatchError::BadRecord)
        );
        // Count cannot exceed what the body could possibly hold.
        let empty_body_header = format!("{BATCH_MAGIC} 5 0 {}\n", leaksig_hash::sha1_hex(b""));
        assert_eq!(
            decode_batch_partial_ref(empty_body_header.as_bytes(), 1 << 20),
            Err(BatchError::BadRecord)
        );
    }

    #[test]
    fn control_lines_roundtrip() {
        assert_eq!(parse_sync(encode_sync(42).trim_end()), Some(42));
        assert_eq!(parse_sync("SYNC x"), None);
        assert_eq!(parse_sync("SYNC 1 2"), None);
        assert_eq!(parse_sync("SYNK 1"), None);

        let replies = [
            Reply::Ack {
                admitted: 3,
                rate_limited: 1,
                quarantined: 0,
                shed: 2,
            },
            Reply::Busy,
            Reply::Current,
            Reply::Version(17),
            Reply::Err("bad-magic".to_string()),
        ];
        for r in replies {
            let line = r.encode();
            assert!(line.ends_with('\n'));
            assert_eq!(Reply::parse(line.trim_end()), Some(r));
        }
        assert_eq!(Reply::parse("ACK 1 2"), None, "short ACK is malformed");
        assert_eq!(Reply::parse("NOPE"), None);
        assert_eq!(Reply::parse("BUSY extra"), None);
    }
}
