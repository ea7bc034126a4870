//! Per-connection state: buffered bytes in, queued bytes out, deadlines.
//!
//! The protocol work is a pure function, [`extract`], over the
//! connection's read buffer: it dispatches on the first bytes (a `SYNC `
//! control line vs a `LEAKBATCH/1` envelope), tolerates arbitrary read
//! boundaries, and classifies everything else as garbage on the first
//! divergent byte. The event loop ([`crate::server`]) owns the sockets
//! and the clock; nothing in this module does I/O, so the state machine
//! is testable byte-by-byte without a socket.

use crate::proto::{
    decode_batch_partial_ref, parse_sync, BatchProgressRef, BatchRecordRef, BATCH_MAGIC,
    MAX_CONTROL_LINE, SYNC_PREFIX,
};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// A complete client → server message. Batch records borrow the read
/// buffer they were extracted from (zero-copy): process them before
/// draining the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inbound<'a> {
    /// `SYNC <have>`: the device asks for anything newer.
    Sync {
        /// The device's installed version.
        have: u64,
    },
    /// A decoded `LEAKBATCH/1` envelope.
    Batch {
        /// The record views, in wire order, borrowing the read buffer.
        records: Vec<BatchRecordRef<'a>>,
    },
}

/// One step of the extraction state machine over a read buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<'a> {
    /// The buffer holds a valid prefix; wait for more bytes. `need` is
    /// the known total message size, when the header has been seen.
    Wait {
        /// Total bytes needed for the pending message, if known.
        need: Option<usize>,
    },
    /// A whole message; `consumed` bytes belong to it.
    Message {
        /// The decoded message.
        msg: Inbound<'a>,
        /// Bytes of the buffer it consumed.
        consumed: usize,
    },
    /// The buffer can never become a valid message: reject the
    /// connection with this stable reason tag.
    Reject(&'static str),
}

/// Whether `buf` could still grow into a string starting with `pat`.
fn prefix_compatible(buf: &[u8], pat: &[u8]) -> bool {
    let n = buf.len().min(pat.len());
    buf[..n] == pat[..n]
}

/// Extract the next message from the front of `buf`.
///
/// `max_body` bounds batch bodies (see
/// [`crate::proto::decode_batch_partial_ref`]). The dispatch is incremental:
/// with one byte buffered, `b"S"` waits (could become `SYNC `), `b"L"`
/// waits (could become `LEAKBATCH/1 `), `b"X"` rejects immediately —
/// garbage never earns buffer space beyond its first divergent byte.
pub fn extract(buf: &[u8], max_body: usize) -> Step<'_> {
    if buf.is_empty() {
        return Step::Wait { need: None };
    }
    let sync_pat = SYNC_PREFIX.as_bytes();
    if prefix_compatible(buf, sync_pat) {
        // Inside the control line now; it must terminate within bounds.
        let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
            if buf.len() >= MAX_CONTROL_LINE {
                return Step::Reject("sync-overlong");
            }
            return Step::Wait { need: None };
        };
        if nl >= MAX_CONTROL_LINE {
            return Step::Reject("sync-overlong");
        }
        let Ok(line) = std::str::from_utf8(&buf[..nl]) else {
            return Step::Reject("sync-binary");
        };
        return match parse_sync(line.trim_end_matches('\r')) {
            Some(have) => Step::Message {
                msg: Inbound::Sync { have },
                consumed: nl + 1,
            },
            None => Step::Reject("sync-malformed"),
        };
    }
    if prefix_compatible(buf, format!("{BATCH_MAGIC} ").as_bytes()) {
        return match decode_batch_partial_ref(buf, max_body) {
            Ok(BatchProgressRef::Incomplete { need }) => Step::Wait { need },
            Ok(BatchProgressRef::Complete { records, consumed }) => Step::Message {
                msg: Inbound::Batch { records },
                consumed,
            },
            Err(e) => Step::Reject(match e {
                crate::proto::BatchError::BadHeader => "batch-header",
                crate::proto::BatchError::TooLarge { .. } => "batch-too-large",
                crate::proto::BatchError::ChecksumMismatch => "batch-checksum",
                crate::proto::BatchError::BadRecord => "batch-record",
            }),
        };
    }
    Step::Reject("bad-magic")
}

/// Why a connection left the event loop. Exactly one terminal reason is
/// recorded per accepted connection, so the server's counters reconcile:
/// `accepted = Σ` terminals once every connection has closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// EOF with an empty buffer and nothing owed: a polite goodbye.
    Clean,
    /// EOF or a read/write error with a message half-buffered: the peer
    /// vanished mid-frame (reset, truncated upload).
    Aborted,
    /// The peer spoke garbage; an `ERR` line was sent first.
    Rejected,
    /// A message sat incomplete past the frame deadline, or the peer
    /// refused to drain our writes past the write deadline (slowloris).
    EvictedStalled,
    /// No bytes in either direction past the idle deadline.
    EvictedIdle,
    /// The global buffer budget forced this connection out.
    EvictedBudget,
}

/// One live connection owned by the event loop.
pub struct Conn {
    /// The non-blocking socket.
    pub stream: TcpStream,
    /// Peer address (event logs).
    pub peer: SocketAddr,
    /// Monotonic connection id (event logs).
    pub id: u64,
    /// Bytes read but not yet consumed by [`extract`].
    pub buf: Vec<u8>,
    /// Bytes queued to write, from `out_pos` on.
    pub out: Vec<u8>,
    /// How much of `out` is already written.
    pub out_pos: usize,
    /// Last moment any byte moved in either direction.
    pub last_activity: Instant,
    /// When the currently-buffered partial message started arriving;
    /// `None` between messages. The frame deadline measures from here —
    /// from the message's *first* byte, so a slowloris feeding one byte
    /// per poll cannot reset it the way it resets `last_activity`.
    pub msg_start: Option<Instant>,
    /// Set once the connection should flush `out` and close (after an
    /// `ERR`, or on drain-shutdown).
    pub closing: Option<CloseReason>,
}

impl Conn {
    /// Adopt an accepted socket.
    pub fn new(stream: TcpStream, peer: SocketAddr, id: u64, now: Instant) -> Self {
        Conn {
            stream,
            peer,
            id,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            last_activity: now,
            msg_start: None,
            closing: None,
        }
    }

    /// Bytes currently owed to the peer.
    pub fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Queue reply bytes.
    pub fn push_out(&mut self, bytes: &[u8]) {
        // Reclaim the flushed prefix before growing.
        if self.out_pos > 0 && self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_batch, BatchRecord};
    use std::net::Ipv4Addr;

    fn rec(i: u8) -> BatchRecord {
        BatchRecord {
            raw: format!("GET /{i} HTTP/1.1\r\nHost: h\r\n\r\n").into_bytes(),
            ip: Ipv4Addr::new(203, 0, 113, i),
            port: 80,
        }
    }

    #[test]
    fn dispatch_handles_split_reads_and_pipelining() {
        let batch = encode_batch(&[rec(1), rec(2)]);
        let mut wire = batch.clone();
        wire.extend_from_slice(b"SYNC 7\n");

        // Every prefix of the batch waits; then the batch decodes and
        // the sync line is untouched behind it.
        for cut in 1..batch.len() {
            match extract(&wire[..cut], 1 << 20) {
                Step::Wait { .. } => {}
                other => panic!("cut {cut}: expected wait, got {other:?}"),
            }
        }
        let Step::Message { msg, consumed } = extract(&wire, 1 << 20) else {
            panic!("complete batch must extract");
        };
        assert_eq!(consumed, batch.len());
        let Inbound::Batch { records } = msg else {
            panic!("expected batch");
        };
        assert_eq!(records.len(), 2);
        assert_eq!(
            extract(&wire[consumed..], 1 << 20),
            Step::Message {
                msg: Inbound::Sync { have: 7 },
                consumed: 7,
            }
        );
    }

    #[test]
    fn sync_line_arrives_byte_by_byte() {
        let line = b"SYNC 123\n";
        for cut in 0..line.len() {
            assert_eq!(
                extract(&line[..cut], 1 << 20),
                Step::Wait { need: None },
                "cut {cut}"
            );
        }
        assert_eq!(
            extract(line, 1 << 20),
            Step::Message {
                msg: Inbound::Sync { have: 123 },
                consumed: line.len(),
            }
        );
        // CRLF-terminated lines work too.
        assert_eq!(
            extract(b"SYNC 5\r\n", 1 << 20),
            Step::Message {
                msg: Inbound::Sync { have: 5 },
                consumed: 8,
            }
        );
    }

    #[test]
    fn garbage_is_rejected_on_the_first_divergent_byte() {
        assert_eq!(extract(b"X", 1 << 20), Step::Reject("bad-magic"));
        assert_eq!(extract(b"\xff\x80", 1 << 20), Step::Reject("bad-magic"));
        assert_eq!(
            extract(b"SYNC nope\n", 1 << 20),
            Step::Reject("sync-malformed")
        );
        assert_eq!(extract(b"SYNCX", 1 << 20), Step::Reject("bad-magic"));
        let overlong = [b"SYNC ".as_slice(), &[b'9'; MAX_CONTROL_LINE]].concat();
        assert_eq!(extract(&overlong, 1 << 20), Step::Reject("sync-overlong"));
        // Ambiguous single bytes stay patient.
        assert_eq!(extract(b"S", 1 << 20), Step::Wait { need: None });
        assert_eq!(extract(b"L", 1 << 20), Step::Wait { need: None });
        assert_eq!(extract(b"", 1 << 20), Step::Wait { need: None });
    }

    #[test]
    fn batch_errors_map_to_stable_reject_tags() {
        let batch = encode_batch(&[rec(1)]);
        let mut bad = batch.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(extract(&bad, 1 << 20), Step::Reject("batch-checksum"));
        assert_eq!(extract(&batch, 4), Step::Reject("batch-too-large"));
    }
}
