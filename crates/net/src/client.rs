//! The client side of the frontier: a blocking uploader/sync peer, the
//! fault-wrapped stream that turns a drawn [`SocketFault`] into real
//! socket behaviour, a [`leaksig_device::Transport`] adapter so the
//! resilient [`SyncClient`](leaksig_device::SyncClient) machinery drives
//! real TCP, and a sequential chaos driver that replays a
//! [`SocketFaultPlan`] against a live server with a per-connection event
//! log.
//!
//! The fault *plan* (which connection misbehaves, how) lives in
//! `leaksig-faults` and is pure; this module is where the wall-clock
//! side effects happen — chunked writes, real stalls, abrupt closes.
//! Driving connections sequentially keeps a whole chaos soak
//! deterministic by seed: the server observes the same byte streams in
//! the same order every run.

use crate::proto::{encode_batch, encode_sync, BatchRecord, Reply};
use leaksig_core::wire::{unframe_partial, FrameProgress, MAX_FRAME_HEADER};
use leaksig_device::{Fetched, Transport, TransportError};
use leaksig_faults::{garbage_preamble, SocketFault, SocketFaultKind, SocketFaultPlan, Taxonomy};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side failure talking to a collection server.
#[derive(Debug)]
pub enum ClientError {
    /// Connect/read/write failed at the socket layer.
    Io(std::io::Error),
    /// The server's reply violated the protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The server's per-batch admission verdict, from its `ACK` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ack {
    /// Records admitted and queued.
    pub admitted: u64,
    /// Records refused by the token bucket.
    pub rate_limited: u64,
    /// Records quarantined.
    pub quarantined: u64,
    /// Records shed at the queue.
    pub shed: u64,
}

/// How one upload connection ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The batch was processed; the server's verdict counts.
    Acked(Ack),
    /// The server is at its connection cap.
    Busy,
    /// The server rejected the connection with an `ERR` reason.
    Rejected(String),
    /// The connection died before an acknowledgement (expected under
    /// stall/reset/half-frame faults: the server evicted or we hung up).
    Disconnected,
}

impl BatchOutcome {
    /// Stable lower-case label (event logs).
    pub fn label(&self) -> &'static str {
        match self {
            BatchOutcome::Acked(_) => "acked",
            BatchOutcome::Busy => "busy",
            BatchOutcome::Rejected(_) => "rejected",
            BatchOutcome::Disconnected => "disconnected",
        }
    }
}

/// Answer to a `SYNC` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncReply {
    /// Nothing newer than what we have.
    Current,
    /// A newer set: its version and the raw `LEAKFRAME/1` envelope
    /// bytes (unverified — the caller's envelope check stays in charge).
    Installed {
        /// Version the server claims.
        version: u64,
        /// The envelope bytes.
        frame: Vec<u8>,
    },
}

/// A blocking client for one collection server address. One connection
/// per operation: connect, speak, read the reply, close — the shape a
/// periodic uploader or sync daemon actually has.
#[derive(Debug, Clone)]
pub struct NetClient {
    addr: SocketAddr,
}

/// Per-operation I/O timeout of a [`NetClient`].
const IO_TIMEOUT: Duration = Duration::from_secs(2);

impl NetClient {
    /// A client for `addr` with a 2-second I/O timeout.
    pub fn new(addr: SocketAddr) -> Self {
        NetClient { addr }
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Upload one batch, optionally misbehaving per `fault`. Faulty
    /// writes that kill the connection report
    /// [`BatchOutcome::Disconnected`] rather than an error — that is
    /// the *intended* result of the fault, not a client failure.
    pub fn send_batch(
        &self,
        records: &[BatchRecord],
        fault: Option<SocketFault>,
    ) -> Result<BatchOutcome, ClientError> {
        let wire = encode_batch(records);
        let mut stream = self.connect()?;
        match write_with_fault(&mut stream, &wire, fault) {
            WriteEnd::Sent => {}
            WriteEnd::HungUp => return Ok(BatchOutcome::Disconnected),
        }
        match read_reply(&mut stream) {
            Ok(Reply::Ack {
                admitted,
                rate_limited,
                quarantined,
                shed,
            }) => Ok(BatchOutcome::Acked(Ack {
                admitted,
                rate_limited,
                quarantined,
                shed,
            })),
            Ok(Reply::Busy) => Ok(BatchOutcome::Busy),
            Ok(Reply::Err(reason)) => Ok(BatchOutcome::Rejected(reason)),
            Ok(other) => Err(ClientError::Protocol(format!(
                "unexpected reply to a batch: {other:?}"
            ))),
            Err(_) if fault.is_some() => Ok(BatchOutcome::Disconnected),
            Err(e) => Err(e),
        }
    }

    /// Ask for a signature set newer than `have`.
    pub fn sync(&self, have: u64) -> Result<SyncReply, ClientError> {
        let mut stream = self.connect()?;
        stream.write_all(encode_sync(have).as_bytes())?;
        match read_reply(&mut stream)? {
            Reply::Current => Ok(SyncReply::Current),
            Reply::Version(version) => {
                let frame = read_frame(&mut stream)?;
                Ok(SyncReply::Installed { version, frame })
            }
            Reply::Busy => Err(ClientError::Protocol("server busy".to_string())),
            Reply::Err(reason) => Err(ClientError::Protocol(format!("server said: {reason}"))),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to a sync: {other:?}"
            ))),
        }
    }
}

/// How a (possibly faulty) write ended.
enum WriteEnd {
    /// The payload (or the fault's substitute) was written; a reply may
    /// follow.
    Sent,
    /// The fault hung up the connection; no reply will ever come.
    HungUp,
}

/// Apply a drawn socket fault to a real write. This is the single place
/// where the pure fault taxonomy meets wall-clock side effects.
fn write_with_fault(stream: &mut TcpStream, wire: &[u8], fault: Option<SocketFault>) -> WriteEnd {
    let keep = |permille: u16| wire.len() * usize::from(permille) / 1000;
    match fault {
        None => {
            if stream.write_all(wire).is_err() {
                return WriteEnd::HungUp;
            }
            WriteEnd::Sent
        }
        Some(SocketFault::Chop { chunk }) => {
            let chunk = usize::from(chunk.max(1));
            for piece in wire.chunks(chunk) {
                if stream.write_all(piece).is_err() || stream.flush().is_err() {
                    return WriteEnd::HungUp;
                }
            }
            WriteEnd::Sent
        }
        Some(SocketFault::Stall { keep_permille, ms }) => {
            if stream.write_all(&wire[..keep(keep_permille)]).is_err() {
                return WriteEnd::HungUp;
            }
            std::thread::sleep(Duration::from_millis(ms));
            // The server has long since evicted us; whatever happens to
            // the late remainder is part of the fault.
            let _ = stream.write_all(&wire[keep(keep_permille)..]);
            WriteEnd::Sent
        }
        Some(SocketFault::Reset { keep_permille }) => {
            let _ = stream.write_all(&wire[..keep(keep_permille)]);
            // Drop without shutdown: the remainder simply never existed.
            WriteEnd::HungUp
        }
        Some(SocketFault::Garbage { bytes, seed }) => {
            if stream
                .write_all(&garbage_preamble(seed, usize::from(bytes)))
                .is_err()
            {
                return WriteEnd::HungUp;
            }
            WriteEnd::Sent
        }
        Some(SocketFault::HalfFrame { keep_permille }) => {
            if stream.write_all(&wire[..keep(keep_permille)]).is_err() {
                return WriteEnd::HungUp;
            }
            let _ = stream.shutdown(Shutdown::Write);
            WriteEnd::Sent
        }
    }
}

/// Read one `\n`-terminated reply line.
fn read_reply(stream: &mut TcpStream) -> Result<Reply, ClientError> {
    let line = read_line(stream)?;
    Reply::parse(line.trim_end_matches(['\r', '\n']))
        .ok_or_else(|| ClientError::Protocol(format!("unparsable reply line {line:?}")))
}

fn read_line(stream: &mut TcpStream) -> Result<String, ClientError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(ClientError::Protocol(
                    "connection closed before a reply line".to_string(),
                ))
            }
            Ok(_) => {
                line.push(byte[0]);
                if byte[0] == b'\n' {
                    break;
                }
                if line.len() > crate::proto::MAX_CONTROL_LINE {
                    return Err(ClientError::Protocol("overlong reply line".to_string()));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(ClientError::Io(e)),
        }
    }
    String::from_utf8(line).map_err(|_| ClientError::Protocol("binary reply line".to_string()))
}

/// Read one whole `LEAKFRAME/1` envelope using the streaming reassembler
/// — the client-side proof that `unframe_partial` handles arbitrary
/// socket read boundaries.
fn read_frame(stream: &mut TcpStream) -> Result<Vec<u8>, ClientError> {
    let mut buf = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        match unframe_partial(&buf) {
            Ok(FrameProgress::Complete { consumed, .. }) => {
                buf.truncate(consumed);
                return Ok(buf);
            }
            Ok(FrameProgress::Incomplete { .. }) => {}
            Err(e) => return Err(ClientError::Protocol(format!("bad frame: {e}"))),
        }
        if buf.len() > MAX_FRAME_HEADER + (64 << 20) {
            return Err(ClientError::Protocol(
                "frame beyond any sane size".to_string(),
            ));
        }
        match stream.read(&mut scratch) {
            Ok(0) => {
                return Err(ClientError::Protocol(
                    "connection closed mid-frame".to_string(),
                ))
            }
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(ClientError::Io(e)),
        }
    }
}

/// [`Transport`] over real TCP: plugs a live collection server into the
/// retrying [`SyncClient`](leaksig_device::SyncClient), so the whole
/// backoff/deadline/staleness machinery drives actual sockets.
pub struct TcpTransport {
    client: NetClient,
}

impl TcpTransport {
    /// A transport speaking to `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        TcpTransport {
            client: NetClient::new(addr),
        }
    }
}

impl Transport for TcpTransport {
    fn fetch(&mut self, have_version: u64) -> Result<Option<Fetched>, TransportError> {
        match self.client.sync(have_version) {
            Ok(SyncReply::Current) => Ok(None),
            Ok(SyncReply::Installed { version, frame }) => Ok(Some(Fetched {
                version,
                frame,
                latency_ms: 1,
            })),
            // Every socket-layer failure collapses to the transport
            // taxonomy's "exchange dropped"; the retry loop takes over.
            Err(_) => Err(TransportError::Dropped),
        }
    }
}

/// One line of the chaos driver's per-connection event log.
#[derive(Debug, Clone)]
pub struct ConnEvent {
    /// Connection sequence number (driving order).
    pub conn: usize,
    /// The fault drawn for this connection, if any.
    pub fault: Option<SocketFaultKind>,
    /// How the connection ended.
    pub outcome: BatchOutcome,
    /// Records carried by the attempted batch.
    pub packets: usize,
}

impl std::fmt::Display for ConnEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fault = self.fault.map_or("honest", |k| k.label());
        write!(
            f,
            "conn {:>4}  {:<8} {:<12} {} packets",
            self.conn,
            fault,
            self.outcome.label(),
            self.packets
        )?;
        if let BatchOutcome::Acked(ack) = &self.outcome {
            write!(
                f,
                "  (admitted {}, rate-limited {}, quarantined {}, shed {})",
                ack.admitted, ack.rate_limited, ack.quarantined, ack.shed
            )?;
        }
        if let BatchOutcome::Rejected(reason) = &self.outcome {
            write!(f, "  ({reason})")?;
        }
        Ok(())
    }
}

/// Drive `batches` against `addr` sequentially, one connection per
/// batch, each connection's behaviour drawn from `plan`. Sequential
/// driving is what makes the whole soak deterministic by seed.
pub fn drive_chaos(
    addr: SocketAddr,
    plan: &mut SocketFaultPlan,
    batches: &[Vec<BatchRecord>],
) -> Result<Vec<ConnEvent>, ClientError> {
    let client = NetClient::new(addr);
    let mut events = Vec::with_capacity(batches.len());
    for (conn, records) in batches.iter().enumerate() {
        let fault = plan.next_action();
        let outcome = client.send_batch(records, fault)?;
        events.push(ConnEvent {
            conn,
            fault: fault.map(|f| f.kind()),
            outcome,
            packets: records.len(),
        });
    }
    Ok(events)
}
