//! The collection server's durable state, factored out of
//! [`CollectionServer`](crate::CollectionServer) behind the
//! [`StateStore`] trait.
//!
//! **What is durable.** The paper's server accumulates crowd-sourced
//! leak evidence between regenerations; losing it on a crash throws away
//! every user's uploads since the last snapshot. The durable slice is
//! exactly the state whose loss is *unrecoverable*: the suspicious-packet
//! reservoir, the quarantine ledger, the last published signature
//! generation, the monotonic [`ServerStats`] counters, and the sampling
//! RNG state (so a restarted server draws the same shuffle a
//! never-restarted one would). Everything else the server holds —
//! admission queue, normal-traffic ring, token buckets, poison hashes,
//! the logical clock — is flow control or a rebuildable cache and
//! deliberately stays volatile; see the counter-lifecycle notes on
//! [`CollectionServer::stats`](crate::CollectionServer::stats).
//!
//! **How mutations travel.** The server never pokes fields: it computes
//! a batch of [`StateOp`]s (slots pre-decided, so replay never consults
//! an RNG) and hands them to [`StateStore::apply`]. [`apply_op`] is the
//! single transition function — the in-memory backend, the WAL backend's
//! live path, and crash recovery all replay the same code, which is what
//! makes the crash-recovery differential harness's prefix assertion
//! meaningful.
//!
//! Two backends implement the trait: [`MemoryStore`] (this module) is
//! the original in-memory blob; [`WalStore`](crate::wal::WalStore) adds
//! the checksummed write-ahead log + snapshot compaction.

use crate::server::{QuarantineReason, QuarantineRecord, ServerStats};
use leaksig_http::{Destination, HttpPacket, Method, ParseError, RequestLine};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

const STATE_MAGIC: &str = "LEAKSTATE/1";

/// The part of the collection server that must survive a restart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableState {
    /// Uniform sample of suspicious packets seen so far.
    pub reservoir: Vec<HttpPacket>,
    /// Most recent quarantine records (bounded by the cap carried on
    /// each [`StateOp::Quarantine`]).
    pub ledger: VecDeque<QuarantineRecord>,
    /// Version + wire text of the last published signature set, for
    /// republication after restart.
    pub last_publish: Option<(u64, String)>,
    /// Monotonic counters.
    pub stats: ServerStats,
    /// Sampling-RNG state captured after the last RNG-consuming batch;
    /// `None` until the RNG is first used.
    pub rng_state: Option<[u64; 4]>,
}

/// One durable state transition, with every random decision already
/// made: replaying a recorded op sequence is deterministic and RNG-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateOp {
    /// A suspicious packet landed in the reservoir: appended when `slot`
    /// equals the current length, otherwise replacing `slot` (the
    /// reservoir-sampling draw, pre-decided by the server).
    Suspect {
        /// The packet.
        packet: HttpPacket,
        /// Decided reservoir position.
        slot: usize,
    },
    /// A suspicious packet was seen but the reservoir draw rejected it:
    /// counters move, the reservoir does not.
    SuspectDropped,
    /// A normal packet was classified: counters only (the normal ring is
    /// volatile by design — it is an FP-validation cache, not evidence).
    Normal,
    /// Raw-intake accounting deltas for one `ingest_raw` offer.
    Intake {
        /// Delta for [`ServerStats::raw_seen`].
        raw_seen: u64,
        /// Delta for [`ServerStats::rate_limited`].
        rate_limited: u64,
        /// Delta for [`ServerStats::shed`].
        shed: u64,
        /// Delta for [`ServerStats::admitted`].
        admitted: u64,
    },
    /// A quarantine ledger admission.
    Quarantine {
        /// Ledger bound at the time of the admission (replay applies the
        /// same eviction).
        cap: usize,
        /// Whether this admission also counts as a parse reject.
        parse_reject: bool,
        /// The record.
        record: QuarantineRecord,
    },
    /// Remove the reservoir entry at `slot` (poison eviction; later
    /// entries shift down, mirroring `Vec::remove`).
    Evict {
        /// Position to remove.
        slot: usize,
    },
    /// A gated publish succeeded at `version` with this wire text.
    Publish {
        /// Version the publisher assigned.
        version: u64,
        /// `leaksig-core` wire text of the published set.
        wire: String,
    },
    /// A regeneration ran but the deploy gate refused the result.
    RejectedPublish,
    /// Checkpoint of the sampling RNG after a batch that consumed it.
    Rng {
        /// xoshiro256++ state words.
        state: [u64; 4],
    },
}

/// What [`StateStore::apply`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// Every op in the batch was applied.
    Applied,
    /// The backend refused the whole batch (fail-closed degraded mode);
    /// no op was applied, and the refusal was counted in
    /// [`ServerStats::durability_refused`].
    Refused,
}

/// Durability level a [`StateStore`] currently provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// In-memory only, by construction.
    Memory,
    /// WAL + snapshots healthy: applied ops reach disk at the next group
    /// flush.
    Durable,
    /// The WAL append path failed; the store runs memory-only until a
    /// compaction succeeds and re-arms it.
    Degraded,
}

impl Durability {
    /// Stable lower-case label (CLI/event logs).
    pub fn label(self) -> &'static str {
        match self {
            Durability::Memory => "memory",
            Durability::Durable => "durable",
            Durability::Degraded => "degraded",
        }
    }
}

/// Apply one op to the state. The single transition function: the live
/// path and WAL replay run exactly this code.
pub fn apply_op(state: &mut DurableState, op: &StateOp) {
    match op {
        StateOp::Suspect { packet, slot } => {
            state.stats.ingested += 1;
            state.stats.suspicious += 1;
            if *slot == state.reservoir.len() {
                state.reservoir.push(packet.clone());
            } else if *slot < state.reservoir.len() {
                state.reservoir[*slot] = packet.clone();
            }
        }
        StateOp::SuspectDropped => {
            state.stats.ingested += 1;
            state.stats.suspicious += 1;
        }
        StateOp::Normal => {
            state.stats.ingested += 1;
            state.stats.normal += 1;
        }
        StateOp::Intake {
            raw_seen,
            rate_limited,
            shed,
            admitted,
        } => {
            state.stats.raw_seen += raw_seen;
            state.stats.rate_limited += rate_limited;
            state.stats.shed += shed;
            state.stats.admitted += admitted;
        }
        StateOp::Quarantine {
            cap,
            parse_reject,
            record,
        } => {
            if *parse_reject {
                state.stats.parse_rejects += 1;
            }
            state.stats.quarantined += 1;
            state.ledger.push_back(record.clone());
            while state.ledger.len() > (*cap).max(1) {
                state.ledger.pop_front();
            }
        }
        StateOp::Evict { slot } => {
            if *slot < state.reservoir.len() {
                state.reservoir.remove(*slot);
            }
        }
        StateOp::Publish { version, wire } => {
            state.stats.regenerations += 1;
            state.last_publish = Some((*version, wire.clone()));
        }
        StateOp::RejectedPublish => {
            state.stats.regenerations += 1;
            state.stats.rejected_publishes += 1;
        }
        StateOp::Rng { state: words } => {
            state.rng_state = Some(*words);
        }
    }
}

/// Pluggable backend for the collection server's durable state.
///
/// Implementations hold the authoritative [`DurableState`] in memory
/// (reads stay lock-cheap either way) and differ in what happens to an
/// applied batch afterwards: nothing ([`MemoryStore`]), or an append to
/// a checksummed WAL with periodic snapshot compaction
/// ([`WalStore`](crate::wal::WalStore)).
pub trait StateStore: Send {
    /// The current state (always the in-memory authority).
    fn state(&self) -> &DurableState;
    /// Apply a batch of ops atomically with respect to durability: a
    /// durable backend logs the whole batch in one record, so recovery
    /// never observes half a batch.
    fn apply(&mut self, ops: &[StateOp]) -> ApplyOutcome;
    /// Push any buffered log records to the backing store (no-op for
    /// memory).
    fn flush(&mut self);
    /// Fold the log into a snapshot now (no-op for memory). A successful
    /// compaction re-arms a degraded durable backend.
    fn compact(&mut self);
    /// Current durability level.
    fn durability(&self) -> Durability;
    /// Stable backend label (logs, CLI).
    fn label(&self) -> &'static str;
}

/// Backend #1: the original in-memory state blob. Fast, volatile.
#[derive(Debug, Default)]
pub struct MemoryStore {
    state: DurableState,
}

impl MemoryStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store starting from `state` (recovery hand-off, tests).
    pub fn from_state(state: DurableState) -> Self {
        MemoryStore { state }
    }
}

impl StateStore for MemoryStore {
    fn state(&self) -> &DurableState {
        &self.state
    }

    fn apply(&mut self, ops: &[StateOp]) -> ApplyOutcome {
        for op in ops {
            apply_op(&mut self.state, op);
        }
        ApplyOutcome::Applied
    }

    fn flush(&mut self) {}

    fn compact(&mut self) {}

    fn durability(&self) -> Durability {
        Durability::Memory
    }

    fn label(&self) -> &'static str {
        "memory"
    }
}

// ---------------------------------------------------------------------
// Codec
//
// Ops and snapshots share one byte-level grammar: integer header lines
// followed by length-prefixed blobs. Blob lengths live in the header
// line, so records are self-delimiting and carry arbitrary bytes
// (header values and bodies are not UTF-8). Checksumming is NOT done
// here — the WAL wraps records in `LEAKFRAME/1` frames
// (`leaksig_core::wire::frame_bytes`), reusing the wire checksum
// discipline.
// ---------------------------------------------------------------------

/// Why a recorded op or snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateCodecError(pub String);

impl std::fmt::Display for StateCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state codec: {}", self.0)
    }
}

impl std::error::Error for StateCodecError {}

fn err(msg: impl Into<String>) -> StateCodecError {
    StateCodecError(msg.into())
}

/// Byte cursor over encoded records.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// The next `\n`-terminated line as UTF-8 (newline consumed, not
    /// returned).
    fn line(&mut self) -> Result<&'a str, StateCodecError> {
        let rest = &self.data[self.pos..];
        let end = rest
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| err("unterminated header line"))?;
        let line = std::str::from_utf8(&rest[..end]).map_err(|_| err("header line not UTF-8"))?;
        self.pos += end + 1;
        Ok(line)
    }

    /// The next `n` raw bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], StateCodecError> {
        let rest = &self.data[self.pos..];
        if rest.len() < n {
            return Err(err(format!(
                "blob truncated: need {n}, have {}",
                rest.len()
            )));
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn take_str(&mut self, n: usize) -> Result<&'a str, StateCodecError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| err("string blob not UTF-8"))
    }
}

/// Space-separated integer fields of a header line.
struct Fields<'a> {
    parts: std::str::SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    fn of(line: &'a str) -> Self {
        Fields {
            parts: line.split_whitespace(),
        }
    }

    fn word(&mut self) -> Result<&'a str, StateCodecError> {
        self.parts.next().ok_or_else(|| err("missing field"))
    }

    /// The next field as an integer of its real width: a value outside
    /// `T`'s range is an error, never a wrapped number.
    fn num<T: std::str::FromStr>(&mut self) -> Result<T, StateCodecError> {
        let w = self.word()?;
        w.parse().map_err(|_| err(format!("bad integer {w:?}")))
    }

    /// The next field as a one-bit flag: exactly `0` or `1`.
    fn flag(&mut self) -> Result<bool, StateCodecError> {
        match self.word()? {
            "0" => Ok(false),
            "1" => Ok(true),
            w => Err(err(format!("bad flag {w:?}"))),
        }
    }

    fn finish(mut self) -> Result<(), StateCodecError> {
        match self.parts.next() {
            Some(extra) => Err(err(format!("trailing field {extra:?}"))),
            None => Ok(()),
        }
    }
}

fn encode_packet(out: &mut Vec<u8>, p: &HttpPacket) {
    use std::io::Write;
    let method = p.request_line.method.as_str();
    writeln!(
        out,
        "{} {} {} {} {} {} {} {}",
        p.destination.ip,
        p.destination.port,
        p.destination.host.len(),
        method.len(),
        p.request_line.target.len(),
        p.request_line.version.len(),
        p.headers.len(),
        p.body.len(),
    )
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(p.destination.host.as_bytes());
    out.extend_from_slice(method.as_bytes());
    out.extend_from_slice(p.request_line.target.as_bytes());
    out.extend_from_slice(p.request_line.version.as_bytes());
    for (name, value) in &p.headers {
        use std::io::Write;
        writeln!(out, "{} {}", name.as_str().len(), value.len())
            .expect("writing to a Vec cannot fail");
        out.extend_from_slice(name.as_str().as_bytes());
        out.extend_from_slice(value);
    }
    out.extend_from_slice(&p.body);
}

fn decode_packet(cur: &mut Cursor<'_>) -> Result<HttpPacket, StateCodecError> {
    let line = cur.line()?;
    let mut f = Fields::of(line);
    let ip: Ipv4Addr = f.word()?.parse().map_err(|_| err("bad packet ip"))?;
    let port = f.num()?;
    let host_len = f.num()?;
    let method_len = f.num()?;
    let target_len = f.num()?;
    let version_len = f.num()?;
    let n_headers = f.num()?;
    let body_len = f.num()?;
    f.finish()?;

    let host = cur.take_str(host_len)?.to_string();
    let method = Method::from_token(cur.take_str(method_len)?);
    let target = cur.take_str(target_len)?.to_string();
    let version = cur.take_str(version_len)?.to_string();
    let mut headers = Vec::with_capacity(n_headers);
    for _ in 0..n_headers {
        let mut hf = Fields::of(cur.line()?);
        let name_len = hf.num()?;
        let value_len = hf.num()?;
        hf.finish()?;
        let name = leaksig_http::HeaderName::new(cur.take_str(name_len)?);
        let value = cur.take(value_len)?.to_vec();
        headers.push((name, value));
    }
    let body = cur.take(body_len)?.to_vec();
    Ok(HttpPacket {
        destination: Destination::new(ip, port, host),
        request_line: RequestLine {
            method,
            target,
            version,
        },
        headers,
        body,
    })
}

/// Quarantine reason → (code, numeric a, numeric b, string payload).
fn reason_parts(reason: &QuarantineReason) -> (u8, u64, u64, &str) {
    use ParseError as E;
    match reason {
        QuarantineReason::Malformed(e) => match e {
            E::Empty => (0, 0, 0, ""),
            E::MalformedRequestLine(s) => (1, 0, 0, s),
            E::BadVersion(s) => (2, 0, 0, s),
            E::MalformedHeader(n) => (3, *n as u64, 0, ""),
            E::BadHeaderName(n) => (4, *n as u64, 0, ""),
            E::UnterminatedHeaders => (5, 0, 0, ""),
            E::BadContentLength(s) => (6, 0, 0, s),
            E::TruncatedBody { expected, got } => (7, *expected as u64, *got as u64, ""),
            E::RequestLineTooLong { limit } => (8, *limit as u64, 0, ""),
            E::TooManyHeaders { limit } => (9, *limit as u64, 0, ""),
            E::HeaderTooLong { line, limit } => (10, *line as u64, *limit as u64, ""),
            E::BodyTooLarge { limit, got } => (11, *limit as u64, *got as u64, ""),
        },
        QuarantineReason::Poison => (12, 0, 0, ""),
        QuarantineReason::PoisonReingest => (13, 0, 0, ""),
    }
}

fn reason_from_parts(
    code: u8,
    a: usize,
    b: usize,
    s: &str,
) -> Result<QuarantineReason, StateCodecError> {
    use ParseError as E;
    let parse = |e: E| Ok(QuarantineReason::Malformed(e));
    match code {
        0 => parse(E::Empty),
        1 => parse(E::MalformedRequestLine(s.to_string())),
        2 => parse(E::BadVersion(s.to_string())),
        3 => parse(E::MalformedHeader(a)),
        4 => parse(E::BadHeaderName(a)),
        5 => parse(E::UnterminatedHeaders),
        6 => parse(E::BadContentLength(s.to_string())),
        7 => parse(E::TruncatedBody {
            expected: a,
            got: b,
        }),
        8 => parse(E::RequestLineTooLong { limit: a }),
        9 => parse(E::TooManyHeaders { limit: a }),
        10 => parse(E::HeaderTooLong { line: a, limit: b }),
        11 => parse(E::BodyTooLarge { limit: a, got: b }),
        12 => Ok(QuarantineReason::Poison),
        13 => Ok(QuarantineReason::PoisonReingest),
        other => Err(err(format!("unknown quarantine reason code {other}"))),
    }
}

fn encode_record(out: &mut Vec<u8>, r: &QuarantineRecord) {
    use std::io::Write;
    let (code, a, b, msg) = reason_parts(&r.reason);
    writeln!(
        out,
        "{code} {a} {b} {} {} {} {} {}",
        r.source,
        r.port,
        r.bytes,
        r.summary.len(),
        msg.len(),
    )
    .expect("writing to a Vec cannot fail");
    out.extend_from_slice(r.summary.as_bytes());
    out.extend_from_slice(msg.as_bytes());
}

fn decode_record(cur: &mut Cursor<'_>) -> Result<QuarantineRecord, StateCodecError> {
    let mut f = Fields::of(cur.line()?);
    let code = f.num()?;
    let a = f.num()?;
    let b = f.num()?;
    let source: Ipv4Addr = f.word()?.parse().map_err(|_| err("bad record source ip"))?;
    let port = f.num()?;
    let bytes = f.num()?;
    let summary_len = f.num()?;
    let msg_len = f.num()?;
    f.finish()?;
    let summary = cur.take_str(summary_len)?.to_string();
    let msg = cur.take_str(msg_len)?;
    Ok(QuarantineRecord {
        reason: reason_from_parts(code, a, b, msg)?,
        source,
        port,
        bytes,
        summary,
    })
}

fn encode_stats(out: &mut Vec<u8>, s: &ServerStats) {
    use std::io::Write;
    writeln!(
        out,
        "{} {} {} {} {} {} {} {} {} {} {} {} {}",
        s.ingested,
        s.suspicious,
        s.normal,
        s.regenerations,
        s.rejected_publishes,
        s.raw_seen,
        s.parse_rejects,
        s.quarantined,
        s.rate_limited,
        s.shed,
        s.admitted,
        s.durability_degraded,
        s.durability_refused,
    )
    .expect("writing to a Vec cannot fail");
}

fn decode_stats(line: &str) -> Result<ServerStats, StateCodecError> {
    let mut f = Fields::of(line);
    let stats = ServerStats {
        ingested: f.num()?,
        suspicious: f.num()?,
        normal: f.num()?,
        regenerations: f.num()?,
        rejected_publishes: f.num()?,
        raw_seen: f.num()?,
        parse_rejects: f.num()?,
        quarantined: f.num()?,
        rate_limited: f.num()?,
        shed: f.num()?,
        admitted: f.num()?,
        durability_degraded: f.num()?,
        durability_refused: f.num()?,
    };
    f.finish()?;
    Ok(stats)
}

/// Append the encoding of one op to `out` (self-delimiting; WAL frames
/// carry concatenations of these).
pub fn encode_op(out: &mut Vec<u8>, op: &StateOp) {
    use std::io::Write;
    match op {
        StateOp::Suspect { packet, slot } => {
            writeln!(out, "S {slot}").expect("writing to a Vec cannot fail");
            encode_packet(out, packet);
        }
        StateOp::SuspectDropped => out.extend_from_slice(b"D\n"),
        StateOp::Normal => out.extend_from_slice(b"N\n"),
        StateOp::Intake {
            raw_seen,
            rate_limited,
            shed,
            admitted,
        } => {
            writeln!(out, "I {raw_seen} {rate_limited} {shed} {admitted}")
                .expect("writing to a Vec cannot fail");
        }
        StateOp::Quarantine {
            cap,
            parse_reject,
            record,
        } => {
            writeln!(out, "Q {cap} {}", u8::from(*parse_reject))
                .expect("writing to a Vec cannot fail");
            encode_record(out, record);
        }
        StateOp::Evict { slot } => {
            writeln!(out, "E {slot}").expect("writing to a Vec cannot fail");
        }
        StateOp::Publish { version, wire } => {
            writeln!(out, "P {version} {}", wire.len()).expect("writing to a Vec cannot fail");
            out.extend_from_slice(wire.as_bytes());
        }
        StateOp::RejectedPublish => out.extend_from_slice(b"X\n"),
        StateOp::Rng { state } => {
            writeln!(out, "R {} {} {} {}", state[0], state[1], state[2], state[3])
                .expect("writing to a Vec cannot fail");
        }
    }
}

fn decode_op(cur: &mut Cursor<'_>) -> Result<StateOp, StateCodecError> {
    let line = cur.line()?;
    let (tag, rest) = match line.split_once(' ') {
        Some((t, r)) => (t, r),
        None => (line, ""),
    };
    match tag {
        "S" => {
            let mut f = Fields::of(rest);
            let slot = f.num()?;
            f.finish()?;
            Ok(StateOp::Suspect {
                packet: decode_packet(cur)?,
                slot,
            })
        }
        "D" => Ok(StateOp::SuspectDropped),
        "N" => Ok(StateOp::Normal),
        "I" => {
            let mut f = Fields::of(rest);
            let op = StateOp::Intake {
                raw_seen: f.num()?,
                rate_limited: f.num()?,
                shed: f.num()?,
                admitted: f.num()?,
            };
            f.finish()?;
            Ok(op)
        }
        "Q" => {
            let mut f = Fields::of(rest);
            let cap = f.num()?;
            let parse_reject = f.flag()?;
            f.finish()?;
            Ok(StateOp::Quarantine {
                cap,
                parse_reject,
                record: decode_record(cur)?,
            })
        }
        "E" => {
            let mut f = Fields::of(rest);
            let slot = f.num()?;
            f.finish()?;
            Ok(StateOp::Evict { slot })
        }
        "P" => {
            let mut f = Fields::of(rest);
            let version = f.num()?;
            let wire_len = f.num()?;
            f.finish()?;
            Ok(StateOp::Publish {
                version,
                wire: cur.take_str(wire_len)?.to_string(),
            })
        }
        "X" => Ok(StateOp::RejectedPublish),
        "R" => {
            let mut f = Fields::of(rest);
            let state = [f.num()?, f.num()?, f.num()?, f.num()?];
            f.finish()?;
            Ok(StateOp::Rng { state })
        }
        other => Err(err(format!("unknown op tag {other:?}"))),
    }
}

/// Decode a concatenation of ops (one WAL frame payload).
pub fn decode_ops(data: &[u8]) -> Result<Vec<StateOp>, StateCodecError> {
    let mut cur = Cursor::new(data);
    let mut ops = Vec::new();
    while !cur.done() {
        ops.push(decode_op(&mut cur)?);
    }
    Ok(ops)
}

/// Serialize the full state (snapshot body). Deterministic: equal states
/// encode to equal bytes, which is what the crash-recovery harness
/// compares.
pub fn encode_state(state: &DurableState) -> Vec<u8> {
    use std::io::Write;
    let mut out = Vec::new();
    writeln!(
        out,
        "{STATE_MAGIC} {} {}",
        state.reservoir.len(),
        state.ledger.len()
    )
    .expect("writing to a Vec cannot fail");
    encode_stats(&mut out, &state.stats);
    match state.rng_state {
        Some(s) => writeln!(out, "G 1 {} {} {} {}", s[0], s[1], s[2], s[3]),
        None => writeln!(out, "G 0"),
    }
    .expect("writing to a Vec cannot fail");
    match &state.last_publish {
        Some((version, wire)) => {
            writeln!(out, "P 1 {version} {}", wire.len()).expect("writing to a Vec cannot fail");
            out.extend_from_slice(wire.as_bytes());
        }
        None => out.extend_from_slice(b"P 0\n"),
    }
    for p in &state.reservoir {
        encode_packet(&mut out, p);
    }
    for r in &state.ledger {
        encode_record(&mut out, r);
    }
    out
}

/// Decode a snapshot body back into a state.
pub fn decode_state(data: &[u8]) -> Result<DurableState, StateCodecError> {
    let mut cur = Cursor::new(data);
    let header = cur.line()?;
    let rest = header
        .strip_prefix(STATE_MAGIC)
        .ok_or_else(|| err(format!("missing {STATE_MAGIC} header")))?;
    let mut f = Fields::of(rest);
    let n_reservoir = f.num()?;
    let n_ledger = f.num()?;
    f.finish()?;

    let stats = decode_stats(cur.line()?)?;

    let rng_line = cur.line()?;
    let mut f = Fields::of(
        rng_line
            .strip_prefix('G')
            .ok_or_else(|| err("missing rng line"))?,
    );
    let rng_state = if f.flag()? {
        let s = [f.num()?, f.num()?, f.num()?, f.num()?];
        f.finish()?;
        Some(s)
    } else {
        f.finish()?;
        None
    };

    let pub_line = cur.line()?;
    let mut f = Fields::of(
        pub_line
            .strip_prefix('P')
            .ok_or_else(|| err("missing publish line"))?,
    );
    let last_publish = if f.flag()? {
        let version = f.num()?;
        let wire_len = f.num()?;
        f.finish()?;
        Some((version, cur.take_str(wire_len)?.to_string()))
    } else {
        f.finish()?;
        None
    };

    let mut reservoir = Vec::with_capacity(n_reservoir);
    for _ in 0..n_reservoir {
        reservoir.push(decode_packet(&mut cur)?);
    }
    let mut ledger = VecDeque::with_capacity(n_ledger);
    for _ in 0..n_ledger {
        ledger.push_back(decode_record(&mut cur)?);
    }
    if !cur.done() {
        return Err(err("trailing bytes after snapshot body"));
    }
    Ok(DurableState {
        reservoir,
        ledger,
        last_publish,
        stats,
        rng_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_http::RequestBuilder;

    fn packet(i: usize) -> HttpPacket {
        RequestBuilder::get("/getad")
            .query("imei", "355195000000017")
            .query("slot", &i.to_string())
            .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
            .build()
    }

    fn binary_packet() -> HttpPacket {
        let mut p = packet(0);
        p.body = (0u16..=255).map(|b| b as u8).collect();
        p.headers
            .push((leaksig_http::HeaderName::new("x-bin"), vec![0, 255, 10, 13]));
        p
    }

    fn every_reason() -> Vec<QuarantineReason> {
        use ParseError as E;
        let mut reasons: Vec<QuarantineReason> = [
            E::Empty,
            E::MalformedRequestLine("GET only".into()),
            E::BadVersion("HTPT/9".into()),
            E::MalformedHeader(3),
            E::BadHeaderName(4),
            E::UnterminatedHeaders,
            E::BadContentLength("ten".into()),
            E::TruncatedBody {
                expected: 10,
                got: 3,
            },
            E::RequestLineTooLong { limit: 8192 },
            E::TooManyHeaders { limit: 100 },
            E::HeaderTooLong { line: 7, limit: 64 },
            E::BodyTooLarge {
                limit: 1024,
                got: 4096,
            },
        ]
        .into_iter()
        .map(QuarantineReason::Malformed)
        .collect();
        reasons.push(QuarantineReason::Poison);
        reasons.push(QuarantineReason::PoisonReingest);
        reasons
    }

    fn record_for(reason: QuarantineReason) -> QuarantineRecord {
        QuarantineRecord {
            reason,
            source: Ipv4Addr::new(198, 51, 100, 7),
            port: 8080,
            bytes: 321,
            summary: "GET /x HTTP/1.1".to_string(),
        }
    }

    /// `op` encoded, with field `field` of its second line (the packet
    /// or quarantine-record header) replaced by `value`.
    fn with_field(op: &StateOp, field: usize, value: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_op(&mut buf, op);
        with_line_field(buf, 1, field, value)
    }

    /// `buf` with field `field` of its line `line` (0-based, split on
    /// single spaces) replaced by `value`.
    fn with_line_field(mut buf: Vec<u8>, line: usize, field: usize, value: &str) -> Vec<u8> {
        let mut start = 0;
        for _ in 0..line {
            start += buf[start..].iter().position(|&b| b == b'\n').unwrap() + 1;
        }
        let end = start + buf[start..].iter().position(|&b| b == b'\n').unwrap();
        let line = String::from_utf8(buf[start..end].to_vec()).unwrap();
        let mut fields: Vec<&str> = line.split(' ').collect();
        fields[field] = value;
        buf.splice(start..end, fields.join(" ").into_bytes());
        buf
    }

    fn op_zoo() -> Vec<StateOp> {
        let mut ops = vec![
            StateOp::Suspect {
                packet: packet(1),
                slot: 0,
            },
            StateOp::Suspect {
                packet: binary_packet(),
                slot: 1,
            },
            StateOp::Suspect {
                packet: packet(2),
                slot: 0,
            },
            StateOp::SuspectDropped,
            StateOp::Normal,
            StateOp::Intake {
                raw_seen: 5,
                rate_limited: 1,
                shed: 1,
                admitted: 3,
            },
            StateOp::Evict { slot: 1 },
            StateOp::Publish {
                version: 3,
                wire: "LEAKSIG/1\n".to_string(),
            },
            StateOp::RejectedPublish,
            StateOp::Rng {
                state: [1, u64::MAX, 3, 4],
            },
        ];
        for reason in every_reason() {
            ops.push(StateOp::Quarantine {
                cap: 4,
                parse_reject: matches!(reason, QuarantineReason::Malformed(_)),
                record: record_for(reason),
            });
        }
        ops
    }

    #[test]
    fn ops_round_trip_including_binary_payloads() {
        let ops = op_zoo();
        let mut buf = Vec::new();
        for op in &ops {
            encode_op(&mut buf, op);
        }
        let back = decode_ops(&buf).expect("decode");
        assert_eq!(back, ops);
    }

    #[test]
    fn state_round_trips_byte_deterministically() {
        let mut state = DurableState::default();
        for op in op_zoo() {
            apply_op(&mut state, &op);
        }
        let bytes = encode_state(&state);
        let back = decode_state(&bytes).expect("decode");
        assert_eq!(back, state);
        assert_eq!(encode_state(&back), bytes, "re-encode must be identical");

        // Empty state round-trips too.
        let empty = DurableState::default();
        assert_eq!(decode_state(&encode_state(&empty)).unwrap(), empty);
    }

    #[test]
    fn apply_matches_the_direct_model() {
        let mut state = DurableState::default();
        apply_op(
            &mut state,
            &StateOp::Suspect {
                packet: packet(1),
                slot: 0,
            },
        );
        apply_op(
            &mut state,
            &StateOp::Suspect {
                packet: packet(2),
                slot: 1,
            },
        );
        // Replacement at a decided slot.
        apply_op(
            &mut state,
            &StateOp::Suspect {
                packet: packet(3),
                slot: 0,
            },
        );
        assert_eq!(state.reservoir.len(), 2);
        assert_eq!(state.reservoir[0], packet(3));
        assert_eq!(state.stats.suspicious, 3);
        assert_eq!(state.stats.ingested, 3);

        apply_op(&mut state, &StateOp::SuspectDropped);
        assert_eq!(state.stats.suspicious, 4);
        assert_eq!(
            state.reservoir.len(),
            2,
            "dropped draw leaves the reservoir"
        );

        apply_op(&mut state, &StateOp::Evict { slot: 0 });
        assert_eq!(state.reservoir, vec![packet(2)]);
        apply_op(&mut state, &StateOp::Evict { slot: 9 });
        assert_eq!(state.reservoir.len(), 1, "out-of-range evict is a no-op");

        // Ledger bound travels with the op.
        for i in 0..6 {
            apply_op(
                &mut state,
                &StateOp::Quarantine {
                    cap: 3,
                    parse_reject: false,
                    record: QuarantineRecord {
                        reason: QuarantineReason::Poison,
                        source: Ipv4Addr::LOCALHOST,
                        port: 80,
                        bytes: i,
                        summary: format!("r{i}"),
                    },
                },
            );
        }
        assert_eq!(state.ledger.len(), 3);
        assert_eq!(state.stats.quarantined, 6);
        assert_eq!(state.ledger[2].summary, "r5");
    }

    #[test]
    fn memory_store_applies_everything() {
        let mut store = MemoryStore::new();
        assert_eq!(store.durability(), Durability::Memory);
        assert_eq!(store.apply(&op_zoo()), ApplyOutcome::Applied);
        store.flush();
        store.compact();
        assert!(store.state().stats.ingested > 0);

        let mut twin = DurableState::default();
        for op in op_zoo() {
            apply_op(&mut twin, &op);
        }
        assert_eq!(store.state(), &twin);
        assert_eq!(encode_state(store.state()), encode_state(&twin));
    }

    #[test]
    fn corrupt_records_are_rejected_not_misread() {
        let mut buf = Vec::new();
        encode_op(
            &mut buf,
            &StateOp::Suspect {
                packet: packet(1),
                slot: 0,
            },
        );
        // Truncation anywhere inside the record fails loudly.
        for cut in [1, buf.len() / 2, buf.len() - 1] {
            assert!(decode_ops(&buf[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_ops(b"Z 1\n").is_err(), "unknown tag");

        // A number past its field's width is rejected, not wrapped: port
        // 65616 would read back as 80 and reason code 268 as 12 (`Poison`).
        let suspect = StateOp::Suspect {
            packet: packet(1),
            slot: 0,
        };
        let quarantine = StateOp::Quarantine {
            cap: 4,
            parse_reject: false,
            record: record_for(QuarantineReason::Poison),
        };
        // (op, field of its header line, a value that fits, one that wraps)
        let cases = [
            (&suspect, 1, "80", "65616"),    // packet port
            (&quarantine, 4, "80", "65616"), // record port
            (&quarantine, 0, "12", "268"),   // reason code
        ];
        for (op, field, fits, wraps) in cases {
            assert!(decode_ops(&with_field(op, field, fits)).is_ok(), "{fits}");
            let e = decode_ops(&with_field(op, field, wraps)).expect_err(wraps);
            assert!(e.0.contains(wraps), "{e}");
        }
        assert!(decode_ops(b"I 1 2\n").is_err(), "missing fields");
        assert!(decode_state(b"NOTSTATE\n").is_err());

        // One-bit flags read exactly 0 or 1: a 7 is corruption, not
        // `true` — the `Q` op's parse-reject flag (field 2 of its first
        // line) and the snapshot's rng-state (`G`, line 2) and
        // last-publish (`P`, line 3) presence flags.
        let mut q = Vec::new();
        encode_op(&mut q, &quarantine);
        let mut state = DurableState::default();
        for op in op_zoo() {
            apply_op(&mut state, &op);
        }
        assert!(state.rng_state.is_some() && state.last_publish.is_some());
        let snap = encode_state(&state);
        assert!(decode_ops(&with_line_field(q.clone(), 0, 2, "1")).is_ok());
        let e = decode_ops(&with_line_field(q, 0, 2, "7")).expect_err("Q flag 7");
        assert!(e.0.contains(r#"bad flag "7""#), "{e}");
        for line in [2, 3] {
            assert!(decode_state(&with_line_field(snap.clone(), line, 1, "1")).is_ok());
            let e = decode_state(&with_line_field(snap.clone(), line, 1, "7")).expect_err("flag 7");
            assert!(e.0.contains(r#"bad flag "7""#), "line {line}: {e}");
        }
    }
}
