//! The collection server of Fig. 3a as a long-running component.
//!
//! The paper's server "collects application traffic, clustering the data
//! and generating signatures". This module gives that loop a concrete
//! shape: packets are ingested continuously, the payload check routes
//! suspicious ones into a bounded reservoir, and `regenerate` runs the
//! §IV pipeline over the current reservoir and publishes the result to a
//! [`SignatureServer`] that devices sync from.
//!
//! Raw network bytes take one admission step, record by record: a
//! per-source token bucket sheds floods before any parsing work, the
//! zero-copy [`leaksig_http::parse_request_view`] enforces hard resource
//! limits, rejects land in a bounded reason-tagged quarantine ledger, and
//! admitted packets flow through a bounded queue with an explicit
//! [`Shed`] policy so overload degrades *recall* (some packets lost)
//! rather than latency or memory. [`CollectionServer::ingest_batch`] runs
//! that step over a whole batch under one lock and records it as one
//! durable op slice — the socket frontier's path;
//! [`CollectionServer::ingest_raw`] runs it for a single offer.
//! [`CollectionServer::ingest`] takes pre-parsed packets and trusts them
//! (the in-process path for tests and replay tools): it skips admission
//! and enters the same classification step [`CollectionServer::pump`]
//! drains the queue through.
//!
//! The reservoir uses classic reservoir sampling so the retained sample
//! stays uniform over everything seen, no matter how long the server
//! runs — matching the paper's "select N HTTP packets at random out of
//! the suspicious group".

use crate::state::{ApplyOutcome, Durability, MemoryStore, StateOp, StateStore};
use crate::store::SignatureServer;
use leaksig_core::payload::PayloadCheck;
use leaksig_core::prelude::*;
use leaksig_http::{parse_request_view, HttpPacket, ParseArena, ParseError, ParseLimits};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// Ingest/regeneration statistics.
///
/// Every counter is **monotonic over the server's lifetime**: nothing is
/// reset by regeneration, quarantine, or queue shedding, so deltas
/// between two [`CollectionServer::stats`] snapshots are meaningful.
/// See that method for the per-counter lifecycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Packets that entered classification (trusted `ingest` calls plus
    /// raw-intake packets drained from the admission queue).
    pub ingested: u64,
    /// Packets routed to the reservoir.
    pub suspicious: u64,
    /// Packets routed to the normal ring.
    pub normal: u64,
    /// Signature regenerations performed.
    pub regenerations: u64,
    /// Regenerations whose result the publisher's deploy gate refused.
    pub rejected_publishes: u64,
    /// Raw wire images offered to `ingest_raw` / `ingest_batch`
    /// (admitted or not).
    pub raw_seen: u64,
    /// Raw images the limited parser refused.
    pub parse_rejects: u64,
    /// Total quarantine ledger admissions: parse rejects, supervisor
    /// poison verdicts, and poison re-ingests. Always ≥ `parse_rejects`.
    pub quarantined: u64,
    /// Raw images refused by the per-source token bucket.
    pub rate_limited: u64,
    /// Packets dropped by the shed policy (queue overflow) — the
    /// incoming packet or a queued victim, depending on [`Shed`].
    pub shed: u64,
    /// Raw images that parsed, passed admission, and were queued.
    pub admitted: u64,
    /// Times the durable state backend lost its WAL append path and
    /// downgraded to memory-only operation (always 0 for the in-memory
    /// backend).
    pub durability_degraded: u64,
    /// Suspicious-evidence batches refused while degraded under
    /// fail-closed durability (see
    /// [`crate::wal::DurabilityMode::FailClosed`]).
    pub durability_refused: u64,
}

/// What one [`CollectionServer::regenerate`] run produced.
///
/// Distinguishes "no suspicious traffic yet" from "the pipeline ran but
/// the deploy gate refused the result" — operationally opposite
/// conditions (wait vs. investigate) that the old `Option<u64>` return
/// collapsed into one. The supervised variants
/// ([`crate::RegenerationSupervisor`]) add two more terminal states for
/// runs the supervisor had to kill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegenerateOutcome {
    /// A gated set was published at this version.
    Published {
        /// Version the publisher assigned.
        version: u64,
        /// Signatures in the published set.
        signatures: usize,
    },
    /// The reservoir is empty; nothing to cluster yet.
    NoTraffic,
    /// The pipeline ran but the publisher's deploy gate refused the set
    /// (possible only under a loosened `PipelineConfig`); devices keep
    /// their current set.
    Rejected(Vec<Diagnostic>),
    /// The supervised run exceeded its deadline on every attempt and
    /// bisection could not pin the slowdown on a quarantinable subset;
    /// server state is untouched and devices keep their current set.
    TimedOut {
        /// The per-attempt deadline that was exceeded, in milliseconds.
        deadline_ms: u64,
    },
    /// The supervised pipeline panicked on every attempt and bisection
    /// could not isolate the poison; the panic was contained — server
    /// state is untouched and devices keep their current set.
    Panicked {
        /// The panic payload, rendered.
        message: String,
    },
}

impl RegenerateOutcome {
    /// The published version, if any (compatibility shim for callers
    /// that only care about success).
    pub fn published(&self) -> Option<u64> {
        match self {
            RegenerateOutcome::Published { version, .. } => Some(*version),
            _ => None,
        }
    }
}

/// Which packet the admission queue sacrifices when it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// Drop the oldest queued packet and admit the newcomer (tail-drop
    /// inverted: freshest data wins).
    Oldest,
    /// Drop the incoming packet and keep the queue (oldest data wins).
    Newest,
    /// Shed suspicious packets *last*: evict the oldest queued benign
    /// packet first; when everything queued is suspicious, drop a benign
    /// newcomer, else the oldest suspicious entry. Floods then eat into
    /// the normal-ring sample (cheap) before they eat recall.
    SensitiveLast,
}

impl Shed {
    /// Stable lower-case label (CLI/event logs).
    pub fn label(self) -> &'static str {
        match self {
            Shed::Oldest => "oldest",
            Shed::Newest => "newest",
            Shed::SensitiveLast => "sensitive-last",
        }
    }
}

/// Per-source token-bucket parameters for raw intake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Bucket capacity: the burst a source may send instantaneously.
    pub burst: u32,
    /// Sustained refill rate in packets per 1000 logical milliseconds.
    pub per_second: u32,
}

/// Configuration of the hardened raw intake path.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Hard parse limits for untrusted bytes.
    pub limits: ParseLimits,
    /// Per-source admission rate; `None` admits everything (trusted
    /// deployments or benchmarks).
    pub rate: Option<RateLimit>,
    /// Admission queue bound (≥ 1; lower values shed sooner).
    pub queue_capacity: usize,
    /// Who the queue sacrifices when full.
    pub shed: Shed,
    /// Quarantine ledger bound: the ledger keeps the most recent this
    /// many records (the `quarantined` counter keeps the full total).
    pub quarantine_capacity: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            limits: ParseLimits::intake(),
            rate: None,
            queue_capacity: 4096,
            shed: Shed::SensitiveLast,
            quarantine_capacity: 256,
        }
    }
}

/// Why a wire image or packet sits in the quarantine ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The raw bytes failed the limited parse.
    Malformed(ParseError),
    /// The regeneration supervisor's bisection identified this packet as
    /// poisoning the pipeline (panic or deadline blowout).
    Poison,
    /// The packet matched an earlier poison verdict on arrival and was
    /// refused before reaching the reservoir again.
    PoisonReingest,
}

impl QuarantineReason {
    /// Stable lower-case reason tag (ledger rendering, event logs).
    pub fn tag(&self) -> &'static str {
        match self {
            QuarantineReason::Malformed(e) => e.tag(),
            QuarantineReason::Poison => "poison",
            QuarantineReason::PoisonReingest => "poison-reingest",
        }
    }
}

/// One quarantine ledger entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Why the input was quarantined.
    pub reason: QuarantineReason,
    /// Destination address the input was captured toward.
    pub source: Ipv4Addr,
    /// Destination port.
    pub port: u16,
    /// Size of the offending input in bytes (wire image for parse
    /// rejects, serialized size for poisoned packets).
    pub bytes: usize,
    /// Human-readable head of the input (lossy, truncated).
    pub summary: String,
}

/// Verdict of one raw offer for the *incoming* wire image.
/// Queue-overflow evictions of previously-queued packets are reported
/// through [`ServerStats::shed`], not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Parsed, admitted, and queued.
    Admitted {
        /// How the payload check classified it.
        suspicious: bool,
    },
    /// Refused by the per-source token bucket before parsing.
    RateLimited,
    /// Refused and recorded in the quarantine ledger.
    Quarantined(QuarantineReason),
    /// The queue was full and the shed policy sacrificed this packet.
    Shed,
}

/// Verdict tallies of one [`CollectionServer::ingest_batch`] call: each
/// incoming record counts under exactly one of the four.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchVerdicts {
    /// Records parsed, admitted and queued.
    pub admitted: u64,
    /// Records refused by the per-source token bucket.
    pub rate_limited: u64,
    /// Records refused into the quarantine ledger.
    pub quarantined: u64,
    /// Records the shed policy sacrificed on arrival.
    pub shed: u64,
}

/// The collection + generation server.
pub struct CollectionServer<T: Copy + Eq + Send> {
    check: PayloadCheck<T>,
    config: PipelineConfig,
    intake: IngestConfig,
    capacity: usize,
    state: Mutex<ServerState>,
}

struct TokenBucket {
    tokens_milli: u64,
    last_ms: u64,
}

struct ServerState {
    /// Durable state — reservoir, quarantine ledger, last publish,
    /// monotonic stats — behind the pluggable [`StateStore`] backend.
    /// Every mutation travels as a [`StateOp`] batch with random
    /// decisions pre-made, so a WAL backend can replay them verbatim.
    store: Box<dyn StateStore>,
    /// Recent normal packets (ring) for signature validation. Volatile:
    /// an FP-validation cache, not leak evidence (see `crate::state`).
    normal_ring: Vec<HttpPacket>,
    normal_pos: usize,
    /// Admission queue: parsed-and-classified packets awaiting the
    /// reservoir/ring stage, bounded by `IngestConfig::queue_capacity`.
    /// Volatile: un-pumped packets are in flight, not yet evidence.
    queue: VecDeque<(HttpPacket, bool)>,
    /// Per-source token buckets (keyed by capture destination address —
    /// the flow identity this model carries; a deployment keyed by
    /// uploader identity would swap the key only).
    buckets: HashMap<Ipv4Addr, TokenBucket>,
    /// Hashes of packets with a poison verdict: re-ingests are refused.
    /// Volatile: the supervisor re-derives verdicts after a restart.
    poisoned: HashSet<u64>,
    /// Logical intake clock in milliseconds; `ingest_raw` and
    /// `ingest_batch` advance it by one per record, `ingest_raw_at` pins
    /// it explicitly.
    clock_ms: u64,
    rng: StdRng,
    /// Header spans of the record being admitted (reset per record).
    arena: ParseArena,
    /// Wire image of the record being admitted, for the payload check.
    wire: Vec<u8>,
}

fn packet_key(p: &HttpPacket) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.hash(&mut h);
    h.finish()
}

/// Lossy, truncated head of a byte string for ledger summaries.
fn summarize(raw: &[u8]) -> String {
    let head = &raw[..raw.len().min(48)];
    let first_line = head.split(|&b| b == b'\n').next().unwrap_or(head);
    String::from_utf8_lossy(first_line).trim_end().to_string()
}

impl<T: Copy + Eq + Send> CollectionServer<T> {
    /// A server keeping at most `capacity` suspicious packets, using
    /// `check` for the §IV-A split, with the default [`IngestConfig`].
    pub fn new(check: PayloadCheck<T>, config: PipelineConfig, capacity: usize, seed: u64) -> Self {
        Self::with_intake(check, config, capacity, seed, IngestConfig::default())
    }

    /// [`CollectionServer::new`] with an explicit intake configuration,
    /// on the in-memory state backend.
    pub fn with_intake(
        check: PayloadCheck<T>,
        config: PipelineConfig,
        capacity: usize,
        seed: u64,
        intake: IngestConfig,
    ) -> Self {
        Self::with_store(
            check,
            config,
            capacity,
            seed,
            intake,
            Box::new(MemoryStore::new()),
        )
    }

    /// [`CollectionServer::with_intake`] on an explicit state backend.
    ///
    /// When `store` carries recovered state (a
    /// [`WalStore`](crate::wal::WalStore) opened on an existing
    /// directory), the server resumes from it: the reservoir, ledger,
    /// stats, and last published generation are live again, and the
    /// sampling RNG continues from the recovered stream (falling back to
    /// `seed` on a store that never recorded one). Call
    /// [`CollectionServer::restore_publisher`] to put the recovered
    /// signature set back on the wire.
    pub fn with_store(
        check: PayloadCheck<T>,
        config: PipelineConfig,
        capacity: usize,
        seed: u64,
        intake: IngestConfig,
        store: Box<dyn StateStore>,
    ) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let intake = IngestConfig {
            queue_capacity: intake.queue_capacity.max(1),
            ..intake
        };
        let rng = match store.state().rng_state {
            Some(words) => StdRng::from_state(words),
            None => StdRng::seed_from_u64(seed),
        };
        CollectionServer {
            check,
            config,
            intake,
            capacity,
            state: Mutex::new(ServerState {
                store,
                normal_ring: Vec::with_capacity(2048),
                normal_pos: 0,
                queue: VecDeque::new(),
                buckets: HashMap::new(),
                poisoned: HashSet::new(),
                clock_ms: 0,
                rng,
                arena: ParseArena::new(),
                wire: Vec::new(),
            }),
        }
    }

    /// Ingest one captured packet; returns whether it was suspicious.
    ///
    /// This is the **trusted** in-process path: no limits, no admission
    /// control, no quarantine — the packet goes straight to
    /// classification. Raw network bytes must go through
    /// [`CollectionServer::ingest_batch`] or
    /// [`CollectionServer::ingest_raw`] instead.
    pub fn ingest(&self, packet: &HttpPacket) -> bool {
        let suspicious = self.check.is_suspicious(packet);
        let mut st = self.state.lock();
        st.route(std::iter::once((packet.clone(), suspicious)), self.capacity);
        suspicious
    }

    /// Ingest a batch of raw request captures — the socket frontier's
    /// path. Each record takes the same admission step as
    /// [`CollectionServer::ingest_raw`] and advances the intake clock by
    /// one logical millisecond, so verdicts, queue order and rate
    /// limiting are exactly those of offering the records one by one.
    /// The batch takes the state lock once and records one durable op
    /// slice: a single summed [`StateOp::Intake`], then the batch's
    /// quarantine records in record order.
    pub fn ingest_batch<'a>(
        &self,
        records: impl IntoIterator<Item = RawPacket<'a>>,
    ) -> BatchVerdicts {
        self.admit(&mut self.state.lock(), records, true, |_| {})
    }

    /// Ingest raw request bytes captured toward `ip:port`, advancing the
    /// intake clock by one logical millisecond.
    ///
    /// One record through the admission step of
    /// [`CollectionServer::ingest_batch`]: per-source token bucket
    /// (cheapest, runs first), limited parse, poison filter, then the
    /// bounded queue with the configured shed policy. The offer is
    /// recorded as its own op slice. Use
    /// [`CollectionServer::ingest_raw_at`] to pin logical time
    /// explicitly (deterministic rate-limit tests, replaying timestamped
    /// captures).
    pub fn ingest_raw(&self, raw: &[u8], ip: Ipv4Addr, port: u16) -> IngestOutcome {
        let mut outcome = None;
        let record = RawPacket { raw, ip, port };
        self.admit(&mut self.state.lock(), [record], true, |o| {
            outcome = Some(o)
        });
        outcome.expect("one record, one verdict")
    }

    /// [`CollectionServer::ingest_raw`] at an explicit logical time in
    /// milliseconds. Time never runs backwards: a `now_ms` older than
    /// the clock is clamped forward.
    pub fn ingest_raw_at(&self, raw: &[u8], ip: Ipv4Addr, port: u16, now_ms: u64) -> IngestOutcome {
        let mut st = self.state.lock();
        st.clock_ms = st.clock_ms.max(now_ms);
        let mut outcome = None;
        let record = RawPacket { raw, ip, port };
        self.admit(&mut st, [record], false, |o| outcome = Some(o));
        outcome.expect("one record, one verdict")
    }

    /// Run `records` through the admission step — advancing the clock one
    /// tick per record when `tick` — and record them as one op slice:
    /// the summed [`StateOp::Intake`], then the quarantine records in
    /// record order. `verdict` sees each record's outcome in order.
    fn admit<'a>(
        &self,
        st: &mut ServerState,
        records: impl IntoIterator<Item = RawPacket<'a>>,
        tick: bool,
        mut verdict: impl FnMut(IngestOutcome),
    ) -> BatchVerdicts {
        let mut tally = BatchVerdicts::default();
        let mut evicted = 0u64;
        let mut ops = vec![];
        for r in records {
            st.clock_ms += u64::from(tick);
            let now = st.clock_ms;
            let (outcome, eviction) = self.offer(st, r, now, &mut ops);
            evicted += u64::from(eviction);
            match outcome {
                IngestOutcome::Admitted { .. } => tally.admitted += 1,
                IngestOutcome::RateLimited => tally.rate_limited += 1,
                IngestOutcome::Quarantined(_) => tally.quarantined += 1,
                IngestOutcome::Shed => tally.shed += 1,
            }
            verdict(outcome);
        }
        let offered = tally.admitted + tally.rate_limited + tally.quarantined + tally.shed;
        if offered > 0 {
            let intake = StateOp::Intake {
                raw_seen: offered,
                rate_limited: tally.rate_limited,
                shed: tally.shed + evicted,
                admitted: tally.admitted,
            };
            ops.insert(0, intake);
            st.store.apply(&ops);
        }
        tally
    }

    /// The admission step for one record, under the state lock at
    /// logical time `now`: token bucket, parse + classify, poison filter,
    /// shed policy. A quarantine record goes onto `ops`; the flag says
    /// whether admitting the record evicted a queued packet.
    fn offer(
        &self,
        st: &mut ServerState,
        r: RawPacket<'_>,
        now: u64,
        ops: &mut Vec<StateOp>,
    ) -> (IngestOutcome, bool) {
        // Charge the source's bucket before spending any parsing work on
        // the bytes.
        if let Some(rate) = self.intake.rate {
            if !st.charge_bucket(r.ip, now, rate) {
                return (IngestOutcome::RateLimited, false);
            }
        }
        let reason = match st.parse(r, &self.intake.limits, &self.check) {
            Ok((packet, suspicious))
                if st.poisoned.is_empty() || !st.poisoned.contains(&packet_key(&packet)) =>
            {
                return self.enqueue(st, packet, suspicious);
            }
            Ok(_) => QuarantineReason::PoisonReingest,
            Err(e) => QuarantineReason::Malformed(e),
        };
        ops.push(StateOp::Quarantine {
            cap: self.intake.quarantine_capacity,
            parse_reject: matches!(reason, QuarantineReason::Malformed(_)),
            record: QuarantineRecord {
                reason: reason.clone(),
                source: r.ip,
                port: r.port,
                bytes: r.raw.len(),
                summary: summarize(r.raw),
            },
        });
        (IngestOutcome::Quarantined(reason), false)
    }

    /// Queue an admitted packet under the shed policy; the flag says
    /// whether a queued packet was evicted to make room.
    fn enqueue(
        &self,
        st: &mut ServerState,
        packet: HttpPacket,
        suspicious: bool,
    ) -> (IngestOutcome, bool) {
        let full = st.queue.len() >= self.intake.queue_capacity;
        if full {
            let victim = match self.intake.shed {
                Shed::Newest => None,
                Shed::Oldest => Some(0),
                // The oldest benign entry, else the oldest suspicious one
                // unless the newcomer is benign itself.
                Shed::SensitiveLast => st
                    .queue
                    .iter()
                    .position(|(_, s)| !s)
                    .or(suspicious.then_some(0)),
            };
            let Some(pos) = victim else {
                return (IngestOutcome::Shed, false);
            };
            st.queue.remove(pos);
        }
        st.queue.push_back((packet, suspicious));
        (IngestOutcome::Admitted { suspicious }, full)
    }

    /// Drain up to `max` packets from the admission queue into the
    /// reservoir / normal ring, recorded as one op slice. Returns how
    /// many were processed. [`CollectionServer::regenerate`] (and the
    /// supervisor) drain the whole queue before sampling, so calling this
    /// explicitly is only needed to smooth latency or to observe
    /// mid-flood state.
    pub fn pump(&self, max: usize) -> usize {
        let mut st = self.state.lock();
        let n = max.min(st.queue.len());
        if n > 0 {
            let mut queue = std::mem::take(&mut st.queue);
            st.route(queue.drain(..n), self.capacity);
            st.queue = queue;
        }
        n
    }

    /// Drain the entire admission queue.
    pub fn pump_all(&self) -> usize {
        self.pump(usize::MAX)
    }

    /// Packets currently waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Snapshot of the most recent quarantine records (bounded by
    /// [`IngestConfig::quarantine_capacity`]; the total-ever count lives
    /// in [`ServerStats::quarantined`]).
    pub fn quarantine_ledger(&self) -> Vec<QuarantineRecord> {
        self.state
            .lock()
            .store
            .state()
            .ledger
            .iter()
            .cloned()
            .collect()
    }

    /// Quarantine specific packets: remove every reservoir entry equal
    /// to one of `packets`, record each under `reason`, and remember the
    /// verdict so re-ingests of the same packet are refused at
    /// admission. Used by the regeneration supervisor's bisection; also
    /// callable by an operator who identified a bad packet manually.
    pub fn quarantine_packets(&self, packets: &[HttpPacket], reason: QuarantineReason) {
        let mut st = self.state.lock();
        // Evictions are recorded as positional ops (replay must not
        // compare packets), so simulate the removals against a mirror of
        // the current reservoir to emit slots valid at application time.
        let reservoir = st.store.state().reservoir.clone();
        let mut mirror: Vec<usize> = (0..reservoir.len()).collect();
        let mut ops = Vec::new();
        for p in packets {
            st.poisoned.insert(packet_key(p));
            let mut i = 0;
            while i < mirror.len() {
                if reservoir[mirror[i]] == *p {
                    ops.push(StateOp::Evict { slot: i });
                    mirror.remove(i);
                } else {
                    i += 1;
                }
            }
            ops.push(StateOp::Quarantine {
                cap: self.intake.quarantine_capacity,
                parse_reject: false,
                record: QuarantineRecord {
                    reason: reason.clone(),
                    source: p.destination.ip,
                    port: p.destination.port,
                    bytes: p.wire_len(),
                    summary: p.request_line.as_line().chars().take(48).collect(),
                },
            });
        }
        st.store.apply(&ops);
    }

    /// Pipeline configuration (for the regeneration supervisor).
    pub(crate) fn pipeline_config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Phase 1 of a regeneration: drain the admission queue, then — under
    /// the lock — sample `n` reservoir packets (uniform; prefix of a
    /// shuffle for sub-sampling determinism) and clone out the normal
    /// slice the pipeline needs. `None` when the reservoir is empty.
    pub(crate) fn sample_for_regenerate(
        &self,
        n: usize,
    ) -> Option<(Vec<HttpPacket>, Vec<HttpPacket>)> {
        self.pump_all();
        let mut st = self.state.lock();
        let len = st.store.state().reservoir.len();
        if len == 0 {
            return None;
        }
        let mut idx: Vec<usize> = (0..len).collect();
        for i in (1..idx.len()).rev() {
            let j = st.rng.random_range(0..=i as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(n);
        if len > 1 {
            // The shuffle consumed the RNG: checkpoint it so a restarted
            // server samples the same stream.
            let words = st.rng.state();
            st.store.apply(&[StateOp::Rng { state: words }]);
        }
        let reservoir = &st.store.state().reservoir;
        let sample: Vec<HttpPacket> = idx.iter().map(|&i| reservoir[i].clone()).collect();
        let normal: Vec<HttpPacket> = match self.config.fp_validation {
            Some(v) => st.normal_ring.iter().take(v.sample).cloned().collect(),
            None => Vec::new(),
        };
        Some((sample, normal))
    }

    /// Phase 3 of a regeneration: account for a finished pipeline run.
    /// A successful publish is recorded durably (version + wire text) so
    /// a restarted server can republish the exact generation.
    pub(crate) fn account_publish(
        &self,
        publish: Result<u64, Vec<Diagnostic>>,
        set: &SignatureSet,
    ) -> RegenerateOutcome {
        let mut st = self.state.lock();
        match publish {
            Ok(version) => {
                st.store.apply(&[StateOp::Publish {
                    version,
                    wire: leaksig_core::wire::encode(set),
                }]);
                RegenerateOutcome::Published {
                    version,
                    signatures: set.len(),
                }
            }
            Err(diags) => {
                st.store.apply(&[StateOp::RejectedPublish]);
                RegenerateOutcome::Rejected(diags)
            }
        }
    }

    /// Run the §IV pipeline over (up to) `n` reservoir packets, validate
    /// against the normal ring, and publish to `server`.
    ///
    /// The state mutex is held only while *sampling* (cloning the chosen
    /// packets out) and while bumping counters afterwards; the expensive
    /// §IV run — clustering, signature generation, FP pruning — happens
    /// outside the lock, so `ingest` keeps flowing during regeneration.
    ///
    /// This inline variant has **no deadline and no panic isolation**;
    /// production loops should prefer
    /// [`crate::RegenerationSupervisor::regenerate`], which wraps the
    /// same three phases in a supervised worker.
    pub fn regenerate(&self, n: usize, server: &SignatureServer) -> RegenerateOutcome {
        let Some((sample, normal)) = self.sample_for_regenerate(n) else {
            return RegenerateOutcome::NoTraffic;
        };
        let sample_refs: Vec<&HttpPacket> = sample.iter().collect();
        let normal_refs: Vec<&HttpPacket> = normal.iter().collect();
        let set = regeneration_pass(&sample_refs, &normal_refs, &self.config);
        self.account_publish(server.publish(&set), &set)
    }

    /// Counter snapshot.
    ///
    /// Counter lifecycle: all counters start at zero, only ever
    /// increase, and survive regenerations. `raw_seen` bumps on every
    /// raw offer (an `ingest_raw` call or one `ingest_batch` record);
    /// exactly one of `rate_limited`,
    /// `parse_rejects` (+`quarantined`), `shed`, or `admitted` bumps for
    /// that same offer — except under [`Shed::Oldest`] /
    /// [`Shed::SensitiveLast`], where an overflow bumps `shed` for a
    /// *queued victim* while the incoming packet still bumps `admitted`.
    /// `ingested`/`suspicious`/`normal` bump when a packet enters
    /// classification: immediately for trusted [`CollectionServer::ingest`],
    /// at queue-drain time (`pump`/`regenerate`) for raw intake.
    /// `quarantined` also bumps for supervisor poison verdicts, which do
    /// not originate from a raw offer.
    ///
    /// Restart lifecycle (durable backends): **every** `ServerStats`
    /// counter is part of the durable state and survives recovery as of
    /// the last flushed WAL record or snapshot — counters never reset,
    /// they at worst lose the un-flushed tail of offers. What does *not*
    /// survive a restart is the volatile machinery around them: the
    /// admission queue (in-flight packets are dropped, so a post-restart
    /// `admitted` may exceed `ingested` until re-offered), the normal
    /// ring, the token buckets, the poison-verdict hashes, and the
    /// logical clock (restarting at 0, which only refills buckets — it
    /// errs toward admitting). `durability_degraded` /
    /// `durability_refused` bump while the WAL is unavailable, so their
    /// increments persist only if a later successful compaction captured
    /// them. On the in-memory backend nothing survives, as before.
    pub fn stats(&self) -> ServerStats {
        self.state.lock().store.state().stats
    }

    /// Current reservoir size.
    pub fn reservoir_len(&self) -> usize {
        self.state.lock().store.state().reservoir.len()
    }

    /// Push buffered durable-state log records to disk (no-op on the
    /// in-memory backend). Call before a planned shutdown so the
    /// recovered state includes everything up to now.
    pub fn flush_state(&self) {
        self.state.lock().store.flush();
    }

    /// Fold the durable log into a snapshot now (no-op on the in-memory
    /// backend). A successful compaction re-arms a degraded backend.
    pub fn compact_state(&self) {
        self.state.lock().store.compact();
    }

    /// Durability level the state backend currently provides.
    pub fn durability(&self) -> Durability {
        self.state.lock().store.durability()
    }

    /// Byte-deterministic encoding of the durable state (see
    /// [`crate::state::encode_state`]) — what the crash-recovery
    /// differential harness compares.
    pub fn encoded_state(&self) -> Vec<u8> {
        crate::state::encode_state(self.state.lock().store.state())
    }

    /// Republish the recovered signature generation to `publisher`:
    /// after a restart the fleet must be able to fetch the same set it
    /// was syncing before the crash, without waiting for the next
    /// regeneration. Returns the restored version, or `None` when the
    /// state holds no published generation (publisher untouched).
    pub fn restore_publisher(&self, publisher: &SignatureServer) -> Option<u64> {
        let st = self.state.lock();
        let (version, wire) = st.store.state().last_publish.clone()?;
        publisher.restore(version, &wire);
        Some(version)
    }
}

impl ServerState {
    /// Parse `raw` into an owned packet and classify it. The zero-copy
    /// view parse runs in the state's arena, and the payload check scans
    /// its rebuilt wire image — the same bytes
    /// [`PayloadCheck::is_suspicious`] scans on the materialised packet,
    /// lossy-decoded request line included.
    fn parse<T: Copy + Eq>(
        &mut self,
        r: RawPacket<'_>,
        limits: &ParseLimits,
        check: &PayloadCheck<T>,
    ) -> Result<(HttpPacket, bool), ParseError> {
        self.arena.reset();
        let view = parse_request_view(r.raw, r.ip, r.port, limits, &mut self.arena)?;
        view.write_wire(&self.arena, &mut self.wire);
        let suspicious = check.is_suspicious_bytes(&self.wire);
        Ok((view.to_packet(&self.arena), suspicious))
    }

    /// Route classified packets into the reservoir or normal ring,
    /// recorded as one op slice: a `Suspect`, `SuspectDropped` or
    /// `Normal` op per packet in order, then one [`StateOp::Rng`]
    /// checkpoint when a sampling draw advanced the generator.
    ///
    /// The reservoir decisions (including the draws) are made *here* and
    /// recorded in the ops, so replaying a durable log never consults an
    /// RNG. The reservoir length and suspicious count advance locally as
    /// the slice grows, so each packet draws exactly what it would as a
    /// slice of its own.
    fn route(&mut self, packets: impl IntoIterator<Item = (HttpPacket, bool)>, capacity: usize) {
        let state = self.store.state();
        let mut len = state.reservoir.len();
        let mut seen = state.stats.suspicious;
        let mut drew = false;
        let mut ops = Vec::new();
        for (packet, suspicious) in packets {
            if suspicious {
                // Reservoir sampling: keep each suspicious packet with
                // probability capacity / seen-so-far.
                seen += 1;
                if len < capacity {
                    ops.push(StateOp::Suspect { packet, slot: len });
                    len += 1;
                } else {
                    drew = true;
                    let j = self.rng.random_range(0..seen) as usize;
                    ops.push(if j < capacity {
                        StateOp::Suspect { packet, slot: j }
                    } else {
                        StateOp::SuspectDropped
                    });
                }
            } else {
                ops.push(StateOp::Normal);
                // Bounded ring of recent normal traffic for FP validation —
                // volatile by design (it is a cache of ambient traffic).
                if self.normal_ring.len() < 2048 {
                    self.normal_ring.push(packet);
                } else {
                    let pos = self.normal_pos;
                    self.normal_ring[pos] = packet;
                    self.normal_pos = (pos + 1) % 2048;
                }
            }
        }
        if drew {
            ops.push(StateOp::Rng {
                state: self.rng.state(),
            });
        }
        if ops.is_empty() || self.store.apply(&ops) == ApplyOutcome::Applied {
            return;
        }
        // A fail-closed degraded store refuses slices carrying reservoir
        // evidence. Re-apply the rest (counters and the RNG checkpoint)
        // so benign traffic keeps counting while the reservoir is shut.
        ops.retain(|op| !matches!(op, StateOp::Suspect { .. }));
        if !ops.is_empty() {
            self.store.apply(&ops);
        }
    }

    /// Take one token from `ip`'s bucket at logical time `now`; returns
    /// whether the packet is admitted. Buckets refill at
    /// `rate.per_second` per 1000 logical ms up to `rate.burst`. The
    /// bucket map is bounded: when a flood of distinct sources would
    /// grow it past 8192 entries, the map resets (a crude sliding
    /// window — sources restart with a full burst, which errs toward
    /// admitting).
    fn charge_bucket(&mut self, ip: Ipv4Addr, now: u64, rate: RateLimit) -> bool {
        const MILLI: u64 = 1000;
        if self.buckets.len() >= 8192 && !self.buckets.contains_key(&ip) {
            self.buckets.clear();
        }
        let bucket = self.buckets.entry(ip).or_insert(TokenBucket {
            tokens_milli: rate.burst as u64 * MILLI,
            last_ms: now,
        });
        let elapsed = now.saturating_sub(bucket.last_ms);
        bucket.last_ms = now;
        // per_second tokens / 1000 ms == per_second milli-tokens per ms.
        bucket.tokens_milli =
            (bucket.tokens_milli + elapsed * rate.per_second as u64).min(rate.burst as u64 * MILLI);
        if bucket.tokens_milli >= MILLI {
            bucket.tokens_milli -= MILLI;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SignatureStore;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn leak(i: usize) -> HttpPacket {
        RequestBuilder::get("/getad")
            .query("imei", "355195000000017")
            .query("slot", &(i % 9).to_string())
            .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
            .build()
    }

    fn clean(i: usize) -> HttpPacket {
        RequestBuilder::get("/img")
            .query("f", &format!("{i:06x}.png"))
            .destination(Ipv4Addr::new(198, 51, 100, 8), 80, "cdn.example.jp")
            .build()
    }

    fn server() -> CollectionServer<&'static str> {
        CollectionServer::new(
            PayloadCheck::new([("imei", "355195000000017")]),
            PipelineConfig::default(),
            64,
            7,
        )
    }

    fn raw_of(p: &HttpPacket) -> (Vec<u8>, Ipv4Addr, u16) {
        (p.to_bytes(), p.destination.ip, p.destination.port)
    }

    #[test]
    fn ingest_routes_and_counts() {
        let srv = server();
        for i in 0..30 {
            assert!(srv.ingest(&leak(i)));
            assert!(!srv.ingest(&clean(i)));
        }
        let stats = srv.stats();
        assert_eq!(stats.ingested, 60);
        assert_eq!(stats.suspicious, 30);
        assert_eq!(stats.normal, 30);
        assert_eq!(srv.reservoir_len(), 30);
    }

    #[test]
    fn reservoir_stays_bounded() {
        let srv = server();
        for i in 0..500 {
            srv.ingest(&leak(i));
        }
        assert_eq!(srv.reservoir_len(), 64);
        assert_eq!(srv.stats().suspicious, 500);
    }

    #[test]
    fn ingest_raw_parses_queues_and_pumps() {
        let srv = server();
        let (raw, ip, port) = raw_of(&leak(1));
        assert_eq!(
            srv.ingest_raw(&raw, ip, port),
            IngestOutcome::Admitted { suspicious: true }
        );
        let (raw, ip, port) = raw_of(&clean(1));
        assert_eq!(
            srv.ingest_raw(&raw, ip, port),
            IngestOutcome::Admitted { suspicious: false }
        );
        assert_eq!(srv.queue_len(), 2);
        assert_eq!(srv.stats().ingested, 0, "not classified until pumped");
        assert_eq!(srv.pump_all(), 2);
        assert_eq!(srv.queue_len(), 0);
        let stats = srv.stats();
        assert_eq!((stats.ingested, stats.suspicious, stats.normal), (2, 1, 1));
        assert_eq!((stats.raw_seen, stats.admitted), (2, 2));
        assert_eq!(srv.reservoir_len(), 1);
    }

    #[test]
    fn ingest_raw_quarantines_malformed_with_tagged_reason() {
        let srv = server();
        let out = srv.ingest_raw(
            b"\x00\x01garbage without structure",
            Ipv4Addr::LOCALHOST,
            80,
        );
        let IngestOutcome::Quarantined(reason) = out else {
            panic!("garbage must be quarantined, got {out:?}");
        };
        assert!(matches!(reason, QuarantineReason::Malformed(_)));

        // A header bomb is rejected with its own tag, bounded work.
        let mut bomb = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..1000 {
            bomb.extend_from_slice(format!("x-{i}: v\r\n").as_bytes());
        }
        bomb.extend_from_slice(b"\r\n");
        let out = srv.ingest_raw(&bomb, Ipv4Addr::LOCALHOST, 80);
        let IngestOutcome::Quarantined(reason) = out else {
            panic!("bomb must be quarantined, got {out:?}");
        };
        assert_eq!(reason.tag(), "header-bomb");

        let stats = srv.stats();
        assert_eq!(stats.parse_rejects, 2);
        assert_eq!(stats.quarantined, 2);
        assert_eq!(stats.admitted, 0);
        let ledger = srv.quarantine_ledger();
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger[1].reason.tag(), "header-bomb");
        assert!(ledger[1].summary.starts_with("GET / HTTP/1.1"));
        assert_eq!(srv.queue_len(), 0, "rejects never reach the queue");
    }

    #[test]
    fn quarantine_ledger_is_bounded() {
        let srv = CollectionServer::with_intake(
            PayloadCheck::new([("imei", "355195000000017")]),
            PipelineConfig::default(),
            8,
            7,
            IngestConfig {
                quarantine_capacity: 4,
                ..IngestConfig::default()
            },
        );
        for i in 0..20 {
            srv.ingest_raw(format!("junk-{i}").as_bytes(), Ipv4Addr::LOCALHOST, 80);
        }
        assert_eq!(srv.stats().quarantined, 20, "counter keeps the total");
        let ledger = srv.quarantine_ledger();
        assert_eq!(ledger.len(), 4, "ledger keeps the most recent");
        assert_eq!(ledger[3].summary, "junk-19");
    }

    #[test]
    fn token_bucket_sheds_floods_then_refills() {
        let srv = CollectionServer::with_intake(
            PayloadCheck::new([("imei", "355195000000017")]),
            PipelineConfig::default(),
            8,
            7,
            IngestConfig {
                rate: Some(RateLimit {
                    burst: 3,
                    per_second: 1000,
                }),
                ..IngestConfig::default()
            },
        );
        let (raw, ip, port) = raw_of(&clean(0));
        // Burst of 5 at the same instant: 3 admitted, 2 rate-limited.
        for i in 0..5 {
            let out = srv.ingest_raw_at(&raw, ip, port, 10);
            if i < 3 {
                assert_eq!(out, IngestOutcome::Admitted { suspicious: false });
            } else {
                assert_eq!(out, IngestOutcome::RateLimited);
            }
        }
        // A different source is unaffected.
        let (raw2, ip2, port2) = raw_of(&leak(0));
        assert_eq!(
            srv.ingest_raw_at(&raw2, ip2, port2, 10),
            IngestOutcome::Admitted { suspicious: true }
        );
        // One logical second later the first source has refilled.
        assert_eq!(
            srv.ingest_raw_at(&raw, ip, port, 1010),
            IngestOutcome::Admitted { suspicious: false }
        );
        assert_eq!(srv.stats().rate_limited, 2);
    }

    #[test]
    fn shed_policies_pick_the_right_victim() {
        let mk = |shed| {
            CollectionServer::with_intake(
                PayloadCheck::new([("imei", "355195000000017")]),
                PipelineConfig::default(),
                8,
                7,
                IngestConfig {
                    queue_capacity: 2,
                    shed,
                    ..IngestConfig::default()
                },
            )
        };

        // Newest: the incoming packet is sacrificed.
        let srv = mk(Shed::Newest);
        let (a, ip, port) = raw_of(&leak(0));
        srv.ingest_raw(&a, ip, port);
        srv.ingest_raw(&a, ip, port);
        assert_eq!(srv.ingest_raw(&a, ip, port), IngestOutcome::Shed);
        assert_eq!(srv.queue_len(), 2);
        assert_eq!(srv.stats().shed, 1);

        // Oldest: the queue front is sacrificed, the newcomer admitted.
        let srv = mk(Shed::Oldest);
        srv.ingest_raw(&a, ip, port);
        srv.ingest_raw(&a, ip, port);
        assert_eq!(
            srv.ingest_raw(&a, ip, port),
            IngestOutcome::Admitted { suspicious: true }
        );
        assert_eq!(srv.queue_len(), 2);
        assert_eq!(srv.stats().shed, 1);

        // SensitiveLast: benign queue entries are evicted before any
        // suspicious one; a benign newcomer into an all-suspicious queue
        // is itself shed.
        let srv = mk(Shed::SensitiveLast);
        let (benign, bip, bport) = raw_of(&clean(0));
        srv.ingest_raw(&benign, bip, bport);
        srv.ingest_raw(&a, ip, port);
        assert_eq!(
            srv.ingest_raw(&a, ip, port),
            IngestOutcome::Admitted { suspicious: true },
            "evicts the queued benign packet"
        );
        srv.pump_all();
        let stats = srv.stats();
        assert_eq!(stats.suspicious, 2, "both suspicious packets survived");
        assert_eq!(stats.normal, 0, "the benign packet was the victim");
        srv.ingest_raw(&a, ip, port);
        srv.ingest_raw(&a, ip, port);
        assert_eq!(
            srv.ingest_raw(&benign, bip, bport),
            IngestOutcome::Shed,
            "benign newcomer loses to an all-suspicious queue"
        );
    }

    #[test]
    fn quarantined_packets_leave_reservoir_and_stay_out() {
        let srv = server();
        for i in 0..10 {
            srv.ingest(&leak(i));
        }
        assert_eq!(srv.reservoir_len(), 10);
        let poison = leak(3);
        srv.quarantine_packets(std::slice::from_ref(&poison), QuarantineReason::Poison);
        assert_eq!(srv.reservoir_len(), 9);
        let ledger = srv.quarantine_ledger();
        assert_eq!(ledger.last().unwrap().reason, QuarantineReason::Poison);
        assert_eq!(srv.stats().quarantined, 1);

        // Re-ingesting the same packet through the raw path is refused.
        let (raw, ip, port) = raw_of(&poison);
        assert_eq!(
            srv.ingest_raw(&raw, ip, port),
            IngestOutcome::Quarantined(QuarantineReason::PoisonReingest)
        );
        assert_eq!(srv.reservoir_len(), 9);
        assert_eq!(srv.stats().quarantined, 2);
    }

    #[test]
    fn regenerate_publishes_working_signatures() {
        let srv = server();
        let publisher = SignatureServer::new();
        assert_eq!(
            srv.regenerate(20, &publisher),
            RegenerateOutcome::NoTraffic,
            "nothing ingested yet"
        );
        assert_eq!(srv.stats().regenerations, 0, "no-traffic runs don't count");

        for i in 0..100 {
            srv.ingest(&leak(i));
            srv.ingest(&clean(i));
        }
        let outcome = srv.regenerate(20, &publisher);
        let RegenerateOutcome::Published {
            version,
            signatures,
        } = outcome
        else {
            panic!("expected publish, got {outcome:?}");
        };
        assert_eq!(version, 1);
        assert!(signatures >= 1);
        assert_eq!(srv.stats().regenerations, 1);
        assert_eq!(srv.stats().rejected_publishes, 0);

        // A device syncs and detects fresh module traffic.
        let store = SignatureStore::new();
        assert!(store.sync(&publisher).unwrap());
        assert!(store.match_packet(&leak(999)).is_some());
        assert!(store.match_packet(&clean(999)).is_none());

        // Second regeneration bumps the version.
        assert_eq!(srv.regenerate(20, &publisher).published(), Some(2));
    }

    #[test]
    fn regenerate_drains_the_intake_queue_first() {
        let srv = server();
        for i in 0..40 {
            let (raw, ip, port) = raw_of(&leak(i));
            srv.ingest_raw(&raw, ip, port);
        }
        assert_eq!(srv.queue_len(), 40);
        let publisher = SignatureServer::new();
        assert!(srv.regenerate(20, &publisher).published().is_some());
        assert_eq!(srv.queue_len(), 0);
        assert_eq!(srv.stats().ingested, 40);
    }

    #[test]
    fn gate_rejection_is_visible_not_swallowed() {
        // A deliberately loosened pipeline (tiny anchor requirement, no
        // pipeline-side gate) over traffic leaking a *short* identifier:
        // every substring the cluster shares is under the default
        // 10-byte anchor, so the generated signature is a §VI hazard the
        // publisher's deploy gate must refuse — visibly, not as a
        // silent `None`.
        let mut config = PipelineConfig::default();
        config.signature.min_anchor_len = 5;
        config.signature.include_singletons = false;
        config.deploy_gate = false;
        config.fp_validation = None;
        let srv = CollectionServer::new(PayloadCheck::new([("k", "short12")]), config, 8, 7);
        let weak = |path: &str, q: &str, v: &str, val: &str| {
            RequestBuilder::get(path)
                .query(q, "short12")
                .query(v, val)
                .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "weak.example")
                .build()
        };
        assert!(srv.ingest(&weak("/aa", "ak", "x", "0001")));
        assert!(srv.ingest(&weak("/bb", "bz", "y", "0202")));

        let publisher = SignatureServer::new();
        let outcome = srv.regenerate(8, &publisher);
        let RegenerateOutcome::Rejected(diags) = &outcome else {
            panic!("expected a deploy-gate rejection, got {outcome:?}");
        };
        assert!(!diags.is_empty());
        assert_eq!(outcome.published(), None);
        assert_eq!(publisher.version(), 0, "nothing was published");
        let stats = srv.stats();
        assert_eq!(stats.regenerations, 1, "the run itself is counted");
        assert_eq!(stats.rejected_publishes, 1, "...and so is the rejection");
    }

    #[test]
    fn ingest_proceeds_while_regenerating() {
        // Load enough traffic that the §IV pipeline takes measurable
        // time, then race ingest against regenerate. With the sample
        // cloned out under the lock, ingest must never wait for the
        // pipeline; we assert completion (no deadlock) and that both
        // sides observed a consistent final state.
        let srv = std::sync::Arc::new(server());
        for i in 0..200 {
            srv.ingest(&leak(i));
            srv.ingest(&clean(i));
        }
        let publisher = SignatureServer::new();
        let srv2 = srv.clone();
        std::thread::scope(|scope| {
            let regen = scope.spawn(|| srv.regenerate(60, &publisher).published());
            let ingest = scope.spawn(move || {
                for i in 0..200 {
                    srv2.ingest(&leak(1000 + i));
                }
            });
            assert_eq!(regen.join().unwrap(), Some(1));
            ingest.join().unwrap();
        });
        let stats = srv.stats();
        assert_eq!(stats.ingested, 600);
        assert_eq!(stats.suspicious, 400);
        assert_eq!(stats.regenerations, 1);
    }
}
