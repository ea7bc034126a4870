//! The fallible distribution channel between server and device.
//!
//! The paper's Fig. 3 arrow from the clustering server to the on-device
//! app crosses a mobile network; this module gives that arrow a real
//! failure model. A [`Transport`] yields framed signature payloads
//! (`LEAKFRAME/1` envelopes, see [`leaksig_core::wire::frame`]) and may
//! fail; [`FaultyTransport`] wraps any transport with a seeded
//! [`FaultPlan`] injecting drops, delays, stale replays, truncation, and
//! byte corruption; [`SyncClient`] drives retries with capped exponential
//! backoff and deterministic jitter, verifies the envelope before any
//! install, and keeps the [`StoreHealth`](crate::StoreHealth) ledger
//! honest.
//!
//! All time is logical (millisecond numbers in events, never real
//! sleeps), so a full chaos soak runs in milliseconds and replays
//! identically from a seed.

use crate::store::{InstallError, SignatureServer, SignatureStore};
use leaksig_core::wire;
use leaksig_faults::{flip_bytes, truncate_bytes, FaultAction, FaultPlan};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A transport-level failure: the exchange itself did not complete.
///
/// Payload-level problems (bad checksum, unparsable wire text) are *not*
/// transport errors — the bytes arrived; the client discovers the damage
/// when it verifies the envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The request or response was lost entirely.
    Dropped,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Dropped => write!(f, "exchange dropped"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A framed response from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fetched {
    /// Version the server claims this payload carries.
    pub version: u64,
    /// `LEAKFRAME/1` envelope bytes (possibly mangled in flight).
    pub frame: Vec<u8>,
    /// Logical delivery latency in milliseconds.
    pub latency_ms: u64,
}

/// The distribution channel: a version-conditional fetch.
///
/// `fetch(have_version)` returns `Ok(None)` when the server has nothing
/// newer — the analogue of a conditional GET answered `304 Not
/// Modified` — so an up-to-date device never re-downloads its set.
pub trait Transport {
    /// Poll for a set newer than `have_version`.
    fn fetch(&mut self, have_version: u64) -> Result<Option<Fetched>, TransportError>;
}

/// The loopback transport: wraps a [`SignatureServer`] in-process. This
/// is the infallible baseline every fault wrapper composes over.
pub struct InProcessTransport<'a> {
    server: &'a SignatureServer,
}

impl<'a> InProcessTransport<'a> {
    /// Channel to `server`.
    pub fn new(server: &'a SignatureServer) -> Self {
        InProcessTransport { server }
    }
}

impl Transport for InProcessTransport<'_> {
    fn fetch(&mut self, have_version: u64) -> Result<Option<Fetched>, TransportError> {
        Ok(self
            .server
            .fetch(have_version)
            .map(|(version, text)| Fetched {
                version,
                frame: wire::frame(&text),
                latency_ms: 1,
            }))
    }
}

/// A transport wrapper that mangles exchanges according to a seeded
/// [`FaultPlan`].
///
/// * `Drop` — the exchange errors out.
/// * `Delay { ms }` — the response arrives with `ms` extra latency; the
///   client treats anything past its timeout as a failed attempt.
/// * `Duplicate` — the previous successful response is replayed verbatim
///   (a stale datagram); with no history the attempt passes through.
/// * `Truncate` / `Corrupt` — the envelope bytes are cut or bit-flipped;
///   the client's checksum verification catches both.
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    last_ok: Option<Fetched>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            last_ok: None,
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.plan.injected()
    }

    fn remember(&mut self, fetched: &Option<Fetched>) {
        if let Some(f) = fetched {
            self.last_ok = Some(f.clone());
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn fetch(&mut self, have_version: u64) -> Result<Option<Fetched>, TransportError> {
        match self.plan.next_action() {
            None => {
                let fetched = self.inner.fetch(have_version)?;
                self.remember(&fetched);
                Ok(fetched)
            }
            Some(FaultAction::Drop) => Err(TransportError::Dropped),
            Some(FaultAction::Delay { ms }) => {
                let fetched = self.inner.fetch(have_version)?.map(|mut f| {
                    f.latency_ms += ms;
                    f
                });
                // A delayed copy is still a faithful copy.
                self.remember(&fetched);
                Ok(fetched)
            }
            Some(FaultAction::Duplicate) => match self.last_ok.clone() {
                Some(stale) => Ok(Some(stale)),
                None => {
                    let fetched = self.inner.fetch(have_version)?;
                    self.remember(&fetched);
                    Ok(fetched)
                }
            },
            Some(FaultAction::Truncate { keep_permille }) => {
                Ok(self.inner.fetch(have_version)?.map(|mut f| {
                    truncate_bytes(&mut f.frame, keep_permille);
                    f
                }))
            }
            Some(FaultAction::Corrupt { flips, seed }) => {
                Ok(self.inner.fetch(have_version)?.map(|mut f| {
                    flip_bytes(&mut f.frame, seed, flips as usize);
                    f
                }))
            }
        }
    }
}

/// Retry/backoff policy for [`SyncClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per sync round before giving up.
    pub max_attempts: u32,
    /// First retry backoff in logical milliseconds.
    pub base_backoff_ms: u64,
    /// Backoff cap (the exponential curve flattens here).
    pub max_backoff_ms: u64,
    /// Responses slower than this count as timeouts.
    pub timeout_ms: u64,
    /// Overall budget for one sync round in logical milliseconds:
    /// backoffs plus per-attempt waits. A round that would exceed this
    /// stops with [`SyncOutcome::RetryExhausted`] instead of starting
    /// another attempt — the cap that keeps a stalled socket from
    /// hanging a device sync no matter how generous `max_attempts` is.
    pub overall_deadline_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff_ms: 100,
            max_backoff_ms: 5_000,
            timeout_ms: 1_000,
            // Generous enough that the default policy (8 attempts,
            // ≤5s backoff, 1s timeout) can never trip it.
            overall_deadline_ms: 60_000,
            jitter_seed: 0,
        }
    }
}

/// What happened on one attempt of a sync round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncEventKind {
    /// Server confirmed the device is current; nothing downloaded.
    NotModified,
    /// The exchange was lost.
    Dropped,
    /// The response exceeded [`RetryPolicy::timeout_ms`].
    TimedOut {
        /// Observed logical latency.
        latency_ms: u64,
    },
    /// A replayed response carried a version not newer than ours.
    StaleReplay {
        /// Version the stale response claimed.
        version: u64,
    },
    /// The envelope failed verification (truncated/corrupted); the
    /// payload was discarded before any install.
    FrameRejected {
        /// The specific envelope failure.
        error: wire::FrameError,
    },
    /// The envelope verified but the wire text inside did not parse —
    /// the server shipped garbage under a valid checksum.
    WireRejected,
    /// The set parsed but the device's deploy gate refused it.
    GateRejected {
        /// Number of Error-level audit findings.
        errors: usize,
    },
    /// A verified set was installed.
    Installed {
        /// Now-current version.
        version: u64,
    },
}

impl SyncEventKind {
    /// Short stable tag for logs.
    pub fn tag(&self) -> &'static str {
        match self {
            SyncEventKind::NotModified => "not-modified",
            SyncEventKind::Dropped => "dropped",
            SyncEventKind::TimedOut { .. } => "timeout",
            SyncEventKind::StaleReplay { .. } => "stale-replay",
            SyncEventKind::FrameRejected { .. } => "frame-rejected",
            SyncEventKind::WireRejected => "wire-rejected",
            SyncEventKind::GateRejected { .. } => "gate-rejected",
            SyncEventKind::Installed { .. } => "installed",
        }
    }
}

/// One attempt within a sync round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEvent {
    /// 1-based attempt number within the round.
    pub attempt: u32,
    /// Backoff waited (logically) before this attempt.
    pub backoff_ms: u64,
    /// What the attempt produced.
    pub kind: SyncEventKind,
}

/// Terminal result of one sync round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// The device was already current.
    UpToDate,
    /// A newer set was verified and installed.
    Updated {
        /// Version before the round.
        from: u64,
        /// Version after the round.
        to: u64,
    },
    /// Every attempt failed; the device keeps its current set and ages
    /// one staleness generation.
    Failed {
        /// Attempts consumed.
        attempts: u32,
    },
    /// The round's logical clock (backoffs + per-attempt waits) reached
    /// [`RetryPolicy::overall_deadline_ms`] with attempts still
    /// unspent: a stalled channel must bound *time*, not just attempt
    /// count. The device keeps its current set and ages one staleness
    /// generation, exactly as for [`SyncOutcome::Failed`].
    RetryExhausted {
        /// Logical milliseconds consumed when the round gave up.
        elapsed_ms: u64,
        /// Attempts actually started before the deadline hit.
        attempts: u32,
    },
}

/// Full account of one sync round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncReport {
    /// Terminal outcome.
    pub outcome: SyncOutcome,
    /// Per-attempt event log, in order.
    pub events: Vec<SyncEvent>,
    /// Total logical backoff accumulated across retries.
    pub total_backoff_ms: u64,
}

impl SyncReport {
    /// Whether the round ended with the device current (installed or
    /// confirmed up to date).
    pub fn converged(&self) -> bool {
        !matches!(
            self.outcome,
            SyncOutcome::Failed { .. } | SyncOutcome::RetryExhausted { .. }
        )
    }

    /// Count of events matching `tag` (see [`SyncEventKind::tag`]).
    pub fn count(&self, tag: &str) -> usize {
        self.events.iter().filter(|e| e.kind.tag() == tag).count()
    }
}

/// The device-side sync driver: retry loop, backoff, envelope
/// verification, health bookkeeping.
pub struct SyncClient<T> {
    transport: T,
    policy: RetryPolicy,
    jitter: StdRng,
}

impl<T: Transport> SyncClient<T> {
    /// Client over `transport` with `policy`.
    pub fn new(transport: T, policy: RetryPolicy) -> Self {
        SyncClient {
            jitter: StdRng::seed_from_u64(policy.jitter_seed),
            transport,
            policy,
        }
    }

    /// Client with the default policy.
    pub fn with_default_policy(transport: T) -> Self {
        SyncClient::new(transport, RetryPolicy::default())
    }

    /// The wrapped transport (e.g. to read fault counters).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Backoff before attempt `n` (1-based; attempt 1 is immediate):
    /// capped exponential with deterministic jitter in `[0, base/2]`.
    fn backoff_before(&mut self, attempt: u32) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let exp = (attempt - 2).min(32);
        let base = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.policy.max_backoff_ms);
        let jitter = if base >= 2 {
            self.jitter.random_range(0..=base / 2)
        } else {
            0
        };
        base + jitter
    }

    /// Run one sync round against `store`: retry until the device is
    /// provably current, a verified newer set installs, attempts run
    /// out, or the round's overall logical deadline is reached. A
    /// corrupted payload is *never* installed: the envelope checksum,
    /// the wire parser, and the deploy gate all sit between the
    /// transport and [`SignatureStore::install`].
    ///
    /// Time accounting is logical and conservative: each backoff adds
    /// its waited milliseconds; a dropped exchange adds a full
    /// [`RetryPolicy::timeout_ms`] (on a real socket a loss is
    /// indistinguishable from a stall until the timer fires); a
    /// delivered response adds its observed latency, capped at the
    /// timeout. When the *next* attempt's backoff would cross
    /// [`RetryPolicy::overall_deadline_ms`], the round stops with
    /// [`SyncOutcome::RetryExhausted`] instead of starting it.
    pub fn sync(&mut self, store: &SignatureStore) -> SyncReport {
        let from = store.version();
        let mut events = Vec::new();
        let mut total_backoff_ms = 0u64;
        let mut elapsed_ms = 0u64;

        for attempt in 1..=self.policy.max_attempts.max(1) {
            let backoff_ms = self.backoff_before(attempt);
            if elapsed_ms.saturating_add(backoff_ms) > self.policy.overall_deadline_ms {
                store.note_sync_failure();
                return SyncReport {
                    outcome: SyncOutcome::RetryExhausted {
                        elapsed_ms,
                        attempts: attempt - 1,
                    },
                    events,
                    total_backoff_ms,
                };
            }
            total_backoff_ms += backoff_ms;
            elapsed_ms += backoff_ms;
            let mut push = |kind: SyncEventKind| {
                events.push(SyncEvent {
                    attempt,
                    backoff_ms,
                    kind,
                })
            };

            let fetched = match self.transport.fetch(store.version()) {
                Err(TransportError::Dropped) => {
                    push(SyncEventKind::Dropped);
                    elapsed_ms += self.policy.timeout_ms;
                    continue;
                }
                Ok(None) => {
                    push(SyncEventKind::NotModified);
                    store.note_sync_success();
                    return SyncReport {
                        outcome: SyncOutcome::UpToDate,
                        events,
                        total_backoff_ms,
                    };
                }
                Ok(Some(f)) => f,
            };
            elapsed_ms += fetched.latency_ms.min(self.policy.timeout_ms);

            if fetched.latency_ms > self.policy.timeout_ms {
                push(SyncEventKind::TimedOut {
                    latency_ms: fetched.latency_ms,
                });
                continue;
            }
            if fetched.version <= store.version() {
                push(SyncEventKind::StaleReplay {
                    version: fetched.version,
                });
                continue;
            }
            let payload = match wire::unframe(&fetched.frame) {
                Err(error) => {
                    push(SyncEventKind::FrameRejected { error });
                    continue;
                }
                Ok(p) => p,
            };
            match store.install(fetched.version, payload) {
                Ok(()) => {
                    push(SyncEventKind::Installed {
                        version: fetched.version,
                    });
                    return SyncReport {
                        outcome: SyncOutcome::Updated {
                            from,
                            to: fetched.version,
                        },
                        events,
                        total_backoff_ms,
                    };
                }
                Err(InstallError::Wire(_)) => {
                    // Checksum-valid but unparsable: the server itself is
                    // shipping garbage; retrying may still win if a newer
                    // publish lands.
                    push(SyncEventKind::WireRejected);
                    continue;
                }
                Err(InstallError::Rejected(diags)) => {
                    push(SyncEventKind::GateRejected {
                        errors: diags.len(),
                    });
                    continue;
                }
            }
        }

        store.note_sync_failure();
        SyncReport {
            outcome: SyncOutcome::Failed {
                attempts: self.policy.max_attempts.max(1),
            },
            events,
            total_backoff_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_core::prelude::*;
    use leaksig_faults::FaultKind;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn leak(slot: &str) -> leaksig_http::HttpPacket {
        RequestBuilder::get("/getad")
            .query("imei", "355195000000017")
            .query("slot", slot)
            .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
            .build()
    }

    fn one_set() -> SignatureSet {
        let (a, b) = (leak("1"), leak("2"));
        generate_signatures(&[&a, &b], &{
            let mut cfg = PipelineConfig::default();
            cfg.signature.include_singletons = false;
            cfg
        })
    }

    #[test]
    fn clean_transport_syncs_first_try() {
        let server = SignatureServer::new();
        server.publish(&one_set()).unwrap();
        let store = SignatureStore::new();
        let mut client = SyncClient::with_default_policy(InProcessTransport::new(&server));

        let report = client.sync(&store);
        assert_eq!(report.outcome, SyncOutcome::Updated { from: 0, to: 1 });
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.total_backoff_ms, 0, "first attempt is immediate");
        assert!(store.match_packet(&leak("9")).is_some());

        // Version-conditional fetch: the second round downloads nothing.
        let report = client.sync(&store);
        assert_eq!(report.outcome, SyncOutcome::UpToDate);
        assert_eq!(report.count("not-modified"), 1);
    }

    #[test]
    fn drops_are_retried_with_growing_backoff() {
        let server = SignatureServer::new();
        server.publish(&one_set()).unwrap();
        let store = SignatureStore::new();
        // Drop-only plan at full intensity for 3 attempts, then quiet.
        struct FlakyN<'a> {
            inner: InProcessTransport<'a>,
            fails_left: u32,
        }
        impl Transport for FlakyN<'_> {
            fn fetch(&mut self, have: u64) -> Result<Option<Fetched>, TransportError> {
                if self.fails_left > 0 {
                    self.fails_left -= 1;
                    return Err(TransportError::Dropped);
                }
                self.inner.fetch(have)
            }
        }
        let mut client = SyncClient::new(
            FlakyN {
                inner: InProcessTransport::new(&server),
                fails_left: 3,
            },
            RetryPolicy {
                jitter_seed: 7,
                ..RetryPolicy::default()
            },
        );
        let report = client.sync(&store);
        assert_eq!(report.outcome, SyncOutcome::Updated { from: 0, to: 1 });
        assert_eq!(report.count("dropped"), 3);
        // Backoffs are non-decreasing in the base component: attempt 2
        // waits ≥ base, attempt 4 waits ≥ 2·base.
        assert_eq!(report.events[0].backoff_ms, 0);
        assert!(report.events[1].backoff_ms >= 100);
        assert!(report.events[3].backoff_ms >= 200);
        assert!(report.total_backoff_ms > 0);
    }

    #[test]
    fn corrupted_frames_never_install() {
        let server = SignatureServer::new();
        server.publish(&one_set()).unwrap();
        let store = SignatureStore::new();
        let plan = FaultPlan::new(3, &[FaultKind::Corrupt, FaultKind::Truncate], 1.0);
        let mut client = SyncClient::new(
            FaultyTransport::new(InProcessTransport::new(&server), plan),
            RetryPolicy {
                max_attempts: 5,
                ..RetryPolicy::default()
            },
        );
        let report = client.sync(&store);
        // Every attempt was mangled → every payload rejected pre-install.
        assert_eq!(report.outcome, SyncOutcome::Failed { attempts: 5 });
        assert_eq!(report.count("frame-rejected"), 5);
        assert_eq!(store.version(), 0, "no corrupt payload ever installed");
        assert_eq!(store.health(), crate::StoreHealth::Empty);
        assert_eq!(client.transport().injected(), 5);
    }

    #[test]
    fn faulty_transport_converges_given_attempts() {
        let server = SignatureServer::new();
        server.publish(&one_set()).unwrap();
        let store = SignatureStore::new();
        let plan = FaultPlan::chaos(11, 0.6);
        let mut client = SyncClient::new(
            FaultyTransport::new(InProcessTransport::new(&server), plan),
            RetryPolicy {
                max_attempts: 32,
                jitter_seed: 11,
                ..RetryPolicy::default()
            },
        );
        let report = client.sync(&store);
        assert!(report.converged(), "events: {:?}", report.events);
        assert_eq!(store.version(), 1);
        assert!(store.match_packet(&leak("42")).is_some());
    }

    #[test]
    fn stale_duplicates_are_ignored() {
        let server = SignatureServer::new();
        server.publish(&one_set()).unwrap();
        let store = SignatureStore::new();

        // Prime the duplicate buffer with v1, install v1, publish v2,
        // then force replays: the client must refuse to regress.
        let plan = FaultPlan::new(5, &[FaultKind::Duplicate], 1.0);
        // The first fetch under Duplicate with empty history passes
        // through and primes the replay buffer with v1.
        let mut client = SyncClient::new(
            FaultyTransport::new(InProcessTransport::new(&server), plan),
            RetryPolicy::default(),
        );
        assert!(client.sync(&store).converged());
        assert_eq!(store.version(), 1);

        server.publish(&one_set()).unwrap(); // v2
        let report = client.sync(&store);
        // Every attempt replays the remembered v1 frame → stale, ignored.
        assert_eq!(report.count("stale-replay"), report.events.len());
        assert_eq!(store.version(), 1, "device never regresses");
        assert_eq!(store.health(), crate::StoreHealth::Stale { rounds: 1 });
    }

    #[test]
    fn timeouts_count_as_failed_attempts() {
        let server = SignatureServer::new();
        server.publish(&one_set()).unwrap();
        let store = SignatureStore::new();
        let plan = FaultPlan::new(13, &[FaultKind::Delay], 1.0);
        let mut client = SyncClient::new(
            FaultyTransport::new(InProcessTransport::new(&server), plan),
            RetryPolicy {
                max_attempts: 4,
                timeout_ms: 10, // everything injected (50..4000ms) times out
                ..RetryPolicy::default()
            },
        );
        let report = client.sync(&store);
        assert_eq!(report.outcome, SyncOutcome::Failed { attempts: 4 });
        assert_eq!(report.count("timeout"), 4);
        assert_eq!(store.health(), crate::StoreHealth::Empty);
    }

    #[test]
    fn overall_deadline_stops_a_stalled_channel() {
        // A channel that drops every exchange, with an attempt budget
        // far beyond what the deadline allows: the per-attempt timeout
        // (1s each) plus growing backoff must hit the 3.5s overall
        // deadline long before the 1000 attempts run out.
        struct BlackHole;
        impl Transport for BlackHole {
            fn fetch(&mut self, _: u64) -> Result<Option<Fetched>, TransportError> {
                Err(TransportError::Dropped)
            }
        }
        let store = SignatureStore::new();
        let mut client = SyncClient::new(
            BlackHole,
            RetryPolicy {
                max_attempts: 1000,
                overall_deadline_ms: 3_500,
                jitter_seed: 5,
                ..RetryPolicy::default()
            },
        );
        let report = client.sync(&store);
        let SyncOutcome::RetryExhausted {
            elapsed_ms,
            attempts,
        } = report.outcome
        else {
            panic!("expected RetryExhausted, got {:?}", report.outcome);
        };
        assert!(!report.converged());
        assert!(elapsed_ms <= 3_500, "elapsed {elapsed_ms} past deadline");
        assert!(
            (1..1000).contains(&attempts),
            "deadline, not attempts, must be the binding constraint (got {attempts})"
        );
        assert_eq!(attempts as usize, report.events.len());
        assert_eq!(store.health(), crate::StoreHealth::Empty);

        // Failure ages the staleness ledger exactly like Failed does.
        let server = SignatureServer::new();
        server.publish(&one_set()).unwrap();
        let ok_store = SignatureStore::new();
        let mut ok_client = SyncClient::with_default_policy(InProcessTransport::new(&server));
        assert!(ok_client.sync(&ok_store).converged());
        let mut stalled = SyncClient::new(
            BlackHole,
            RetryPolicy {
                max_attempts: 1000,
                overall_deadline_ms: 3_500,
                ..RetryPolicy::default()
            },
        );
        let before = ok_store.version();
        assert!(!stalled.sync(&ok_store).converged());
        assert_eq!(ok_store.version(), before, "no regression on exhaustion");
        assert_eq!(ok_store.health(), crate::StoreHealth::Stale { rounds: 1 });
    }

    #[test]
    fn default_policy_never_trips_its_own_deadline() {
        // The default budget must exceed the worst case the default
        // policy can spend: max backoff curve with full jitter plus a
        // full timeout per attempt.
        let policy = RetryPolicy::default();
        let worst_backoff: u64 = (1..=policy.max_attempts)
            .map(|a| {
                if a <= 1 {
                    0
                } else {
                    let base = policy
                        .base_backoff_ms
                        .saturating_mul(1u64 << (a - 2).min(32))
                        .min(policy.max_backoff_ms);
                    base + base / 2
                }
            })
            .sum();
        let worst = worst_backoff + policy.max_attempts as u64 * policy.timeout_ms;
        assert!(
            worst <= policy.overall_deadline_ms,
            "default deadline {} cannot cover worst case {}",
            policy.overall_deadline_ms,
            worst
        );
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mk = |seed| {
            let server = SignatureServer::new();
            let store = SignatureStore::new();
            let plan = FaultPlan::new(21, &[FaultKind::Drop], 1.0);
            let mut client = SyncClient::new(
                FaultyTransport::new(InProcessTransport::new(&server), plan),
                RetryPolicy {
                    jitter_seed: seed,
                    ..RetryPolicy::default()
                },
            );
            let report = client.sync(&store);
            report
                .events
                .iter()
                .map(|e| e.backoff_ms)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(3), mk(3), "same jitter seed, same schedule");
        assert_ne!(mk(3), mk(4), "different seed, different jitter");
    }
}
