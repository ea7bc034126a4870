#![warn(missing_docs)]
//! `leaksig-device` — the on-device information-flow-control application
//! of Fig. 3b, simulated host-side.
//!
//! The paper's deployment story: a user installs one unprivileged app
//! that (a) periodically fetches server-generated signatures and (b)
//! inspects other applications' outgoing HTTP traffic, prompting the user
//! when a signature matches, without any Android framework modification.
//! This crate reproduces that component's logic:
//!
//! * [`SignatureServer`] / [`SignatureStore`] — versioned publish/fetch of
//!   signature sets over the `leaksig-core` wire format, with a
//!   [`StoreHealth`] ledger (fresh/stale/corrupt/empty) the gate consults;
//! * [`Transport`] / [`SyncClient`] — the fallible distribution channel:
//!   checksummed `LEAKFRAME/1` envelopes, capped exponential backoff with
//!   deterministic jitter, version-conditional fetch, and a
//!   [`FaultyTransport`] wrapper injecting seeded faults for chaos tests;
//! * [`PolicyEngine`] — per-`(app, signature)` decision cache
//!   (allow/block/prompt semantics);
//! * [`PacketGate`] — the interception point: match → decide → forward,
//!   block, or park behind a prompt, with a full audit log and
//!   configurable fail-open/fail-closed degraded modes ([`GateConfig`]);
//! * [`persist`] — reboot-safe snapshots, including the crash-safe
//!   checksummed [`SnapshotVault`], which keeps its generations with the
//!   same commit/recover protocol (and on the same
//!   [`DiskIo`](leaksig_faults::DiskIo) boundary) as [`WalStore`];
//! * [`state`] / [`wal`] — the collection server's durable core behind
//!   the [`StateStore`] trait: classification decisions journaled as
//!   [`StateOp`]s, with the in-memory [`MemoryStore`] and the WAL-backed
//!   [`WalStore`] (group-commit `LEAKFRAME/1` journal, snapshot
//!   compaction, torn-tail-tolerant crash recovery, degrade-on-failure
//!   with fail-open/fail-closed policy);
//! * [`CollectionServer`] — the Fig. 3a collection/generation server,
//!   with a hardened raw-bytes intake ([`CollectionServer::ingest_raw`]):
//!   per-source token buckets, hard parse limits, a bounded admission
//!   queue with an explicit [`Shed`] policy, and a reason-tagged
//!   quarantine ledger;
//! * [`RegenerationSupervisor`] — deadline- and panic-guarded §IV
//!   regeneration with delta-debugging bisection that quarantines poison
//!   packets and retries on the cleaned reservoir.
//!
//! What is *not* simulated is the Android plumbing itself (a VPN-service
//! or local-proxy capture loop); the gate takes packets as values, which
//! is exactly what such a loop would hand it.

mod gate;
mod generations;
pub mod persist;
mod policy;
mod server;
pub mod state;
mod store;
mod supervise;
pub mod transport;
pub mod wal;

pub use gate::{
    AuditRecord, DegradedMode, GateAction, GateConfig, GateStats, PacketGate, AUDIT_CAPACITY,
};
pub use persist::{
    decode_policy, decode_store, encode_policy, encode_store, PersistError, RestoreReport,
    SnapshotVault,
};
pub use policy::{PolicyEngine, UserChoice, Verdict};
pub use server::{
    BatchVerdicts, CollectionServer, IngestConfig, IngestOutcome, QuarantineReason,
    QuarantineRecord, RateLimit, RegenerateOutcome, ServerStats, Shed,
};
pub use state::{
    ApplyOutcome, Durability, DurableState, MemoryStore, StateOp, StateStore,
};
pub use supervise::{DefaultRunner, PipelineRunner, RegenerationSupervisor, SupervisorConfig};
pub use wal::{DurabilityMode, WalConfig, WalRecoveryReport, WalStore};
pub use store::{InstallError, SignatureServer, SignatureStore, StoreHealth};
pub use transport::{
    Fetched, FaultyTransport, InProcessTransport, RetryPolicy, SyncClient, SyncEvent,
    SyncEventKind, SyncOutcome, SyncReport, Transport, TransportError,
};
