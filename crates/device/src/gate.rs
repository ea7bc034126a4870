//! The packet gate: every outgoing request passes through here.
//!
//! `intercept` runs the installed signatures over the packet, consults the
//! policy engine, and either forwards, blocks, or parks the packet behind
//! a prompt. Every decision is appended to an audit log so the user can
//! review what their apps have been transmitting — the visibility the
//! paper argues Android itself does not provide.
//!
//! The gate also consults the store's [`StoreHealth`]: when the signature
//! set cannot be trusted (corrupt restore, or too many failed sync
//! generations), a configurable [`GateConfig`] decides between failing
//! *open* (keep forwarding on the last known set — availability) and
//! failing *closed* (block everything until a trusted set returns —
//! containment).

use crate::policy::{PolicyEngine, UserChoice, Verdict};
use crate::store::{SignatureStore, StoreHealth};
use leaksig_http::HttpPacket;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Outcome of one interception.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateAction {
    /// Sent to the network.
    Forwarded,
    /// Dropped per remembered policy.
    Blocked {
        /// Signature that fired.
        signature_id: u32,
    },
    /// Parked; the prompt id resolves it via [`PacketGate::answer`].
    PendingPrompt {
        /// Handle for answering the prompt.
        prompt_id: u64,
        /// Signature that fired.
        signature_id: u32,
    },
    /// Dropped because the signature store is in a degraded state and the
    /// gate is configured to fail closed for it (no signature matched —
    /// none could be trusted to).
    DegradedBlocked {
        /// The health state that triggered the lockdown.
        health: StoreHealth,
    },
}

/// How the gate behaves while the signature store is degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Keep enforcing with whatever is installed (availability wins).
    FailOpen,
    /// Block all traffic until the store recovers (containment wins).
    FailClosed,
}

/// Per-health-state degraded-mode policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateConfig {
    /// Staleness (in failed sync generations) at which `on_stale` kicks
    /// in; below it a stale store is treated as healthy.
    pub stale_after: u64,
    /// Behavior once staleness reaches `stale_after`.
    pub on_stale: DegradedMode,
    /// Behavior while nothing was ever installed (version 0).
    pub on_empty: DegradedMode,
    /// Behavior after a restore that found only corrupt snapshots.
    pub on_corrupt: DegradedMode,
}

impl Default for GateConfig {
    /// Defaults mirror the paper's deployment posture: an empty or
    /// merely stale store keeps the phone usable (fail open — the device
    /// simply detects less), but a corrupt store fails closed, because a
    /// detector whose state was tampered with or destroyed can no longer
    /// vouch for *anything* it forwards.
    fn default() -> Self {
        GateConfig {
            stale_after: 3,
            on_stale: DegradedMode::FailOpen,
            on_empty: DegradedMode::FailOpen,
            on_corrupt: DegradedMode::FailClosed,
        }
    }
}

impl GateConfig {
    /// The mode applying to `health`, or `None` when healthy enough.
    fn mode_for(&self, health: StoreHealth) -> Option<DegradedMode> {
        match health {
            StoreHealth::Fresh => None,
            StoreHealth::Empty => Some(self.on_empty),
            StoreHealth::Corrupt => Some(self.on_corrupt),
            StoreHealth::Stale { rounds } if rounds >= self.stale_after => Some(self.on_stale),
            StoreHealth::Stale { .. } => None,
        }
    }
}

/// Capacity of the audit log: the gate keeps the newest this many
/// records and counts every older one it overwrites in
/// [`GateStats::audit_overwritten`].
pub const AUDIT_CAPACITY: usize = 4096;

/// One audit-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotone record sequence number.
    pub seq: u64,
    /// Package id of the sending app (interned: shared with the policy).
    pub app: Arc<str>,
    /// Destination host (FQDN, interned).
    pub host: Arc<str>,
    /// Id of the matching signature.
    pub signature_id: Option<u32>,
    /// What the gate did (text tag).
    pub action: &'static str,
}

/// A parked packet awaiting a user decision.
#[derive(Debug)]
struct Pending {
    prompt_id: u64,
    app: Arc<str>,
    signature_id: u32,
    packet: HttpPacket,
}

/// Counters summarising gate activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Packets sent onward.
    pub forwarded: u64,
    /// Packets dropped.
    pub blocked: u64,
    /// Prompts raised.
    pub prompted: u64,
    /// Packets dropped by fail-closed degraded mode.
    pub degraded_blocked: u64,
    /// Audit records evicted from the full ring by newer ones.
    pub audit_overwritten: u64,
}

/// The audit log: a ring of the newest [`AUDIT_CAPACITY`] records and
/// the host interner they share. Once warm, recording allocates nothing.
#[derive(Debug, Default)]
struct AuditLog {
    ring: Vec<AuditRecord>,
    /// Once the ring is full: the slot of the oldest record, which the
    /// next one overwrites.
    oldest: usize,
    next_seq: u64,
    /// Interned hosts. Pruned to the ones still referenced once it
    /// reaches twice the ring's capacity, so it stays bounded too.
    hosts: HashSet<Arc<str>>,
}

impl AuditLog {
    /// Append a record; returns whether it overwrote the oldest one.
    fn record(
        &mut self,
        app: &Arc<str>,
        host: &str,
        signature_id: Option<u32>,
        action: &'static str,
    ) -> bool {
        let record = AuditRecord {
            seq: self.next_seq,
            app: app.clone(),
            host: self.intern_host(host),
            signature_id,
            action,
        };
        self.next_seq += 1;
        if self.ring.len() < AUDIT_CAPACITY {
            self.ring.push(record);
            return false;
        }
        self.ring[self.oldest] = record;
        self.oldest = (self.oldest + 1) % AUDIT_CAPACITY;
        true
    }

    fn intern_host(&mut self, host: &str) -> Arc<str> {
        if let Some(h) = self.hosts.get(host) {
            return h.clone();
        }
        if self.hosts.len() >= 2 * AUDIT_CAPACITY {
            // Only the set itself holds a host no record refers to.
            self.hosts.retain(|h| Arc::strong_count(h) > 1);
        }
        let h: Arc<str> = host.into();
        self.hosts.insert(h.clone());
        h
    }

    /// The records, oldest first.
    fn records(&self) -> Vec<AuditRecord> {
        let (newer, older) = self.ring.split_at(self.oldest);
        older.iter().chain(newer).cloned().collect()
    }
}

/// The information-flow-control gate.
pub struct PacketGate<'a> {
    store: &'a SignatureStore,
    config: GateConfig,
    state: Mutex<GateState>,
}

#[derive(Debug, Default)]
struct GateState {
    policy: PolicyEngine,
    pending: Vec<Pending>,
    audit: AuditLog,
    next_prompt: u64,
    stats: GateStats,
}

impl GateState {
    fn log(&mut self, app: &Arc<str>, host: &str, sig: Option<u32>, action: &'static str) {
        if self.audit.record(app, host, sig, action) {
            self.stats.audit_overwritten += 1;
        }
    }
}

impl<'a> PacketGate<'a> {
    /// Gate backed by the given signature store, with the default
    /// degraded-mode policy (see [`GateConfig::default`]).
    pub fn new(store: &'a SignatureStore) -> Self {
        Self::with_config(store, GateConfig::default())
    }

    /// Gate with an explicit degraded-mode policy.
    pub fn with_config(store: &'a SignatureStore, config: GateConfig) -> Self {
        PacketGate {
            store,
            config,
            state: Mutex::new(GateState::default()),
        }
    }

    /// The active degraded-mode policy.
    pub fn config(&self) -> GateConfig {
        self.config
    }

    /// Intercept an outgoing packet from `app`.
    ///
    /// When the store's health puts the gate in fail-closed degraded
    /// mode, every packet is dropped (and audited as `degraded-block`)
    /// without consulting signatures or policy — an untrusted set must
    /// not get a vote. Fail-open states fall through to normal
    /// enforcement with whatever is installed.
    ///
    /// Once every app and host has been seen, a forwarded or blocked
    /// packet costs no allocation (only a prompt parks a copy).
    pub fn intercept(&self, app: &str, packet: &HttpPacket) -> GateAction {
        let screened = self.store.read(|health, detector| {
            if self.config.mode_for(health) == Some(DegradedMode::FailClosed) {
                Err(health)
            } else {
                Ok(detector.match_packet(packet).map(|d| d.signature_id))
            }
        });
        let host = packet.destination.host.as_str();
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let id = state.policy.intern(app);
        let app = state.policy.name(id).clone();
        let matched = match screened {
            Ok(matched) => matched,
            Err(health) => {
                state.stats.degraded_blocked += 1;
                state.log(&app, host, None, "degraded-block");
                return GateAction::DegradedBlocked { health };
            }
        };
        match state.policy.decide_for(id, matched) {
            Verdict::Forward => {
                state.stats.forwarded += 1;
                state.log(&app, host, matched, "forward");
                GateAction::Forwarded
            }
            Verdict::Block => {
                let sig = matched.expect("block implies a match");
                state.stats.blocked += 1;
                state.log(&app, host, matched, "block");
                GateAction::Blocked { signature_id: sig }
            }
            Verdict::Prompt => {
                let sig = matched.expect("prompt implies a match");
                let prompt_id = state.next_prompt;
                state.next_prompt += 1;
                state.stats.prompted += 1;
                state.log(&app, host, matched, "prompt");
                state.pending.push(Pending {
                    prompt_id,
                    app,
                    signature_id: sig,
                    packet: packet.clone(),
                });
                GateAction::PendingPrompt {
                    prompt_id,
                    signature_id: sig,
                }
            }
        }
    }

    /// Answer a pending prompt. Returns the parked packet when the choice
    /// forwards it, `Ok(None)` when it is dropped, `Err(())` for an
    /// unknown prompt id.
    #[allow(clippy::result_unit_err)]
    pub fn answer(&self, prompt_id: u64, choice: UserChoice) -> Result<Option<HttpPacket>, ()> {
        let mut state = self.state.lock();
        let idx = state
            .pending
            .iter()
            .position(|p| p.prompt_id == prompt_id)
            .ok_or(())?;
        let pending = state.pending.swap_remove(idx);
        let forward = state
            .policy
            .resolve(&pending.app, pending.signature_id, choice);
        let action = if forward {
            state.stats.forwarded += 1;
            "prompt-allow"
        } else {
            state.stats.blocked += 1;
            "prompt-block"
        };
        state.log(
            &pending.app,
            &pending.packet.destination.host,
            Some(pending.signature_id),
            action,
        );
        Ok(forward.then_some(pending.packet))
    }

    /// Prompts currently awaiting an answer.
    pub fn pending_prompts(&self) -> Vec<(u64, String, u32)> {
        self.state
            .lock()
            .pending
            .iter()
            .map(|p| (p.prompt_id, p.app.to_string(), p.signature_id))
            .collect()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> GateStats {
        self.state.lock().stats
    }

    /// Copy of the audit log: the newest [`AUDIT_CAPACITY`] records (or
    /// all of them, before the ring first fills), oldest first.
    pub fn audit_log(&self) -> Vec<AuditRecord> {
        self.state.lock().audit.records()
    }

    /// Snapshot the remembered policy (see [`crate::persist`]).
    pub fn export_policy(&self) -> String {
        crate::persist::encode_policy(&self.state.lock().policy)
    }

    /// Replace the policy with a restored snapshot. Pending prompts keep
    /// their ids; a pending flow whose decision was restored resolves on
    /// its next interception, not retroactively.
    pub fn import_policy(&self, text: &str) -> Result<(), crate::persist::PersistError> {
        let policy = crate::persist::decode_policy(text)?;
        self.state.lock().policy = policy;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SignatureServer;
    use leaksig_core::prelude::*;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn leak(slot: &str) -> HttpPacket {
        RequestBuilder::get("/getad")
            .query("imei", "355195000000017")
            .query("slot", slot)
            .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
            .build()
    }

    fn clean() -> HttpPacket {
        RequestBuilder::get("/img/cat.png")
            .destination(Ipv4Addr::new(198, 51, 100, 8), 80, "cdn.example.jp")
            .build()
    }

    fn armed_store() -> SignatureStore {
        let server = SignatureServer::new();
        let (a, b) = (leak("1"), leak("2"));
        server
            .publish(&generate_signatures(&[&a, &b], &{
                let mut cfg = PipelineConfig::default();
                cfg.signature.include_singletons = false;
                cfg
            }))
            .unwrap();
        let store = SignatureStore::new();
        store.sync(&server).unwrap();
        store
    }

    #[test]
    fn clean_traffic_flows_through() {
        let store = armed_store();
        let gate = PacketGate::new(&store);
        assert_eq!(
            gate.intercept("jp.co.x.game", &clean()),
            GateAction::Forwarded
        );
        assert_eq!(gate.stats().forwarded, 1);
        assert_eq!(gate.audit_log().len(), 1);
    }

    #[test]
    fn leak_prompts_then_remembers_block() {
        let store = armed_store();
        let gate = PacketGate::new(&store);
        let action = gate.intercept("jp.co.x.game", &leak("9"));
        let GateAction::PendingPrompt {
            prompt_id,
            signature_id,
        } = action
        else {
            panic!("expected prompt, got {action:?}");
        };
        assert_eq!(gate.pending_prompts().len(), 1);

        // User blocks always: parked packet is dropped...
        assert_eq!(gate.answer(prompt_id, UserChoice::BlockAlways), Ok(None));
        assert!(gate.pending_prompts().is_empty());
        // ...and the next hit blocks without a prompt.
        assert_eq!(
            gate.intercept("jp.co.x.game", &leak("10")),
            GateAction::Blocked { signature_id }
        );
        let stats = gate.stats();
        assert_eq!(stats.prompted, 1);
        assert_eq!(stats.blocked, 2);
    }

    #[test]
    fn allow_always_releases_and_remembers() {
        let store = armed_store();
        let gate = PacketGate::new(&store);
        let GateAction::PendingPrompt { prompt_id, .. } = gate.intercept("app.x", &leak("3"))
        else {
            panic!("expected prompt");
        };
        let released = gate.answer(prompt_id, UserChoice::AllowAlways).unwrap();
        assert_eq!(released.unwrap().destination.host, "ad-maker.info");
        assert_eq!(gate.intercept("app.x", &leak("4")), GateAction::Forwarded);
    }

    #[test]
    fn decisions_are_per_app() {
        let store = armed_store();
        let gate = PacketGate::new(&store);
        let GateAction::PendingPrompt { prompt_id, .. } = gate.intercept("app.x", &leak("3"))
        else {
            panic!()
        };
        gate.answer(prompt_id, UserChoice::BlockAlways).unwrap();
        // A different app still prompts.
        assert!(matches!(
            gate.intercept("app.y", &leak("3")),
            GateAction::PendingPrompt { .. }
        ));
    }

    #[test]
    fn remembered_block_survives_export_and_import_for_any_app_id() {
        let store = armed_store();
        for app in ["jp.co.x.game", "my app", "app ", "line\napp"] {
            let gate = PacketGate::new(&store);
            let GateAction::PendingPrompt {
                prompt_id,
                signature_id,
            } = gate.intercept(app, &leak("1"))
            else {
                panic!("expected a prompt for {app:?}");
            };
            gate.answer(prompt_id, UserChoice::BlockAlways).unwrap();
            let restored = PacketGate::new(&store);
            restored
                .import_policy(&gate.export_policy())
                .unwrap_or_else(|e| panic!("{app:?}: {e}"));
            assert_eq!(
                restored.intercept(app, &leak("2")),
                GateAction::Blocked { signature_id },
                "{app:?}"
            );
        }
    }

    #[test]
    fn audit_log_is_a_bounded_ring() {
        let store = armed_store();
        let gate = PacketGate::new(&store);
        let extra = 10;
        for _ in 0..AUDIT_CAPACITY + extra {
            assert_eq!(gate.intercept("app.x", &clean()), GateAction::Forwarded);
        }
        let log = gate.audit_log();
        assert_eq!(log.len(), AUDIT_CAPACITY);
        assert_eq!(gate.stats().audit_overwritten, extra as u64);
        // The newest records survive, oldest first.
        assert_eq!(log[0].seq, extra as u64);
        assert_eq!(
            log[AUDIT_CAPACITY - 1].seq,
            (AUDIT_CAPACITY + extra - 1) as u64
        );
        assert!(log.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        // One host, interned once, shared by every record.
        assert!(log.iter().all(|r| Arc::ptr_eq(&r.host, &log[0].host)));
        assert!(log.iter().all(|r| Arc::ptr_eq(&r.app, &log[0].app)));
    }

    #[test]
    fn host_interner_stays_bounded() {
        let store = armed_store();
        let gate = PacketGate::new(&store);
        for i in 0..3 * AUDIT_CAPACITY {
            let p = RequestBuilder::get("/x")
                .destination(
                    Ipv4Addr::new(198, 51, 100, 8),
                    80,
                    &format!("h{i}.example.jp"),
                )
                .build();
            gate.intercept("app.x", &p);
        }
        let state = gate.state.lock();
        assert!(state.audit.hosts.len() <= 2 * AUDIT_CAPACITY);
        assert_eq!(state.audit.ring.len(), AUDIT_CAPACITY);
    }

    #[test]
    fn unknown_prompt_id_is_an_error() {
        let store = armed_store();
        let gate = PacketGate::new(&store);
        assert_eq!(gate.answer(999, UserChoice::AllowOnce), Err(()));
    }

    #[test]
    fn gate_is_thread_safe_under_concurrent_interception() {
        let store = armed_store();
        let gate = PacketGate::new(&store);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let gate = &gate;
                scope.spawn(move || {
                    for i in 0..50 {
                        let app = format!("app.t{t}");
                        match gate.intercept(&app, &leak(&i.to_string())) {
                            GateAction::PendingPrompt { prompt_id, .. } => {
                                gate.answer(prompt_id, UserChoice::BlockAlways).unwrap();
                            }
                            GateAction::Blocked { .. } => {}
                            GateAction::Forwarded => panic!("leak forwarded"),
                            GateAction::DegradedBlocked { health } => {
                                panic!("healthy store reported degraded ({health})")
                            }
                        }
                        assert_eq!(gate.intercept(&app, &clean()), GateAction::Forwarded);
                    }
                });
            }
        });
        let stats = gate.stats();
        assert_eq!(stats.forwarded, 200, "all clean traffic forwarded");
        // Per app: one prompt (then prompt-block) and 49 remembered
        // blocks — 4 prompts, 200 block outcomes in total.
        assert_eq!(stats.prompted, 4, "one prompt per app");
        assert_eq!(stats.blocked, 200, "every leak blocked");
        // One remembered decision per app (4 apps); sequence numbers in
        // the audit log are unique.
        let log = gate.audit_log();
        let mut seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), log.len());
    }

    #[test]
    fn corrupt_store_fails_closed_by_default() {
        let store = armed_store();
        store.mark_corrupt();
        let gate = PacketGate::new(&store);
        // Even clean traffic is locked down: the detector cannot vouch
        // for anything.
        let action = gate.intercept("app.x", &clean());
        assert_eq!(
            action,
            GateAction::DegradedBlocked {
                health: crate::StoreHealth::Corrupt
            }
        );
        assert_eq!(gate.stats().degraded_blocked, 1);
        assert_eq!(gate.stats().forwarded, 0);
        let log = gate.audit_log();
        assert_eq!(log[0].action, "degraded-block");
        assert_eq!(log[0].signature_id, None);

        // Recovery: a trusted install clears the flag and traffic flows.
        let fresh = armed_store();
        store
            .install(fresh.version() + 1, &fresh.wire_text())
            .unwrap();
        assert_eq!(gate.intercept("app.x", &clean()), GateAction::Forwarded);
    }

    #[test]
    fn stale_store_fails_open_by_default_closed_when_configured() {
        let store = armed_store();
        for _ in 0..5 {
            store.note_sync_failure();
        }
        // Default: stale fails open — enforcement continues on the old set.
        let open_gate = PacketGate::new(&store);
        assert_eq!(
            open_gate.intercept("app.x", &clean()),
            GateAction::Forwarded
        );
        assert!(matches!(
            open_gate.intercept("app.x", &leak("1")),
            GateAction::PendingPrompt { .. }
        ));

        // Opt-in containment: stale beyond the threshold fails closed.
        let strict = GateConfig {
            stale_after: 3,
            on_stale: DegradedMode::FailClosed,
            ..GateConfig::default()
        };
        let closed_gate = PacketGate::with_config(&store, strict);
        assert_eq!(closed_gate.config().stale_after, 3);
        assert_eq!(
            closed_gate.intercept("app.x", &clean()),
            GateAction::DegradedBlocked {
                health: crate::StoreHealth::Stale { rounds: 5 }
            }
        );

        // One successful sync generation reopens the strict gate.
        store.note_sync_success();
        assert_eq!(
            closed_gate.intercept("app.x", &clean()),
            GateAction::Forwarded
        );
    }

    #[test]
    fn stale_below_threshold_is_healthy_enough() {
        let store = armed_store();
        store.note_sync_failure(); // 1 < default threshold of 3
        let strict = GateConfig {
            on_stale: DegradedMode::FailClosed,
            ..GateConfig::default()
        };
        let gate = PacketGate::with_config(&store, strict);
        assert_eq!(gate.intercept("app.x", &clean()), GateAction::Forwarded);
    }

    #[test]
    fn empty_store_can_be_configured_to_fail_closed() {
        let store = SignatureStore::new();
        // Default: empty fails open (fresh device keeps working).
        let gate = PacketGate::new(&store);
        assert_eq!(gate.intercept("app.x", &clean()), GateAction::Forwarded);
        // Paranoid profile: no signatures, no traffic.
        let strict = GateConfig {
            on_empty: DegradedMode::FailClosed,
            ..GateConfig::default()
        };
        let gate = PacketGate::with_config(&store, strict);
        assert!(matches!(
            gate.intercept("app.x", &clean()),
            GateAction::DegradedBlocked {
                health: crate::StoreHealth::Empty
            }
        ));
    }

    #[test]
    fn audit_log_records_the_story() {
        let store = armed_store();
        let gate = PacketGate::new(&store);
        gate.intercept("app.x", &clean());
        let GateAction::PendingPrompt { prompt_id, .. } = gate.intercept("app.x", &leak("1"))
        else {
            panic!()
        };
        gate.answer(prompt_id, UserChoice::AllowOnce).unwrap();
        let log = gate.audit_log();
        let actions: Vec<&str> = log.iter().map(|r| r.action).collect();
        assert_eq!(actions, vec!["forward", "prompt", "prompt-allow"]);
        // Sequence numbers are strictly increasing.
        for w in log.windows(2) {
            assert!(w[1].seq > w[0].seq);
        }
    }
}
