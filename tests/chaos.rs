//! Chaos soak: the full collection → publish → sync → enforce loop with
//! an adversarial fault plan on the distribution channel and simulated
//! power loss during persistence.
//!
//! Each seed drives a fully deterministic run; the matrix defaults to
//! seeds 1..=5 (what `scripts/check.sh` runs) and can be overridden with
//! `CHAOS_SEEDS=7,11,13`.

use leaksig::core::prelude::*;
use leaksig::device::{
    CollectionServer, DegradedMode, FaultyTransport, GateAction, GateConfig, InProcessTransport,
    PacketGate, RetryPolicy, SignatureServer, SignatureStore, SnapshotVault, StoreHealth,
    SyncClient,
};
use leaksig::faults::{truncate_bytes, CrashFlavor, FaultKind, FaultPlan, FaultyDisk, RealDisk};
use leaksig::netsim::{Dataset, MarketConfig, SensitiveKind};

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        Err(_) => (1..=5).collect(),
    }
}

fn chaos_client(
    publisher: &SignatureServer,
    seed: u64,
) -> SyncClient<FaultyTransport<InProcessTransport<'_>>> {
    SyncClient::new(
        FaultyTransport::new(
            InProcessTransport::new(publisher),
            FaultPlan::chaos(seed, 0.6),
        ),
        RetryPolicy {
            max_attempts: 48,
            jitter_seed: seed,
            ..RetryPolicy::default()
        },
    )
}

/// The store's installed text must be byte-identical to what the server
/// published for that version — a mangled payload that slipped past the
/// checksum would show up here.
fn assert_wire_integrity(store: &SignatureStore, publisher: &SignatureServer) {
    let (version, text) = publisher
        .fetch(store.version().saturating_sub(1))
        .expect("publisher has the store's version");
    assert_eq!(version, store.version());
    assert_eq!(
        store.wire_text(),
        text,
        "installed set differs from published set"
    );
}

#[test]
fn chaos_soak_converges_across_seeds() {
    let mut total_injected = 0u64;
    for seed in seeds() {
        let data = Dataset::generate(MarketConfig::scaled(seed, 0.04));
        let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
        let collector = CollectionServer::new(check, PipelineConfig::default(), 400, seed);
        let publisher = SignatureServer::new();
        let store = SignatureStore::new();
        let mut client = chaos_client(&publisher, seed);

        // Epoch 1: ingest half the capture, publish v1, sync through the
        // adversarial channel.
        let half = data.packets.len() / 2;
        for p in &data.packets[..half] {
            collector.ingest(&p.packet);
        }
        assert_eq!(
            collector.regenerate(150, &publisher).published(),
            Some(1),
            "seed {seed}"
        );
        let report = client.sync(&store);
        assert!(
            report.converged(),
            "seed {seed} round 1 failed: {:?}",
            report.events
        );
        assert_eq!(store.version(), 1, "seed {seed}");
        assert_eq!(store.health(), StoreHealth::Fresh, "seed {seed}");
        assert_wire_integrity(&store, &publisher);

        // Recall on the unseen second half must survive the faulty
        // channel — the store holds the real set, not a damaged one.
        let (mut tp, mut fns) = (0usize, 0usize);
        for p in &data.packets[half..] {
            if p.is_sensitive() {
                match store.match_packet(&p.packet) {
                    Some(_) => tp += 1,
                    None => fns += 1,
                }
            }
        }
        let recall = tp as f64 / (tp + fns).max(1) as f64;
        assert!(recall > 0.75, "seed {seed}: recall {recall:.3}");

        // Epoch 2: rest of the capture, v2, another faulty sync.
        for p in &data.packets[half..] {
            collector.ingest(&p.packet);
        }
        assert_eq!(
            collector.regenerate(250, &publisher).published(),
            Some(2),
            "seed {seed}"
        );
        let report = client.sync(&store);
        assert!(
            report.converged(),
            "seed {seed} round 2 failed: {:?}",
            report.events
        );
        assert_eq!(store.version(), 2, "seed {seed}");
        assert_wire_integrity(&store, &publisher);

        // Crash mid-persist: a save torn mid-write leaves the last
        // verified snapshot in place, and a newest generation damaged on
        // disk rolls back to it instead of corrupting the restart.
        let dir =
            std::env::temp_dir().join(format!("leaksig-chaos-soak-{seed}-{}", std::process::id()));
        let saved = SnapshotVault::new(&dir)
            .unwrap()
            .save_store(&store)
            .unwrap();
        let (disk, ctl) = FaultyDisk::new(RealDisk);
        let mut vault = SnapshotVault::open(&dir, Box::new(disk)).unwrap();
        ctl.arm_crash(ctl.mutations(), CrashFlavor::Torn);
        assert!(vault.save_store(&store).is_err(), "seed {seed}");
        let mut vault = SnapshotVault::new(&dir).unwrap();
        let (_, report) = vault.restore_store();
        assert_eq!(report.generation, Some(saved), "seed {seed}");

        let newest = vault.save_store(&store).unwrap();
        let newest = dir.join(format!("store.{newest}.snap"));
        let mut bytes = std::fs::read(&newest).unwrap();
        truncate_bytes(&mut bytes, 500);
        std::fs::write(&newest, bytes).unwrap();
        let (restored, restore_report) = vault.restore_store();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(restore_report.generation, Some(saved), "seed {seed}");
        assert!(restore_report.rolled_back(), "seed {seed}");
        assert_eq!(restored.version(), store.version(), "seed {seed}");
        assert_eq!(restored.wire_text(), store.wire_text(), "seed {seed}");

        total_injected += client.transport().injected();
    }
    // The soak was adversarial, not a lucky clean run: across the whole
    // seed matrix the plans must actually have fired.
    assert!(total_injected > 0, "no chaos plan injected anything");
}

/// A total network blackout ages the store into staleness; a gate
/// configured to fail closed on stale stops trusting the old set; the
/// next successful sync clears both.
#[test]
fn blackout_degrades_then_recovers() {
    let data = Dataset::generate(MarketConfig::scaled(77, 0.03));
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
    let collector = CollectionServer::new(check, PipelineConfig::default(), 400, 77);
    let publisher = SignatureServer::new();
    let store = SignatureStore::new();

    for p in &data.packets {
        collector.ingest(&p.packet);
    }
    assert_eq!(collector.regenerate(200, &publisher).published(), Some(1));

    // Clean first sync, then the network goes away entirely.
    assert!(
        SyncClient::with_default_policy(InProcessTransport::new(&publisher))
            .sync(&store)
            .converged()
    );
    assert_eq!(collector.regenerate(200, &publisher).published(), Some(2));

    let blackout = FaultPlan::new(9, &[FaultKind::Drop], 1.0);
    let mut dead_client = SyncClient::new(
        FaultyTransport::new(InProcessTransport::new(&publisher), blackout),
        RetryPolicy {
            max_attempts: 4,
            jitter_seed: 9,
            ..RetryPolicy::default()
        },
    );
    for round in 1..=3u64 {
        assert!(!dead_client.sync(&store).converged());
        assert_eq!(store.health(), StoreHealth::Stale { rounds: round });
    }

    // stale_after = 3 reached: a fail-closed-on-stale gate blocks even
    // clean traffic; the default fail-open gate keeps forwarding.
    let strict = PacketGate::with_config(
        &store,
        GateConfig {
            on_stale: DegradedMode::FailClosed,
            ..GateConfig::default()
        },
    );
    let benign = &data
        .packets
        .iter()
        .find(|p| !p.is_sensitive())
        .unwrap()
        .packet;
    assert_eq!(
        strict.intercept("app.x", benign),
        GateAction::DegradedBlocked {
            health: StoreHealth::Stale { rounds: 3 }
        }
    );
    let lenient = PacketGate::new(&store);
    assert_eq!(lenient.intercept("app.x", benign), GateAction::Forwarded);

    // Connectivity returns: one clean round installs v2 and restores
    // full service on the strict gate.
    assert!(
        SyncClient::with_default_policy(InProcessTransport::new(&publisher))
            .sync(&store)
            .converged()
    );
    assert_eq!(store.version(), 2);
    assert_eq!(store.health(), StoreHealth::Fresh);
    assert_eq!(strict.intercept("app.x", benign), GateAction::Forwarded);
}
