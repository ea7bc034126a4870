//! Disk chaos: the WAL-backed durable state store under full
//! storage-fault injection, proved by a crash-recovery differential
//! harness.
//!
//! The core claim: for *any* crash at *any* mutating I/O point — before,
//! mid-write (torn), or after — recovering the state directory yields a
//! state that equals the collection server's in-memory state after some
//! prefix of the applied op batches. Never a corrupt state, never a
//! Frankenstein mix. The harness proves it differentially: a
//! memory-backed twin wrapped in a recording store captures the encoded
//! state at every apply boundary, a WAL-backed run is killed at every
//! injected crash point, and each recovered state must be byte-identical
//! to one of the recorded prefixes.
//!
//! The device's signature [`SnapshotVault`] keeps its generations with
//! the same commit protocol, and faces the same matrix: a save killed
//! at any of its mutating I/O points restores the old generation or the
//! new one, in full.
//!
//! Also here: the sick-disk (non-fatal) taxonomy — ENOSPC, short writes,
//! fsync failures — must *degrade* the store (counted in `ServerStats`)
//! rather than panic the pipeline, with a successful compaction
//! re-arming the WAL; and a restarted server must republish the
//! recovered signature generation byte-identically.
//!
//! Seeds default to 1..=5 (what `scripts/check.sh` runs); override with
//! `DISK_SEEDS=7,11,13`.

use leaksig::core::prelude::*;
use leaksig::device::state::encode_state;
use leaksig::device::{
    ApplyOutcome, CollectionServer, Durability, DurabilityMode, DurableState, IngestConfig,
    IngestOutcome, MemoryStore, RegenerateOutcome, SignatureServer, SignatureStore, SnapshotVault,
    StateOp, StateStore, WalConfig, WalStore,
};
use leaksig::faults::{CrashFlavor, DiskFaultControls, FaultyDisk, RealDisk};
use leaksig::netsim::{Dataset, MarketConfig, SensitiveKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn seeds() -> Vec<u64> {
    match std::env::var("DISK_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .map(|t| t.trim().parse().expect("DISK_SEEDS must be u64s"))
            .collect(),
        Err(_) => (1..=5).collect(),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("leaksig-diskchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A memory store that records the encoded state after every apply —
/// the gold set of legal recovery outcomes for the differential check.
struct RecordingStore {
    inner: MemoryStore,
    log: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl RecordingStore {
    fn new() -> (Self, Arc<Mutex<Vec<Vec<u8>>>>) {
        let log = Arc::new(Mutex::new(vec![encode_state(&DurableState::default())]));
        (
            RecordingStore {
                inner: MemoryStore::new(),
                log: log.clone(),
            },
            log,
        )
    }
}

impl StateStore for RecordingStore {
    fn state(&self) -> &DurableState {
        self.inner.state()
    }
    fn apply(&mut self, ops: &[StateOp]) -> ApplyOutcome {
        let outcome = self.inner.apply(ops);
        self.log
            .lock()
            .unwrap()
            .push(encode_state(self.inner.state()));
        outcome
    }
    fn flush(&mut self) {}
    fn compact(&mut self) {}
    fn durability(&self) -> Durability {
        Durability::Memory
    }
    fn label(&self) -> &'static str {
        "recording"
    }
}

/// Small WAL windows so a short driver run crosses every protocol edge:
/// group commit, auto-compaction, snapshot rename, prune.
fn wal_config() -> WalConfig {
    WalConfig {
        group_ops: 8,
        compact_every: 48,
        keep: 2,
        mode: DurabilityMode::FailOpen,
    }
}

fn collector_on(
    data: &Dataset,
    seed: u64,
    store: Box<dyn StateStore>,
) -> CollectionServer<SensitiveKind> {
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
    CollectionServer::with_store(
        check,
        PipelineConfig::default(),
        400,
        seed,
        IngestConfig::default(),
        store,
    )
}

/// The deterministic random-op driver: raw intake (every 7th record
/// mangled into a quarantine), periodic pumps, periodic regenerations.
/// Identical for the gold twin and every crash run; `stop` lets a crash
/// run bail once the simulated process is dead (the frozen disk no
/// longer changes, which is all that matters).
fn drive(
    data: &Dataset,
    collector: &CollectionServer<SensitiveKind>,
    publisher: &SignatureServer,
    stop: &dyn Fn() -> bool,
) {
    for (i, p) in data.packets.iter().take(96).enumerate() {
        if stop() {
            return;
        }
        if i % 7 == 6 {
            collector.ingest_raw(b"\x01garbage, not http\x00", p.packet.destination.ip, 80);
        } else {
            let raw = p.packet.to_bytes();
            collector.ingest_raw(&raw, p.packet.destination.ip, p.packet.destination.port);
        }
        if i % 4 == 3 {
            collector.pump_all();
        }
        if i % 32 == 31 {
            collector.pump_all();
            collector.regenerate(40, publisher);
        }
    }
    if stop() {
        return;
    }
    collector.pump_all();
    collector.regenerate(40, publisher);
    collector.flush_state();
}

/// One WAL-backed run killed at `crash`; returns the recovered state's
/// encoding (recovery always on an honest disk — the crashed process is
/// gone, the machine rebooted).
fn crashed_run(
    dir: &Path,
    data: &Dataset,
    seed: u64,
    crash: Option<(u64, CrashFlavor)>,
) -> (Vec<u8>, DiskFaultControls) {
    let (disk, ctl) = FaultyDisk::new(RealDisk);
    let (store, _) = WalStore::open(dir, Box::new(disk), wal_config()).expect("open fresh dir");
    if let Some((at, flavor)) = crash {
        ctl.arm_crash(at, flavor);
    }
    let collector = collector_on(data, seed, Box::new(store));
    let publisher = SignatureServer::new();
    let ctl2 = ctl.clone();
    drive(data, &collector, &publisher, &move || ctl2.crashed());
    drop(collector);

    let (recovered, report) =
        WalStore::open(dir, Box::new(RealDisk), wal_config()).expect("recovery must never fail");
    assert!(
        !(report.torn_tail && report.corrupt_tail),
        "a single tear cannot be both torn and corrupt: {report:?}"
    );
    (encode_state(recovered.state()), ctl)
}

/// The tentpole harness: every injected crash point × every flavor ×
/// every seed recovers to a byte-exact prefix of the applied ops.
#[test]
fn crash_recovery_differential_matrix_across_seeds() {
    for seed in seeds() {
        let data = Dataset::generate(MarketConfig::scaled(seed, 0.01));

        // Gold: the same driver over a recording memory store. Every
        // apply-boundary state is a legal recovery outcome.
        let (rec, log) = RecordingStore::new();
        let collector = collector_on(&data, seed, Box::new(rec));
        let publisher = SignatureServer::new();
        drive(&data, &collector, &publisher, &|| false);
        let prefixes = log.lock().unwrap().clone();
        drop(collector);

        // Calibration: an uninjured WAL run must land on the *final*
        // state exactly, and tells us how many mutating I/O points the
        // protocol performs.
        let dir = scratch(&format!("calib-{seed}"));
        let (encoded, ctl) = crashed_run(&dir, &data, seed, None);
        let total = ctl.mutations();
        assert_eq!(
            Some(&encoded),
            prefixes.last(),
            "seed {seed}: uninjured run must recover the complete final state"
        );
        assert!(
            total >= 20,
            "seed {seed}: driver too small to exercise the protocol ({total} mutations)"
        );
        let _ = std::fs::remove_dir_all(&dir);

        for flavor in CrashFlavor::ALL {
            let mut died = 0u64;
            for at in 0..total {
                let dir = scratch(&format!("m-{seed}-{}-{at}", flavor.label()));
                let (encoded, ctl) = crashed_run(&dir, &data, seed, Some((at, flavor)));
                died += ctl.crashed() as u64;
                assert!(
                    prefixes.contains(&encoded),
                    "seed {seed}, crash-{} at op {at}: recovered state is not a prefix \
                     of the applied ops",
                    flavor.label()
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
            assert!(
                died > total / 2,
                "seed {seed}, crash-{}: the matrix barely fired ({died}/{total})",
                flavor.label()
            );
        }
    }
}

/// Restart continuity: a server recovered from the state directory
/// republishes the byte-identical signature generation at the same
/// version, and the next regeneration continues the version sequence.
#[test]
fn recovered_server_republishes_byte_identical_generation() {
    let seed = 3;
    let data = Dataset::generate(MarketConfig::scaled(seed, 0.02));
    let dir = scratch("republish");

    let (store, _) = WalStore::open(&dir, Box::new(RealDisk), wal_config()).expect("open");
    let collector = collector_on(&data, seed, Box::new(store));
    let publisher = SignatureServer::new();
    for p in data.packets.iter().take(400) {
        collector.ingest(&p.packet);
    }
    let outcome = collector.regenerate(150, &publisher);
    assert!(
        matches!(outcome, RegenerateOutcome::Published { .. }),
        "{outcome:?}"
    );
    let (version, wire) = publisher.fetch(0).expect("published");
    collector.flush_state();
    drop(collector);

    // "Reboot": fresh store, fresh publisher, same directory.
    let (store, report) = WalStore::open(&dir, Box::new(RealDisk), wal_config()).expect("reopen");
    assert!(!report.torn_tail && !report.corrupt_tail, "{report:?}");
    let collector = collector_on(&data, seed, Box::new(store));
    let publisher2 = SignatureServer::new();
    assert_eq!(collector.restore_publisher(&publisher2), Some(version));
    let (v2, wire2) = publisher2.fetch(0).expect("restored");
    assert_eq!(
        (v2, wire2.as_str()),
        (version, wire.as_str()),
        "restarted server must hand devices the exact generation it was distributing"
    );

    // And the life after the restart is a continuation, not a reset.
    for p in data.packets.iter().skip(400).take(400) {
        collector.ingest(&p.packet);
    }
    let outcome = collector.regenerate(150, &publisher2);
    assert!(
        matches!(outcome, RegenerateOutcome::Published { version: v, .. } if v == version + 1),
        "{outcome:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The non-fatal taxonomy: a sick disk (ENOSPC / short writes) degrades
/// the store instead of panicking, intake keeps flowing, the failure is
/// visible in the counters, and a successful compaction re-arms
/// durability.
#[test]
fn sick_disk_degrades_counts_and_compaction_rearms() {
    let seed = 4;
    let data = Dataset::generate(MarketConfig::scaled(seed, 0.01));
    for toggle in ["enospc", "shortwrite"] {
        let dir = scratch(&format!("sick-{toggle}"));
        let (disk, ctl) = FaultyDisk::new(RealDisk);
        let (store, _) = WalStore::open(&dir, Box::new(disk), wal_config()).expect("open");
        let collector = collector_on(&data, seed, Box::new(store));

        match toggle {
            "enospc" => ctl.set_fail_space(true),
            _ => ctl.set_short_writes(true),
        }
        let mut admitted = 0u64;
        for p in data.packets.iter().take(64) {
            let raw = p.packet.to_bytes();
            let outcome =
                collector.ingest_raw(&raw, p.packet.destination.ip, p.packet.destination.port);
            admitted += matches!(outcome, IngestOutcome::Admitted { .. }) as u64;
        }
        collector.pump_all();
        assert!(admitted > 0, "{toggle}: intake must keep flowing");
        assert_eq!(collector.durability(), Durability::Degraded, "{toggle}");
        let s = collector.stats();
        assert_eq!(s.durability_degraded, 1, "{toggle}: {s:?}");
        assert_eq!(s.admitted, admitted, "{toggle}: {s:?}");

        // Heal the disk; degradation is sticky until a compaction
        // proves the directory writable again.
        ctl.set_fail_space(false);
        ctl.set_short_writes(false);
        assert_eq!(collector.durability(), Durability::Degraded, "{toggle}");
        collector.compact_state();
        assert_eq!(collector.durability(), Durability::Durable, "{toggle}");
        collector.flush_state();
        drop(collector);

        // Nothing applied while degraded was lost: the re-arming
        // compaction snapshotted the whole state.
        let (recovered, _) =
            WalStore::open(&dir, Box::new(RealDisk), wal_config()).expect("reopen");
        assert_eq!(recovered.state().stats.admitted, admitted, "{toggle}");
        assert_eq!(recovered.state().stats.durability_degraded, 1, "{toggle}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Fsync failure surfaces through the *compaction* path: the WAL keeps
/// appending (its durability window is documented), but a compaction
/// that cannot sync its snapshot must not claim a new generation.
#[test]
fn failed_fsync_aborts_compaction_without_corruption() {
    let seed = 5;
    let data = Dataset::generate(MarketConfig::scaled(seed, 0.01));
    let dir = scratch("fsync");
    let (disk, ctl) = FaultyDisk::new(RealDisk);
    let (store, _) = WalStore::open(&dir, Box::new(disk), wal_config()).expect("open");
    let collector = collector_on(&data, seed, Box::new(store));
    for p in data.packets.iter().take(32) {
        collector.ingest(&p.packet);
    }
    collector.flush_state();

    ctl.set_fail_sync(true);
    collector.compact_state();
    assert_eq!(
        collector.durability(),
        Durability::Durable,
        "a failed compaction on a healthy WAL does not degrade"
    );
    assert!(
        !dir.join("state.1.snap").exists(),
        "an unsynced snapshot must not be renamed into place"
    );
    ctl.set_fail_sync(false);
    collector.compact_state();
    assert!(dir.join("state.1.snap").exists());
    drop(collector);

    let (recovered, report) =
        WalStore::open(&dir, Box::new(RealDisk), wal_config()).expect("reopen");
    assert_eq!(report.snapshot_generation, Some(1));
    assert_eq!(recovered.state().stats.ingested, 32);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fail-closed policy: while degraded, sensitive packets are refused
/// from the unpersistable reservoir (and counted), while benign traffic
/// and counters keep flowing.
#[test]
fn fail_closed_refuses_sensitive_packets_while_degraded() {
    let seed = 6;
    let data = Dataset::generate(MarketConfig::scaled(seed, 0.02));
    let sensitive: Vec<_> = data.packets.iter().filter(|p| p.is_sensitive()).collect();
    let benign: Vec<_> = data.packets.iter().filter(|p| !p.is_sensitive()).collect();
    assert!(sensitive.len() >= 8 && benign.len() >= 8);

    let dir = scratch("closed");
    let (disk, ctl) = FaultyDisk::new(RealDisk);
    let config = WalConfig {
        mode: DurabilityMode::FailClosed,
        ..wal_config()
    };
    let (store, _) = WalStore::open(&dir, Box::new(disk), config).expect("open");
    let collector = collector_on(&data, seed, Box::new(store));

    // Benign traffic first: the 8th op fills the commit group, the
    // flush hits ENOSPC, and the store degrades.
    ctl.set_fail_space(true);
    for p in benign.iter().take(8) {
        collector.ingest(&p.packet);
    }
    assert_eq!(collector.durability(), Durability::Degraded);

    for p in sensitive.iter().take(8) {
        collector.ingest(&p.packet);
    }
    assert_eq!(
        collector.reservoir_len(),
        0,
        "no sensitive packet may enter a reservoir the store cannot persist"
    );
    let s = collector.stats();
    assert_eq!(s.durability_refused, 8, "{s:?}");
    assert_eq!(s.normal, 8, "benign counting still flows: {s:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The vault's crash matrix: a save that also prunes (three generations
/// already on disk) killed at every one of its mutating I/O points ×
/// every flavor restores either the previous generation or the new one,
/// byte-identical, with nothing skipped as corrupt.
#[test]
fn vault_crash_matrix_restores_old_or_new_generation() {
    for seed in seeds() {
        let data = Dataset::generate(MarketConfig::scaled(seed, 0.01));
        let collector = collector_on(&data, seed, Box::new(MemoryStore::new()));
        let publisher = SignatureServer::new();
        let (old, new) = (SignatureStore::new(), SignatureStore::new());
        let half = data.packets.len() / 2;
        for (store, packets) in [(&old, &data.packets[..half]), (&new, &data.packets[half..])] {
            for p in packets {
                collector.ingest(&p.packet);
            }
            let outcome = collector.regenerate(60, &publisher);
            assert!(
                matches!(outcome, RegenerateOutcome::Published { .. }),
                "seed {seed}: {outcome:?}"
            );
            store.sync(&publisher).expect("published set installs");
        }
        assert_ne!(
            old.wire_text(),
            new.wire_text(),
            "seed {seed}: generations must differ"
        );

        // Three generations of `old` on disk; returns the fault handle
        // and the mutation index of the next save's first I/O.
        let setup = |dir: &Path| {
            let mut honest = SnapshotVault::new(dir).expect("open vault");
            for _ in 0..3 {
                honest.save_store(&old).expect("honest save");
            }
            let (disk, ctl) = FaultyDisk::new(RealDisk);
            let vault = SnapshotVault::open(dir, Box::new(disk)).expect("open vault");
            let first = ctl.mutations();
            (vault, ctl, first)
        };

        let dir = scratch(&format!("vault-calib-{seed}"));
        let (mut vault, ctl, first) = setup(&dir);
        assert_eq!(vault.save_store(&new).expect("uninjured save"), 4);
        let total = ctl.mutations() - first;
        assert!(
            total >= 4,
            "seed {seed}: write, sync, rename, prune ({total} mutations)"
        );
        let _ = std::fs::remove_dir_all(&dir);

        for flavor in CrashFlavor::ALL {
            for at in 0..total {
                let dir = scratch(&format!("vault-{seed}-{}-{at}", flavor.label()));
                let (mut vault, ctl, first) = setup(&dir);
                ctl.arm_crash(first + at, flavor);
                let saved = vault.save_store(&new);
                assert!(
                    ctl.crashed(),
                    "seed {seed}, crash-{} at op {at}",
                    flavor.label()
                );
                drop(vault);

                let (restored, report) = SnapshotVault::new(&dir).expect("reopen").restore_store();
                let want = match report.generation {
                    Some(3) => &old,
                    Some(4) => &new,
                    other => panic!(
                        "seed {seed}, crash-{} at op {at}: restored {other:?}",
                        flavor.label()
                    ),
                };
                assert!(
                    saved.is_err() || report.generation == Some(4),
                    "seed {seed}, crash-{} at op {at}: a reported save must survive",
                    flavor.label()
                );
                assert_eq!(
                    report.skipped_corrupt,
                    0,
                    "seed {seed}, crash-{} at op {at}",
                    flavor.label()
                );
                assert_eq!(restored.version(), want.version());
                assert_eq!(restored.wire_text(), want.wire_text());
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// A vault save whose fsync fails must report the error and leave the
/// previous generation as the one restore returns.
#[test]
fn vault_failed_fsync_keeps_previous_generation() {
    let data = Dataset::generate(MarketConfig::scaled(5, 0.01));
    let collector = collector_on(&data, 5, Box::new(MemoryStore::new()));
    let publisher = SignatureServer::new();
    for p in &data.packets {
        collector.ingest(&p.packet);
    }
    collector.regenerate(60, &publisher);
    let store = SignatureStore::new();
    store.sync(&publisher).expect("published set installs");

    let dir = scratch("vault-fsync");
    let (disk, ctl) = FaultyDisk::new(RealDisk);
    let mut vault = SnapshotVault::open(&dir, Box::new(disk)).expect("open vault");
    assert_eq!(vault.save_store(&store).expect("healthy save"), 1);
    ctl.set_fail_sync(true);
    assert!(
        vault.save_store(&store).is_err(),
        "an unsynced save must fail"
    );
    drop(vault);
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(
        names,
        ["store.1.snap"],
        "no new generation, no temp file left"
    );

    let (restored, report) = SnapshotVault::new(&dir).expect("reopen").restore_store();
    assert_eq!(report.generation, Some(1));
    assert_eq!(report.skipped_corrupt, 0);
    assert_eq!(restored.wire_text(), store.wire_text());
    let _ = std::fs::remove_dir_all(&dir);
}
