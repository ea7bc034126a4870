//! The durable [`StateStore`] backend: a checksummed append-only WAL
//! with periodic snapshot compaction.
//!
//! Layout of a state directory (generation `g` is a monotonically
//! increasing `u64`):
//!
//! ```text
//! state.<g>.snap   one LEAKFRAME/1 frame wrapping encode_state(...)
//! wal.<g>.log      zero or more LEAKFRAME/1 frames, each wrapping the
//!                  concatenated encode_op(...) bytes of one flush group
//! *.tmp            in-flight compaction output (crash debris; swept)
//! ```
//!
//! **Append path.** [`WalStore::apply`] applies the batch to the
//! in-memory [`DurableState`] immediately and buffers the encoded ops;
//! every `group_ops` buffered ops (or on an explicit
//! [`StateStore::flush`]) the buffer is written as *one* checksummed
//! frame appended to `wal.<g>.log`. A frame therefore always contains
//! whole `apply` batches — recovery lands exactly on a batch boundary,
//! never inside one. WAL appends are not individually fsynced; the
//! documented durability window is "up to the last flushed group" on
//! power loss, and the snapshot `sync` at compaction is the hard
//! barrier.
//!
//! **Compaction.** Every `compact_every` applied ops (or on an explicit
//! [`StateStore::compact`]) the current state is committed as
//! `state.<g+1>.snap` through the generation directory the device's
//! [`crate::persist::SnapshotVault`] also uses: written to a `.tmp`,
//! fsynced, then renamed into place. Only after the rename does the
//! store switch appends to `wal.<g+1>.log`, clear its buffer, and prune
//! generations (snapshot and WAL) older than `keep`. A crash at any
//! point leaves either the old generation intact or the new snapshot
//! fully in place; the `.tmp` is debris swept by the next open.
//!
//! **Recovery.** [`WalStore::open`] sweeps `.tmp` files, picks the
//! newest snapshot whose frame checksum verifies and whose payload
//! decodes, then replays its *paired* WAL frame by frame. A torn final
//! frame (crash mid-append) or a corrupt one stops the replay at the
//! last good frame; the file is truncated back to that prefix so later
//! appends land after valid bytes. The recovered state is always the
//! state after some prefix of the applied batches.
//!
//! **Degradation.** A failed WAL append (ENOSPC, short write, dying
//! disk) must not take the collection pipeline down: the store drops to
//! [`Durability::Degraded`] — memory-only, counted in
//! `ServerStats::durability_degraded` — and stops journaling. Under
//! [`DurabilityMode::FailOpen`] (default) every batch is still applied;
//! under [`DurabilityMode::FailClosed`] batches carrying sensitive
//! reservoir payloads ([`StateOp::Suspect`]) are refused and counted in
//! `durability_refused`, mirroring [`crate::PacketGate`]'s degraded
//! modes. The next *successful* compaction re-persists the full state
//! and re-arms the WAL.

use std::io;
use std::path::{Path, PathBuf};

use leaksig_core::wire::{frame_bytes, unframe_bytes_partial, BytesProgress};
use leaksig_faults::DiskIo;

use crate::generations::GenerationDir;
use crate::state::{
    apply_op, decode_ops, decode_state, encode_op, encode_state, ApplyOutcome, Durability,
    DurableState, StateOp, StateStore,
};

/// What the store does with incoming batches while the WAL is down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// Keep applying everything in memory; journaling resumes after the
    /// next successful compaction. Availability over durability.
    #[default]
    FailOpen,
    /// Refuse batches that would park *sensitive packets* in a reservoir
    /// the store cannot persist ([`StateOp::Suspect`]); plain counter
    /// traffic still applies. Durability over availability.
    FailClosed,
}

impl DurabilityMode {
    /// Stable lower-case label (CLI syntax, event logs).
    pub fn label(self) -> &'static str {
        match self {
            DurabilityMode::FailOpen => "open",
            DurabilityMode::FailClosed => "closed",
        }
    }

    /// Parse one label.
    pub fn parse(label: &str) -> Option<DurabilityMode> {
        match label {
            "open" => Some(DurabilityMode::FailOpen),
            "closed" => Some(DurabilityMode::FailClosed),
            _ => None,
        }
    }
}

/// Tuning knobs for [`WalStore`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Buffered ops per WAL frame (group commit): one append and one
    /// checksum per this many ops. Clamped to ≥ 1.
    pub group_ops: usize,
    /// Applied ops between automatic compactions. Clamped to ≥ 1.
    pub compact_every: u64,
    /// Snapshot generations (with their paired WALs) retained after a
    /// compaction. Clamped to ≥ 1.
    pub keep: usize,
    /// Degraded-mode policy once the WAL is unavailable.
    pub mode: DurabilityMode,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            group_ops: 256,
            compact_every: 8192,
            keep: 2,
            mode: DurabilityMode::FailOpen,
        }
    }
}

/// What [`WalStore::open`] found in the state directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalRecoveryReport {
    /// Generation of the snapshot the state was loaded from (`None` on a
    /// fresh or snapshot-less directory).
    pub snapshot_generation: Option<u64>,
    /// Newer snapshots that failed checksum/decode and were skipped.
    pub skipped_snapshots: usize,
    /// Ops replayed from the paired WAL on top of the snapshot.
    pub replayed_ops: usize,
    /// The WAL ended in a torn (incomplete) frame that was discarded.
    pub torn_tail: bool,
    /// The WAL ended in a corrupt (checksum-failing) frame that was
    /// discarded.
    pub corrupt_tail: bool,
    /// Stale `*.tmp` compaction leftovers swept on open.
    pub swept_temps: usize,
}

/// The file-backed durable [`StateStore`] (backend #2).
///
/// All I/O goes through a [`DiskIo`], so the complete persistence
/// protocol can be driven against `leaksig-faults`'
/// [`FaultyDisk`](leaksig_faults::FaultyDisk).
pub struct WalStore {
    gens: GenerationDir,
    config: WalConfig,
    state: DurableState,
    /// Current generation: appends go to `wal.<generation>.log`.
    generation: u64,
    /// Encoded-but-unflushed ops (whole batches only).
    pending: Vec<u8>,
    pending_ops: usize,
    ops_since_compact: u64,
    degraded: bool,
}

impl WalStore {
    /// Recover a store from `dir` (created if absent): sweep `.tmp`
    /// debris, load the newest valid snapshot, replay its paired WAL
    /// tolerating a torn or corrupt final frame.
    ///
    /// Fails only when the directory itself is unusable (cannot create,
    /// list, or read); damaged *contents* degrade gracefully and are
    /// described in the report.
    pub fn open(
        dir: impl Into<PathBuf>,
        disk: Box<dyn DiskIo>,
        config: WalConfig,
    ) -> io::Result<(Self, WalRecoveryReport)> {
        let (mut gens, listing) = GenerationDir::open(dir.into(), disk, "state", Some("wal"))?;
        let loaded = gens.load_newest(&listing.generations, |_, payload| {
            decode_state(payload).ok()
        });
        let mut report = WalRecoveryReport {
            snapshot_generation: loaded.newest.as_ref().map(|(g, _)| *g),
            skipped_snapshots: loaded.skipped,
            swept_temps: listing.swept,
            ..WalRecoveryReport::default()
        };
        let (generation, mut state) = loaded.newest.unwrap_or_default();

        // Replay the paired WAL frame by frame. A torn final frame is
        // the normal crash-mid-append signature; a corrupt one means the
        // disk lied. Either way the tail is discarded and the file
        // truncated back to its valid prefix so later appends land after
        // good bytes.
        let wal_path = gens.companion_path(generation);
        let disk = gens.disk();
        let mut degraded = false;
        if let Ok(bytes) = disk.read(&wal_path) {
            let mut offset = 0usize;
            while offset < bytes.len() {
                match unframe_bytes_partial(&bytes[offset..]) {
                    Ok(BytesProgress::Complete { payload, consumed }) => {
                        match decode_ops(payload) {
                            Ok(ops) => {
                                for op in &ops {
                                    apply_op(&mut state, op);
                                }
                                report.replayed_ops += ops.len();
                                offset += consumed;
                            }
                            Err(_) => {
                                report.corrupt_tail = true;
                                break;
                            }
                        }
                    }
                    Ok(BytesProgress::Incomplete { .. }) => {
                        report.torn_tail = true;
                        break;
                    }
                    Err(_) => {
                        report.corrupt_tail = true;
                        break;
                    }
                }
            }
            if offset < bytes.len() && disk.write(&wal_path, &bytes[..offset]).is_err() {
                // Can't clear the bad tail: appending after it would
                // bury good frames behind garbage. Start degraded; the
                // next successful compaction moves to a fresh WAL.
                degraded = true;
            }
        }

        if degraded {
            state.stats.durability_degraded += 1;
        }
        Ok((
            WalStore {
                gens,
                config: WalConfig {
                    group_ops: config.group_ops.max(1),
                    compact_every: config.compact_every.max(1),
                    keep: config.keep.max(1),
                    mode: config.mode,
                },
                state,
                generation,
                pending: Vec::new(),
                pending_ops: 0,
                ops_since_compact: 0,
                degraded,
            },
            report,
        ))
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        self.gens.dir()
    }

    /// Current snapshot/WAL generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn degrade(&mut self) {
        self.degraded = true;
        self.state.stats.durability_degraded += 1;
        // The buffer is only re-playable through the WAL; memory-only
        // operation has no use for it, and the re-arm path (compaction)
        // persists the *state*, not the log.
        self.pending.clear();
        self.pending_ops = 0;
    }

    fn flush_pending(&mut self) {
        if self.degraded || self.pending.is_empty() {
            return;
        }
        let framed = frame_bytes(&self.pending);
        let path = self.gens.companion_path(self.generation);
        match self.gens.disk().append(&path, &framed) {
            Ok(()) => {
                self.pending.clear();
                self.pending_ops = 0;
            }
            // A failed append may have landed a prefix (short write,
            // torn crash). The checksum makes that tail inert on
            // recovery, but appending *after* it would corrupt the file
            // mid-stream — so journaling stops here until a compaction
            // opens a fresh generation.
            Err(_) => self.degrade(),
        }
    }

    /// Commit `state.<g+1>.snap`, switch appends to `wal.<g+1>.log`,
    /// prune old generations. On failure the store keeps its previous
    /// durability level: a failed compaction while healthy does not
    /// degrade, because the current WAL is still good.
    fn compact_inner(&mut self) {
        let next = self.generation + 1;
        if self.gens.commit(next, &encode_state(&self.state)).is_err() {
            return;
        }

        // The snapshot is durable: everything applied so far is
        // captured, including ops buffered or dropped while degraded.
        self.generation = next;
        self.pending.clear();
        self.pending_ops = 0;
        self.ops_since_compact = 0;
        self.degraded = false;
        self.gens.prune(next, self.config.keep);
    }
}

impl StateStore for WalStore {
    fn state(&self) -> &DurableState {
        &self.state
    }

    fn apply(&mut self, ops: &[StateOp]) -> ApplyOutcome {
        if self.degraded {
            if self.config.mode == DurabilityMode::FailClosed
                && ops.iter().any(|op| matches!(op, StateOp::Suspect { .. }))
            {
                self.state.stats.durability_refused += 1;
                return ApplyOutcome::Refused;
            }
            for op in ops {
                apply_op(&mut self.state, op);
            }
        } else {
            for op in ops {
                apply_op(&mut self.state, op);
                encode_op(&mut self.pending, op);
                self.pending_ops += 1;
            }
            if self.pending_ops >= self.config.group_ops {
                self.flush_pending();
            }
        }
        self.ops_since_compact += ops.len() as u64;
        if self.ops_since_compact >= self.config.compact_every {
            // Doubles as the re-arm path while degraded.
            self.compact_inner();
        }
        ApplyOutcome::Applied
    }

    fn flush(&mut self) {
        self.flush_pending();
    }

    fn compact(&mut self) {
        self.compact_inner();
    }

    fn durability(&self) -> Durability {
        if self.degraded {
            Durability::Degraded
        } else {
            Durability::Durable
        }
    }

    fn label(&self) -> &'static str {
        "wal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{QuarantineReason, QuarantineRecord};
    use leaksig_faults::{DiskFaultControls, FaultyDisk, RealDisk};
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("leaksig-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn packet(i: usize) -> leaksig_http::HttpPacket {
        RequestBuilder::get("/leak")
            .query("imei", &format!("35519500000{i:04}"))
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "sink.example")
            .build()
    }

    fn suspect(i: usize, slot: usize) -> StateOp {
        StateOp::Suspect {
            packet: packet(i),
            slot,
        }
    }

    fn small() -> WalConfig {
        WalConfig {
            group_ops: 4,
            compact_every: 1_000_000,
            keep: 2,
            mode: DurabilityMode::FailOpen,
        }
    }

    fn faulty(dir: &Path, config: WalConfig) -> (WalStore, DiskFaultControls) {
        let (disk, ctl) = FaultyDisk::new(RealDisk);
        let (store, _) = WalStore::open(dir, Box::new(disk), config).unwrap();
        (store, ctl)
    }

    #[test]
    fn flushed_batches_survive_reopen_unflushed_do_not() {
        let dir = tmp("reopen");
        let (mut store, report) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        assert_eq!(report, WalRecoveryReport::default());
        for i in 0..6 {
            store.apply(&[suspect(i, i)]);
        }
        // group_ops = 4: one frame flushed (ops 0-3), ops 4-5 pending.
        drop(store);
        let (recovered, report) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        assert_eq!(report.replayed_ops, 4);
        assert!(!report.torn_tail && !report.corrupt_tail);
        assert_eq!(recovered.state().reservoir.len(), 4);
        assert_eq!(recovered.state().stats.suspicious, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_flush_makes_the_tail_durable() {
        let dir = tmp("flush");
        let (mut store, _) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        store.apply(&[suspect(0, 0), StateOp::Normal]);
        store.flush();
        drop(store);
        let (recovered, report) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        assert_eq!(report.replayed_ops, 2);
        assert_eq!(
            encode_state(recovered.state()),
            {
                let mut gold = DurableState::default();
                apply_op(&mut gold, &suspect(0, 0));
                apply_op(&mut gold, &StateOp::Normal);
                encode_state(&gold)
            },
            "recovered state is byte-identical to the directly-built one"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_snapshots_and_prunes_then_recovery_prefers_the_snapshot() {
        let dir = tmp("compact");
        let (mut store, _) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        for i in 0..5 {
            store.apply(&[suspect(i, i)]);
        }
        store.compact();
        assert_eq!(store.generation(), 1);
        store.apply(&[StateOp::Normal]);
        store.flush();
        store.compact();
        store.compact();
        assert_eq!(store.generation(), 3);
        drop(store);

        // keep = 2: generations older than 2 are gone, no temps remain.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(names.contains(&"state.3.snap".to_string()), "{names:?}");
        assert!(!names.contains(&"state.1.snap".to_string()), "{names:?}");
        assert!(!names.iter().any(|n| n.ends_with(".tmp")), "{names:?}");

        let (recovered, report) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        assert_eq!(report.snapshot_generation, Some(3));
        assert_eq!(report.replayed_ops, 0);
        assert_eq!(recovered.state().stats.suspicious, 5);
        assert_eq!(recovered.state().stats.normal, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_frame_is_discarded_and_truncated() {
        let dir = tmp("torn");
        let (mut store, _) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        store.apply(&[suspect(0, 0)]);
        store.flush();
        store.apply(&[suspect(1, 1)]);
        store.flush();
        drop(store);

        // Tear the final frame by hand: drop the last 3 bytes.
        let wal = dir.join("wal.0.log");
        let mut bytes = std::fs::read(&wal).unwrap();
        let torn_len = bytes.len() - 3;
        bytes.truncate(torn_len);
        std::fs::write(&wal, &bytes).unwrap();

        let (recovered, report) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.replayed_ops, 1, "only the intact frame replays");
        assert_eq!(recovered.state().reservoir.len(), 1);
        assert!(
            std::fs::read(&wal).unwrap().len() < torn_len,
            "bad tail truncated away"
        );
        drop(recovered);

        // The truncated WAL accepts appends again and stays consistent.
        let (mut store, _) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        store.apply(&[StateOp::Normal]);
        store.flush();
        drop(store);
        let (recovered, report) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        assert!(!report.torn_tail && !report.corrupt_tail);
        assert_eq!(recovered.state().stats.ingested, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_frame_is_discarded_without_poisoning_earlier_ones() {
        let dir = tmp("corrupt");
        let (mut store, _) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        store.apply(&[suspect(0, 0)]);
        store.flush();
        store.apply(&[suspect(1, 1)]);
        store.flush();
        drop(store);

        let wal = dir.join("wal.0.log");
        let mut bytes = std::fs::read(&wal).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&wal, &bytes).unwrap();

        let (recovered, report) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        assert!(report.corrupt_tail);
        assert_eq!(report.replayed_ops, 1);
        assert_eq!(recovered.state().reservoir.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_failure_degrades_and_compaction_rearms() {
        let dir = tmp("degrade");
        let (mut store, ctl) = faulty(&dir, small());
        store.apply(&[suspect(0, 0)]);
        store.flush();
        assert_eq!(store.durability(), Durability::Durable);

        ctl.set_fail_space(true);
        for i in 1..5 {
            store.apply(&[suspect(i, i)]);
        }
        // The group-commit flush hit ENOSPC: degraded, but every op
        // still applied (fail-open) and the failure was counted.
        assert_eq!(store.durability(), Durability::Degraded);
        assert_eq!(store.state().stats.durability_degraded, 1);
        assert_eq!(store.state().reservoir.len(), 5);

        // While degraded nothing journals — and the disk healing alone
        // does not re-arm.
        ctl.set_fail_space(false);
        store.apply(&[StateOp::Normal]);
        store.flush();
        assert_eq!(store.durability(), Durability::Degraded);

        // A successful compaction captures the full state and re-arms.
        store.compact();
        assert_eq!(store.durability(), Durability::Durable);
        store.apply(&[StateOp::Normal]);
        store.flush();
        drop(store);

        let (recovered, report) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        assert_eq!(report.snapshot_generation, Some(1));
        assert_eq!(recovered.state().reservoir.len(), 5);
        assert_eq!(recovered.state().stats.normal, 2);
        assert_eq!(recovered.state().stats.durability_degraded, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fail_closed_refuses_sensitive_batches_while_degraded() {
        let dir = tmp("closed");
        let mut config = small();
        config.mode = DurabilityMode::FailClosed;
        let (mut store, ctl) = faulty(&dir, config);

        ctl.set_fail_space(true);
        store.apply(&[suspect(0, 0)]);
        store.flush(); // force the failing append now
        assert_eq!(store.durability(), Durability::Degraded);

        assert_eq!(store.apply(&[suspect(1, 1)]), ApplyOutcome::Refused);
        assert_eq!(
            store.state().reservoir.len(),
            1,
            "refused batch not applied"
        );
        assert_eq!(store.state().stats.durability_refused, 1);

        // Counter-only batches still flow.
        assert_eq!(
            store.apply(&[StateOp::Intake {
                raw_seen: 1,
                rate_limited: 0,
                shed: 0,
                admitted: 1,
            }]),
            ApplyOutcome::Applied
        );
        assert_eq!(store.state().stats.raw_seen, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_and_publish_round_trip_through_recovery() {
        let dir = tmp("ledger");
        let (mut store, _) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        let record = QuarantineRecord {
            reason: QuarantineReason::Poison,
            source: Ipv4Addr::new(198, 51, 100, 7),
            port: 80,
            bytes: 123,
            summary: "GET /leak".to_string(),
        };
        store.apply(&[
            StateOp::Quarantine {
                cap: 8,
                parse_reject: false,
                record: record.clone(),
            },
            StateOp::Publish {
                version: 7,
                wire: "LEAKSIG/1 0\n".to_string(),
            },
            StateOp::Rng {
                state: [1, 2, 3, 4],
            },
        ]);
        store.flush();
        drop(store);

        let (recovered, _) = WalStore::open(&dir, Box::new(RealDisk), small()).unwrap();
        assert_eq!(recovered.state().ledger.len(), 1);
        assert_eq!(recovered.state().ledger[0], record);
        assert_eq!(
            recovered.state().last_publish,
            Some((7, "LEAKSIG/1 0\n".to_string()))
        );
        assert_eq!(recovered.state().rng_state, Some([1, 2, 3, 4]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_fires_on_op_count() {
        let dir = tmp("auto");
        let mut config = small();
        config.compact_every = 10;
        let (mut store, _) = WalStore::open(&dir, Box::new(RealDisk), config).unwrap();
        for _ in 0..10 {
            store.apply(&[StateOp::Normal]);
        }
        assert_eq!(store.generation(), 1, "10 ops crossed compact_every");
        assert!(dir.join("state.1.snap").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
