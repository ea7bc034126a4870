//! Persistence of the device state across restarts.
//!
//! The on-device app must survive a reboot without re-prompting for every
//! previously-decided flow and without re-fetching signatures. Two small
//! text formats:
//!
//! ```text
//! LEAKPOLICY/1
//! allow jp.co.mobika.puzzle 3
//! block com.zemi.news 7
//! blockhex 6d7920617070 2
//! ```
//!
//! (an app id containing whitespace — here `my app` — is hex-encoded)
//!
//! and the signature store snapshot, which is the `leaksig-core` wire
//! format prefixed by a version line:
//!
//! ```text
//! LEAKSTORE/1 5
//! LEAKSIG/1
//! ...
//! ```
//!
//! On-disk durability is handled by [`SnapshotVault`]: checksummed,
//! generation-numbered `LEAKFRAME/1` snapshot files written
//! temp-then-fsync-then-rename so a crash at any point leaves either the
//! old or the new snapshot fully intact, and a restore path that walks
//! generations newest-first, discarding anything the checksum disowns,
//! until it finds the last known good state.

use crate::generations::GenerationDir;
use crate::policy::{PolicyEngine, UserChoice};
use crate::store::{SignatureStore, StoreHealth};
use leaksig_faults::{DiskIo, RealDisk};
use leaksig_hash::{decode_hex, encode_hex};
use std::path::PathBuf;

const POLICY_MAGIC: &str = "LEAKPOLICY/1";
const STORE_MAGIC: &str = "LEAKSTORE/1";

/// Persistence failure with a user-facing message.
#[derive(Debug)]
pub struct PersistError(pub String);

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PersistError {}

/// Serialize remembered decisions. Only `*Always` choices persist; `Once`
/// answers were never remembered to begin with. An app id containing
/// whitespace cannot sit in a space-separated line, so it travels
/// hex-encoded under the verb's `hex` form (`blockhex 6d7920617070 7`);
/// every other id is written as is.
pub fn encode_policy(policy: &PolicyEngine) -> String {
    let mut out = String::from(POLICY_MAGIC);
    out.push('\n');
    let mut rows = policy.remembered_rows();
    rows.sort();
    for (app, sig, allow) in rows {
        let verb = if allow { "allow" } else { "block" };
        if app.contains(char::is_whitespace) {
            out.push_str(&format!("{verb}hex {} {sig}\n", encode_hex(app.as_bytes())));
        } else {
            out.push_str(&format!("{verb} {app} {sig}\n"));
        }
    }
    out
}

/// Parse a policy snapshot into a fresh engine.
pub fn decode_policy(text: &str) -> Result<PolicyEngine, PersistError> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(POLICY_MAGIC) {
        return Err(PersistError(format!("missing {POLICY_MAGIC} header")));
    }
    let mut policy = PolicyEngine::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split(' ');
        let (verb, app, sig) = (parts.next(), parts.next(), parts.next());
        let (Some(verb), Some(app), Some(sig), None) = (verb, app, sig, parts.next()) else {
            return Err(PersistError(format!("malformed policy line: {line:?}")));
        };
        let sig: u32 = sig
            .parse()
            .map_err(|_| PersistError(format!("bad signature id in {line:?}")))?;
        let (choice, hex) = match verb {
            "allow" => (UserChoice::AllowAlways, false),
            "block" => (UserChoice::BlockAlways, false),
            "allowhex" => (UserChoice::AllowAlways, true),
            "blockhex" => (UserChoice::BlockAlways, true),
            other => return Err(PersistError(format!("unknown verb {other:?}"))),
        };
        if hex {
            let app = decode_hex(app)
                .ok()
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .ok_or_else(|| PersistError(format!("bad hex app id in {line:?}")))?;
            policy.resolve(&app, sig, choice);
        } else {
            policy.resolve(app, sig, choice);
        }
    }
    Ok(policy)
}

/// Snapshot a signature store (version + installed wire text).
pub fn encode_store(store: &SignatureStore) -> String {
    format!("{STORE_MAGIC} {}\n{}", store.version(), store.wire_text())
}

/// Restore a store snapshot.
pub fn decode_store(text: &str) -> Result<SignatureStore, PersistError> {
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| PersistError("empty store snapshot".to_string()))?;
    let version: u64 = header
        .strip_prefix(STORE_MAGIC)
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| PersistError(format!("bad store header: {header:?}")))?;
    let store = SignatureStore::new();
    store
        .install(version, body)
        .map_err(|e| PersistError(format!("bad signature payload: {e}")))?;
    Ok(store)
}

/// Good generations a vault retains after a save (older ones are pruned).
const VAULT_KEEP: usize = 3;

/// Checksummed, generation-numbered, crash-safe snapshot storage for the
/// signature store.
///
/// Each save commits `store.<generation>.snap`, one `LEAKFRAME/1` frame
/// (length + SHA-1) whose payload echoes the generation ahead of the
/// store snapshot:
///
/// ```text
/// LEAKFRAME/1 <payload-byte-length> <sha1-hex-of-payload>
/// <generation>
/// LEAKSTORE/1 <version>
/// LEAKSIG/1
/// ...
/// ```
///
/// The commit writes a temp file, fsyncs it and renames it into place,
/// so the final path only ever holds a complete snapshot. Restore walks
/// generations newest-first and verifies frame + generation echo +
/// decode before trusting one; a damaged newest snapshot therefore
/// *rolls back* to the previous generation instead of corrupting the
/// device. The collection server's [`WalStore`](crate::WalStore) keeps
/// its snapshots with the same protocol.
pub struct SnapshotVault {
    gens: GenerationDir,
}

/// What [`SnapshotVault::restore_store`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Generation actually restored (`None` = nothing usable on disk).
    pub generation: Option<u64>,
    /// Snapshot files that failed verification and were skipped.
    pub skipped_corrupt: usize,
    /// Health the restored store reports.
    pub health: StoreHealth,
}

impl RestoreReport {
    /// Whether a newer-but-damaged snapshot was bypassed in favour of an
    /// older good one.
    pub fn rolled_back(&self) -> bool {
        self.skipped_corrupt > 0 && self.generation.is_some()
    }
}

impl SnapshotVault {
    /// A vault rooted at `dir` (created if absent) on the real disk.
    pub fn new(dir: impl Into<PathBuf>) -> Result<SnapshotVault, PersistError> {
        Self::open(dir, Box::new(RealDisk))
    }

    /// A vault rooted at `dir` doing all I/O through `disk`. Orphaned
    /// `*.tmp` files from interrupted saves are swept here, so a process
    /// that crashes on every save cannot grow the directory unboundedly.
    pub fn open(
        dir: impl Into<PathBuf>,
        disk: Box<dyn DiskIo>,
    ) -> Result<SnapshotVault, PersistError> {
        let dir = dir.into();
        let (gens, _) = GenerationDir::open(dir.clone(), disk, "store", None)
            .map_err(|e| PersistError(format!("cannot open {}: {e}", dir.display())))?;
        Ok(SnapshotVault { gens })
    }

    /// Generations currently on disk, ascending (content unverified).
    pub fn generations(&mut self) -> Vec<u64> {
        self.gens.list().unwrap_or_default()
    }

    /// Persist `store` as the next generation and prune generations
    /// outside the retention window. Returns the generation written; on
    /// error nothing newer than the previous generation is on disk.
    pub fn save_store(&mut self, store: &SignatureStore) -> Result<u64, PersistError> {
        let dir = self.gens.dir().display().to_string();
        let listed = self
            .gens
            .list()
            .map_err(|e| PersistError(format!("cannot list {dir}: {e}")))?;
        let generation = listed.last().copied().unwrap_or(0) + 1;
        let payload = format!("{generation}\n{}", encode_store(store));
        self.gens
            .commit(generation, payload.as_bytes())
            .map_err(|e| {
                PersistError(format!("cannot save generation {generation} in {dir}: {e}"))
            })?;
        self.gens.prune(generation, VAULT_KEEP);
        Ok(generation)
    }

    /// Restore the newest verifiable snapshot.
    ///
    /// Walks generations newest-first; each candidate must pass the
    /// frame's length + SHA-1 check, echo its own generation, and pass
    /// [`decode_store`] (which includes the deploy gate). The first
    /// survivor wins. When nothing on disk is usable the device restarts
    /// on an empty store — marked [`StoreHealth::Corrupt`] if damaged
    /// snapshots were present (so the gate can fail closed), or
    /// [`StoreHealth::Empty`] on a genuinely fresh device.
    pub fn restore_store(&mut self) -> (SignatureStore, RestoreReport) {
        let listed = self.generations();
        let loaded = self.gens.load_newest(&listed, |g, payload| {
            let (echo, body) = std::str::from_utf8(payload).ok()?.split_once('\n')?;
            if echo.parse::<u64>().ok()? != g {
                return None;
            }
            decode_store(body).ok()
        });
        let (generation, store) = match loaded.newest {
            Some((g, store)) => (Some(g), store),
            None => {
                let store = SignatureStore::new();
                if loaded.skipped > 0 {
                    store.mark_corrupt();
                }
                (None, store)
            }
        };
        let report = RestoreReport {
            generation,
            skipped_corrupt: loaded.skipped,
            health: store.health(),
        };
        (store, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SignatureServer;
    use leaksig_core::prelude::*;
    use leaksig_faults::{CrashFlavor, DiskFaultControls, FaultyDisk};
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn policy_round_trip() {
        let mut p = PolicyEngine::new();
        p.resolve("jp.co.a.game", 1, UserChoice::AllowAlways);
        p.resolve("jp.co.a.game", 2, UserChoice::BlockAlways);
        p.resolve("com.b.news", 1, UserChoice::BlockAlways);
        p.resolve("com.c.memo", 9, UserChoice::AllowOnce); // not persisted

        let text = encode_policy(&p);
        let back = decode_policy(&text).unwrap();
        assert_eq!(back.remembered_count(), 3);
        use crate::policy::Verdict;
        assert_eq!(back.decide("jp.co.a.game", Some(1)), Verdict::Forward);
        assert_eq!(back.decide("jp.co.a.game", Some(2)), Verdict::Block);
        assert_eq!(back.decide("com.b.news", Some(1)), Verdict::Block);
        assert_eq!(back.decide("com.c.memo", Some(9)), Verdict::Prompt);
        // Whitespace-free ids keep their plain lines.
        assert_eq!(
            text,
            "LEAKPOLICY/1\nblock com.b.news 1\nallow jp.co.a.game 1\nblock jp.co.a.game 2\n"
        );
    }

    #[test]
    fn whitespace_app_ids_round_trip_hex_encoded() {
        use crate::policy::Verdict;
        let apps = [
            "my app",
            "app ",
            "line\napp",
            "tab\tapp",
            "cr\r",
            "plain.app",
        ];
        let mut p = PolicyEngine::new();
        for app in apps {
            p.resolve(app, 4, UserChoice::BlockAlways);
        }
        let text = encode_policy(&p);
        assert!(text.contains("\nblock plain.app 4\n"), "{text}");
        assert!(text.contains("\nblockhex 6d7920617070 4\n"), "{text}");
        let back = decode_policy(&text).unwrap();
        assert_eq!(back.remembered_count(), apps.len());
        for app in apps {
            assert_eq!(back.decide(app, Some(4)), Verdict::Block, "{app:?}");
        }
        assert!(decode_policy("LEAKPOLICY/1\nblockhex zz 3\n").is_err());
        assert!(
            decode_policy("LEAKPOLICY/1\nallowhex ff 3\n").is_err(),
            "not UTF-8"
        );
    }

    #[test]
    fn policy_rejects_malformed() {
        assert!(decode_policy("").is_err());
        assert!(decode_policy("LEAKPOLICY/1\nallow app\n").is_err());
        assert!(decode_policy("LEAKPOLICY/1\nmaybe app 3\n").is_err());
        assert!(decode_policy("LEAKPOLICY/1\nallow app x\n").is_err());
        assert!(decode_policy("LEAKPOLICY/1\nallow app 3 extra\n").is_err());
    }

    #[test]
    fn store_round_trip() {
        let mk = |slot: &str| {
            RequestBuilder::get("/getad")
                .query("imei", "355195000000017")
                .query("slot", slot)
                .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
                .build()
        };
        let server = SignatureServer::new();
        server
            .publish(&generate_signatures(&[&mk("1"), &mk("2")], &{
                let mut cfg = PipelineConfig::default();
                cfg.signature.include_singletons = false;
                cfg
            }))
            .unwrap();
        let store = SignatureStore::new();
        store.sync(&server).unwrap();

        let snapshot = encode_store(&store);
        let restored = decode_store(&snapshot).unwrap();
        assert_eq!(restored.version(), store.version());
        assert_eq!(restored.signature_count(), store.signature_count());
        assert!(restored.match_packet(&mk("42")).is_some());
    }

    #[test]
    fn store_rejects_malformed() {
        assert!(decode_store("").is_err());
        assert!(decode_store("WAT 1\nLEAKSIG/1\n").is_err());
        assert!(decode_store("LEAKSTORE/1 x\nLEAKSIG/1\n").is_err());
        assert!(decode_store("LEAKSTORE/1 3\nnot-signatures\n").is_err());
    }

    fn armed_store(version: u64) -> SignatureStore {
        let mk = |slot: &str| {
            RequestBuilder::get("/getad")
                .query("imei", "355195000000017")
                .query("slot", slot)
                .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
                .build()
        };
        let set = generate_signatures(&[&mk("1"), &mk("2")], &{
            let mut cfg = PipelineConfig::default();
            cfg.signature.include_singletons = false;
            cfg
        });
        let store = SignatureStore::new();
        store
            .install(version, &leaksig_core::wire::encode(&set))
            .unwrap();
        store
    }

    fn temp_vault_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("leaksig-vault-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A vault on a fault-injecting disk, plus the mutation index of the
    /// next save's first I/O (its temp-file write).
    fn faulty_vault(dir: &std::path::Path) -> (SnapshotVault, DiskFaultControls, u64) {
        let (disk, ctl) = FaultyDisk::new(RealDisk);
        let vault = SnapshotVault::open(dir, Box::new(disk)).unwrap();
        let first = ctl.mutations();
        (vault, ctl, first)
    }

    fn tmp_files(dir: &std::path::Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count()
    }

    #[test]
    fn vault_round_trip_and_retention() {
        let dir = temp_vault_dir("roundtrip");
        let mut vault = SnapshotVault::new(&dir).unwrap();

        // No snapshots yet: a fresh device, not a corrupt one.
        let (empty, report) = vault.restore_store();
        assert_eq!(report.generation, None);
        assert_eq!(report.health, StoreHealth::Empty);
        assert_eq!(empty.version(), 0);

        for v in 1..=5u64 {
            let store = armed_store(v);
            assert_eq!(vault.save_store(&store).unwrap(), v);
        }
        // Retention keeps the 3 newest generations.
        assert_eq!(vault.generations(), vec![3, 4, 5]);

        let (restored, report) = vault.restore_store();
        assert_eq!(report.generation, Some(5));
        assert!(!report.rolled_back());
        assert_eq!(restored.version(), 5);
        assert_eq!(restored.health(), StoreHealth::Fresh);
        assert!(restored.signature_count() >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_rolls_back_to_last_known_good() {
        let dir = temp_vault_dir("torn");
        SnapshotVault::new(&dir)
            .unwrap()
            .save_store(&armed_store(1))
            .unwrap();

        // Power loss mid-write of generation 2: only its temp file is
        // torn, so restore finds generation 1 with nothing to skip.
        let (mut vault, ctl, first) = faulty_vault(&dir);
        ctl.arm_crash(first, CrashFlavor::Torn);
        assert!(vault.save_store(&armed_store(2)).is_err());
        assert!(ctl.crashed());
        let mut vault = SnapshotVault::new(&dir).unwrap();
        let (restored, report) = vault.restore_store();
        assert_eq!((report.generation, report.skipped_corrupt), (Some(1), 0));
        assert_eq!(restored.version(), 1);

        // A disk that tears the *renamed* file (non-atomic filesystem,
        // lying firmware): the checksum catches it and restore rolls
        // back past it.
        vault.save_store(&armed_store(2)).unwrap();
        let newest = dir.join("store.2.snap");
        let mut bytes = std::fs::read(&newest).unwrap();
        leaksig_faults::truncate_bytes(&mut bytes, 500);
        std::fs::write(&newest, &bytes).unwrap();
        assert_eq!(vault.generations(), vec![1, 2], "torn file is present");

        let (restored, report) = vault.restore_store();
        assert_eq!(report.generation, Some(1), "rolled back past the torn file");
        assert_eq!(report.skipped_corrupt, 1);
        assert!(report.rolled_back());
        assert_eq!(restored.version(), 1);
        assert_eq!(restored.health(), StoreHealth::Fresh);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_before_rename_preserves_old_state() {
        let dir = temp_vault_dir("prerename");
        SnapshotVault::new(&dir)
            .unwrap()
            .save_store(&armed_store(1))
            .unwrap();

        // A save's mutating I/O: 0 = temp write, 1 = fsync, 2 = rename.
        // Dying before the write or before the rename leaves the final
        // path untouched.
        for at in [0, 2] {
            let (mut vault, ctl, first) = faulty_vault(&dir);
            ctl.arm_crash(first + at, CrashFlavor::Before);
            assert!(vault.save_store(&armed_store(9)).is_err());
            // Only the crash before the rename strands a temp file.
            assert_eq!(tmp_files(&dir), (at == 2) as usize);
            let (restored, report) = SnapshotVault::new(&dir).unwrap().restore_store();
            assert_eq!(report.generation, Some(1));
            assert_eq!(report.skipped_corrupt, 0, "atomic protocol: no damage");
            assert_eq!(restored.version(), 1);
            assert_eq!(tmp_files(&dir), 0, "reopening swept the orphan temp file");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_loop_does_not_grow_the_vault_unboundedly() {
        let dir = temp_vault_dir("crashloop");
        // A process that dies between temp-write and rename on *every*
        // save, restarting (reopening the vault) each time. Without the
        // open-time sweep each round would strand one more `.tmp`.
        for round in 0..20 {
            let (mut vault, ctl, first) = faulty_vault(&dir);
            ctl.arm_crash(first + 2, CrashFlavor::Before);
            assert!(vault.save_store(&armed_store(round)).is_err());
            let files = std::fs::read_dir(&dir).unwrap().count();
            assert!(files <= 1, "round {round}: {files} files on disk");
        }
        // And the debris never confuses restore.
        let (_, report) = SnapshotVault::new(&dir).unwrap().restore_store();
        assert_eq!(report.generation, None);
        assert_eq!(report.skipped_corrupt, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_generations_corrupt_restores_empty_and_flags_it() {
        let dir = temp_vault_dir("allbad");
        let mut vault = SnapshotVault::new(&dir).unwrap();
        vault.save_store(&armed_store(1)).unwrap();
        vault.save_store(&armed_store(2)).unwrap();
        // Bit-rot both snapshots on disk.
        for gen in vault.generations() {
            let path = dir.join(format!("store.{gen}.snap"));
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
        }
        let (restored, report) = vault.restore_store();
        assert_eq!(report.generation, None);
        assert_eq!(report.skipped_corrupt, 2);
        assert_eq!(report.health, StoreHealth::Corrupt);
        assert_eq!(restored.version(), 0, "no corrupt snapshot was trusted");
        assert_eq!(restored.health(), StoreHealth::Corrupt);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_header_lies_are_rejected() {
        let dir = temp_vault_dir("lies");
        let mut vault = SnapshotVault::new(&dir).unwrap();
        vault.save_store(&armed_store(1)).unwrap();
        let original = std::fs::read(dir.join("store.1.snap")).unwrap();

        // A file renamed to masquerade as a different generation fails
        // the generation echo check even though its frame verifies.
        std::fs::write(dir.join("store.7.snap"), &original).unwrap();
        let (restored, report) = vault.restore_store();
        assert_eq!(report.generation, Some(1), "impostor generation skipped");
        assert_eq!(report.skipped_corrupt, 1);
        assert_eq!(restored.version(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
