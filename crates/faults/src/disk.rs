//! The *storage-level* fault taxonomy: what a real filesystem does to a
//! durable state store.
//!
//! `leaksig-device`'s durable stores (the WAL-backed [`StateStore`]
//! backend and the device's signature snapshot vault) perform every
//! I/O operation through the [`DiskIo`] trait, so the whole persistence
//! protocol — append, snapshot commit, temp-sync-rename, recovery
//! scan — can be driven against a disk that misbehaves on schedule:
//!
//! * **short write** — an append persists only a prefix of its bytes and
//!   reports failure (partial sector flush before power loss);
//! * **torn record** — a crash lands mid-append: a prefix of the record
//!   is on disk and the process is gone;
//! * **fsync failure** — the kernel refuses to make the bytes durable
//!   (thrown battery-backed cache, dying device);
//! * **ENOSPC** — the volume is full: nothing lands;
//! * **crash-at-point** — the process dies *before*, *during* (torn), or
//!   *after* the N-th mutating operation, after which every further
//!   operation fails (a dead process does no I/O).
//!
//! [`FaultyDisk`] wraps any inner [`DiskIo`] (normally [`RealDisk`])
//! and injects the taxonomy two ways: a deterministic crash/failure
//! schedule driven through shared [`DiskFaultControls`] (the crash-matrix
//! harness arms "crash at mutating op N" and sweeps N), and a seeded
//! random [`DiskFaultPlan`] for soak-style chaos (same seed, same
//! faults). Both are *logical*: no sleeps, no real power loss, fully
//! reproducible.
//!
//! [`StateStore`]: ../../leaksig_device/trait.StateStore.html

use crate::{Plan, Taxonomy};
use rand::rngs::StdRng;
use rand::RngExt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// A class of injectable storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiskFaultKind {
    /// An append/write persists a prefix of its bytes and fails.
    ShortWrite,
    /// A crash mid-append leaves a torn record on disk.
    TornRecord,
    /// `fsync` reports failure; buffered bytes may not be durable.
    FsyncFail,
    /// The volume is full: the operation fails with nothing written.
    Enospc,
    /// The process dies at an operation boundary; all later I/O fails.
    Crash,
}

impl Taxonomy for DiskFaultKind {
    type Fault = DiskFault;
    const ALL: &'static [DiskFaultKind] = &[
        DiskFaultKind::ShortWrite,
        DiskFaultKind::TornRecord,
        DiskFaultKind::FsyncFail,
        DiskFaultKind::Enospc,
        DiskFaultKind::Crash,
    ];
    const NOUN: &'static str = "disk fault";

    fn label(self) -> &'static str {
        match self {
            DiskFaultKind::ShortWrite => "shortwrite",
            DiskFaultKind::TornRecord => "torn",
            DiskFaultKind::FsyncFail => "fsyncfail",
            DiskFaultKind::Enospc => "enospc",
            DiskFaultKind::Crash => "crash",
        }
    }

    fn draw(self, rng: &mut StdRng) -> DiskFault {
        match self {
            DiskFaultKind::ShortWrite => DiskFault::Short {
                keep_permille: rng.random_range(0u16..1000),
            },
            DiskFaultKind::TornRecord => DiskFault::Torn {
                keep_permille: rng.random_range(0u16..1000),
            },
            DiskFaultKind::FsyncFail => DiskFault::SyncFail,
            DiskFaultKind::Enospc => DiskFault::Enospc,
            DiskFaultKind::Crash => DiskFault::Crash(
                CrashFlavor::ALL[rng.random_range(0..CrashFlavor::ALL.len() as u64) as usize],
            ),
        }
    }
}

/// One concrete drawn disk fault, with its parameters. A fault that
/// does not apply to the operation it lands on (an fsync failure drawn
/// for an append) lets that operation through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// A write/append lands a prefix of its bytes and fails.
    Short {
        /// Surviving fraction of the payload, in permille (0..1000).
        keep_permille: u16,
    },
    /// A write/append lands a prefix of its bytes and the process dies.
    Torn {
        /// Surviving fraction of the payload, in permille (0..1000).
        keep_permille: u16,
    },
    /// An fsync fails.
    SyncFail,
    /// A write/append fails with nothing written.
    Enospc,
    /// The process dies at this operation, with the given flavor.
    Crash(CrashFlavor),
}

/// Where, relative to the scheduled mutating operation, the simulated
/// process death strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashFlavor {
    /// Die before the operation touches disk: nothing changes.
    Before,
    /// Die mid-operation: a prefix of the bytes lands (appends/writes;
    /// operations without a byte payload behave like [`CrashFlavor::Before`]).
    Torn,
    /// Die after the operation completed on disk but before the caller
    /// could observe success.
    After,
}

impl CrashFlavor {
    /// Every flavor, in schedule-sweep order.
    pub const ALL: [CrashFlavor; 3] = [CrashFlavor::Before, CrashFlavor::Torn, CrashFlavor::After];

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            CrashFlavor::Before => "before",
            CrashFlavor::Torn => "torn",
            CrashFlavor::After => "after",
        }
    }
}

/// The I/O boundary of the durable stores.
///
/// Every filesystem touch they make goes through one of these methods,
/// so a fault wrapper observes (and can interrupt) the complete
/// persistence protocol. Implementations are free to buffer internally;
/// [`DiskIo::sync`] is the durability barrier.
pub trait DiskIo: Send {
    /// Create `dir` and its ancestors (idempotent).
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()>;
    /// Entries of `dir` (full paths, any order).
    fn read_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Whole contents of `path`.
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create/truncate `path` with `bytes`.
    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append `bytes` to `path` (created if absent).
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically rename `from` to `to`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete `path` (must exist).
    fn remove(&mut self, path: &Path) -> io::Result<()>;
    /// Durability barrier: flush `path`'s bytes to stable storage.
    fn sync(&mut self, path: &Path) -> io::Result<()>;
}

/// The honest [`DiskIo`]: plain `std::fs`.
#[derive(Debug, Default)]
pub struct RealDisk;

impl DiskIo for RealDisk {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }
}

const CRASH_NEVER: u64 = u64::MAX;

#[derive(Debug, Default)]
struct ControlsInner {
    crashed: AtomicBool,
    /// Mutating operations *attempted* so far (the crash schedule's
    /// index space).
    mutations: AtomicU64,
    /// Mutating-op index the crash fires at (`CRASH_NEVER` = disarmed).
    crash_at: AtomicU64,
    /// Encoded [`CrashFlavor`] (index into [`CrashFlavor::ALL`]).
    crash_flavor: AtomicU8,
    fail_sync: AtomicBool,
    fail_space: AtomicBool,
    short_writes: AtomicBool,
    injected: AtomicU64,
}

/// Shared handle steering (and observing) a [`FaultyDisk`] from outside.
///
/// The crash-matrix harness holds one of these while the store owns the
/// disk: it arms "crash at mutating op N", drives the store until the
/// crash fires ([`DiskFaultControls::crashed`]), then recovers the
/// directory with a fresh honest disk. The persistent-failure toggles
/// (`fail_sync`, `fail_space`, `short_writes`) model a sick-but-alive
/// disk for degradation tests, and can be healed mid-run.
#[derive(Debug, Clone, Default)]
pub struct DiskFaultControls {
    inner: Arc<ControlsInner>,
}

impl DiskFaultControls {
    fn new() -> Self {
        let ctl = DiskFaultControls {
            inner: Arc::new(ControlsInner::default()),
        };
        ctl.inner.crash_at.store(CRASH_NEVER, Ordering::SeqCst);
        ctl
    }

    /// Whether the simulated process death has struck.
    pub fn crashed(&self) -> bool {
        self.inner.crashed.load(Ordering::SeqCst)
    }

    /// Mutating operations attempted so far — the index space the crash
    /// schedule counts in. Run a scenario once uninjured to learn its
    /// total, then sweep `0..total` as crash points.
    pub fn mutations(&self) -> u64 {
        self.inner.mutations.load(Ordering::SeqCst)
    }

    /// Non-crash faults injected so far.
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::SeqCst)
    }

    /// Arm the schedule: die at mutating operation `at` (0-based) with
    /// the given flavor.
    pub fn arm_crash(&self, at: u64, flavor: CrashFlavor) {
        let code = CrashFlavor::ALL.iter().position(|f| *f == flavor).unwrap() as u8;
        self.inner.crash_flavor.store(code, Ordering::SeqCst);
        self.inner.crash_at.store(at, Ordering::SeqCst);
    }

    /// Make every [`DiskIo::sync`] fail (`true`) or succeed (`false`).
    pub fn set_fail_sync(&self, on: bool) {
        self.inner.fail_sync.store(on, Ordering::SeqCst);
    }

    /// Make every write/append fail with out-of-space (`true`) —
    /// nothing lands — or behave (`false`).
    pub fn set_fail_space(&self, on: bool) {
        self.inner.fail_space.store(on, Ordering::SeqCst);
    }

    /// Make every write/append land only half its bytes and fail
    /// (`true`), or behave (`false`).
    pub fn set_short_writes(&self, on: bool) {
        self.inner.short_writes.store(on, Ordering::SeqCst);
    }

    fn flavor(&self) -> CrashFlavor {
        CrashFlavor::ALL[self.inner.crash_flavor.load(Ordering::SeqCst) as usize]
    }
}

/// The disk plan: one draw per mutating operation that passes the
/// armed schedule and the sick-disk toggles.
pub type DiskFaultPlan = Plan<DiskFaultKind>;

/// Which [`DiskIo`] method a mutating operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MutKind {
    Payload, // write/append: carries bytes, can tear/short/enospc
    Sync,
    Other, // rename/remove/create_dir_all
}

/// A [`DiskIo`] wrapper injecting the disk-fault taxonomy.
///
/// Reads pass through until the crash; after the crash *every* operation
/// fails (a dead process does no I/O). Mutating operations consult, in
/// order: the armed crash schedule, the persistent-failure toggles, then
/// the optional seeded plan.
pub struct FaultyDisk<D: DiskIo> {
    inner: D,
    ctl: DiskFaultControls,
    plan: Option<DiskFaultPlan>,
}

/// The error every operation returns once the simulated process is dead.
pub fn crash_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::BrokenPipe,
        "simulated crash: process is dead",
    )
}

fn enospc_error() -> io::Error {
    io::Error::other("simulated ENOSPC: no space left on device")
}

fn short_write_error() -> io::Error {
    io::Error::new(
        io::ErrorKind::WriteZero,
        "simulated short write: partial bytes persisted",
    )
}

fn sync_error() -> io::Error {
    io::Error::other("simulated fsync failure: durability not guaranteed")
}

impl<D: DiskIo> FaultyDisk<D> {
    /// Wrap `inner`; returns the disk and the shared control handle.
    pub fn new(inner: D) -> (Self, DiskFaultControls) {
        let ctl = DiskFaultControls::new();
        (
            FaultyDisk {
                inner,
                ctl: ctl.clone(),
                plan: None,
            },
            ctl,
        )
    }

    /// Wrap `inner` with a seeded random fault plan on top of the
    /// deterministic controls.
    pub fn with_plan(inner: D, plan: DiskFaultPlan) -> (Self, DiskFaultControls) {
        let (mut disk, ctl) = Self::new(inner);
        disk.plan = Some(plan);
        (disk, ctl)
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.ctl.crashed() {
            return Err(crash_error());
        }
        Ok(())
    }

    fn die(&self) -> io::Error {
        self.ctl.inner.crashed.store(true, Ordering::SeqCst);
        crash_error()
    }

    /// Gate one mutating operation. `Ok(Some(permille))` = perform with
    /// only that fraction of the payload bytes, then report failure
    /// (short write / torn crash). `Ok(None)` = perform faithfully.
    fn admit_mutation(&mut self, kind: MutKind) -> io::Result<Option<u16>> {
        self.check_alive()?;
        let n = self.ctl.inner.mutations.fetch_add(1, Ordering::SeqCst);

        // 1. The armed crash schedule.
        if n == self.ctl.inner.crash_at.load(Ordering::SeqCst) {
            match (self.ctl.flavor(), kind) {
                (CrashFlavor::Before, _) => return Err(self.die()),
                (CrashFlavor::Torn, MutKind::Payload) => {
                    self.ctl.inner.crashed.store(true, Ordering::SeqCst);
                    return Ok(Some(500));
                }
                (CrashFlavor::Torn, _) => return Err(self.die()),
                (CrashFlavor::After, _) => {
                    // Perform faithfully; the caller-visible failure is
                    // raised by the per-method wrapper after the inner
                    // call (see `seal_after_crash`).
                    self.ctl.inner.crashed.store(true, Ordering::SeqCst);
                    return Ok(None);
                }
            }
        }

        // 2. Persistent sick-disk toggles.
        let ctl = &self.ctl.inner;
        match kind {
            MutKind::Payload => {
                if ctl.fail_space.load(Ordering::SeqCst) {
                    ctl.injected.fetch_add(1, Ordering::SeqCst);
                    return Err(enospc_error());
                }
                if ctl.short_writes.load(Ordering::SeqCst) {
                    ctl.injected.fetch_add(1, Ordering::SeqCst);
                    return Ok(Some(500));
                }
            }
            MutKind::Sync => {
                if ctl.fail_sync.load(Ordering::SeqCst) {
                    ctl.injected.fetch_add(1, Ordering::SeqCst);
                    return Err(sync_error());
                }
            }
            MutKind::Other => {}
        }

        // 3. The seeded plan.
        if let Some(plan) = &mut self.plan {
            if let Some(fault) = plan.next_action() {
                ctl.injected.fetch_add(1, Ordering::SeqCst);
                match (fault, kind) {
                    (DiskFault::Short { keep_permille }, MutKind::Payload) => {
                        return Ok(Some(keep_permille))
                    }
                    (DiskFault::Torn { keep_permille }, MutKind::Payload) => {
                        self.ctl.inner.crashed.store(true, Ordering::SeqCst);
                        return Ok(Some(keep_permille));
                    }
                    (DiskFault::SyncFail, MutKind::Sync) => return Err(sync_error()),
                    (DiskFault::Enospc, MutKind::Payload) => return Err(enospc_error()),
                    (DiskFault::Crash(CrashFlavor::Before), _) => return Err(self.die()),
                    (DiskFault::Crash(CrashFlavor::Torn), MutKind::Payload) => {
                        self.ctl.inner.crashed.store(true, Ordering::SeqCst);
                        return Ok(Some(500));
                    }
                    (DiskFault::Crash(_), _) => return Err(self.die()),
                    // A drawn fault that does not apply to this op kind
                    // passes the op through faithfully.
                    _ => {}
                }
            }
        }
        Ok(None)
    }

    /// After a faithful inner call, raise the crash error if the
    /// schedule marked this op as crash-after (the op landed, the caller
    /// never learns).
    fn seal(&self, partial: Option<u16>, result: io::Result<()>) -> io::Result<()> {
        result?;
        if self.ctl.crashed() {
            return Err(crash_error());
        }
        if partial.is_some() {
            return Err(short_write_error());
        }
        Ok(())
    }
}

fn keep_prefix(bytes: &[u8], keep_permille: u16) -> &[u8] {
    if bytes.is_empty() {
        return bytes;
    }
    let keep = (bytes.len() as u64 * keep_permille.min(1000) as u64 / 1000) as usize;
    &bytes[..keep.min(bytes.len() - 1)]
}

impl<D: DiskIo> DiskIo for FaultyDisk<D> {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        let partial = self.admit_mutation(MutKind::Other)?;
        let res = self.inner.create_dir_all(dir);
        self.seal(partial, res)
    }

    fn read_dir(&mut self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.check_alive()?;
        self.inner.read_dir(dir)
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        self.inner.read(path)
    }

    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let partial = self.admit_mutation(MutKind::Payload)?;
        let res = match partial {
            Some(p) => self.inner.write(path, keep_prefix(bytes, p)),
            None => self.inner.write(path, bytes),
        };
        self.seal(partial, res)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let partial = self.admit_mutation(MutKind::Payload)?;
        let res = match partial {
            Some(p) => self.inner.append(path, keep_prefix(bytes, p)),
            None => self.inner.append(path, bytes),
        };
        self.seal(partial, res)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let partial = self.admit_mutation(MutKind::Other)?;
        let res = self.inner.rename(from, to);
        self.seal(partial, res)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        let partial = self.admit_mutation(MutKind::Other)?;
        let res = self.inner.remove(path);
        self.seal(partial, res)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        let partial = self.admit_mutation(MutKind::Sync)?;
        let res = self.inner.sync(path);
        self.seal(partial, res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("leaksig-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_list_roundtrip() {
        assert_eq!(
            DiskFaultKind::parse_list("torn,crash").unwrap(),
            vec![DiskFaultKind::TornRecord, DiskFaultKind::Crash]
        );
        assert_eq!(
            DiskFaultKind::parse_list("all").unwrap(),
            DiskFaultKind::ALL.to_vec()
        );
        assert!(DiskFaultKind::parse_list("fire").is_err());
        for &kind in DiskFaultKind::ALL {
            assert_eq!(DiskFaultKind::parse(kind.label()), Some(kind));
        }
    }

    #[test]
    fn crash_before_leaves_nothing_and_kills_all_later_io() {
        let dir = tmp("before");
        let (mut disk, ctl) = FaultyDisk::new(RealDisk);
        disk.append(&dir.join("log"), b"first").unwrap();
        ctl.arm_crash(1, CrashFlavor::Before);
        assert!(disk.append(&dir.join("log"), b"second").is_err());
        assert!(ctl.crashed());
        // The armed op never landed.
        assert_eq!(std::fs::read(dir.join("log")).unwrap(), b"first");
        // A dead process does no I/O of any kind.
        assert!(disk.read(&dir.join("log")).is_err());
        assert!(disk.append(&dir.join("log"), b"x").is_err());
        assert!(disk.sync(&dir.join("log")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_torn_lands_a_prefix() {
        let dir = tmp("torn");
        let (mut disk, ctl) = FaultyDisk::new(RealDisk);
        ctl.arm_crash(0, CrashFlavor::Torn);
        assert!(disk.append(&dir.join("log"), b"0123456789").is_err());
        assert!(ctl.crashed());
        let on_disk = std::fs::read(dir.join("log")).unwrap();
        assert!(
            !on_disk.is_empty() && on_disk.len() < 10,
            "torn: {on_disk:?}"
        );
        assert!(b"0123456789".starts_with(&on_disk[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_lands_fully_but_reports_death() {
        let dir = tmp("after");
        let (mut disk, ctl) = FaultyDisk::new(RealDisk);
        ctl.arm_crash(0, CrashFlavor::After);
        assert!(disk.append(&dir.join("log"), b"whole").is_err());
        assert!(ctl.crashed());
        assert_eq!(std::fs::read(dir.join("log")).unwrap(), b"whole");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sick_disk_toggles_fire_and_heal() {
        let dir = tmp("sick");
        let (mut disk, ctl) = FaultyDisk::new(RealDisk);
        let log = dir.join("log");

        ctl.set_fail_space(true);
        assert!(disk.append(&log, b"never").is_err());
        assert!(!log.exists(), "ENOSPC writes nothing");

        ctl.set_fail_space(false);
        ctl.set_short_writes(true);
        assert!(disk.append(&log, b"0123456789").is_err());
        let landed = std::fs::read(&log).unwrap();
        assert_eq!(landed, b"01234", "half the bytes persisted");

        ctl.set_short_writes(false);
        ctl.set_fail_sync(true);
        disk.append(&log, b"rest").unwrap();
        assert!(disk.sync(&log).is_err());
        ctl.set_fail_sync(false);
        disk.sync(&log).unwrap();

        assert!(!ctl.crashed(), "sick is not dead");
        assert!(ctl.injected() >= 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mutation_counter_indexes_only_mutations() {
        let dir = tmp("count");
        let (mut disk, ctl) = FaultyDisk::new(RealDisk);
        let log = dir.join("log");
        disk.append(&log, b"a").unwrap();
        disk.read(&log).unwrap();
        disk.read_dir(&dir).unwrap();
        disk.write(&log, b"b").unwrap();
        disk.sync(&log).unwrap();
        assert_eq!(ctl.mutations(), 3, "reads are not schedulable points");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let run = |seed| {
            let dir = tmp(&format!("plan{seed}"));
            let (mut disk, ctl) =
                FaultyDisk::with_plan(RealDisk, DiskFaultPlan::new(seed, DiskFaultKind::ALL, 0.4));
            let mut outcomes = Vec::new();
            for i in 0..50 {
                if ctl.crashed() {
                    break;
                }
                outcomes.push(
                    disk.append(&dir.join("log"), format!("r{i}").as_bytes())
                        .is_ok(),
                );
            }
            let crashed = ctl.crashed();
            std::fs::remove_dir_all(&dir).unwrap();
            (outcomes, crashed)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }
}
