#![warn(missing_docs)]
//! `leaksig-faults` — seeded, deterministic fault injection for the
//! signature-distribution path.
//!
//! The paper's Fig. 3 ships signature sets from the clustering server to
//! on-device enforcement apps over real mobile networks. Real handsets
//! see dropped connections, stalls, duplicated and reordered datagrams,
//! truncated transfers, and bit-flipped payloads; a reproduction that
//! models that arrow as an infallible in-process call proves nothing
//! about the recovery logic. This crate provides the adversary:
//!
//! * [`Taxonomy`] — what a fault class enum supplies: its kinds, their
//!   labels, and how one kind draws its parameters; every taxonomy shares
//!   one comma-separated list parser ([`Taxonomy::parse_list`]);
//! * [`Plan`] — the one seeded schedule: per attempt it decides whether
//!   (and which) fault fires, with kind-specific parameters drawn from the
//!   same stream (fully reproducible: same seed, same faults);
//! * [`FaultKind`] / [`FaultAction`] / [`FaultPlan`] — the five fault
//!   classes a transfer can suffer, one drawn fault, and their plan;
//! * byte-mangling helpers ([`truncate_bytes`], [`flip_bytes`]) shared by
//!   the transport wrapper and the tests;
//! * [`ingest`] — the *inbound* taxonomy: what raw mobile traffic does to
//!   a collection server's intake (garbage bytes, oversized declarations,
//!   header bombs, duplicate floods, slow-drip truncation);
//! * [`socket`] — the *connection-level* taxonomy: what a real TCP peer
//!   does to a listening collection server (chopped writes, mid-frame
//!   stalls, abrupt resets, garbage preambles, half-frame disconnects).
//! * [`disk`] — the *storage-level* taxonomy: what a real filesystem
//!   does to the durable stores (short writes, torn records, fsync
//!   failure, ENOSPC, a crash at any mutating I/O point).
//!
//! Everything here is *logical*: delays are millisecond numbers carried in
//! the result, never real sleeps, so chaos tests run at full speed and
//! stay deterministic.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub mod disk;
pub mod ingest;
pub mod socket;

pub use disk::{
    crash_error, CrashFlavor, DiskFault, DiskFaultControls, DiskFaultKind, DiskFaultPlan, DiskIo,
    FaultyDisk, RealDisk,
};
pub use ingest::{apply_ingest_fault, IngestFault, IngestFaultKind, IngestFaultPlan};
pub use socket::{garbage_preamble, SocketFault, SocketFaultKind, SocketFaultPlan};

/// The kind enum of one seeded fault taxonomy: transport ([`FaultKind`]),
/// intake ([`IngestFaultKind`]), socket ([`SocketFaultKind`]) or disk
/// ([`DiskFaultKind`]).
///
/// A taxonomy names its kinds and says how one kind draws its
/// parameters; [`Plan`] supplies the seeded schedule around that draw.
pub trait Taxonomy: Copy + PartialEq + 'static {
    /// One drawn fault, with its parameters.
    type Fault;
    /// Every kind, in canonical order.
    const ALL: &'static [Self];
    /// What parse errors call one kind (`"ingest fault"`).
    const NOUN: &'static str;

    /// Stable lower-case label (CLI list syntax, event logs).
    fn label(self) -> &'static str;

    /// Draw this kind's parameters from the plan's stream.
    fn draw(self, rng: &mut StdRng) -> Self::Fault;

    /// Parse one label.
    fn parse(label: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|k| k.label() == label)
    }

    /// Parse a comma-separated list (`"drop,corrupt"`). The wildcard
    /// `"all"` enables every kind. Blanks are ignored, duplicates
    /// collapse, and the order follows [`Taxonomy::ALL`], not the input.
    fn parse_list(list: &str) -> Result<Vec<Self>, String> {
        let mut enabled = Vec::new();
        for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match Self::parse(part) {
                Some(kind) => enabled.push(kind),
                None if part == "all" => enabled.extend_from_slice(Self::ALL),
                None => {
                    let labels: Vec<&str> = Self::ALL.iter().map(|k| k.label()).collect();
                    return Err(format!(
                        "unknown {} {part:?} (expected one of {}, all)",
                        Self::NOUN,
                        labels.join(", ")
                    ));
                }
            }
        }
        Ok(Self::ALL
            .iter()
            .copied()
            .filter(|k| enabled.contains(k))
            .collect())
    }
}

/// A seeded fault schedule over one [`Taxonomy`]: one draw per attempt
/// (a fetch, an arriving wire image, a connection or a mutating disk
/// operation).
///
/// With probability `intensity` the attempt suffers a fault, chosen
/// uniformly among the enabled kinds, with the kind's parameters drawn
/// from the same seeded stream. The plan is `Clone`, so a scenario can be
/// replayed byte-for-byte from a saved copy: same seed, same faults.
#[derive(Debug, Clone)]
pub struct Plan<K> {
    rng: StdRng,
    kinds: Vec<K>,
    intensity: f64,
    injected: u64,
}

impl<K: Taxonomy> Plan<K> {
    /// A plan injecting `kinds` with per-attempt probability `intensity`
    /// (clamped to `[0, 1]`), driven by `seed`. Duplicate kinds collapse;
    /// an empty kind list yields a plan that never fires.
    pub fn new(seed: u64, kinds: &[K], intensity: f64) -> Self {
        let mut uniq: Vec<K> = Vec::new();
        for &k in kinds {
            if !uniq.contains(&k) {
                uniq.push(k);
            }
        }
        Plan {
            rng: StdRng::seed_from_u64(seed),
            kinds: uniq,
            intensity: intensity.clamp(0.0, 1.0),
            injected: 0,
        }
    }

    /// A plan injecting every kind of the taxonomy.
    pub fn chaos(seed: u64, intensity: f64) -> Self {
        Plan::new(seed, K::ALL, intensity)
    }

    /// Decide the fate of the next attempt: `None` = no fault.
    pub fn next_action(&mut self) -> Option<K::Fault> {
        if self.kinds.is_empty() || !self.rng.random_bool(self.intensity) {
            return None;
        }
        let kind = self.kinds[self.rng.random_range(0..self.kinds.len() as u64) as usize];
        self.injected += 1;
        Some(kind.draw(&mut self.rng))
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

/// A class of injectable transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// The request or response vanishes entirely.
    Drop,
    /// The response arrives late (possibly beyond the client timeout).
    Delay,
    /// A stale earlier response is replayed instead of the current one.
    Duplicate,
    /// The response is cut short mid-payload.
    Truncate,
    /// Payload bytes are flipped in flight.
    Corrupt,
}

impl Taxonomy for FaultKind {
    type Fault = FaultAction;
    const ALL: &'static [FaultKind] = &[
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Duplicate,
        FaultKind::Truncate,
        FaultKind::Corrupt,
    ];
    const NOUN: &'static str = "fault";

    fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Truncate => "truncate",
            FaultKind::Corrupt => "corrupt",
        }
    }

    fn draw(self, rng: &mut StdRng) -> FaultAction {
        match self {
            FaultKind::Drop => FaultAction::Drop,
            FaultKind::Delay => FaultAction::Delay {
                ms: rng.random_range(50u64..4000),
            },
            FaultKind::Duplicate => FaultAction::Duplicate,
            FaultKind::Truncate => FaultAction::Truncate {
                keep_permille: rng.random_range(0u16..1000),
            },
            FaultKind::Corrupt => FaultAction::Corrupt {
                flips: rng.random_range(1u8..8),
                seed: rng.random(),
            },
        }
    }
}

/// One concrete injected fault, with its drawn parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Lose the exchange entirely.
    Drop,
    /// Deliver the response after `ms` logical milliseconds.
    Delay {
        /// Injected latency in logical milliseconds.
        ms: u64,
    },
    /// Replay the previous successful response instead of fetching.
    Duplicate,
    /// Keep only `keep_permille`/1000 of the payload bytes.
    Truncate {
        /// Surviving fraction of the payload, in permille (0..1000).
        keep_permille: u16,
    },
    /// Flip `flips` bytes at positions seeded by `seed`.
    Corrupt {
        /// Number of bytes to XOR-mangle.
        flips: u8,
        /// Seed for choosing positions and masks.
        seed: u64,
    },
}

impl FaultAction {
    /// The kind of this action.
    pub fn kind(self) -> FaultKind {
        match self {
            FaultAction::Drop => FaultKind::Drop,
            FaultAction::Delay { .. } => FaultKind::Delay,
            FaultAction::Duplicate => FaultKind::Duplicate,
            FaultAction::Truncate { .. } => FaultKind::Truncate,
            FaultAction::Corrupt { .. } => FaultKind::Corrupt,
        }
    }
}

/// The transport plan: one draw per fetch attempt.
pub type FaultPlan = Plan<FaultKind>;

/// Cut `data` down to `keep_permille`/1000 of its length (at least
/// removing one byte when the payload is non-empty, so a truncation fault
/// never degenerates into a faithful delivery).
pub fn truncate_bytes(data: &mut Vec<u8>, keep_permille: u16) {
    if data.is_empty() {
        return;
    }
    let keep = (data.len() as u64 * keep_permille.min(1000) as u64 / 1000) as usize;
    data.truncate(keep.min(data.len() - 1));
}

/// XOR-mangle `flips` bytes of `data` at seed-determined positions. The
/// mask is drawn from `1..=255`, so every flip really changes the byte.
pub fn flip_bytes(data: &mut [u8], seed: u64, flips: usize) {
    if data.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..flips {
        let pos = rng.random_range(0..data.len() as u64) as usize;
        let mask = rng.random_range(1u8..=255);
        data[pos] ^= mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_list_roundtrip() {
        assert_eq!(
            FaultKind::parse_list("drop,corrupt").unwrap(),
            vec![FaultKind::Drop, FaultKind::Corrupt]
        );
        // Order is canonical, duplicates collapse, blanks are ignored.
        assert_eq!(
            FaultKind::parse_list("corrupt, drop ,corrupt,").unwrap(),
            vec![FaultKind::Drop, FaultKind::Corrupt]
        );
        assert_eq!(
            FaultKind::parse_list("all").unwrap(),
            FaultKind::ALL.to_vec()
        );
        assert_eq!(FaultKind::parse_list("").unwrap(), vec![]);
        assert!(FaultKind::parse_list("drop,fire").is_err());
        for &kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.label()), Some(kind));
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let mut a = FaultPlan::chaos(42, 0.5);
        let mut b = FaultPlan::chaos(42, 0.5);
        let draws_a: Vec<_> = (0..200).map(|_| a.next_action()).collect();
        let draws_b: Vec<_> = (0..200).map(|_| b.next_action()).collect();
        assert_eq!(draws_a, draws_b);
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0, "intensity 0.5 over 200 draws must fire");
        // A different seed gives a different schedule.
        let mut c = FaultPlan::chaos(43, 0.5);
        let draws_c: Vec<_> = (0..200).map(|_| c.next_action()).collect();
        assert_ne!(draws_a, draws_c);
    }

    #[test]
    fn quiet_and_zero_intensity_never_fire() {
        let mut q = FaultPlan::new(0, &[], 0.0);
        let mut z = FaultPlan::chaos(7, 0.0);
        for _ in 0..100 {
            assert_eq!(q.next_action(), None);
            assert_eq!(z.next_action(), None);
        }
    }

    #[test]
    fn only_enabled_kinds_fire() {
        let mut plan = FaultPlan::new(9, &[FaultKind::Drop, FaultKind::Truncate], 1.0);
        for _ in 0..100 {
            let action = plan.next_action().expect("intensity 1.0 always fires");
            assert!(matches!(
                action.kind(),
                FaultKind::Drop | FaultKind::Truncate
            ));
        }
    }

    #[test]
    fn truncate_always_shortens_nonempty() {
        let mut data = vec![7u8; 100];
        truncate_bytes(&mut data, 1000);
        assert_eq!(data.len(), 99, "keep=1000‰ still removes one byte");
        let mut data = vec![7u8; 100];
        truncate_bytes(&mut data, 0);
        assert!(data.is_empty());
        let mut empty: Vec<u8> = vec![];
        truncate_bytes(&mut empty, 500);
        assert!(empty.is_empty());
    }

    #[test]
    fn flip_bytes_changes_and_is_deterministic() {
        let orig = vec![0u8; 64];
        let mut a = orig.clone();
        let mut b = orig.clone();
        flip_bytes(&mut a, 11, 4);
        flip_bytes(&mut b, 11, 4);
        assert_eq!(a, b);
        assert_ne!(a, orig, "non-zero mask guarantees a real change");
        flip_bytes(&mut [], 11, 4); // empty input: no panic
    }

    /// FNV-1a over the `Debug` text of a plan's first 64 draws: a change
    /// to the gate, the kind draw or any kind's parameter draws moves it.
    fn schedule_digest<F: std::fmt::Debug>(mut draw: impl FnMut() -> Option<F>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..64 {
            for b in format!("{:?};", draw()).bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The (seed, intensity) pairs every plan is pinned at, all kinds on.
    const PINS: [(u64, f64); 2] = [(7, 0.5), (2024, 0.85)];

    #[test]
    fn transport_schedule_is_pinned() {
        let all = PINS.map(|(seed, p)| {
            let mut plan = FaultPlan::chaos(seed, p);
            schedule_digest(|| plan.next_action())
        });
        let mut two = FaultPlan::new(3, &[FaultKind::Corrupt, FaultKind::Delay], 0.7);
        let got = (all, schedule_digest(|| two.next_action()));
        assert_eq!(
            got,
            (
                [0x6634_1a2c_db13_8fdb, 0x8ab9_2d9a_e522_39f4],
                0xcc5a_a414_dc50_4a38
            )
        );
    }

    #[test]
    fn ingest_schedule_is_pinned() {
        let all = PINS.map(|(seed, p)| {
            let mut plan = IngestFaultPlan::chaos(seed, p);
            schedule_digest(|| plan.next_action())
        });
        let two = [IngestFaultKind::SlowDrip, IngestFaultKind::Garbage];
        let mut two = IngestFaultPlan::new(3, &two, 0.7);
        let got = (all, schedule_digest(|| two.next_action()));
        assert_eq!(
            got,
            (
                [0xb8b1_54c5_b0b1_628b, 0x4053_6533_54c0_4c55],
                0x1969_ccc3_045e_7dab
            )
        );
    }

    #[test]
    fn socket_schedule_is_pinned() {
        let all = PINS.map(|(seed, p)| {
            let mut plan = SocketFaultPlan::chaos(seed, p);
            schedule_digest(|| plan.next_action())
        });
        let two = [SocketFaultKind::Stall, SocketFaultKind::Chop];
        let mut two = SocketFaultPlan::new(3, &two, 0.7);
        let got = (all, schedule_digest(|| two.next_action()));
        assert_eq!(
            got,
            (
                [0xc37d_9364_aa70_7da0, 0xeb5c_34fa_5fbc_e79b],
                0x2658_7bd9_d8e1_c138
            )
        );
    }

    #[test]
    fn disk_schedule_is_pinned() {
        let all = PINS.map(|(seed, p)| {
            let mut plan = DiskFaultPlan::chaos(seed, p);
            schedule_digest(|| plan.next_action())
        });
        let two = [DiskFaultKind::Crash, DiskFaultKind::TornRecord];
        let mut two = DiskFaultPlan::new(3, &two, 0.7);
        let got = (all, schedule_digest(|| two.next_action()));
        assert_eq!(
            got,
            (
                [0x643f_836f_721b_154c, 0x701e_d16b_96aa_87d9],
                0xc828_2b8a_678b_2c1e
            )
        );
    }

    #[test]
    fn unknown_labels_name_the_taxonomy_and_its_labels() {
        let errs = [
            FaultKind::parse_list("drop,fire").unwrap_err(),
            IngestFaultKind::parse_list("garbage,lava").unwrap_err(),
            SocketFaultKind::parse_list("chop,sharks").unwrap_err(),
            DiskFaultKind::parse_list("torn,flood").unwrap_err(),
        ];
        assert_eq!(
            errs,
            [
                "unknown fault \"fire\" (expected one of drop, delay, duplicate, truncate, \
                 corrupt, all)",
                "unknown ingest fault \"lava\" (expected one of garbage, oversize, headerbomb, \
                 dupflood, slowdrip, all)",
                "unknown socket fault \"sharks\" (expected one of chop, stall, reset, garbage, \
                 halfframe, all)",
                "unknown disk fault \"flood\" (expected one of shortwrite, torn, fsyncfail, \
                 enospc, crash, all)",
            ]
        );
    }
}
