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
//! * [`FaultKind`] — the five fault classes a transfer can suffer;
//! * [`FaultPlan`] — a seeded schedule that decides, per fetch attempt,
//!   whether (and which) fault fires, with kind-specific parameters drawn
//!   from the same stream (fully reproducible: same seed, same faults);
//! * [`FaultAction`] — one concrete injected fault;
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
    crash_error, CrashFlavor, DiskFaultControls, DiskFaultKind, DiskFaultPlan, DiskIo, FaultyDisk,
    RealDisk,
};
pub use ingest::{apply_ingest_fault, IngestFault, IngestFaultKind, IngestFaultPlan};
pub use socket::{garbage_preamble, SocketFault, SocketFaultKind, SocketFaultPlan};

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

impl FaultKind {
    /// Every fault kind, in canonical order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Duplicate,
        FaultKind::Truncate,
        FaultKind::Corrupt,
    ];

    /// Stable lower-case label (CLI `--faults` syntax, event logs).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Truncate => "truncate",
            FaultKind::Corrupt => "corrupt",
        }
    }

    /// Parse one label.
    pub fn parse(label: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Parse a comma-separated fault list (`"drop,corrupt"`). The
    /// wildcard `"all"` enables every kind. Duplicates are collapsed;
    /// order follows [`FaultKind::ALL`], not the input.
    pub fn parse_list(list: &str) -> Result<Vec<FaultKind>, String> {
        let mut enabled = [false; FaultKind::ALL.len()];
        for part in list.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if part == "all" {
                enabled = [true; FaultKind::ALL.len()];
                continue;
            }
            match FaultKind::parse(part) {
                Some(kind) => enabled[kind as usize] = true,
                None => {
                    return Err(format!(
                        "unknown fault {part:?} (expected one of drop, delay, duplicate, \
                         truncate, corrupt, all)"
                    ))
                }
            }
        }
        Ok(FaultKind::ALL
            .into_iter()
            .filter(|k| enabled[*k as usize])
            .collect())
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
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

/// A seeded fault schedule: one draw per fetch attempt.
///
/// With probability `intensity` the attempt suffers a fault, chosen
/// uniformly among the enabled kinds with parameters drawn from the same
/// seeded stream. The plan is `Clone`, so a scenario can be replayed
/// byte-for-byte from a saved copy.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: StdRng,
    kinds: Vec<FaultKind>,
    intensity: f64,
    injected: u64,
}

impl FaultPlan {
    /// A plan injecting `kinds` with per-attempt probability `intensity`
    /// (clamped to `[0, 1]`), driven by `seed`. An empty kind list yields
    /// a plan that never fires.
    pub fn new(seed: u64, kinds: &[FaultKind], intensity: f64) -> Self {
        let mut uniq: Vec<FaultKind> = Vec::new();
        for &k in kinds {
            if !uniq.contains(&k) {
                uniq.push(k);
            }
        }
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            kinds: uniq,
            intensity: intensity.clamp(0.0, 1.0),
            injected: 0,
        }
    }

    /// A plan that injects every fault kind.
    pub fn chaos(seed: u64, intensity: f64) -> Self {
        FaultPlan::new(seed, &FaultKind::ALL, intensity)
    }

    /// A plan that never injects anything.
    pub fn quiet() -> Self {
        FaultPlan::new(0, &[], 0.0)
    }

    /// Decide the fate of the next attempt: `None` = deliver faithfully.
    pub fn next_action(&mut self) -> Option<FaultAction> {
        if self.kinds.is_empty() || !self.rng.random_bool(self.intensity) {
            return None;
        }
        let kind = self.kinds[self.rng.random_range(0..self.kinds.len() as u64) as usize];
        let action = match kind {
            FaultKind::Drop => FaultAction::Drop,
            FaultKind::Delay => FaultAction::Delay {
                ms: self.rng.random_range(50u64..4000),
            },
            FaultKind::Duplicate => FaultAction::Duplicate,
            FaultKind::Truncate => FaultAction::Truncate {
                keep_permille: self.rng.random_range(0u16..1000),
            },
            FaultKind::Corrupt => FaultAction::Corrupt {
                flips: self.rng.random_range(1u8..8),
                seed: self.rng.random(),
            },
        };
        self.injected += 1;
        Some(action)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Enabled fault kinds (canonical order, deduplicated).
    pub fn kinds(&self) -> &[FaultKind] {
        &self.kinds
    }
}

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
        assert_eq!(FaultKind::parse_list("all").unwrap(), FaultKind::ALL.to_vec());
        assert_eq!(FaultKind::parse_list("").unwrap(), vec![]);
        assert!(FaultKind::parse_list("drop,fire").is_err());
        for kind in FaultKind::ALL {
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
        let mut q = FaultPlan::quiet();
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
}
