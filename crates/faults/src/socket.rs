//! Socket-level fault taxonomy: what a real TCP peer does to a
//! collection server's connections.
//!
//! The transport faults in the crate root mangle whole *exchanges*; the
//! ingest faults mangle whole *wire images*. Neither captures what an
//! actual socket sees: bytes arrive in arbitrary slices, clients stall
//! mid-frame for minutes (slowloris), connections die abruptly with
//! unsent halves of frames in flight, and some peers open a connection
//! only to speak garbage. Each [`SocketFaultKind`] is one of those
//! connection-level behaviours; a [`SocketFaultPlan`] draws a seeded
//! schedule of them — one draw per *connection* — so a chaos soak over a
//! real loopback listener replays identically from its seed.
//!
//! The plan itself is pure and deterministic (no sleeps, no I/O). The
//! component that *applies* a drawn fault to a live stream — chunked
//! writes, real stalls, abrupt closes — lives with the TCP client
//! (`leaksig-net`), keeping this crate free of wall-clock behaviour.

use crate::{Plan, Taxonomy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A class of injectable connection-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SocketFaultKind {
    /// The payload is written in tiny chunks so the server's reads are
    /// partial: every frame arrives split across arbitrary boundaries.
    Chop,
    /// The client sends a frame prefix, then goes silent mid-frame for
    /// longer than any honest pause (the slowloris move).
    Stall,
    /// The connection is torn down abruptly mid-frame (RST-style): the
    /// server sees a read error or EOF with a half frame buffered.
    Reset,
    /// Garbage bytes arrive where a frame header should be: the peer
    /// never speaks the protocol at all.
    Garbage,
    /// The client sends a clean prefix of a valid frame and then closes
    /// politely — a truncated upload, not a protocol violation.
    HalfFrame,
}

impl Taxonomy for SocketFaultKind {
    type Fault = SocketFault;
    const ALL: &'static [SocketFaultKind] = &[
        SocketFaultKind::Chop,
        SocketFaultKind::Stall,
        SocketFaultKind::Reset,
        SocketFaultKind::Garbage,
        SocketFaultKind::HalfFrame,
    ];
    const NOUN: &'static str = "socket fault";

    fn label(self) -> &'static str {
        match self {
            SocketFaultKind::Chop => "chop",
            SocketFaultKind::Stall => "stall",
            SocketFaultKind::Reset => "reset",
            SocketFaultKind::Garbage => "garbage",
            SocketFaultKind::HalfFrame => "halfframe",
        }
    }

    fn draw(self, rng: &mut StdRng) -> SocketFault {
        match self {
            SocketFaultKind::Chop => SocketFault::Chop {
                chunk: rng.random_range(1u16..16),
            },
            SocketFaultKind::Stall => SocketFault::Stall {
                keep_permille: rng.random_range(100u16..900),
                // Always long enough to trip any sane frame deadline,
                // short enough that a soak stays fast.
                ms: rng.random_range(300u64..600),
            },
            SocketFaultKind::Reset => SocketFault::Reset {
                keep_permille: rng.random_range(0u16..950),
            },
            SocketFaultKind::Garbage => SocketFault::Garbage {
                bytes: rng.random_range(8u16..256),
                seed: rng.random(),
            },
            SocketFaultKind::HalfFrame => SocketFault::HalfFrame {
                keep_permille: rng.random_range(50u16..950),
            },
        }
    }
}

/// One concrete drawn connection fault, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// Write the payload in chunks of `chunk` bytes each.
    Chop {
        /// Bytes per write (≥ 1).
        chunk: u16,
    },
    /// Send `keep_permille`/1000 of the payload, then stay silent for
    /// `ms` real milliseconds before (attempting to) send the rest.
    Stall {
        /// Fraction of the payload sent before the stall, in permille.
        keep_permille: u16,
        /// Silence duration in milliseconds; the applier clamps this to
        /// its own budget, but it always exceeds an honest pause.
        ms: u64,
    },
    /// Send `keep_permille`/1000 of the payload, then tear the
    /// connection down without shutdown.
    Reset {
        /// Fraction of the payload sent before the teardown, in permille.
        keep_permille: u16,
    },
    /// Send `bytes` seeded garbage bytes instead of a frame header.
    Garbage {
        /// Garbage byte count (≥ 1).
        bytes: u16,
        /// Seed for the garbage content.
        seed: u64,
    },
    /// Send `keep_permille`/1000 of the payload, then close cleanly.
    HalfFrame {
        /// Fraction of the payload sent before the close, in permille.
        keep_permille: u16,
    },
}

impl SocketFault {
    /// The kind of this fault.
    pub fn kind(self) -> SocketFaultKind {
        match self {
            SocketFault::Chop { .. } => SocketFaultKind::Chop,
            SocketFault::Stall { .. } => SocketFaultKind::Stall,
            SocketFault::Reset { .. } => SocketFaultKind::Reset,
            SocketFault::Garbage { .. } => SocketFaultKind::Garbage,
            SocketFault::HalfFrame { .. } => SocketFaultKind::HalfFrame,
        }
    }
}

/// Seeded garbage bytes for [`SocketFault::Garbage`] preambles. The
/// first byte is forced outside the ASCII range every frame magic uses,
/// so a garbage preamble can never masquerade as a valid header prefix.
pub fn garbage_preamble(seed: u64, bytes: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(bytes.max(1));
    out.push(rng.random_range(0x80u8..=0xFF));
    for _ in 1..bytes.max(1) {
        out.push(rng.random());
    }
    out
}

/// The connection plan: one draw per connection.
pub type SocketFaultPlan = Plan<SocketFaultKind>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_list_mirrors_other_plans() {
        assert_eq!(
            SocketFaultKind::parse_list("chop,garbage").unwrap(),
            vec![SocketFaultKind::Chop, SocketFaultKind::Garbage]
        );
        assert_eq!(
            SocketFaultKind::parse_list("garbage, chop ,garbage,").unwrap(),
            vec![SocketFaultKind::Chop, SocketFaultKind::Garbage]
        );
        assert_eq!(
            SocketFaultKind::parse_list("all").unwrap(),
            SocketFaultKind::ALL.to_vec()
        );
        assert_eq!(SocketFaultKind::parse_list("").unwrap(), vec![]);
        assert!(SocketFaultKind::parse_list("chop,sharks").is_err());
        for &kind in SocketFaultKind::ALL {
            assert_eq!(SocketFaultKind::parse(kind.label()), Some(kind));
        }
    }

    #[test]
    fn plans_are_deterministic_and_respect_kinds() {
        let mut a = SocketFaultPlan::chaos(17, 0.5);
        let mut b = SocketFaultPlan::chaos(17, 0.5);
        let da: Vec<_> = (0..300).map(|_| a.next_action()).collect();
        let db: Vec<_> = (0..300).map(|_| b.next_action()).collect();
        assert_eq!(da, db);
        assert!(a.injected() > 0, "intensity 0.5 over 300 draws must fire");
        let mut c = SocketFaultPlan::chaos(18, 0.5);
        let dc: Vec<_> = (0..300).map(|_| c.next_action()).collect();
        assert_ne!(da, dc, "different seed, different schedule");

        let mut only = SocketFaultPlan::new(3, &[SocketFaultKind::Reset], 1.0);
        for _ in 0..50 {
            let f = only.next_action().expect("intensity 1.0 always fires");
            assert_eq!(f.kind(), SocketFaultKind::Reset);
        }
        let mut quiet = SocketFaultPlan::new(3, &[], 1.0);
        assert_eq!(quiet.next_action(), None);
    }

    #[test]
    fn stalls_always_outlast_honest_pauses() {
        let mut plan = SocketFaultPlan::new(5, &[SocketFaultKind::Stall], 1.0);
        for _ in 0..100 {
            let Some(SocketFault::Stall { ms, keep_permille }) = plan.next_action() else {
                panic!("stall-only plan must draw stalls");
            };
            assert!((300..600).contains(&ms));
            assert!((100..900).contains(&keep_permille));
        }
    }

    #[test]
    fn garbage_preamble_is_seeded_and_never_a_header_prefix() {
        let a = garbage_preamble(9, 64);
        let b = garbage_preamble(9, 64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a[0] >= 0x80, "first byte must leave ASCII");
        assert_ne!(garbage_preamble(10, 64), a);
        assert_eq!(garbage_preamble(9, 0).len(), 1, "at least one byte");
    }
}
