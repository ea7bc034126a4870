//! Ingestion fault taxonomy: what raw mobile traffic does to a
//! collection server's intake.
//!
//! The distribution faults in the crate root model the *outbound* arrow
//! of Fig. 3 (server → device). This module models the *inbound* arrow:
//! a market-scale collection server is fed captured HTTP bytes from
//! millions of handsets, and that stream contains garbage (middleboxes,
//! bit rot, hostile uploaders), oversized bodies, header bombs,
//! duplicate floods from retry storms, and connections that die
//! mid-request. Each [`IngestFaultKind`] is one of those classes; an
//! [`IngestFaultPlan`] draws a seeded schedule of them, and
//! [`apply_ingest_fault`] turns one drawn fault into a concrete mangling
//! of a wire image (plus a delivery count, for floods).
//!
//! Everything is deterministic under the seed, like the transport plan.

use crate::{flip_bytes, truncate_bytes, Plan, Taxonomy};
use rand::rngs::StdRng;
use rand::RngExt;

/// A class of intake fault a raw request stream can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IngestFaultKind {
    /// Bytes mangled anywhere in the request, request line included.
    Garbage,
    /// A `Content-Length` declaration far beyond any honest request.
    Oversize,
    /// Hundreds to thousands of junk header fields.
    HeaderBomb,
    /// The same request delivered several times back to back (retry
    /// storm / replaying uploader).
    DupFlood,
    /// The connection died mid-request: the wire image stops partway
    /// through the headers or body.
    SlowDrip,
}

impl Taxonomy for IngestFaultKind {
    type Fault = IngestFault;
    const ALL: &'static [IngestFaultKind] = &[
        IngestFaultKind::Garbage,
        IngestFaultKind::Oversize,
        IngestFaultKind::HeaderBomb,
        IngestFaultKind::DupFlood,
        IngestFaultKind::SlowDrip,
    ];
    const NOUN: &'static str = "ingest fault";

    fn label(self) -> &'static str {
        match self {
            IngestFaultKind::Garbage => "garbage",
            IngestFaultKind::Oversize => "oversize",
            IngestFaultKind::HeaderBomb => "headerbomb",
            IngestFaultKind::DupFlood => "dupflood",
            IngestFaultKind::SlowDrip => "slowdrip",
        }
    }

    fn draw(self, rng: &mut StdRng) -> IngestFault {
        match self {
            IngestFaultKind::Garbage => IngestFault::Garbage {
                seed: rng.random(),
                flips: rng.random_range(4u16..48),
            },
            IngestFaultKind::Oversize => IngestFault::Oversize {
                // 2 MiB .. 1 GiB: far past any honest intake limit.
                declared: rng.random_range(2u64 << 20..1 << 30),
            },
            IngestFaultKind::HeaderBomb => IngestFault::HeaderBomb {
                headers: rng.random_range(200u16..2000),
            },
            IngestFaultKind::DupFlood => IngestFault::DupFlood {
                copies: rng.random_range(2u8..9),
            },
            IngestFaultKind::SlowDrip => IngestFault::SlowDrip {
                keep_permille: rng.random_range(50u16..950),
            },
        }
    }
}

/// One concrete drawn intake fault, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestFault {
    /// XOR-mangle `flips` bytes at positions seeded by `seed`.
    Garbage {
        /// Seed for positions and masks.
        seed: u64,
        /// Number of bytes to flip.
        flips: u16,
    },
    /// Declare a body of `declared` bytes that will never arrive.
    Oversize {
        /// The dishonest `Content-Length` value.
        declared: u64,
    },
    /// Prepend `headers` junk header fields.
    HeaderBomb {
        /// Number of junk fields injected.
        headers: u16,
    },
    /// Deliver the request `copies` times total.
    DupFlood {
        /// Total deliveries (≥ 2).
        copies: u8,
    },
    /// Keep only `keep_permille`/1000 of the wire image.
    SlowDrip {
        /// Surviving fraction of the wire image, in permille.
        keep_permille: u16,
    },
}

impl IngestFault {
    /// The kind of this fault.
    pub fn kind(self) -> IngestFaultKind {
        match self {
            IngestFault::Garbage { .. } => IngestFaultKind::Garbage,
            IngestFault::Oversize { .. } => IngestFaultKind::Oversize,
            IngestFault::HeaderBomb { .. } => IngestFaultKind::HeaderBomb,
            IngestFault::DupFlood { .. } => IngestFaultKind::DupFlood,
            IngestFault::SlowDrip { .. } => IngestFaultKind::SlowDrip,
        }
    }
}

/// The intake plan: one draw per arriving wire image.
pub type IngestFaultPlan = Plan<IngestFaultKind>;

/// Apply one drawn fault to a wire image in place. Returns how many
/// times the (possibly mangled) image should be delivered — 1 for every
/// kind except [`IngestFault::DupFlood`].
pub fn apply_ingest_fault(fault: IngestFault, raw: &mut Vec<u8>) -> u32 {
    match fault {
        IngestFault::Garbage { seed, flips } => {
            flip_bytes(raw, seed, flips as usize);
            1
        }
        IngestFault::Oversize { declared } => {
            // Insert the dishonest declaration as the *first* header so a
            // parser honouring first-wins sees it before any honest one.
            let header = format!("Content-Length: {declared}\r\n").into_bytes();
            match raw.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let tail = raw.split_off(nl + 1);
                    raw.extend_from_slice(&header);
                    raw.extend_from_slice(&tail);
                }
                None => raw.extend_from_slice(&header),
            }
            1
        }
        IngestFault::HeaderBomb { headers } => {
            let mut bomb = Vec::with_capacity(headers as usize * 16);
            for i in 0..headers {
                bomb.extend_from_slice(format!("x-flood-{i}: {i}\r\n").as_bytes());
            }
            match raw.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let tail = raw.split_off(nl + 1);
                    raw.extend_from_slice(&bomb);
                    raw.extend_from_slice(&tail);
                }
                None => raw.extend_from_slice(&bomb),
            }
            1
        }
        IngestFault::DupFlood { copies } => copies.max(2) as u32,
        IngestFault::SlowDrip { keep_permille } => {
            truncate_bytes(raw, keep_permille);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_list_mirrors_transport_plan() {
        assert_eq!(
            IngestFaultKind::parse_list("garbage,slowdrip").unwrap(),
            vec![IngestFaultKind::Garbage, IngestFaultKind::SlowDrip]
        );
        assert_eq!(
            IngestFaultKind::parse_list("slowdrip, garbage ,slowdrip,").unwrap(),
            vec![IngestFaultKind::Garbage, IngestFaultKind::SlowDrip]
        );
        assert_eq!(
            IngestFaultKind::parse_list("all").unwrap(),
            IngestFaultKind::ALL.to_vec()
        );
        assert_eq!(IngestFaultKind::parse_list("").unwrap(), vec![]);
        assert!(IngestFaultKind::parse_list("garbage,lava").is_err());
        for &kind in IngestFaultKind::ALL {
            assert_eq!(IngestFaultKind::parse(kind.label()), Some(kind));
        }
    }

    #[test]
    fn plans_are_deterministic_and_respect_kinds() {
        let mut a = IngestFaultPlan::chaos(11, 0.5);
        let mut b = IngestFaultPlan::chaos(11, 0.5);
        let da: Vec<_> = (0..300).map(|_| a.next_action()).collect();
        let db: Vec<_> = (0..300).map(|_| b.next_action()).collect();
        assert_eq!(da, db);
        assert!(a.injected() > 0);
        let mut only = IngestFaultPlan::new(3, &[IngestFaultKind::DupFlood], 1.0);
        for _ in 0..50 {
            let f = only.next_action().expect("intensity 1.0 always fires");
            assert_eq!(f.kind(), IngestFaultKind::DupFlood);
        }
    }

    #[test]
    fn oversize_inserts_first_declaration() {
        let mut raw = b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc".to_vec();
        let n = apply_ingest_fault(IngestFault::Oversize { declared: 1 << 29 }, &mut raw);
        assert_eq!(n, 1);
        let text = String::from_utf8_lossy(&raw);
        let first_cl = text.find("Content-Length: 536870912").unwrap();
        let honest_cl = text.find("Content-Length: 3").unwrap();
        assert!(
            first_cl < honest_cl,
            "dishonest declaration must come first"
        );
        assert!(text.starts_with("POST /x HTTP/1.1\r\n"));
    }

    #[test]
    fn header_bomb_grows_header_section() {
        let mut raw = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n".to_vec();
        apply_ingest_fault(IngestFault::HeaderBomb { headers: 300 }, &mut raw);
        let text = String::from_utf8_lossy(&raw);
        assert_eq!(text.matches("x-flood-").count(), 300);
        assert!(text.starts_with("GET / HTTP/1.1\r\n"));
        assert!(text.ends_with("Host: h\r\n\r\n"));
    }

    #[test]
    fn dupflood_and_slowdrip() {
        let mut raw = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        let before = raw.clone();
        assert_eq!(
            apply_ingest_fault(IngestFault::DupFlood { copies: 5 }, &mut raw),
            5
        );
        assert_eq!(raw, before, "flood does not mangle the image");
        apply_ingest_fault(IngestFault::SlowDrip { keep_permille: 500 }, &mut raw);
        assert!(raw.len() < before.len());
        assert!(before.starts_with(&raw), "drip is a prefix cut");
    }

    #[test]
    fn garbage_is_seeded() {
        let orig = b"GET /abcdef HTTP/1.1\r\nHost: hh\r\n\r\n".to_vec();
        let (mut a, mut b) = (orig.clone(), orig.clone());
        let f = IngestFault::Garbage { seed: 9, flips: 6 };
        apply_ingest_fault(f, &mut a);
        apply_ingest_fault(f, &mut b);
        assert_eq!(a, b);
        assert_ne!(a, orig);
    }
}
