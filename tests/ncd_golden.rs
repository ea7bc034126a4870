//! Golden checksums for the NCD content distance.
//!
//! The regeneration matrix is computed through resumable LZSS prefixes;
//! any change to the match finder must leave every compressed length, and
//! so every matrix cell, bit-for-bit the same. This test pins FNV-1a
//! checksums of
//!
//! * `C(field)` for the request line, cookie and body of every sampled
//!   packet (each length as 8 little-endian bytes), and
//! * every `pairwise` cell's `f64::to_bits` in condensed order,
//!
//! over three market seeds with N = 300 suspicious packets each. The
//! constants were captured from the hash-chain encoder that predates the
//! indexed match finder.

use leaksig::compress::{Compressor, Lzss};
use leaksig::core::prelude::*;
use leaksig::http::HttpPacket;
use leaksig::netsim::{Dataset, MarketConfig};

const N: usize = 300;

/// (market seed, FNV-1a of the field lengths, FNV-1a of the matrix cells).
const GOLDEN: [(u64, u64, u64); 3] = [
    (1, 0xd1408913cb7163c3, 0x54b4577774ff7e73),
    (4, 0xc7c4bd1f8b1567a3, 0xc5cab879e757a2de),
    (7, 0x86c35efd7b85feeb, 0xd41759ce2a01dab7),
];

fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn checksums(market_seed: u64) -> (u64, u64) {
    let data = Dataset::generate(MarketConfig::scaled(market_seed, 0.06));
    let sample: Vec<&HttpPacket> = data
        .packets
        .iter()
        .filter(|p| p.is_sensitive())
        .map(|p| &p.packet)
        .take(N)
        .collect();
    assert_eq!(sample.len(), N, "market {market_seed} too small");

    let c = Lzss::default();
    let mut lens = FNV_OFFSET;
    for p in &sample {
        let (rline, cookie, body) = p.content_fields();
        for field in [&rline[..], cookie, body] {
            lens = fnv1a(lens, &(c.compressed_len(field) as u64).to_le_bytes());
        }
    }

    let dist: PacketDistance = PacketDistance::default();
    let features: Vec<PacketFeatures> = sample.iter().map(|p| dist.features(p)).collect();
    let matrix = pairwise(&dist, &features);
    let mut cells = FNV_OFFSET;
    for i in 0..N {
        for j in i + 1..N {
            cells = fnv1a(cells, &matrix.get(i, j).to_bits().to_le_bytes());
        }
    }
    (lens, cells)
}

#[test]
fn ncd_lengths_and_matrix_match_golden_checksums() {
    let got: Vec<(u64, u64, u64)> = GOLDEN
        .iter()
        .map(|&(seed, _, _)| {
            let (lens, cells) = checksums(seed);
            (seed, lens, cells)
        })
        .collect();
    assert_eq!(got, GOLDEN, "got {got:#x?}");
}
