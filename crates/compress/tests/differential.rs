//! Differential oracle for the LZSS match finder.
//!
//! `reference/` holds the insertion-based hash-chain encoder the indexed
//! match finder replaced, verbatim: a `head` table and a `prev` ring
//! filled as the encoder advances, and a resumable prefix that journals
//! its insertions and undoes them after every `concat_len`. The indexed
//! finder must reproduce it exactly — the same `compress` bytes, the same
//! `compressed_len`, and the same `prefix(x).concat_len(y)` — for every
//! chain depth, on inputs longer than the 4096-byte window, on runs longer
//! than the 8192-byte match cap, on operands shorter than a 3-byte hash
//! window, and on runs of continuations that share long prefixes, where
//! each `concat_len` resumes the previous one's encode.

mod reference;

use leaksig_compress::{Compressor, IndexedBytes, Lzss};
use proptest::prelude::*;

/// A pseudo-random filler with no repeated 3-byte windows nearby.
fn filler(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_add(seed).wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect()
}

/// HTTP-ish and arbitrary bytes, plus the shapes that stress the window,
/// the match cap and the sub-window edge cases.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..1024),
        "[a-z0-9&=/?.:-]{0,400}".prop_map(|s| s.into_bytes()),
        ("[a-z=&]{1,40}", 1usize..50).prop_map(|(s, n)| s.repeat(n).into_bytes()),
        // Shorter than a hash window.
        proptest::collection::vec(any::<u8>(), 0..3),
        // Longer than the window over a 4-letter alphabet: deep chains.
        proptest::collection::vec(0u8..4, 4097..6000),
        // A run longer than the match cap, then a short tail.
        (
            any::<u8>(),
            8193usize..9000,
            proptest::collection::vec(any::<u8>(), 0..8)
        )
            .prop_map(|(b, n, tail)| {
                let mut v = vec![b; n];
                v.extend(tail);
                v
            }),
        // A block repeated across the window edge: its only match lies
        // just inside or just outside the window.
        (
            proptest::collection::vec(any::<u8>(), 16..64),
            4000usize..4200,
            any::<u32>()
        )
            .prop_map(|(block, gap, seed)| {
                let mut v = block.clone();
                v.extend(filler(gap, seed));
                v.extend(block);
                v
            }),
    ]
}

/// `(x, y)` pairs: independent, or `y` sharing a stretch of `x` so that
/// matches reach back across the boundary.
fn pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    prop_oneof![
        (payload(), payload()),
        (
            payload(),
            0usize..2048,
            proptest::collection::vec(any::<u8>(), 0..8)
        )
            .prop_map(|(x, skip, tail)| {
                let mut y = x[skip.min(x.len())..].to_vec();
                y.extend(tail);
                (x, y)
            }),
    ]
}

/// An `x` and continuations cut from one base string — a prefix of the
/// base plus a short tail — so that consecutive ones share long prefixes
/// and part at a byte the base may or may not repeat. `x` is another cut
/// of the base or an independent payload.
fn prefix_family() -> impl Strategy<Value = (Vec<u8>, Vec<Vec<u8>>)> {
    let tail = prop_oneof![
        "[a-c=&]{0,6}".prop_map(String::into_bytes),
        proptest::collection::vec(any::<u8>(), 0..4),
    ];
    (
        payload(),
        prop_oneof![(0usize..2048).prop_map(Some), Just(None)],
        payload(),
        proptest::collection::vec((0usize..9000, tail), 1..12),
    )
        .prop_map(|(base, x_cut, other, cuts)| {
            let x = match x_cut {
                Some(cut) => base[..cut.min(base.len())].to_vec(),
                None => other,
            };
            let ys = cuts
                .into_iter()
                .map(|(cut, tail)| concat(&base[..cut.min(base.len())], &tail))
                .collect();
            (x, ys)
        })
}

fn concat(x: &[u8], y: &[u8]) -> Vec<u8> {
    let mut xy = x.to_vec();
    xy.extend_from_slice(y);
    xy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compress_matches_reference(data in payload(), chain in 1usize..64) {
        let (ours, theirs) = (Lzss::with_max_chain(chain), reference::Lzss::with_max_chain(chain));
        prop_assert_eq!(ours.compress(&data), theirs.compress(&data));
        prop_assert_eq!(ours.compressed_len(&data), theirs.compressed_len(&data));
    }

    /// One prefix serves every continuation, forward and then in reverse,
    /// and each answer equals the journaled reference's.
    #[test]
    fn prefix_concat_len_matches_reference(
        x in payload(),
        ys in proptest::collection::vec(payload(), 1..5),
        chain in 1usize..64,
    ) {
        let (ours, theirs) = (Lzss::with_max_chain(chain), reference::Lzss::with_max_chain(chain));
        let indexed_x = IndexedBytes::new(x.clone());
        let indexed_ys: Vec<IndexedBytes> = ys.iter().map(|y| IndexedBytes::new(y.clone())).collect();
        let mut p = ours.prefix(&indexed_x);
        let mut q = theirs.prefix(&x);
        for (y, indexed_y) in ys.iter().zip(&indexed_ys) {
            prop_assert_eq!(p.concat_len(indexed_y), q.concat_len(y));
        }
        for (y, indexed_y) in ys.iter().zip(&indexed_ys).rev() {
            prop_assert_eq!(p.concat_len(indexed_y), q.concat_len(y));
        }
    }

    #[test]
    fn related_pairs_match_reference(xy in pair(), chain in 1usize..64) {
        let (x, y) = xy;
        let (ours, theirs) = (Lzss::with_max_chain(chain), reference::Lzss::with_max_chain(chain));
        let want = theirs.compressed_len(&concat(&x, &y));
        let (indexed_x, indexed_y) = (IndexedBytes::new(x.clone()), IndexedBytes::new(y.clone()));
        prop_assert_eq!(ours.prefix(&indexed_x).concat_len(&indexed_y), want);
        prop_assert_eq!(theirs.prefix(&x).concat_len(&y), want);
        // The reverse pair, through the same indexes.
        let want = theirs.compressed_len(&concat(&y, &x));
        prop_assert_eq!(ours.prefix(&indexed_y).concat_len(&indexed_x), want);
    }

    /// Continuations sharing prefixes, in the order drawn and in byte
    /// order, each through one prefix: every answer resumes the previous
    /// encode and must equal the journaled reference's.
    #[test]
    fn shared_prefix_continuations_match_reference(
        family in prefix_family(),
        chain in 1usize..64,
    ) {
        let (x, mut ys) = family;
        let (ours, theirs) = (Lzss::with_max_chain(chain), reference::Lzss::with_max_chain(chain));
        let indexed_x = IndexedBytes::new(x.clone());
        for sorted in [false, true] {
            if sorted {
                ys.sort();
            }
            let mut p = ours.prefix(&indexed_x);
            let mut q = theirs.prefix(&x);
            for y in &ys {
                prop_assert_eq!(p.concat_len(&IndexedBytes::new(y.clone())), q.concat_len(y));
            }
        }
    }

    /// Operands shorter than a hash window on either side, where the only
    /// chain entries are the positions that straddle the boundary.
    #[test]
    fn tiny_operands_match_reference(
        x in "[ab]{0,5}",
        y in "[ab]{0,5}",
        chain in 1usize..64,
    ) {
        let (ours, theirs) = (Lzss::with_max_chain(chain), reference::Lzss::with_max_chain(chain));
        let (x, y) = (x.into_bytes(), y.into_bytes());
        let (indexed_x, indexed_y) = (IndexedBytes::new(x.clone()), IndexedBytes::new(y.clone()));
        prop_assert_eq!(
            ours.prefix(&indexed_x).concat_len(&indexed_y),
            theirs.prefix(&x).concat_len(&y)
        );
    }
}
