//! Property tests for compressors and NCD.

use leaksig_compress::{ncd, ncd_from_lens, ncd_with_lens, Compressor, IndexedBytes, Lzss, Lzw};
use proptest::prelude::*;

/// Byte strings biased toward the repetitive, ASCII-ish content HTTP
/// packets actually contain, plus raw arbitrary bytes.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..1024),
        "[a-z0-9&=/?.:-]{0,400}".prop_map(|s| s.into_bytes()),
        ("[a-z=&]{1,40}", 1usize..50).prop_map(|(s, n)| s.repeat(n).into_bytes()),
    ]
}

proptest! {
    #[test]
    fn lzss_round_trip(data in payload()) {
        let c = Lzss::default();
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn lzss_round_trip_any_chain(data in payload(), chain in 1usize..64) {
        let c = Lzss::with_max_chain(chain);
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    #[test]
    fn lzw_round_trip(data in payload()) {
        let c = Lzw;
        prop_assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data);
    }

    /// Decoding arbitrary garbage must never panic — it either round-trips
    /// to *something* or returns a structured error.
    #[test]
    fn lzss_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Lzss::default().decompress(&data);
    }

    #[test]
    fn lzw_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Lzw.decompress(&data);
    }

    /// NCD stays within the normalised band (small ε above 1 tolerated).
    #[test]
    fn ncd_bounds(x in payload(), y in payload()) {
        let d = ncd(&Lzss::default(), &x, &y);
        prop_assert!(d >= 0.0, "ncd = {}", d);
        prop_assert!(d <= 1.5, "ncd = {}", d);
    }

    /// Self-distance is small relative to cross-distance against an
    /// incompressible foil, for non-trivial inputs.
    #[test]
    fn ncd_self_lt_random(x in "[a-z0-9&=]{40,200}") {
        let x = x.into_bytes();
        let foil: Vec<u8> = (0u32..x.len() as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let c = Lzss::default();
        let d_self = ncd(&c, &x, &x);
        let d_foil = ncd(&c, &x, &foil);
        prop_assert!(d_self <= d_foil + 0.05, "{} > {}", d_self, d_foil);
    }

    /// The count-only `compressed_len` overrides report exactly the
    /// length of the stream `compress` materializes — for every
    /// compressor, on every input.
    #[test]
    fn lzss_count_only_len_is_exact(data in payload()) {
        let c = Lzss::default();
        prop_assert_eq!(c.compressed_len(&data), c.compress(&data).len());
    }

    #[test]
    fn lzss_count_only_len_is_exact_any_chain(data in payload(), chain in 1usize..64) {
        let c = Lzss::with_max_chain(chain);
        prop_assert_eq!(c.compressed_len(&data), c.compress(&data).len());
    }

    #[test]
    fn lzw_count_only_len_is_exact(data in payload()) {
        prop_assert_eq!(Lzw.compressed_len(&data), Lzw.compress(&data).len());
    }

    /// Compression length is monotone-ish under concatenation:
    /// C(xy) ≤ C(x) + C(y) + slack (subadditivity, a normality axiom).
    #[test]
    fn lzss_subadditive(x in payload(), y in payload()) {
        let c = Lzss::default();
        let mut xy = x.clone();
        xy.extend_from_slice(&y);
        let cxy = c.compressed_len(&xy);
        let bound = c.compressed_len(&x) + c.compressed_len(&y) + 2;
        prop_assert!(cxy <= bound, "C(xy)={} > C(x)+C(y)+2={}", cxy, bound);
    }

    /// Resumable-prefix exactness: the snapshot-and-continue count equals
    /// the from-scratch `C(x ⊕ y)` byte-for-byte, and one prefix serves
    /// many `y` in any order without drifting (a call leaves no state
    /// behind). This is the invariant the whole row-major NCD matrix build
    /// rests on.
    #[test]
    fn lzss_prefix_concat_len_is_exact(
        x in payload(),
        ys in proptest::collection::vec(payload(), 1..6),
    ) {
        let c = Lzss::default();
        let indexed_x = IndexedBytes::new(x.clone());
        let mut prefix = c.prefix(&indexed_x);
        let mut expected = Vec::with_capacity(ys.len());
        for y in &ys {
            let mut xy = x.clone();
            xy.extend_from_slice(y);
            expected.push(c.compressed_len(&xy));
        }
        let ys: Vec<IndexedBytes> = ys.into_iter().map(IndexedBytes::new).collect();
        for (y, &want) in ys.iter().zip(&expected) {
            prop_assert_eq!(prefix.concat_len(y), want);
        }
        // Second sweep in reverse order against the same snapshot: state
        // reuse must be order-independent and repeatable.
        for (y, &want) in ys.iter().zip(&expected).rev() {
            prop_assert_eq!(prefix.concat_len(y), want);
        }
    }

    /// Exactness must hold for every chain-search depth, not just the
    /// default — shallow chains change which matches are found, not the
    /// snapshot-safety reasoning.
    #[test]
    fn lzss_prefix_exact_any_chain(x in payload(), y in payload(), chain in 1usize..64) {
        let c = Lzss::with_max_chain(chain);
        let mut xy = x.clone();
        xy.extend_from_slice(&y);
        prop_assert_eq!(
            c.prefix(&IndexedBytes::new(x)).concat_len(&IndexedBytes::new(y)),
            c.compressed_len(&xy)
        );
    }

    /// The trait-object path (`begin_prefix`) is the same computation,
    /// and `ncd_from_lens` over it reproduces `ncd_with_lens` exactly.
    #[test]
    fn prefix_ncd_equals_ncd_with_lens(x in payload(), y in payload()) {
        let c = Lzss::default();
        let (cx, cy) = (c.compressed_len(&x), c.compressed_len(&y));
        let direct = ncd_with_lens(&c, &x, cx, &y, cy);
        let indexed_x = IndexedBytes::new(x.clone());
        let mut p = c.begin_prefix(&indexed_x);
        let resumed = if x.is_empty() && y.is_empty() {
            0.0
        } else {
            ncd_from_lens(cx, cy, p.concat_len(&IndexedBytes::new(y)))
        };
        prop_assert_eq!(resumed, direct);
    }

    /// Adversarial boundary case for the snapshot-safety condition: `y`
    /// begins with a continuation of `x`'s tail, so matches near the end
    /// of `x` want to extend across the boundary. Also covers empty /
    /// sub-MIN_MATCH prefixes and suffixes.
    #[test]
    fn lzss_prefix_exact_on_boundary_overlap(
        stem in "[ab]{0,64}",
        tail_take in 0usize..64,
        extra in "[ab]{0,16}",
    ) {
        let c = Lzss::default();
        let x = stem.as_bytes().to_vec();
        let take = tail_take.min(x.len());
        let mut y = x[x.len() - take..].to_vec();
        y.extend_from_slice(extra.as_bytes());
        let mut xy = x.clone();
        xy.extend_from_slice(&y);
        prop_assert_eq!(
            c.prefix(&IndexedBytes::new(x)).concat_len(&IndexedBytes::new(y)),
            c.compressed_len(&xy)
        );
    }
}
