//! Normalized compression distance (Cilibrasi & Vitányi).
//!
//! `ncd(x, y) = (C(xy) − min(C(x), C(y))) / max(C(x), C(y))`
//!
//! For a normal compressor the value is ≈0 for highly similar strings and
//! ≈1 for unrelated ones; small excursions above 1 are expected from real
//! compressors' imperfections. The paper applies this to the request-line,
//! cookie, and message-body fields of HTTP packets (§IV-C).

use crate::Compressor;

/// NCD of `x` and `y` under compressor `c`.
///
/// Degenerate inputs: when both strings are empty the distance is `0.0`
/// (identical). When exactly one is empty, the formula still applies —
/// `C("")` is small but nonzero for framed compressors, which keeps the
/// result finite.
pub fn ncd<C: Compressor>(c: &C, x: &[u8], y: &[u8]) -> f64 {
    if x.is_empty() && y.is_empty() {
        return 0.0;
    }
    let cx = c.compressed_len(x);
    let cy = c.compressed_len(y);
    let mut xy = Vec::with_capacity(x.len() + y.len());
    xy.extend_from_slice(x);
    xy.extend_from_slice(y);
    let cxy = c.compressed_len(&xy);
    finish(cx, cy, cxy)
}

/// NCD where `C(x)` and `C(y)` have been precomputed by the caller.
///
/// Clustering evaluates O(n²) pairs over n packets; caching the n
/// single-string lengths leaves only the concatenation compression per
/// pair. `cx`/`cy` must come from the same compressor configuration as `c`.
pub fn ncd_with_lens<C: Compressor>(c: &C, x: &[u8], cx: usize, y: &[u8], cy: usize) -> f64 {
    if x.is_empty() && y.is_empty() {
        return 0.0;
    }
    let mut xy = Vec::with_capacity(x.len() + y.len());
    xy.extend_from_slice(x);
    xy.extend_from_slice(y);
    finish(cx, cy, c.compressed_len(&xy))
}

/// The NCD formula over already-measured compressed lengths: callers that
/// obtain `C(xy)` through a resumable [`crate::PrefixState`] finish the
/// distance here, with arithmetic identical to [`ncd_with_lens`].
///
/// Does **not** apply the two-empty-strings convention (`ncd` returns 0.0
/// there before measuring anything); callers replacing [`ncd_with_lens`]
/// must keep that check themselves.
pub fn ncd_from_lens(cx: usize, cy: usize, cxy: usize) -> f64 {
    finish(cx, cy, cxy)
}

fn finish(cx: usize, cy: usize, cxy: usize) -> f64 {
    let min = cx.min(cy);
    let max = cx.max(cy);
    if max == 0 {
        return 0.0;
    }
    // Clamp at 0: some compressors give C(xy) < min(C(x), C(y)) on tiny
    // inputs because of fixed framing; negative distances are meaningless.
    (cxy.saturating_sub(min)) as f64 / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lzss, Lzw};

    #[test]
    fn identical_strings_are_near_zero() {
        let c = Lzss::default();
        let x = b"GET /ad?androidid=f3a9c1d200b14e77&carrier=NTTDOCOMO HTTP/1.1".repeat(3);
        let d = ncd(&c, &x, &x);
        assert!(d < 0.25, "ncd(x,x) = {d}");
    }

    #[test]
    fn unrelated_strings_are_near_one() {
        let c = Lzss::default();
        // Two incompressible, unrelated buffers.
        let x: Vec<u8> = (0u32..800)
            .map(|i| (i.wrapping_mul(2654435761) >> 19) as u8)
            .collect();
        let y: Vec<u8> = (0u32..800)
            .map(|i| (i.wrapping_mul(334214467).wrapping_add(7) >> 11) as u8)
            .collect();
        let d = ncd(&c, &x, &y);
        assert!(d > 0.7, "ncd(unrelated) = {d}");
    }

    #[test]
    fn similar_beats_dissimilar() {
        let c = Lzss::default();
        let a = b"GET /getad?androidid=f3a9c1d200b14e77&carrier=NTTDOCOMO&slot=top HTTP/1.1";
        let b = b"GET /getad?androidid=99e8d7c6b5a43210&carrier=KDDI&slot=bottom HTTP/1.1";
        let z = b"POST /v2/sync/calendar/events?user=alice&tz=Asia%2FTokyo&page=4 HTTP/1.1";
        let dab = ncd(&c, a, b);
        let daz = ncd(&c, a, z);
        assert!(
            dab < daz,
            "same-template packets should be closer: {dab} vs {daz}"
        );
    }

    #[test]
    fn empty_inputs() {
        let c = Lzss::default();
        assert_eq!(ncd(&c, b"", b""), 0.0);
        let d = ncd(&c, b"", b"nonempty content here");
        assert!(d.is_finite() && d >= 0.0);
    }

    #[test]
    fn symmetry_is_approximate() {
        let c = Lzss::default();
        let x = b"imei=355195000000017&net=docomo";
        let y = b"udid=dd72cbaeab8d2e442d92e90c2e829e4b&v=2";
        let dxy = ncd(&c, x, y);
        let dyx = ncd(&c, y, x);
        assert!(
            (dxy - dyx).abs() < 0.15,
            "asymmetry too large: {dxy} vs {dyx}"
        );
    }

    #[test]
    fn cached_lengths_agree_with_direct() {
        let c = Lzss::default();
        let x = b"a=1&b=2&c=3&d=4".repeat(4);
        let y = b"a=9&b=8&c=7&d=6".repeat(4);
        let cx = c.compressed_len(&x);
        let cy = c.compressed_len(&y);
        assert_eq!(ncd(&c, &x, &y), ncd_with_lens(&c, &x, cx, &y, cy));
    }

    #[test]
    fn works_with_lzw_too() {
        let c = Lzw;
        let x = b"androidid=f3a9c1d200b14e77&carrier=NTTDOCOMO".repeat(4);
        let d_self = ncd(&c, &x, &x);
        let other: Vec<u8> = (0u32..600)
            .map(|i| (i.wrapping_mul(2654435761) >> 21) as u8)
            .collect();
        let d_other = ncd(&c, &x, &other);
        assert!(d_self < d_other, "{d_self} !< {d_other}");
    }
}
