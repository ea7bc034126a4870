#![warn(missing_docs)]
//! String distances and common-substring machinery for `leaksig`.
//!
//! Two parts of the paper live here:
//!
//! * **HTTP host distance** (§IV-B) is a length-normalised Levenshtein edit
//!   distance over FQDN strings — [`levenshtein`], [`normalized_levenshtein`].
//! * **Conjunction signature generation** (§IV-E) needs the "longest common
//!   substrings" of a cluster of HTTP payloads: the invariant tokens shared
//!   by every member. [`common_tokens`] computes the maximal substrings (of
//!   a configurable minimum length) present in *all* of a set of strings,
//!   using a [`SuffixAutomaton`] per refinement step so the whole
//!   extraction is near-linear in total input size; [`fold_common_tokens`]
//!   derives a union's tokens from its two halves' tokens.
//!
//! Everything operates on `&[u8]`: HTTP payloads are byte strings and the
//! paper's distances are defined on raw packet content.

mod levenshtein;
mod sam;
mod tokens;

pub use levenshtein::{levenshtein, levenshtein_bounded, normalized_levenshtein};
pub use sam::SuffixAutomaton;
pub use tokens::{common_tokens, fold_common_tokens, longest_common_substring, TokenConfig};

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's host-distance formula end to end:
    /// `ed(host_x, host_y) / max(len_x, len_y)`.
    #[test]
    fn host_distance_examples() {
        // Same ad network, different subdomain: small distance.
        let d1 = normalized_levenshtein(b"ad1.ad-maker.info", b"ad2.ad-maker.info");
        // Unrelated domains: large distance.
        let d2 = normalized_levenshtein(b"ad-maker.info", b"googlesyndication.com");
        assert!(d1 < 0.1, "d1 = {d1}");
        assert!(d2 > 0.5, "d2 = {d2}");
    }
}
