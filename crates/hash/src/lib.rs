#![warn(missing_docs)]
//! From-scratch cryptographic digests used by the `leaksig` traffic model.
//!
//! The paper's dataset (Table III) contains identifiers transmitted both in
//! the clear and as MD5 / SHA-1 hex digests ("ANDROID ID MD5",
//! "IMEI SHA1", ...). The synthetic market generator must therefore emit
//! byte-exact digests, and the payload check must recognise them. Neither
//! algorithm is available in the allowed dependency set, so this crate
//! implements both:
//!
//! * [`Md5`] — RFC 1321.
//! * [`Sha1`] — FIPS 180-4.
//!
//! Both expose the same streaming [`Digest`] interface plus one-shot
//! convenience functions ([`md5_hex`], [`sha1_hex`]).
//!
//! These digests are used for *traffic realism*, not for security: MD5 and
//! SHA-1 are both cryptographically broken, which is incidentally one of the
//! paper's points — hashing an immutable UDID does not anonymise it.

mod hex;
mod md5;
mod sha1;

pub use hex::{decode_hex, encode_hex, HexError};
pub use md5::Md5;
pub use sha1::Sha1;

/// A streaming message digest.
///
/// Mirrors the shape of the `digest` ecosystem trait without pulling in the
/// dependency: create with [`Digest::new`], feed arbitrary chunks with
/// [`Digest::update`], then consume with [`Digest::finalize`].
pub trait Digest {
    /// Digest output size in bytes.
    const OUTPUT_LEN: usize;

    /// A fresh digest state.
    fn new() -> Self;

    /// Absorb `data` into the digest state.
    fn update(&mut self, data: &[u8]);

    /// Consume the state and return the digest bytes.
    fn finalize(self) -> Vec<u8>;
}

/// One-shot MD5, returning the 32-character lowercase hex digest.
///
/// ```
/// assert_eq!(leaksig_hash::md5_hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
/// ```
pub fn md5_hex(data: &[u8]) -> String {
    let mut h = Md5::new();
    h.update(data);
    encode_hex(&h.finalize())
}

/// One-shot SHA-1, returning the 40-character lowercase hex digest.
///
/// ```
/// assert_eq!(
///     leaksig_hash::sha1_hex(b""),
///     "da39a3ee5e6b4b0d3255bfef95601890afd80709"
/// );
/// ```
pub fn sha1_hex(data: &[u8]) -> String {
    let mut h = Sha1::new();
    h.update(data);
    encode_hex(&h.finalize())
}

/// Check `data` against an expected SHA-1 hex digest (case-insensitive).
///
/// This is the integrity primitive behind the `LEAKFRAME/1` envelope,
/// which frames both transport payloads and persisted snapshots: a
/// digest mismatch means the bytes were truncated or corrupted in flight
/// or on disk.
/// Malformed `expected` strings (wrong length, non-hex) simply verify as
/// `false` — a mangled header must never pass.
///
/// ```
/// assert!(leaksig_hash::verify_sha1_hex(
///     b"",
///     "DA39A3EE5E6B4B0D3255BFEF95601890AFD80709"
/// ));
/// assert!(!leaksig_hash::verify_sha1_hex(b"x", "da39"));
/// ```
pub fn verify_sha1_hex(data: &[u8], expected: &str) -> bool {
    if expected.len() != 2 * Sha1::OUTPUT_LEN {
        return false;
    }
    match decode_hex(expected) {
        Ok(want) => {
            let mut h = Sha1::new();
            h.update(data);
            h.finalize() == want
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_helpers_agree_with_streaming() {
        let data = b"355195000000017";
        let mut m = Md5::new();
        m.update(&data[..7]);
        m.update(&data[7..]);
        assert_eq!(encode_hex(&m.finalize()), md5_hex(data));

        let mut s = Sha1::new();
        s.update(&data[..3]);
        s.update(&data[3..]);
        assert_eq!(encode_hex(&s.finalize()), sha1_hex(data));
    }

    #[test]
    fn output_lengths() {
        assert_eq!(md5_hex(b"x").len(), 32);
        assert_eq!(sha1_hex(b"x").len(), 40);
        assert_eq!(Md5::OUTPUT_LEN, 16);
        assert_eq!(Sha1::OUTPUT_LEN, 20);
    }
}
