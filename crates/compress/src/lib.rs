#![warn(missing_docs)]
//! Compressors and the normalized compression distance (NCD) for `leaksig`.
//!
//! The paper computes its HTTP *content* distance with the NCD of Cilibrasi:
//!
//! ```text
//! ncd(x, y) = (C(xy) − min(C(x), C(y))) / max(C(x), C(y))
//! ```
//!
//! where `C` is the compressed length under a "normal" compressor. Reference
//! NCD implementations use gzip or bzip2; neither is in this project's
//! allowed dependency set, so this crate provides two from-scratch
//! compressors with full round-trip decoding:
//!
//! * [`Lzss`] — an LZ77-family sliding-window compressor (hash-chain match
//!   finder over a per-string index, [`IndexedBytes`]; 12-bit offsets,
//!   4-bit lengths). This is the same algorithmic core as gzip's first
//!   stage and is the default compressor everywhere in `leaksig`.
//! * [`Lzw`] — a dictionary compressor with 12-bit codes, kept as an
//!   alternative for the ablation experiments (compressor choice is a knob
//!   the paper leaves implicit).
//!
//! What NCD needs from `C` is *normality*: monotonicity, rough idempotency
//! (`C(xx) ≈ C(x)`) and symmetry of concatenation. Both compressors here
//! exploit repeated substrings across the `xy` concatenation boundary, which
//! is exactly the property that makes NCD small for near-duplicate HTTP
//! payloads.

mod lzss;
mod lzw;
mod ncd;

pub use lzss::{IndexedBytes, Lzss, LzssPrefix};
pub use lzw::Lzw;
pub use ncd::{ncd, ncd_from_lens, ncd_with_lens};

/// Error produced when decoding a corrupted compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended in the middle of a token.
    Truncated,
    /// A back-reference pointed before the start of the output.
    BadBackReference {
        /// Backwards offset the stream asked for.
        offset: usize,
        /// Output bytes produced so far.
        produced: usize,
    },
    /// A dictionary code was out of range.
    BadCode(u16),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "compressed stream truncated"),
            DecodeError::BadBackReference { offset, produced } => write!(
                f,
                "back-reference offset {offset} exceeds produced output {produced}"
            ),
            DecodeError::BadCode(c) => write!(f, "dictionary code {c} out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A lossless byte-string compressor usable as the `C` of the NCD.
pub trait Compressor {
    /// Compress `data` into a self-contained stream.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Invert [`Compressor::compress`].
    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, DecodeError>;

    /// `C(data)`: the length of the compressed representation.
    ///
    /// The default goes through [`Compressor::compress`]; implementations
    /// may override with a cheaper size-only path.
    fn compressed_len(&self, data: &[u8]) -> usize {
        self.compress(data).len()
    }

    /// Begin a resumable "compress `x` once, then measure `C(x ⊕ y)` for
    /// many `y`" computation — the access pattern of a row of the NCD
    /// distance matrix, where one `x` is concatenated against every other
    /// packet's field. Operands arrive indexed ([`IndexedBytes`]), so each
    /// string is indexed once however many pairs it joins.
    ///
    /// Whatever the implementation, `concat_len(y)` must equal
    /// [`Compressor::compressed_len`] of the concatenation *exactly* —
    /// callers cache and compare these counts. The default re-compresses
    /// the concatenation per call (reusing one buffer and reading only the
    /// bytes); [`Lzss`] overrides it with a true encoder-state snapshot
    /// that walks both operands' indexes.
    fn begin_prefix<'a>(&'a self, x: &'a IndexedBytes) -> Box<dyn PrefixState + 'a>
    where
        Self: Sized,
    {
        Box::new(NaivePrefix {
            compressor: self,
            buf: x.to_vec(),
            x_len: x.len(),
        })
    }
}

/// State captured by [`Compressor::begin_prefix`]: a fixed `x` awaiting
/// `C(x ⊕ y)` queries.
pub trait PrefixState {
    /// `C(x ⊕ y)` — exactly [`Compressor::compressed_len`] of the
    /// concatenation. `&mut self` only for internal scratch reuse; calls
    /// are independent and repeatable.
    fn concat_len(&mut self, y: &IndexedBytes) -> usize;
}

/// [`Compressor::begin_prefix`]'s fallback: re-compress `x ⊕ y` from
/// scratch per query, amortizing only the concatenation buffer.
struct NaivePrefix<'a, C: Compressor> {
    compressor: &'a C,
    buf: Vec<u8>,
    x_len: usize,
}

impl<C: Compressor> PrefixState for NaivePrefix<'_, C> {
    fn concat_len(&mut self, y: &IndexedBytes) -> usize {
        self.buf.truncate(self.x_len);
        self.buf.extend_from_slice(y);
        self.compressor.compressed_len(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_error_display() {
        assert_eq!(
            DecodeError::Truncated.to_string(),
            "compressed stream truncated"
        );
        assert_eq!(
            DecodeError::BadBackReference {
                offset: 9,
                produced: 3
            }
            .to_string(),
            "back-reference offset 9 exceeds produced output 3"
        );
        assert_eq!(
            DecodeError::BadCode(5000).to_string(),
            "dictionary code 5000 out of range"
        );
    }
}
