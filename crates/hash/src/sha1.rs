//! SHA-1 message digest (FIPS 180-4).
//!
//! Same block/padding structure as MD5 but big-endian, with an 80-round
//! compression over a 160-bit state and a 16→80 word message schedule
//! (computed in a rolling 16-word window).

use crate::Digest;

/// Streaming SHA-1 state.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Sha1 {
    /// One 64-byte block. The message schedule is a rolling 16-word
    /// window (`w[t mod 16]` is rewritten in place as round `t` needs
    /// it), and each 20-round stage runs as its own loop, so no round
    /// branches on its index.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        macro_rules! stage {
            ($range:expr, $k:expr, $f:expr) => {
                for t in $range {
                    let wt = if t < 16 {
                        w[t]
                    } else {
                        let x = (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15])
                            .rotate_left(1);
                        w[t & 15] = x;
                        x
                    };
                    let f: u32 = $f(b, c, d);
                    let tmp = a
                        .rotate_left(5)
                        .wrapping_add(f)
                        .wrapping_add(e)
                        .wrapping_add($k)
                        .wrapping_add(wt);
                    e = d;
                    d = c;
                    c = b.rotate_left(30);
                    b = a;
                    a = tmp;
                }
            };
        }
        stage!(0..20, 0x5a827999, |b: u32, c: u32, d: u32| (b & c)
            | (!b & d));
        stage!(20..40, 0x6ed9eba1, |b: u32, c: u32, d: u32| b ^ c ^ d);
        stage!(40..60, 0x8f1bbcdc, |b: u32, c: u32, d: u32| (b & c)
            | (b & d)
            | (c & d));
        stage!(60..80, 0xca62c1d6, |b: u32, c: u32, d: u32| b ^ c ^ d);

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

impl Digest for Sha1 {
    const OUTPUT_LEN: usize = 20;

    fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0],
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        if data.is_empty() {
            return;
        }

        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            self.compress(chunk.try_into().unwrap());
        }
        let rem = chunks.remainder();
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffer_len = rem.len();
    }

    fn finalize(mut self) -> Vec<u8> {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buffer_len < 56 {
            56 - self.buffer_len
        } else {
            120 - self.buffer_len
        };
        let mut tail = Vec::with_capacity(pad_len + 8);
        tail.extend_from_slice(&pad[..pad_len]);
        tail.extend_from_slice(&bit_len.to_be_bytes());
        let saved = self.total_len;
        self.update(&tail);
        self.total_len = saved;
        debug_assert_eq!(self.buffer_len, 0);

        let mut out = Vec::with_capacity(Self::OUTPUT_LEN);
        for word in self.state {
            out.extend_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1_hex;
    use proptest::prelude::*;

    /// The textbook compression — the full 80-word schedule and a
    /// per-round `match` on the stage — kept as the oracle for the
    /// rolling-schedule one.
    fn compress_reference(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5a827999),
                20..=39 => (b ^ c ^ d, 0x6ed9eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
                _ => (b ^ c ^ d, 0xca62c1d6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }

    proptest! {
        /// The rolling-schedule compression equals the reference on
        /// arbitrary chaining states and blocks.
        #[test]
        fn compress_matches_reference(
            state in proptest::collection::vec(any::<u32>(), 5),
            block in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 5] = state.try_into().unwrap();
            let block: [u8; 64] = block.try_into().unwrap();
            let mut h = Sha1::new();
            h.state = state;
            h.compress(&block);
            let mut want = state;
            compress_reference(&mut want, &block);
            prop_assert_eq!(h.state, want);
        }
    }

    /// FIPS 180-4 / RFC 3174 test vectors.
    #[test]
    fn fips_vectors() {
        let cases = [
            ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                "The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
        ];
        for (input, want) in cases {
            assert_eq!(sha1_hex(input.as_bytes()), want, "input {input:?}");
        }
    }

    /// One million 'a' characters (the classic long-message vector).
    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            crate::encode_hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_block_edges() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut h = Sha1::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(
                crate::encode_hex(&h.finalize()),
                sha1_hex(&data),
                "length {len}"
            );
        }
    }
}
