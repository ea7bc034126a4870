//! LZSS: sliding-window Lempel–Ziv with literal/match flag bits.
//!
//! Stream layout: groups of up to eight tokens, each group prefixed by a
//! control byte whose bit *i* (LSB-first) says whether token *i* is a
//! literal (0, one raw byte) or a match (1, two bytes packing a 12-bit
//! backwards offset and a 4-bit length nibble). Lengths are stored as
//! `len − MIN_MATCH`; the nibble value 15 marks an extended length, encoded
//! LZ4-style as additional bytes (each 0–255, 255 meaning "more follows").
//! Long matches therefore cost ~1 byte per extra 255 matched bytes, which
//! keeps `C(xx) ≈ C(x)` — the NCD normality property clustering depends on.
//!
//! Matches are found by walking hash chains over 3-byte prefixes — the
//! structure zlib uses — bounded by `max_chain` probes so compression stays
//! near-linear on pathological inputs. Where zlib inserts each position
//! into its tables as the encoder advances, here every position of a
//! string is linked once, up front, to the previous position with the same
//! hash ([`IndexedBytes`]). The chain searched at position `i` is exactly
//! the positions `p < i` with `p + 3 ≤ len` and the same hash, newest
//! first, so walking the links finds the candidates insertion would, in
//! the same order. For a concatenation `x ⊕ y` that
//! chain is three segments, in order: `y`'s own links, the at most two
//! positions of `x` whose 3-byte window crosses into `y`, and `x`'s links.
//! Only the middle segment depends on the pair, which is what lets
//! [`LzssPrefix`] measure `C(x ⊕ y)` for many `y` from indexes built once
//! per string.
//!
//! Every search also reports its *reach*: the end of the bytes it read,
//! just past the mismatch that ended its longest comparison. A token is
//! a function of the bytes below its reach, so [`LzssPrefix`] journals
//! its last encode with each token's running reach and, for the next
//! `y`, keeps every token that read only `x` and the prefix `y` shares
//! with the previous continuation. One rule covers both the snapshot of
//! `x` (the previous continuation empty) and the resume inside a shared
//! prefix.

use crate::{Compressor, DecodeError};
use std::cell::RefCell;

/// Smallest match worth encoding: a match token costs 2 bytes + 1/8 flag,
/// so 3 bytes is the break-even point.
const MIN_MATCH: usize = 3;
/// Length-nibble value that signals extension bytes follow.
const LEN_EXTENDED: u16 = 15;
/// Cap on match length: bounds per-position search work while keeping the
/// encoder able to fold whole repeated packets into a couple of tokens.
const MAX_MATCH: usize = 8192;
/// Window size implied by the 12-bit offset field.
const WINDOW: usize = 1 << 12;
/// "No position": the end of a link chain, or a hash a string lacks.
const NONE: u32 = u32::MAX;

/// 15-bit hash of the 3 bytes at `data[i..i + 3]`.
fn hash3(data: &[u8], i: usize) -> u16 {
    let h = (data[i] as u32)
        .wrapping_mul(506_832_829)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(2_654_435_761))
        .wrapping_add((data[i + 2] as u32).wrapping_mul(2_246_822_519));
    (h >> 17) as u16
}

/// The newest position per hash among one string's positions: open
/// addressing sized to the string, behind a 4 KB presence bitmap (one bit
/// per 15-bit hash) so a hash the string lacks costs one bit test.
struct Heads {
    present: [u64; 512],
    /// `(hash, newest position)`; a free slot holds [`Heads::FREE`].
    slots: Vec<(u16, u32)>,
}

impl Heads {
    /// Never a 15-bit hash.
    const FREE: (u16, u32) = (u16::MAX, NONE);

    const fn new() -> Heads {
        Heads {
            present: [0; 512],
            slots: Vec::new(),
        }
    }

    /// Empty the table and size it for up to `n` distinct hashes, in time
    /// linear in the old and new sizes.
    fn reset(&mut self, n: usize) {
        for &(h, _) in &self.slots {
            if h != Self::FREE.0 {
                self.present[h as usize >> 6] = 0;
            }
        }
        self.slots.clear();
        self.slots.resize((2 * n).next_power_of_two(), Self::FREE);
    }

    /// The slot holding `h`, or the free slot where it belongs.
    fn slot(&self, h: u16) -> usize {
        let mask = self.slots.len() - 1;
        let mut k = h as usize & mask;
        while self.slots[k].0 != h && self.slots[k].0 != Self::FREE.0 {
            k = (k + 1) & mask;
        }
        k
    }

    /// Make `p` the newest position of `h`, returning the previous one.
    fn insert(&mut self, h: u16, p: u32) -> u32 {
        self.present[h as usize >> 6] |= 1 << (h & 63);
        let k = self.slot(h);
        std::mem::replace(&mut self.slots[k], (h, p)).1
    }

    /// The newest position of `h`, or [`NONE`] when the string lacks it.
    fn newest(&self, h: u16) -> u32 {
        if self.present[h as usize >> 6] & (1 << (h & 63)) == 0 {
            return NONE;
        }
        self.slots[self.slot(h)].1
    }
}

thread_local! {
    /// Scratch for [`Chains::build`], so indexing a string allocates only
    /// the string's own arrays.
    static BUILD_HEADS: RefCell<Heads> = const { RefCell::new(Heads::new()) };
}

/// Hash-chain index of one string: for every position `p` with a full
/// 3-byte window (`p + 3 ≤ len`), its hash and a link to the previous
/// position with the same hash ([`NONE`] for the first).
#[derive(Clone, PartialEq, Eq)]
struct Chains {
    hash: Vec<u16>,
    link: Vec<u32>,
}

impl Chains {
    fn build(data: &[u8]) -> Chains {
        // Positions are stored as `u32`, with `NONE` reserved.
        assert!(data.len() < NONE as usize, "LZSS input over 4 GiB");
        let hash: Vec<u16> = (0..data.len().saturating_sub(MIN_MATCH - 1))
            .map(|p| hash3(data, p))
            .collect();
        let link = BUILD_HEADS.with(|heads| {
            let mut heads = heads.borrow_mut();
            heads.reset(hash.len());
            hash.iter()
                .enumerate()
                .map(|(p, &h)| heads.insert(h, p as u32))
                .collect()
        });
        Chains { hash, link }
    }
}

/// A byte string together with its hash-chain index, built once in time
/// linear in its length: the operand [`Lzss::prefix`] and
/// [`LzssPrefix::concat_len`] take, so that measuring `C(x ⊕ y)` for many
/// pairs never re-indexes either side. Dereferences to the bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct IndexedBytes {
    bytes: Vec<u8>,
    chains: Chains,
}

impl IndexedBytes {
    /// Take ownership of `bytes` and index them.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        let bytes = bytes.into();
        let chains = Chains::build(&bytes);
        IndexedBytes { bytes, chains }
    }
}

impl std::ops::Deref for IndexedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl std::fmt::Debug for IndexedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("IndexedBytes").field(&self.bytes).finish()
    }
}

/// What one encode searches: the string `x ⊕ y`, through `x`'s and `y`'s
/// indexes. A plain encode is the case of an empty `x`.
struct Operands<'a> {
    x: &'a Chains,
    x_len: usize,
    /// Newest position of `x` per hash, where a chain enters `x` from a
    /// position that has no link into it.
    x_heads: &'a Heads,
    y: &'a Chains,
    /// The positions of `x` whose 3-byte window crosses into `y`, newest
    /// first, with their hashes.
    cross: [Option<(usize, u16)>; 2],
}

/// [`Operands`]'s `x_heads` when `x` is empty.
static NO_HEADS: Heads = Heads::new();

impl<'a> Operands<'a> {
    fn alone(y: &'a Chains) -> Self {
        const EMPTY: &Chains = &Chains {
            hash: Vec::new(),
            link: Vec::new(),
        };
        Operands {
            x: EMPTY,
            x_len: 0,
            x_heads: &NO_HEADS,
            y,
            cross: [None; 2],
        }
    }
}

/// The running best of one match search at position `i`.
struct Search<'d> {
    data: &'d [u8],
    i: usize,
    max_len: usize,
    probes: usize,
    best_len: usize,
    best_off: usize,
    /// Longest comparison so far, rejected candidates included.
    longest: usize,
}

impl Search<'_> {
    /// Compare candidate `j < i`; false once the search is over (probes
    /// spent, `j` outside the window, or a longest possible match found).
    fn probe(&mut self, j: usize) -> bool {
        let (data, i) = (self.data, self.i);
        if self.probes == 0 || i - j > WINDOW {
            return false;
        }
        self.probes -= 1;
        // Check the byte just past the current best first: cheap filter.
        if data[j + self.best_len] != data[i + self.best_len] {
            return true;
        }
        let l = common_prefix(&data[j..j + self.max_len], &data[i..i + self.max_len]);
        self.longest = self.longest.max(l);
        if l > self.best_len {
            self.best_len = l;
            self.best_off = i - j;
            if l == self.max_len {
                return false;
            }
        }
        true
    }

    /// The match, if any, and the search's reach: see
    /// [`Lzss::find_match`].
    fn result(&self) -> (Option<(usize, usize)>, usize) {
        let m = (self.best_len >= MIN_MATCH).then_some((self.best_off, self.best_len));
        let read = (self.longest + 1).clamp(MIN_MATCH, MAX_MATCH);
        (m, self.i + read)
    }
}

/// Length of the common prefix of `a` and `b`, eight bytes a step.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let max_len = a.len().min(b.len());
    let word = |s: &[u8], at: usize| u64::from_le_bytes(s[at..at + 8].try_into().unwrap());
    let mut l = 0;
    while l + 8 <= max_len {
        let diff = word(a, l) ^ word(b, l);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && a[l] == b[l] {
        l += 1;
    }
    l
}

/// LZSS compressor configuration.
#[derive(Debug, Clone)]
pub struct Lzss {
    /// Maximum hash-chain probes per position. Higher finds better matches
    /// at more CPU cost; 32 is plenty for HTTP-sized inputs.
    max_chain: usize,
}

impl Default for Lzss {
    fn default() -> Self {
        Lzss { max_chain: 32 }
    }
}

impl Lzss {
    /// A compressor with a custom chain-search bound (`max_chain ≥ 1`).
    pub fn with_max_chain(max_chain: usize) -> Self {
        Lzss {
            max_chain: max_chain.max(1),
        }
    }

    /// Longest match for position `i` of `data = x ⊕ y` (`i + 3 ≤
    /// data.len()`), returning `(offset, len)`, and the search's exclusive
    /// *reach*: `i + max(3, min(l + 1, MAX_MATCH))`, where `l` is the
    /// longest comparison it made. Every byte the search read lies below
    /// its reach — the hashed window, each candidate's bytes and the
    /// mismatching byte that ended the longest comparison — so the result
    /// is the same for every `data` that agrees below the reach. A
    /// comparison that ran into the end of `data` before [`MAX_MATCH`]
    /// reaches `data.len() + 1`: it read that the data ends there. This is
    /// the invariant the resumable [`LzssPrefix`] journal rests on.
    ///
    /// The candidates are `i`'s hash chain: every earlier position with
    /// the same hash and a full 3-byte window, newest first — `y`'s part,
    /// then the positions crossing the boundary, then `x`'s part.
    fn find_match(
        &self,
        data: &[u8],
        i: usize,
        ops: &Operands<'_>,
    ) -> (Option<(usize, usize)>, usize) {
        let mut s = Search {
            data,
            i,
            max_len: MAX_MATCH.min(data.len() - i),
            probes: self.max_chain,
            best_len: MIN_MATCH - 1,
            best_off: 0,
            longest: 0,
        };
        let x_len = ops.x_len;
        let (h, x_first) = if i >= x_len {
            let k = i - x_len;
            let mut q = ops.y.link[k];
            while q != NONE {
                if !s.probe(x_len + q as usize) {
                    return s.result();
                }
                q = ops.y.link[q as usize];
            }
            (ops.y.hash[k], None)
        } else if i + MIN_MATCH <= x_len {
            (ops.x.hash[i], Some(ops.x.link[i]))
        } else {
            (hash3(data, i), None)
        };
        for &(p, ph) in ops.cross.iter().flatten() {
            if p < i && ph == h && !s.probe(p) {
                return s.result();
            }
        }
        let mut p = x_first.unwrap_or_else(|| ops.x_heads.newest(h));
        while p != NONE && s.probe(p as usize) {
            p = ops.x.link[p as usize];
        }
        s.result()
    }

    /// The one encode loop: tokens for `data[from..]` into `sink`, where
    /// `data` is `ops`'s `x ⊕ y`, each announced to the sink with its
    /// start and its search's reach ([`Lzss::find_match`]).
    fn encode_from<S: TokenSink>(
        &self,
        data: &[u8],
        from: usize,
        ops: &Operands<'_>,
        sink: &mut S,
    ) {
        let mut i = from;
        while i < data.len() {
            let (m, reach) = if i + MIN_MATCH > data.len() {
                // Too close to the end to match: that the data ends here
                // is what this literal read.
                (None, i + MIN_MATCH)
            } else {
                self.find_match(data, i, ops)
            };
            sink.token_at(i, reach);
            match m {
                Some((off, len)) => {
                    sink.back_ref(off, len);
                    i += len;
                }
                None => {
                    sink.literal(data[i]);
                    i += 1;
                }
            }
        }
    }

    /// Encode `data` from scratch: [`Compressor::compress`] materializes,
    /// [`Compressor::compressed_len`] counts.
    fn encode<S: TokenSink>(&self, data: &[u8], sink: &mut S) {
        let chains = Chains::build(data);
        self.encode_from(data, 0, &Operands::alone(&chains), sink);
    }
}

/// Where the encoder's tokens go: materialized bytes ([`TokenWriter`]) or
/// a running byte count ([`TokenCounter`]). One encode loop serves both,
/// so the size-only path can never drift from the real stream layout.
trait TokenSink {
    /// A token starts at `at`; its search read nothing at or past `reach`.
    fn token_at(&mut self, _at: usize, _reach: usize) {}
    fn literal(&mut self, b: u8);
    fn back_ref(&mut self, offset: usize, len: usize);
}

/// Incremental token writer that maintains the control-byte groups.
struct TokenWriter {
    out: Vec<u8>,
    /// Index of the pending control byte in `out`.
    ctrl_at: usize,
    /// Number of tokens already recorded in the pending control byte.
    ctrl_used: u8,
}

impl TokenWriter {
    fn new(capacity: usize) -> Self {
        TokenWriter {
            out: Vec::with_capacity(capacity),
            ctrl_at: usize::MAX,
            ctrl_used: 8, // force a fresh control byte on first token
        }
    }

    fn begin_token(&mut self, is_match: bool) {
        if self.ctrl_used == 8 {
            self.ctrl_at = self.out.len();
            self.out.push(0);
            self.ctrl_used = 0;
        }
        if is_match {
            self.out[self.ctrl_at] |= 1 << self.ctrl_used;
        }
        self.ctrl_used += 1;
    }
}

impl TokenSink for TokenWriter {
    fn literal(&mut self, b: u8) {
        self.begin_token(false);
        self.out.push(b);
    }

    fn back_ref(&mut self, offset: usize, len: usize) {
        debug_assert!((1..=WINDOW).contains(&offset));
        debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
        self.begin_token(true);
        let off = (offset - 1) as u16; // 0-based, 12 bits
        let l = len - MIN_MATCH;
        let nibble = (l as u16).min(LEN_EXTENDED);
        let packed = (off << 4) | nibble;
        self.out.push((packed >> 8) as u8);
        self.out.push(packed as u8);
        if nibble == LEN_EXTENDED {
            let mut rest = l - LEN_EXTENDED as usize;
            loop {
                let b = rest.min(255);
                self.out.push(b as u8);
                if b < 255 {
                    break;
                }
                rest -= 255;
            }
        }
    }
}

/// Counts the bytes [`TokenWriter`] would emit without allocating them.
#[derive(Default)]
struct TokenCounter {
    len: usize,
    ctrl_used: u8,
}

impl TokenCounter {
    fn begin_token(&mut self) {
        if self.ctrl_used == 0 {
            self.len += 1; // fresh control byte
            self.ctrl_used = 8;
        }
        self.ctrl_used -= 1;
    }
}

impl TokenSink for TokenCounter {
    fn literal(&mut self, _b: u8) {
        self.begin_token();
        self.len += 1;
    }

    fn back_ref(&mut self, _offset: usize, len: usize) {
        self.begin_token();
        self.len += 2;
        let l = len - MIN_MATCH;
        if l >= LEN_EXTENDED as usize {
            // One extension byte per 255 of remaining length, plus the
            // terminating byte (mirrors the writer's emit loop exactly).
            let rest = l - LEN_EXTENDED as usize;
            self.len += rest / 255 + 1;
        }
    }
}

/// One token of an [`LzssPrefix`]'s last encode.
#[derive(Clone, Copy)]
struct Logged {
    /// Position the token starts at.
    at: usize,
    /// Byte count and control-byte phase before the token.
    count: usize,
    ctrl_used: u8,
    /// Largest reach of this token's search and every earlier one's.
    reach: usize,
}

/// A [`TokenCounter`] that logs every token as it starts.
#[derive(Default)]
struct Journal {
    counter: TokenCounter,
    tokens: Vec<Logged>,
}

impl Journal {
    /// Drop the tokens from the first one whose running reach passes
    /// `bound` (everything before it read only bytes below `bound`),
    /// restore the counter to the state before that token, and return
    /// where to re-encode from: its start, or `end` when every token is
    /// kept.
    fn rewind(&mut self, bound: usize, end: usize) -> usize {
        let k = self.tokens.partition_point(|t| t.reach <= bound);
        let Some(&t) = self.tokens.get(k) else {
            return end;
        };
        self.tokens.truncate(k);
        self.counter = TokenCounter {
            len: t.count,
            ctrl_used: t.ctrl_used,
        };
        t.at
    }
}

impl TokenSink for Journal {
    fn token_at(&mut self, at: usize, reach: usize) {
        let reach = self.tokens.last().map_or(reach, |t| t.reach.max(reach));
        self.tokens.push(Logged {
            at,
            count: self.counter.len,
            ctrl_used: self.counter.ctrl_used,
            reach,
        });
    }

    fn literal(&mut self, b: u8) {
        self.counter.literal(b);
    }

    fn back_ref(&mut self, offset: usize, len: usize) {
        self.counter.back_ref(offset, len);
    }
}

/// Resumable count-only encoder state: `x` compressed once, then
/// `C(x ⊕ y)` for any number of `y` continuations, each resuming the
/// previous encode where the two continuations part.
///
/// The state journals the last encode of `x ⊕ y` token by token: where
/// each token starts, the byte count and control-byte phase before it,
/// and the running maximum of its search's *reach*: the end of the bytes
/// the search read, one past the mismatch that ended its longest
/// comparison, 3 to 8192 bytes past the token's start. A search reads
/// nothing at or past its reach, so when the next `y'` shares its first
/// `lcp` bytes with `y`, every journaled token whose running reach is at
/// most `|x| + lcp` is also a token of `x ⊕ y'`, with the same count and
/// phase before it. [`LzssPrefix::concat_len`] keeps
/// those and re-encodes from the first one that is not, walking chains
/// from `x`'s and `y'`'s prebuilt indexes. [`Lzss::prefix`] journals `x`
/// alone, the case of an empty previous `y`: what survives every call is
/// `x`'s tokens whose searches never ran into its end. The encode writes
/// no table, so the result is byte-for-byte equal to
/// [`Compressor::compressed_len`]`(x ⊕ y)` in any call order (proven by
/// proptest against the insertion-based encoder); continuations taken in
/// byte order share the longest prefixes, so they re-encode the least.
pub struct LzssPrefix<'a> {
    cfg: Lzss,
    x: &'a IndexedBytes,
    /// Newest position of `x` per hash.
    x_heads: Heads,
    /// `x` followed by the last `y` (just `x` before the first call).
    buf: Vec<u8>,
    /// The encode of `buf`, token by token.
    journal: Journal,
    /// Where the last call resumed encoding.
    resumed_at: usize,
}

impl std::fmt::Debug for LzssPrefix<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LzssPrefix")
            .field("x_len", &self.x.len())
            .field("tokens", &self.journal.tokens.len())
            .field("resumed_at", &self.resumed_at)
            .finish()
    }
}

impl Lzss {
    /// Journal the count-only encode of `x` alone, for repeated
    /// [`LzssPrefix::concat_len`] queries.
    pub fn prefix<'a>(&self, x: &'a IndexedBytes) -> LzssPrefix<'a> {
        let mut journal = Journal::default();
        self.encode_from(x, 0, &Operands::alone(&x.chains), &mut journal);
        let mut x_heads = Heads::new();
        x_heads.reset(x.chains.hash.len());
        for (p, &h) in x.chains.hash.iter().enumerate() {
            x_heads.insert(h, p as u32);
        }
        let mut buf = Vec::with_capacity(2 * x.len());
        buf.extend_from_slice(x);
        LzssPrefix {
            cfg: self.clone(),
            x,
            x_heads,
            buf,
            journal,
            resumed_at: 0,
        }
    }
}

impl LzssPrefix<'_> {
    /// `C(x ⊕ y)`: byte-for-byte what [`Compressor::compressed_len`]
    /// returns for the concatenation, re-encoding only from the first
    /// journaled token that read past the prefix `y` shares with the last
    /// continuation.
    pub fn concat_len(&mut self, y: &IndexedBytes) -> usize {
        let x_len = self.x.len();
        let lcp = common_prefix(&self.buf[x_len..], y);
        self.resumed_at = self.journal.rewind(x_len + lcp, self.buf.len());
        self.buf.truncate(x_len + lcp);
        self.buf.extend_from_slice(&y[lcp..]);
        let total = self.buf.len();
        let buf = &self.buf;
        let cross = [1, 2].map(|back| {
            (back <= x_len && x_len - back + MIN_MATCH <= total).then(|| {
                let p = x_len - back;
                (p, hash3(buf, p))
            })
        });
        let ops = Operands {
            x: &self.x.chains,
            x_len,
            x_heads: &self.x_heads,
            y: &y.chains,
            cross,
        };
        self.cfg
            .encode_from(buf, self.resumed_at, &ops, &mut self.journal);
        self.journal.counter.len
    }
}

impl crate::PrefixState for LzssPrefix<'_> {
    fn concat_len(&mut self, y: &IndexedBytes) -> usize {
        LzssPrefix::concat_len(self, y)
    }
}

impl Compressor for Lzss {
    fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut w = TokenWriter::new(data.len() / 2 + 16);
        self.encode(data, &mut w);
        w.out
    }

    /// `C(data)` without materializing the stream: the same encode loop
    /// drives a byte counter instead of an output buffer.
    fn compressed_len(&self, data: &[u8]) -> usize {
        let mut c = TokenCounter::default();
        self.encode(data, &mut c);
        c.len
    }

    /// Resumable prefix: journal the encode of `x` and resume it per
    /// query instead of re-compressing the concatenation.
    fn begin_prefix<'a>(&'a self, x: &'a IndexedBytes) -> Box<dyn crate::PrefixState + 'a> {
        Box::new(self.prefix(x))
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let mut out = Vec::with_capacity(data.len() * 2);
        let mut i = 0usize;
        while i < data.len() {
            let ctrl = data[i];
            i += 1;
            for bit in 0..8 {
                if i == data.len() {
                    // A control byte may cover fewer than 8 tokens at EOF,
                    // but only if all remaining flag bits are zero-padding;
                    // any set bit past the data is corruption we tolerate as
                    // normal termination.
                    break;
                }
                if ctrl & (1 << bit) == 0 {
                    out.push(data[i]);
                    i += 1;
                } else {
                    if i + 1 >= data.len() {
                        return Err(DecodeError::Truncated);
                    }
                    let packed = u16::from_be_bytes([data[i], data[i + 1]]);
                    i += 2;
                    let offset = (packed >> 4) as usize + 1;
                    let mut len = (packed & 0x0f) as usize + MIN_MATCH;
                    if packed & 0x0f == LEN_EXTENDED {
                        loop {
                            if i == data.len() {
                                return Err(DecodeError::Truncated);
                            }
                            let b = data[i];
                            i += 1;
                            len += b as usize;
                            if b < 255 {
                                break;
                            }
                        }
                    }
                    if offset > out.len() {
                        return Err(DecodeError::BadBackReference {
                            offset,
                            produced: out.len(),
                        });
                    }
                    let start = out.len() - offset;
                    // Byte-at-a-time: back-references may overlap themselves.
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = Lzss::default();
        let compressed = c.compress(data);
        assert_eq!(
            c.decompress(&compressed).expect("decode"),
            data,
            "round trip failed for {} bytes",
            data.len()
        );
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn highly_repetitive_compresses() {
        let data = b"GET /ad?udid=abcdef GET /ad?udid=abcdef GET /ad?udid=abcdef".repeat(20);
        let c = Lzss::default();
        let z = c.compress(&data);
        assert!(
            z.len() < data.len() / 4,
            "expected >4x compression, got {} -> {}",
            data.len(),
            z.len()
        );
        round_trip(&data);
    }

    #[test]
    fn overlapping_back_reference() {
        // "aaaa..." forces matches that overlap their own output.
        round_trip(&vec![b'a'; 1000]);
        round_trip(b"abababababababababababab");
    }

    #[test]
    fn incompressible_data_expands_bounded() {
        // A de Bruijn-ish pseudo-random buffer: no 3-byte repeats in window.
        let data: Vec<u8> = (0u32..4096)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let c = Lzss::default();
        let z = c.compress(&data);
        // Worst case is 1 control byte per 8 literals: 12.5% overhead.
        assert!(z.len() <= data.len() + data.len() / 8 + 2);
        round_trip(&data);
    }

    #[test]
    fn http_like_payload() {
        let data = b"GET /getad?androidid=f3a9c1d200b14e77&carrier=NTTDOCOMO&fmt=json HTTP/1.1\r\nHost: ad-maker.info\r\nCookie: session=1234\r\n\r\n";
        round_trip(data);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let c = Lzss::default();
        let z = c.compress(&b"hello hello hello hello".repeat(4));
        // Find a prefix that cuts a match token in half.
        let mut saw_error = false;
        for cut in 1..z.len() {
            if matches!(c.decompress(&z[..cut]), Err(DecodeError::Truncated)) {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "no truncation error for any prefix");
    }

    #[test]
    fn bad_back_reference_is_an_error() {
        // Control byte: token 0 is a match; offset 100 into empty output.
        let stream = [0b0000_0001u8, (99u16 << 4 >> 8) as u8, (99u16 << 4) as u8];
        let c = Lzss::default();
        match c.decompress(&stream) {
            Err(DecodeError::BadBackReference { offset, produced }) => {
                assert_eq!(offset, 100);
                assert_eq!(produced, 0);
            }
            other => panic!("expected BadBackReference, got {other:?}"),
        }
    }

    #[test]
    fn max_chain_trades_size_for_speed() {
        let data = b"param=value&param=value2&param=value3&other=value".repeat(30);
        let shallow = Lzss::with_max_chain(1).compress(&data).len();
        let deep = Lzss::with_max_chain(256).compress(&data).len();
        assert!(deep <= shallow, "deeper search must not compress worse");
        assert_eq!(
            Lzss::with_max_chain(256)
                .decompress(&Lzss::with_max_chain(256).compress(&data))
                .unwrap(),
            data
        );
    }

    #[test]
    fn prefix_matches_from_scratch_on_edges() {
        let c = Lzss::default();
        let cases: &[(&[u8], &[u8])] = &[
            (b"", b""),
            (b"", b"hello hello hello"),
            (b"ab", b""),
            (b"ab", b"c"),
            (b"abc", b"abcabcabc"),
            (b"GET /ad?udid=abcdef&slot=1", b"GET /ad?udid=abcdef&slot=2"),
            (b"aaaaaaaaaaaaaaaa", b"aaaaaaaaaaaaaaaa"),
            (b"xyzxyzxyzxyz", b""),
        ];
        for (x, y) in cases {
            let mut xy = x.to_vec();
            xy.extend_from_slice(y);
            assert_eq!(
                c.prefix(&IndexedBytes::new(*x))
                    .concat_len(&IndexedBytes::new(*y)),
                c.compressed_len(&xy),
                "x={x:?} y={y:?}"
            );
        }
    }

    #[test]
    fn prefix_is_reusable_across_many_continuations() {
        let c = Lzss::default();
        let x = b"GET /getad?androidid=f3a9c1d200b14e77&carrier=NTTDOCOMO HTTP/1.1";
        let indexed = IndexedBytes::new(&x[..]);
        let mut p = c.prefix(&indexed);
        for i in 0..50 {
            let y = format!("GET /getad?androidid=f3a9c1d200b14e77&slot={i} HTTP/1.1");
            let mut xy = x.to_vec();
            xy.extend_from_slice(y.as_bytes());
            let y = IndexedBytes::new(y);
            assert_eq!(p.concat_len(&y), c.compressed_len(&xy), "i={i}");
        }
    }

    #[test]
    fn continuation_resumes_inside_the_shared_prefix() {
        let c = Lzss::default();
        let x = IndexedBytes::new(
            &b"GET /getad?androidid=f3a9c1d200b14e77&carrier=NTTDOCOMO HTTP/1.1"[..],
        );
        let head = "GET /sdk/v2/banner?app=com.example.game&size=320x50&carrier=KDDI&slot=";
        let (y1, y2) = (format!("{head}1 HTTP/1.1"), format!("{head}2 HTTP/1.1"));
        let mut p = c.prefix(&x);
        p.concat_len(&IndexedBytes::new(y1));
        let fresh = p.resumed_at;
        assert!(
            fresh <= x.len(),
            "a first call resumes inside x, at {fresh}"
        );
        let len = p.concat_len(&IndexedBytes::new(y2.clone()));
        assert_eq!(len, c.compressed_len(&[&x[..], y2.as_bytes()].concat()));
        // Only the journaled tokens whose searches read the bytes after
        // the shared head are encoded again.
        assert!(
            p.resumed_at > x.len() + head.len() - 16,
            "resumed at {} of a {}-byte shared prefix",
            p.resumed_at,
            x.len() + head.len()
        );
        assert!(p.resumed_at <= x.len() + head.len());
    }

    #[test]
    fn window_boundary_matches() {
        // Repeat a block at exactly the window edge.
        let block: Vec<u8> = (0..64u8).collect();
        let mut data = block.clone();
        data.extend(std::iter::repeat_n(b'x', WINDOW - 64));
        data.extend_from_slice(&block);
        round_trip(&data);
    }
}
