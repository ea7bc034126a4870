//! The hash-chain LZSS encoder as it stood before the indexed match
//! finder, kept verbatim as the differential reference: a 32768-slot
//! `head` table and a 4096-slot `prev` ring, updated by insertion, and a
//! resumable prefix that journals its insertions and undoes them after
//! each `concat_len`. Only the decoder and the `Compressor` trait plumbing
//! are left out; `compress` and `compressed_len` are inherent methods.

#![allow(dead_code)]

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

/// Number of hash-table heads (3-byte prefix hash, 15 bits).
const HASH_SIZE: usize = 1 << 15;

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

    fn hash(data: &[u8], i: usize) -> usize {
        let h = (data[i] as u32)
            .wrapping_mul(506_832_829)
            .wrapping_add((data[i + 1] as u32).wrapping_mul(2_654_435_761))
            .wrapping_add((data[i + 2] as u32).wrapping_mul(2_246_822_519));
        (h >> 17) as usize & (HASH_SIZE - 1)
    }

    /// Longest match for position `i`, returning `(offset, len)`.
    fn find_match(
        &self,
        data: &[u8],
        i: usize,
        head: &[i32],
        prev: &[i32],
    ) -> Option<(usize, usize)> {
        self.find_match_capped(data, i, head, prev).0
    }

    /// [`Lzss::find_match`] that additionally reports whether the search
    /// was *end-capped*: some candidate comparison ran into the end of
    /// `data` before [`MAX_MATCH`], so appending more bytes could change
    /// the outcome. A non-capped result is final under any extension of
    /// `data` — every comparison stopped at a byte mismatch strictly
    /// inside `data` (or at the extension-independent [`MAX_MATCH`] cap),
    /// which is the invariant the resumable [`LzssPrefix`] snapshot rests
    /// on.
    fn find_match_capped(
        &self,
        data: &[u8],
        i: usize,
        head: &[i32],
        prev: &[i32],
    ) -> (Option<(usize, usize)>, bool) {
        if i + MIN_MATCH > data.len() {
            // Too close to the end to match now, but an extension could
            // make this position matchable: capped by definition.
            return (None, true);
        }
        let mut best_len = MIN_MATCH - 1;
        let mut best_off = 0usize;
        let max_len = MAX_MATCH.min(data.len() - i);
        let end_limited = data.len() - i < MAX_MATCH;
        let mut capped = false;
        let mut cand = head[Self::hash(data, i)];
        let mut probes = self.max_chain;
        while cand >= 0 && probes > 0 {
            let j = cand as usize;
            if i - j > WINDOW {
                break;
            }
            // Check the byte just past the current best first: cheap filter.
            if data[j + best_len] == data[i + best_len] {
                let mut l = 0;
                while l < max_len && data[j + l] == data[i + l] {
                    l += 1;
                }
                if l == max_len && end_limited {
                    capped = true;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - j;
                    if l == max_len {
                        break;
                    }
                }
            }
            cand = prev[j & (WINDOW - 1)];
            probes -= 1;
        }
        (
            (best_len >= MIN_MATCH).then_some((best_off, best_len)),
            capped,
        )
    }
}

/// Where the encoder's tokens go: materialized bytes ([`TokenWriter`]) or
/// a running byte count ([`TokenCounter`]). One encode loop serves both,
/// so the size-only path can never drift from the real stream layout.
trait TokenSink {
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

impl Lzss {
    /// The encode loop, parameterized over the sink: [`Compressor::compress`]
    /// materializes, [`Compressor::compressed_len`] counts.
    fn encode<S: TokenSink>(&self, data: &[u8], w: &mut S) {
        if data.len() < MIN_MATCH {
            for &b in data {
                w.literal(b);
            }
            return;
        }

        let mut head = vec![-1i32; HASH_SIZE];
        let mut prev = vec![-1i32; WINDOW];
        let insert = |head: &mut [i32], prev: &mut [i32], pos: usize| {
            let h = Self::hash(data, pos);
            prev[pos & (WINDOW - 1)] = head[h];
            head[h] = pos as i32;
        };

        let mut i = 0usize;
        while i < data.len() {
            match self.find_match(data, i, &head, &prev) {
                Some((off, len)) => {
                    w.back_ref(off, len);
                    // Index every covered position so later matches can
                    // reference the interior of this one.
                    let stop = (i + len).min(data.len().saturating_sub(MIN_MATCH - 1));
                    for p in i..stop {
                        insert(&mut head, &mut prev, p);
                    }
                    i += len;
                }
                None => {
                    w.literal(data[i]);
                    if i + MIN_MATCH <= data.len() {
                        insert(&mut head, &mut prev, i);
                    }
                    i += 1;
                }
            }
        }
    }
}

/// One hash-chain insertion recorded for undo, so a single prefix
/// snapshot can serve many `concat_len` calls without cloning the
/// ~144 KB `head`/`prev` tables per call.
struct InsertUndo {
    hash_slot: u32,
    old_head: i32,
    prev_slot: u16,
    old_prev: i32,
}

/// Resumable count-only encoder state: `x` compressed once, then
/// `C(x ⊕ y)` for any number of `y` continuations without re-encoding
/// the prefix.
///
/// The snapshot stops at the first position whose token is *not* final
/// under extension (see [`Lzss::find_match_capped`]): a token emitted for
/// `x` alone survives into the encoding of `x ⊕ y` exactly when its match
/// search never ran into the end of `x`. Everything before that point —
/// token count, control-byte phase, and hash-chain insertions — is frozen;
/// [`LzssPrefix::concat_len`] re-encodes only the unsafe tail of `x` plus
/// `y`, journaling its hash-chain insertions and undoing them afterwards,
/// so the result is byte-for-byte equal to
/// [`Compressor::compressed_len`]`(x ⊕ y)` (proven by proptest).
pub struct LzssPrefix {
    cfg: Lzss,
    /// `x` followed by the current `y` (truncated back to `x` between calls).
    buf: Vec<u8>,
    x_len: usize,
    head: Vec<i32>,
    prev: Vec<i32>,
    /// First position not covered by a frozen token.
    resume_at: usize,
    /// Byte count of the frozen tokens.
    count: usize,
    /// Control-byte phase after the frozen tokens.
    ctrl_used: u8,
    journal: Vec<InsertUndo>,
}

impl std::fmt::Debug for LzssPrefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LzssPrefix")
            .field("x_len", &self.x_len)
            .field("resume_at", &self.resume_at)
            .field("count", &self.count)
            .finish()
    }
}

impl Lzss {
    /// Snapshot the count-only encoder after compressing `x`, for
    /// repeated [`LzssPrefix::concat_len`] queries.
    pub fn prefix(&self, x: &[u8]) -> LzssPrefix {
        let mut head = vec![-1i32; HASH_SIZE];
        let mut prev = vec![-1i32; WINDOW];
        let mut counter = TokenCounter::default();
        let mut i = 0usize;
        // Freeze tokens while they are final under extension. The loop
        // bound also stops before the trailing `MIN_MATCH − 1` bytes,
        // whose literal-vs-match decision depends on what follows `x`.
        // (For `x.len() < MIN_MATCH` nothing freezes and `concat_len`
        // re-encodes from position 0 — including `encode`'s all-literal
        // special case for tiny totals.)
        while i + MIN_MATCH <= x.len() {
            let (m, capped) = self.find_match_capped(x, i, &head, &prev);
            if capped {
                break;
            }
            match m {
                Some((off, len)) => {
                    counter.back_ref(off, len);
                    // Mirror `encode`: index covered positions whose full
                    // 3-byte hash window lies inside `x`. Positions whose
                    // window crosses into `y` are caught up per call.
                    let stop = (i + len).min(x.len() - (MIN_MATCH - 1));
                    for p in i..stop {
                        let h = Self::hash(x, p);
                        prev[p & (WINDOW - 1)] = head[h];
                        head[h] = p as i32;
                    }
                    i += len;
                }
                None => {
                    counter.literal(x[i]);
                    let h = Self::hash(x, i);
                    prev[i & (WINDOW - 1)] = head[h];
                    head[h] = i as i32;
                    i += 1;
                }
            }
        }
        LzssPrefix {
            cfg: self.clone(),
            buf: x.to_vec(),
            x_len: x.len(),
            head,
            prev,
            resume_at: i,
            count: counter.len,
            ctrl_used: counter.ctrl_used,
            journal: Vec::new(),
        }
    }
}

impl LzssPrefix {
    fn insert_journaled(&mut self, pos: usize) {
        let h = Lzss::hash(&self.buf, pos);
        let slot = pos & (WINDOW - 1);
        self.journal.push(InsertUndo {
            hash_slot: h as u32,
            old_head: self.head[h],
            prev_slot: slot as u16,
            old_prev: self.prev[slot],
        });
        self.prev[slot] = self.head[h];
        self.head[h] = pos as i32;
    }

    /// `C(x ⊕ y)`: byte-for-byte what [`Compressor::compressed_len`]
    /// returns for the concatenation, re-encoding only from the snapshot's
    /// resume point.
    pub fn concat_len(&mut self, y: &[u8]) -> usize {
        self.buf.truncate(self.x_len);
        self.buf.extend_from_slice(y);
        let total = self.buf.len();
        if total < MIN_MATCH {
            // `encode`'s all-literal special case: one control byte plus
            // the raw bytes (x.len() < MIN_MATCH here, so nothing froze).
            return if total == 0 { 0 } else { total + 1 };
        }
        debug_assert!(self.journal.is_empty());

        // Catch-up insertions: positions before the resume point that a
        // from-scratch encode of x ⊕ y would have indexed but the snapshot
        // could not (their 3-byte hash window crosses into y). They come
        // after every snapshot insertion in position order, so appending
        // them preserves the from-scratch hash-chain ordering.
        let lo = self.x_len.saturating_sub(MIN_MATCH - 1);
        let hi = self.resume_at.min(total - (MIN_MATCH - 1));
        for p in lo..hi {
            self.insert_journaled(p);
        }

        // Resume the count-only encode loop — a journaled mirror of
        // `Lzss::encode` — from the first unfrozen position.
        let mut counter = TokenCounter {
            len: self.count,
            ctrl_used: self.ctrl_used,
        };
        let mut i = self.resume_at;
        while i < total {
            match self.cfg.find_match(&self.buf, i, &self.head, &self.prev) {
                Some((off, len)) => {
                    counter.back_ref(off, len);
                    let stop = (i + len).min(total - (MIN_MATCH - 1));
                    for p in i..stop {
                        self.insert_journaled(p);
                    }
                    i += len;
                }
                None => {
                    counter.literal(self.buf[i]);
                    if i + MIN_MATCH <= total {
                        self.insert_journaled(i);
                    }
                    i += 1;
                }
            }
        }

        // Roll the hash chains back to the snapshot (reverse order undoes
        // repeated writes to the same slot correctly).
        while let Some(u) = self.journal.pop() {
            self.head[u.hash_slot as usize] = u.old_head;
            self.prev[u.prev_slot as usize] = u.old_prev;
        }
        counter.len
    }
}

impl Lzss {
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut w = TokenWriter::new(data.len() / 2 + 16);
        self.encode(data, &mut w);
        w.out
    }

    pub fn compressed_len(&self, data: &[u8]) -> usize {
        let mut c = TokenCounter::default();
        self.encode(data, &mut c);
        c.len
    }
}
