//! The compiled detection engine: one multi-pattern token automaton per
//! content field plus a token→signature inverted index, so a single linear
//! pass over each field's bytes evaluates **every** conjunction signature
//! simultaneously.
//!
//! Detection is the system's only per-request path — the device gate
//! inspects every outgoing HTTP packet — and the naive matcher is
//! O(signatures × tokens × |packet|). This engine compiles a
//! [`SignatureSet`] once (at install/restore time on the device, at
//! construction time on the server) into:
//!
//! * a **token registry**: distinct `(field, bytes)` patterns, shared
//!   across signatures;
//! * per field, an **Aho–Corasick automaton** over that field's patterns,
//!   compiled to a DFA over byte classes, or a **single-needle fallback**
//!   with a hand-rolled memchr-style skip loop when the field holds
//!   exactly one pattern. The DFA gives every distinct pattern byte its
//!   own class and sends every other byte to class 0; the failure links
//!   are resolved at build time into a premultiplied `u32` transition
//!   table (one row per state, one entry per class, the high bit flagging
//!   states that emit hits), so a scan step is one class lookup and one
//!   table load, and a dense 256-entry root row serves the common at-root
//!   position with a single load. Memory is states × classes × 4 B:
//!   about 1.8 MB for a 129-signature device generation, about 16 MB for
//!   the transient engine that prunes an N = 2000 regeneration's ~3,000
//!   candidates;
//! * an **inverted index** from pattern → owning signatures with
//!   per-signature token multiplicities (weights), driving per-packet hit
//!   counters: a signature's counter reaching its total token count is a
//!   conjunction match — no per-signature rescanning;
//! * a per-signature **rarest-token guard**: the pattern owned by the
//!   fewest signatures (ties: longest). A signature enters candidate
//!   evaluation only when its guard fires, which prescreens
//!   [`MatchMode::Conjunction`] evaluation down to signatures that can
//!   still fully match.
//!
//! Both [`MatchMode`]s are served by the same pass:
//!
//! * `Conjunction` — counter == total;
//! * `Fraction(t)` — counter ⁄ total ≥ t over every touched signature.
//!
//! Per-packet state lives in a reusable [`ScanScratch`] with epoch-stamped
//! slots, so resetting between packets is O(touched), not O(signatures).

use crate::detect::MatchMode;
use crate::signature::{Field, SignatureSet};
use leaksig_http::{HttpPacket, PacketView};
use std::collections::HashMap;

/// Number of content fields (request line, cookie, body).
const FIELDS: usize = 3;

/// Position of `field` in [`Field::ALL`] order.
pub(crate) fn field_index(field: Field) -> usize {
    match field {
        Field::RequestLine => 0,
        Field::Cookie => 1,
        Field::Body => 2,
    }
}

// ---------------------------------------------------------------------------
// Hand-rolled byte search primitives (deps stay vendored/offline): the
// crate's one single-pattern search, shared by the signature, audit,
// analysis and Bayes layers.
// ---------------------------------------------------------------------------

/// First index of `needle_byte` in `hay`, SWAR word-at-a-time (the classic
/// memchr bit trick: a zero byte in `w ^ broadcast` lights the high bit of
/// its lane in `(v - 0x01…) & !v & 0x80…`).
fn memchr_byte(needle_byte: u8, hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let broadcast = LO * needle_byte as u64;
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap()) ^ broadcast;
        let hit = w.wrapping_sub(LO) & !w & HI;
        if hit != 0 {
            return Some(base + (hit.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle_byte)
        .map(|p| base + p)
}

/// Whether `hay` contains `needle`: [`find_from`] from offset 0. Empty
/// needles match everywhere, like `str::contains("")`.
pub(crate) fn contains_bytes(hay: &[u8], needle: &[u8]) -> bool {
    find_from(hay, needle, 0).is_some()
}

/// First occurrence of `needle` in `hay` starting at or after `from`, as
/// an absolute offset: a memchr-style skip loop on the needle's rarest
/// byte, then a direct comparison at the implied start. An empty needle
/// occurs at `from` itself; nothing occurs once `from` is past the end.
/// Any needle length works.
pub(crate) fn find_from(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() {
        return (from <= hay.len()).then_some(from);
    }
    let last_start = hay.len().checked_sub(needle.len())?;
    if from > last_start {
        return None;
    }
    let (skip_at, skip_byte) = rarest_byte(needle);
    let mut start = from;
    // An occurrence starting at `s` puts the rare byte at `s + skip_at`,
    // so only rare bytes up to `last_start + skip_at` can begin one.
    while let Some(i) = memchr_byte(skip_byte, &hay[start + skip_at..=last_start + skip_at]) {
        let s = start + i;
        if &hay[s..s + needle.len()] == needle {
            return Some(s);
        }
        start = s + 1;
    }
    None
}

/// Pick the needle byte least likely to occur in HTTP-shaped traffic
/// (static rarity classes: alphanumerics and separators are common,
/// everything else rare), returning `(offset, byte)`.
fn rarest_byte(needle: &[u8]) -> (usize, u8) {
    fn rarity(b: u8) -> u8 {
        match b {
            b'a'..=b'z' | b'0'..=b'9' => 3,
            b'A'..=b'Z' | b'=' | b'&' | b'/' | b'.' | b'-' | b'_' | b' ' => 2,
            b'%' | b'+' | b';' | b':' | b'?' => 1,
            _ => 0,
        }
    }
    let mut best = (0usize, needle[0]);
    let mut best_rarity = rarity(needle[0]);
    for (i, &b) in needle.iter().enumerate().skip(1) {
        let r = rarity(b);
        if r < best_rarity {
            best = (i, b);
            best_rarity = r;
            if r == 0 {
                break;
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Aho–Corasick automaton, compiled to a byte-class DFA.
// ---------------------------------------------------------------------------

/// Flag bit of a transition-table entry: the target state emits pattern
/// hits. The low bits are the target's premultiplied row offset.
const OUT: u32 = 1 << 31;

/// A build-time trie node. Only [`Automaton::build`] sees these: once the
/// transition table is filled they are dropped.
#[derive(Debug, Default)]
struct TrieNode {
    /// Outgoing edges, sorted by byte.
    edges: Vec<(u8, u32)>,
    /// Pattern ids ending at this state, including those reachable via
    /// failure links (flattened during the BFS).
    outputs: Vec<u32>,
}

/// Disjoint `&mut` / `&` access to two distinct nodes of the arena-style
/// node vector (the BFS pass writes the child while reading its fail
/// target).
fn two_nodes(nodes: &mut [TrieNode], dst: usize, src: usize) -> (&mut TrieNode, &TrieNode) {
    debug_assert_ne!(dst, src);
    if dst < src {
        let (lo, hi) = nodes.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = nodes.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

/// A multi-pattern matcher over one field's patterns: the Aho–Corasick
/// automaton with every failure transition resolved ahead of time, so a
/// scan step is one table load whatever the state. The payload check
/// ([`crate::payload::PayloadCheck`]) compiles its needles into one too.
#[derive(Debug, Clone)]
pub(crate) struct Automaton {
    /// Byte → class. Each distinct pattern byte has its own class; every
    /// byte no pattern contains shares class 0.
    classes: Box<[u8; 256]>,
    /// Classes per state: the row stride of `table`.
    stride: u32,
    /// Transitions, one row of `stride` entries per state (root first).
    /// An entry is the target's row offset (`state × stride`,
    /// premultiplied so a step needs no multiply), with [`OUT`] set when
    /// the target emits hits.
    table: Vec<u32>,
    /// The root row indexed by raw byte: most scan positions sit at the
    /// root, where this skips the class lookup.
    root: Box<[u32; 256]>,
    /// Per state: start of its hits in `outputs` (one extra closing
    /// entry), so state `i` emits `outputs[out_start[i]..out_start[i + 1]]`.
    out_start: Vec<u32>,
    /// Pattern ids of every state's hits, flat.
    outputs: Vec<u32>,
}

impl Automaton {
    /// Build from `(pattern bytes, pattern id)` pairs. Patterns must be
    /// non-empty: `FieldToken` refuses empty tokens, and `PayloadCheck`
    /// empty values.
    pub(crate) fn build(patterns: &[(&[u8], u32)]) -> Self {
        // 1. The trie. Each pattern's new states are allocated
        // consecutively, and rows keep this numbering, so a scan walking
        // down one pattern reads neighbouring rows.
        let mut nodes = vec![TrieNode::default()];
        for &(pat, pid) in patterns {
            debug_assert!(!pat.is_empty());
            let mut state = 0u32;
            for &b in pat {
                let node = &nodes[state as usize];
                state = match node.edges.binary_search_by_key(&b, |e| e.0) {
                    Ok(i) => node.edges[i].1,
                    Err(i) => {
                        let next = nodes.len() as u32;
                        nodes[state as usize].edges.insert(i, (b, next));
                        nodes.push(TrieNode::default());
                        next
                    }
                };
            }
            nodes[state as usize].outputs.push(pid);
        }

        // 2. Byte classes.
        let mut used = [false; 256];
        for &(pat, _) in patterns {
            for &b in pat {
                used[b as usize] = true;
            }
        }
        let distinct = used.iter().filter(|&&u| u).count();
        let mut classes = Box::new([0u8; 256]);
        let stride = if distinct == 256 {
            // No byte is left over for a shared class 0.
            for (b, c) in classes.iter_mut().enumerate() {
                *c = b as u8;
            }
            256
        } else {
            let mut next = 0u8;
            for (c, _) in classes.iter_mut().zip(used).filter(|(_, u)| *u) {
                next += 1;
                *c = next;
            }
            distinct + 1
        };

        // 3. The table, filled in BFS order: a state's row is its fail
        // state's row (already filled: it is shallower) overridden by its
        // own goto edges, so every failure walk is resolved here, once.
        // The copied row also yields each child's fail state (the target
        // of the child's byte from the parent's fail state), and the
        // child's outputs are flattened before any row points at it.
        let n = nodes.len();
        assert!(
            (n as u64) * (stride as u64) < u64::from(OUT),
            "automaton too large for 31-bit row offsets"
        );
        let mut table = vec![0u32; n * stride];
        let mut fail = vec![0u32; n];
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(state) = queue.pop_front() {
            let row = state as usize * stride;
            if state != 0 {
                let fail_row = fail[state as usize] as usize * stride;
                table.copy_within(fail_row..fail_row + stride, row);
            }
            for ei in 0..nodes[state as usize].edges.len() {
                let (b, child) = nodes[state as usize].edges[ei];
                let slot = row + classes[b as usize] as usize;
                if state != 0 {
                    // A proper suffix of `child`, so strictly shallower:
                    // the split borrow is safe.
                    let f = (table[slot] & !OUT) / stride as u32;
                    fail[child as usize] = f;
                    if f != 0 {
                        let (dst, src) = two_nodes(&mut nodes, child as usize, f as usize);
                        dst.outputs.extend_from_slice(&src.outputs);
                    }
                }
                let flag = if nodes[child as usize].outputs.is_empty() {
                    0
                } else {
                    OUT
                };
                table[slot] = (child * stride as u32) | flag;
                queue.push_back(child);
            }
        }
        let mut root = Box::new([0u32; 256]);
        for (b, slot) in root.iter_mut().enumerate() {
            *slot = table[classes[b] as usize];
        }
        let mut out_start = Vec::with_capacity(n + 1);
        let mut outputs = Vec::new();
        for node in &nodes {
            out_start.push(outputs.len() as u32);
            outputs.extend_from_slice(&node.outputs);
        }
        out_start.push(outputs.len() as u32);
        Automaton {
            classes,
            stride: stride as u32,
            table,
            root,
            out_start,
            outputs,
        }
    }

    /// One linear pass over `hay`; `on_hit(pid, end_pos)` fires for every
    /// occurrence of every pattern (end position = index of its last byte).
    ///
    /// The root carries no outputs (patterns are non-empty), so a byte
    /// that leaves the scan at the root costs one load from the dense
    /// root row; elsewhere a step is a class lookup plus one table load.
    pub(crate) fn scan(&self, hay: &[u8], mut on_hit: impl FnMut(u32, usize)) {
        let mut state = 0u32;
        for (pos, &b) in hay.iter().enumerate() {
            let next = if state == 0 {
                let next = self.root[b as usize];
                if next == 0 {
                    continue;
                }
                next
            } else {
                self.table[(state + u32::from(self.classes[b as usize])) as usize]
            };
            state = next & !OUT;
            if next & OUT != 0 {
                let i = (state / self.stride) as usize;
                let hits = self.out_start[i] as usize..self.out_start[i + 1] as usize;
                for &pid in &self.outputs[hits] {
                    on_hit(pid, pos);
                }
            }
        }
    }

    /// Whether any pattern occurs in `hay`: the [`Automaton::scan`] loop,
    /// stopping at the first state that emits a hit.
    pub(crate) fn contains_any(&self, hay: &[u8]) -> bool {
        let mut state = 0u32;
        for &b in hay {
            let next = if state == 0 {
                self.root[b as usize]
            } else {
                self.table[(state + u32::from(self.classes[b as usize])) as usize]
            };
            if next & OUT != 0 {
                return true;
            }
            state = next;
        }
        false
    }

    fn state_count(&self) -> usize {
        self.out_start.len() - 1
    }

    /// Largest output set of any state: the worst-case number of pattern
    /// hits a single scan position can emit.
    fn max_outputs(&self) -> usize {
        self.out_start
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// Per-field matcher: nothing, one needle (a [`find_from`] loop), or a
/// full automaton.
#[derive(Debug, Clone)]
enum FieldMatcher {
    Empty,
    Single { pattern: Vec<u8>, pid: u32 },
    Automaton(Automaton),
}

impl FieldMatcher {
    fn scan(&self, hay: &[u8], mut on_hit: impl FnMut(u32, usize)) {
        match self {
            FieldMatcher::Empty => {}
            FieldMatcher::Single { pattern, pid } => {
                let mut from = 0;
                while let Some(start) = find_from(hay, pattern, from) {
                    on_hit(*pid, start + pattern.len() - 1);
                    from = start + 1;
                }
            }
            FieldMatcher::Automaton(a) => a.scan(hay, on_hit),
        }
    }
}

// ---------------------------------------------------------------------------
// The compiled detector.
// ---------------------------------------------------------------------------

/// One inverted-index entry: `pattern → (signature, multiplicity)`.
#[derive(Debug, Clone)]
struct PatternOwner {
    /// Signature index (position in the source set).
    sig: u32,
    /// How many of the signature's tokens are this exact pattern.
    weight: u32,
    /// Whether this pattern is the signature's rarest-token guard.
    guard: bool,
}

/// The three content fields of one packet as borrowed byte slices — the
/// zero-copy scan input. Build one with [`FieldBytes::from_view`] on the
/// hot path, or field-by-field in tests.
#[derive(Debug, Clone, Copy)]
pub struct FieldBytes<'a> {
    /// `METHOD SP target` request-line bytes (no version suffix).
    pub rline: &'a [u8],
    /// First `Cookie` header value, empty when absent.
    pub cookie: &'a [u8],
    /// Message body bytes.
    pub body: &'a [u8],
}

impl<'a> FieldBytes<'a> {
    /// The scan fields of a borrowed packet view — pure slice reads, no
    /// allocation.
    pub fn from_view(v: &PacketView<'a>) -> Self {
        FieldBytes {
            rline: v.rline(),
            cookie: v.cookie(),
            body: v.body(),
        }
    }
}

/// A [`SignatureSet`] compiled for high-volume matching. See the module
/// docs for the layout. Compilation happens once per set — on the device,
/// once per installed generation, never per packet.
#[derive(Debug, Clone)]
pub struct CompiledDetector {
    mode: MatchMode,
    matchers: [FieldMatcher; FIELDS],
    /// Inverted index, indexed by pattern id.
    owners: Vec<Vec<PatternOwner>>,
    /// Per signature: total token count (conjunction target).
    totals: Vec<u32>,
    /// Per signature: wire ids, in set order.
    ids: Vec<u32>,
    /// Signatures with no tokens: vacuous conjunction matches.
    always: Vec<u32>,
    /// Per field: (distinct patterns, total pattern bytes, longest
    /// pattern), recorded at compile time for the static cost report.
    field_stats: [(usize, usize, usize); FIELDS],
}

/// Static cost of one field's compiled matcher, reported by
/// [`CompiledDetector::field_costs`].
#[derive(Debug, Clone)]
pub struct FieldCost {
    /// The field this matcher scans.
    pub field: Field,
    /// Distinct patterns routed to this field.
    pub patterns: usize,
    /// Total bytes across those patterns.
    pub pattern_bytes: usize,
    /// Automaton states (`0` for an empty field, `2` for the
    /// single-needle fast path).
    pub states: usize,
    /// Trie depth: the longest pattern in the field.
    pub max_depth: usize,
    /// Worst-case pattern hits any single scan position can emit (the
    /// largest flattened output set over all states).
    pub max_outputs: usize,
}

/// Reusable per-packet scan state. Epoch-stamped so that resetting between
/// packets touches only the slots the previous packet dirtied. One scratch
/// per thread; see [`CompiledDetector::scratch`].
#[derive(Debug)]
pub struct ScanScratch {
    epoch: u32,
    /// Per pattern: epoch of the last packet it was counted in.
    pat_seen: Vec<u32>,
    /// Per signature: epoch of the last packet it was touched in.
    sig_epoch: Vec<u32>,
    /// Per signature: token hits this packet (valid when epoch matches).
    counts: Vec<u32>,
    /// Signatures touched this packet (for Fraction evaluation).
    touched: Vec<u32>,
    /// Candidates whose guard pattern fired this packet.
    candidates: Vec<u32>,
    /// Owned-packet entry points: the request-line view, rebuilt in
    /// place for every packet.
    rline: Vec<u8>,
}

impl ScanScratch {
    fn begin(&mut self) {
        self.touched.clear();
        self.candidates.clear();
        if self.epoch == u32::MAX {
            // Epoch wrap: hard-reset all stamps (once per 4G packets).
            self.epoch = 0;
            self.pat_seen.fill(0);
            self.sig_epoch.fill(0);
        }
        self.epoch += 1;
    }
}

impl CompiledDetector {
    /// Compile a signature set for `mode`. The set is borrowed: the
    /// compiled form is self-contained (pattern bytes are copied into the
    /// automata).
    pub fn compile(set: &SignatureSet, mode: MatchMode) -> Self {
        // 1. Token registry: distinct (field, bytes) → pattern id.
        let mut registry: HashMap<(usize, &[u8]), u32> = HashMap::new();
        let mut pattern_bytes: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut owners: Vec<Vec<PatternOwner>> = Vec::new();
        let mut totals = Vec::with_capacity(set.len());
        let mut ids = Vec::with_capacity(set.len());
        let mut always = Vec::new();
        let mut sig_patterns: Vec<Vec<u32>> = Vec::with_capacity(set.len());

        for (sig_idx, sig) in set.iter().enumerate() {
            ids.push(sig.id);
            totals.push(sig.tokens.len() as u32);
            if sig.tokens.is_empty() {
                always.push(sig_idx as u32);
            }
            let mut pids = Vec::with_capacity(sig.tokens.len());
            for tok in &sig.tokens {
                let key = (field_index(tok.field), tok.bytes());
                let pid = match registry.get(&key) {
                    Some(&pid) => pid,
                    None => {
                        let pid = pattern_bytes.len() as u32;
                        pattern_bytes.push((key.0, tok.bytes().to_vec()));
                        owners.push(Vec::new());
                        // Re-key against the copied bytes (the borrow into
                        // `sig` is fine for the map's lifetime here).
                        registry.insert(key, pid);
                        pid
                    }
                };
                pids.push(pid);
                let entries = &mut owners[pid as usize];
                match entries.iter_mut().find(|o| o.sig == sig_idx as u32) {
                    Some(o) => o.weight += 1,
                    None => entries.push(PatternOwner {
                        sig: sig_idx as u32,
                        weight: 1,
                        guard: false,
                    }),
                }
            }
            sig_patterns.push(pids);
        }

        // 2. Rarest-token guards: per signature, the pattern owned by the
        // fewest signatures (ties: longest pattern). Popularity must be
        // final before picking, hence the second pass.
        for (sig_idx, pids) in sig_patterns.iter().enumerate() {
            let guard = pids.iter().copied().min_by_key(|&pid| {
                (
                    owners[pid as usize].len(),
                    usize::MAX - pattern_bytes[pid as usize].1.len(),
                )
            });
            if let Some(gpid) = guard {
                if let Some(o) = owners[gpid as usize]
                    .iter_mut()
                    .find(|o| o.sig == sig_idx as u32)
                {
                    o.guard = true;
                }
            }
        }

        // 3. Per-field matchers.
        let mut per_field: [Vec<(&[u8], u32)>; FIELDS] = Default::default();
        for (pid, (f, bytes)) in pattern_bytes.iter().enumerate() {
            per_field[*f].push((bytes.as_slice(), pid as u32));
        }
        let mut field_stats = [(0usize, 0usize, 0usize); FIELDS];
        for (f, patterns) in per_field.iter().enumerate() {
            field_stats[f] = (
                patterns.len(),
                patterns.iter().map(|(b, _)| b.len()).sum(),
                patterns.iter().map(|(b, _)| b.len()).max().unwrap_or(0),
            );
        }
        let matchers = per_field.map(|patterns| match patterns.len() {
            0 => FieldMatcher::Empty,
            1 => FieldMatcher::Single {
                pattern: patterns[0].0.to_vec(),
                pid: patterns[0].1,
            },
            _ => FieldMatcher::Automaton(Automaton::build(&patterns)),
        });

        CompiledDetector {
            mode,
            matchers,
            owners,
            totals,
            ids,
            always,
            field_stats,
        }
    }

    /// Static per-field matcher costs, in [`Field::ALL`] order: pattern
    /// counts and byte volume from compile time, automaton size and
    /// worst-case hit density measured from the built matchers.
    pub fn field_costs(&self) -> [FieldCost; FIELDS] {
        std::array::from_fn(|i| {
            let (patterns, pattern_bytes, max_depth) = self.field_stats[i];
            let field = Field::ALL[i];
            let (states, max_outputs) = match &self.matchers[i] {
                FieldMatcher::Automaton(a) => (a.state_count(), a.max_outputs()),
                FieldMatcher::Single { .. } => (2, 1),
                FieldMatcher::Empty => (0, 0),
            };
            FieldCost {
                field,
                patterns,
                pattern_bytes,
                states,
                max_depth,
                max_outputs,
            }
        })
    }

    /// A scratch sized for this engine. Allocate one per thread; every
    /// `match_*` call reuses it without further allocation.
    pub fn scratch(&self) -> ScanScratch {
        let n_sig = self.totals.len();
        ScanScratch {
            epoch: 0,
            pat_seen: vec![0; self.owners.len()],
            sig_epoch: vec![0; n_sig],
            counts: vec![0; n_sig],
            touched: Vec::with_capacity(n_sig.min(64)),
            candidates: Vec::with_capacity(n_sig.min(64)),
            rline: Vec::new(),
        }
    }

    /// Run the per-field matchers over an owned `packet`. The request-line
    /// view (`METHOD SP target`) is assembled in the scratch's reusable
    /// buffer, so once that buffer has grown to the longest request line
    /// seen this allocates nothing either.
    fn scan_packet(&self, s: &mut ScanScratch, packet: &HttpPacket) {
        let mut rline = std::mem::take(&mut s.rline);
        rline.clear();
        rline.extend_from_slice(packet.request_line.method.as_str().as_bytes());
        rline.push(b' ');
        rline.extend_from_slice(packet.request_line.target.as_bytes());
        self.scan_field_bytes(
            s,
            FieldBytes {
                rline: &rline,
                cookie: packet.cookie(),
                body: &packet.body,
            },
        );
        s.rline = rline;
    }

    /// The allocation-free scan core: run the per-field matchers over
    /// borrowed field bytes, filling the hit counters.
    fn scan_field_bytes(&self, s: &mut ScanScratch, fields: FieldBytes<'_>) {
        self.scan_segments(s, [(0, fields.rline), (1, fields.cookie), (2, fields.body)]);
    }

    /// [`CompiledDetector::scan_field_bytes`] over any number of haystacks
    /// per field, given as `(field index, bytes)`: one scan, so a pattern
    /// found in any segment of its field counts, but no match spans two
    /// segments.
    fn scan_segments<'h>(
        &self,
        s: &mut ScanScratch,
        segments: impl IntoIterator<Item = (usize, &'h [u8])>,
    ) {
        s.begin();
        for (f, hay) in segments {
            let matcher = &self.matchers[f];
            if matches!(matcher, FieldMatcher::Empty) {
                continue;
            }
            let epoch = s.epoch;
            // Split-borrow the scratch so the closure can touch every
            // component without aliasing `self`.
            let ScanScratch {
                pat_seen,
                sig_epoch,
                counts,
                touched,
                candidates,
                ..
            } = s;
            matcher.scan(hay, |pid, _| {
                let p = pid as usize;
                if pat_seen[p] == epoch {
                    return;
                }
                pat_seen[p] = epoch;
                for owner in &self.owners[p] {
                    let sidx = owner.sig as usize;
                    if sig_epoch[sidx] != epoch {
                        sig_epoch[sidx] = epoch;
                        counts[sidx] = 0;
                        touched.push(owner.sig);
                    }
                    counts[sidx] += owner.weight;
                    if owner.guard {
                        candidates.push(owner.sig);
                    }
                }
            });
        }
    }

    #[inline]
    fn sig_matches(&self, s: &ScanScratch, sig_idx: usize) -> bool {
        let count = s.counts[sig_idx];
        let total = self.totals[sig_idx];
        match self.mode {
            MatchMode::Conjunction => count == total,
            // Mirror `match_fraction`'s exact float expression.
            MatchMode::Fraction(t) => count as f64 / total as f64 >= t,
        }
    }

    /// Collect all matching set indices from a completed scan into `out`
    /// (cleared first; ascending, deduped). No allocation once `out` has
    /// warmed up.
    fn collect_matches(&self, s: &ScanScratch, out: &mut Vec<u32>) {
        out.clear();
        match self.mode {
            MatchMode::Fraction(_) => {
                // A partial hit can clear the threshold, so every touched
                // signature is a candidate. Empty-token signatures score
                // 0.0 and never match (the threshold is > 0).
                for i in 0..s.touched.len() {
                    let sidx = s.touched[i] as usize;
                    if self.sig_matches(s, sidx) {
                        out.push(sidx as u32);
                    }
                }
            }
            MatchMode::Conjunction => {
                // Rarest-token prescreen: only guard-fired candidates can
                // have a full counter.
                for i in 0..s.candidates.len() {
                    let sidx = s.candidates[i] as usize;
                    if self.sig_matches(s, sidx) {
                        out.push(sidx as u32);
                    }
                }
                // Vacuous matches: token-free signatures match everything
                // under conjunction semantics.
                out.extend_from_slice(&self.always);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Set index of the first matching signature from a completed scan,
    /// without allocating.
    fn first_match(&self, s: &ScanScratch) -> Option<u32> {
        fn consider(best: &mut Option<u32>, i: u32) {
            if best.is_none_or(|b| i < b) {
                *best = Some(i);
            }
        }
        let mut best: Option<u32> = None;
        match self.mode {
            MatchMode::Fraction(_) => {
                for &t in &s.touched {
                    if self.sig_matches(s, t as usize) {
                        consider(&mut best, t);
                    }
                }
            }
            MatchMode::Conjunction => {
                for &c in &s.candidates {
                    if self.sig_matches(s, c as usize) {
                        consider(&mut best, c);
                    }
                }
                // `always` is built in set order: its first entry is the
                // smallest vacuous index.
                if let Some(&a) = self.always.first() {
                    consider(&mut best, a);
                }
            }
        }
        best
    }

    /// Zero-copy scan: one pass over the borrowed field bytes, returning
    /// the set index of the first matching signature. Allocation-free in
    /// steady state.
    pub fn verdict(&self, s: &mut ScanScratch, fields: FieldBytes<'_>) -> Option<u32> {
        self.scan_field_bytes(s, fields);
        self.first_match(s)
    }

    /// Zero-copy scan collecting every matching set index (ascending,
    /// deduped) into the caller's reusable buffer.
    pub fn matched_into(&self, s: &mut ScanScratch, fields: FieldBytes<'_>, out: &mut Vec<u32>) {
        self.scan_field_bytes(s, fields);
        self.collect_matches(s, out);
    }

    /// Every matching set index (ascending, deduped) into `out` for a
    /// "packet" made of `(field, bytes)` segments (see
    /// [`CompiledDetector::scan_segments`]). Under
    /// [`MatchMode::Conjunction`] a signature matches exactly when each of
    /// its tokens occurs inside some segment of its field.
    pub(crate) fn matched_segments_into<'h>(
        &self,
        s: &mut ScanScratch,
        segments: impl IntoIterator<Item = (Field, &'h [u8])>,
        out: &mut Vec<u32>,
    ) {
        self.scan_segments(s, segments.into_iter().map(|(f, b)| (field_index(f), b)));
        self.collect_matches(s, out);
    }

    /// Wire id of the signature at `set_idx` (set order).
    pub fn wire_id(&self, set_idx: usize) -> u32 {
        self.ids[set_idx]
    }

    /// Set indices of all matching signatures, ascending.
    fn matched(&self, s: &mut ScanScratch, packet: &HttpPacket) -> Vec<u32> {
        let mut out = Vec::new();
        self.scan_packet(s, packet);
        self.collect_matches(s, &mut out);
        out
    }

    /// Indices (set positions) of all matching signatures, ascending.
    pub fn matched_indices(&self, s: &mut ScanScratch, packet: &HttpPacket) -> Vec<usize> {
        self.matched(s, packet)
            .into_iter()
            .map(|i| i as usize)
            .collect()
    }

    /// Index of the first matching signature (set order), if any.
    /// Allocation-free once the scratch is warm.
    pub fn match_first(&self, s: &mut ScanScratch, packet: &HttpPacket) -> Option<usize> {
        self.scan_packet(s, packet);
        self.first_match(s).map(|i| i as usize)
    }

    /// Wire ids of all matching signatures, in set order.
    pub fn matched_ids(&self, s: &mut ScanScratch, packet: &HttpPacket) -> Vec<u32> {
        self.matched(s, packet)
            .into_iter()
            .map(|i| self.ids[i as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{ConjunctionSignature, FieldToken};
    use proptest::prelude::*;

    fn tok(field: Field, bytes: &[u8]) -> FieldToken {
        FieldToken::new(field, bytes)
    }

    fn sig(id: u32, tokens: Vec<FieldToken>) -> ConjunctionSignature {
        ConjunctionSignature {
            id,
            tokens,
            cluster_size: 2,
            hosts: vec![],
        }
    }

    #[test]
    fn memchr_agrees_with_position() {
        let hay = b"GET /ad?aid=f3a9c1d200b14e77&carrier=NTT+DOCOMO";
        for (i, &b) in hay.iter().enumerate() {
            let first = memchr_byte(b, hay).unwrap();
            assert!(first <= i);
            assert_eq!(hay[first], b);
        }
        assert_eq!(memchr_byte(b'\x00', hay), None);
        assert_eq!(memchr_byte(b'x', b""), None);
        // Positions past the first occurrence, across the 8-byte chunk
        // boundary.
        assert_eq!(memchr_byte(b'z', b"aaaaaaaaaaz"), Some(10));
    }

    /// The `windows` oracle for [`find_from`]: nothing past the end, an
    /// empty needle at `from`.
    fn windows_find_from(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
        if from > hay.len() {
            return None;
        }
        if needle.is_empty() {
            return Some(from);
        }
        hay[from..]
            .windows(needle.len())
            .position(|w| w == needle)
            .map(|p| p + from)
    }

    /// A haystack byte: mostly `a`/`b`, so cut needles recur and near
    /// misses abound, with a few arbitrary bytes for the rarest-byte skip.
    fn hay_byte() -> impl Strategy<Value = u8> {
        prop_oneof![Just(b'a'), Just(b'a'), Just(b'b'), any::<u8>()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `find_from` and `contains_bytes` agree with a `windows` search.
        /// The needle is cut from the haystack (up to 600 bytes, so well
        /// past 255), cut and then altered in one byte, or drawn freely
        /// (often longer than the haystack); `from` runs past the end.
        #[test]
        fn find_from_agrees_with_windows(
            hay in collection::vec(hay_byte(), 0..900),
            kind in 0u8..3,
            start in 0usize..900,
            len in 0usize..600,
            flip in any::<u8>(),
            free in collection::vec(hay_byte(), 0..400),
            from in 0usize..1000,
        ) {
            let needle = if kind == 2 {
                free
            } else {
                let start = start.min(hay.len());
                let mut cut = hay[start..(start + len).min(hay.len())].to_vec();
                if kind == 1 {
                    if let Some(b) = cut.get_mut(usize::from(flip) % len.max(1)) {
                        *b ^= flip | 1;
                    }
                }
                cut
            };
            let from = from.min(hay.len() + 2);
            prop_assert_eq!(find_from(&hay, &needle, from), windows_find_from(&hay, &needle, from));
            prop_assert_eq!(contains_bytes(&hay, &needle), windows_find_from(&hay, &needle, 0).is_some());
        }
    }

    #[test]
    fn contains_bytes_agrees_with_windows() {
        let hay = b"imei=355195000000017&slot=1&fmt=json";
        for w in 1..hay.len() {
            for start in 0..hay.len() - w {
                assert!(contains_bytes(hay, &hay[start..start + w]));
            }
        }
        assert!(!contains_bytes(hay, b"355195000000018"));
        assert!(!contains_bytes(b"short", b"muchlongerneedle"));
        assert!(contains_bytes(hay, b""));
        // A needle past 255 bytes, `from` at and past the end.
        let long = [b'x'; 300];
        let mut hay = b"head ".to_vec();
        hay.extend_from_slice(&long);
        assert_eq!(find_from(&hay, &long, 0), Some(5));
        assert_eq!(find_from(&hay, &long, 6), None);
        assert!(!contains_bytes(&long[..299], &long));
        assert_eq!(find_from(b"abc", b"", 3), Some(3));
        assert_eq!(find_from(b"abc", b"", 4), None);
        assert_eq!(find_from(b"abc", b"c", 3), None);
        assert!(contains_bytes(b"", b""));
    }

    #[test]
    fn automaton_finds_overlapping_and_nested_patterns() {
        // "he", "she", "his", "hers" — the textbook AC set.
        let pats: Vec<(&[u8], u32)> = vec![(b"he", 0), (b"she", 1), (b"his", 2), (b"hers", 3)];
        let a = Automaton::build(&pats);
        let mut hits: Vec<(u32, usize)> = Vec::new();
        a.scan(b"ushers", |pid, pos| hits.push((pid, pos)));
        hits.sort_unstable();
        // "she" ends at 3, "he" ends at 3, "hers" ends at 5.
        assert_eq!(hits, vec![(0, 3), (1, 3), (3, 5)]);
    }

    #[test]
    fn counting_engine_requires_all_tokens() {
        let set = SignatureSet {
            signatures: vec![sig(
                7,
                vec![
                    tok(Field::Body, b"alphaalpha"),
                    tok(Field::Body, b"betabeta"),
                ],
            )],
        };
        let engine = CompiledDetector::compile(&set, MatchMode::Conjunction);
        let mut s = engine.scratch();
        let mk = |body: &[u8]| {
            leaksig_http::RequestBuilder::post("/x")
                .body(body.to_vec())
                .destination(std::net::Ipv4Addr::LOCALHOST, 80, "h.jp")
                .build()
        };
        assert_eq!(
            engine.matched_ids(&mut s, &mk(b"alphaalpha123betabeta")),
            vec![7]
        );
        assert!(engine
            .matched_ids(&mut s, &mk(b"alphaalpha only"))
            .is_empty());
        // Scratch reuse across packets must not leak counters.
        assert_eq!(
            engine.matched_ids(&mut s, &mk(b"betabeta999alphaalpha")),
            vec![7]
        );
    }

    #[test]
    fn duplicate_tokens_weigh_twice() {
        // Same pattern twice in one signature: present-once still counts
        // both (presence semantics), matching the naive matcher.
        let set = SignatureSet {
            signatures: vec![sig(
                1,
                vec![tok(Field::Body, b"dupdup"), tok(Field::Body, b"dupdup")],
            )],
        };
        let engine = CompiledDetector::compile(&set, MatchMode::Conjunction);
        let mut s = engine.scratch();
        let p = leaksig_http::RequestBuilder::post("/x")
            .body(&b"xx dupdup yy"[..])
            .destination(std::net::Ipv4Addr::LOCALHOST, 80, "h.jp")
            .build();
        assert_eq!(engine.matched_ids(&mut s, &p), vec![1]);
    }

    #[test]
    fn empty_token_signature_is_vacuous() {
        let set = SignatureSet {
            signatures: vec![sig(9, vec![])],
        };
        let p = leaksig_http::RequestBuilder::get("/x")
            .destination(std::net::Ipv4Addr::LOCALHOST, 80, "h.jp")
            .build();
        let engine = CompiledDetector::compile(&set, MatchMode::Conjunction);
        let mut s = engine.scratch();
        assert_eq!(engine.matched_ids(&mut s, &p), vec![9]);
        let engine = CompiledDetector::compile(&set, MatchMode::Fraction(0.5));
        let mut s = engine.scratch();
        assert!(engine.matched_ids(&mut s, &p).is_empty());
    }
}
