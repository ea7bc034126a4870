//! Whole-set semantic analysis over a [`SignatureSet`] — no live traffic
//! required.
//!
//! The heuristic audit rules (`L006`/`L007`) compare signatures
//! *syntactically*; this module decides the semantic question behind
//! them: **A dominates B** iff every packet matching B also matches A,
//! under the installed [`MatchMode`]. The decision procedures are exact
//! for [`MatchMode::Conjunction`] and [`MatchMode::Ordered`] and sound
//! (with an explicit budget) for [`MatchMode::Fraction`]:
//!
//! * **Conjunction** — A dominates B when every A token is a substring of
//!   a same-field B token (or is present in every packet, like the
//!   request-line `" "`): B's constraints imply A's.
//! * **Ordered** — A's per-field hint-ordered token sequence must embed,
//!   in order, into the concatenation of B's hint-ordered tokens. When B
//!   ordered-matches, its tokens sit at increasing non-overlapping
//!   positions, so the embedded A tokens inherit valid positions; the
//!   greedy matcher succeeds whenever any placement exists.
//! * **Fraction(t)** — a branch-and-bound search over substring-closed
//!   subsets of B's tokens computes the minimum number of A tokens any
//!   packet presenting ≥ ⌈t·|B|⌉ B tokens must carry. The model
//!   over-approximates the achievable presence patterns, so a proved
//!   verdict is sound; searches past the node budget return undecided.
//!
//! Negative verdicts are *refuted*, not merely unproved: the analyzer
//! synthesizes a candidate counterexample packet (tokens joined with a
//! separator byte absent from every token) and verifies it against the
//! real matchers. A verdict is only [`Dominance::Refuted`] when the
//! witness actually matches B and not A; otherwise it stays honest as
//! [`Dominance::Undecided`].
//!
//! On top of the pairwise decision sit the set-level artifacts:
//! [`dead_signatures`]/[`drop_dead`] (proved-unreachable removal),
//! [`analyze_set`] (lattice + shadow/overlap graph + static cost),
//! [`fp_exposure`] (corpus-frequency upper bounds on false-positive
//! rates), and [`diff_generations`] (the semantic diff an operator
//! reviews before publishing a new generation).

use crate::detect::MatchMode;
use crate::engine::{contains_bytes, CompiledDetector, FieldCost};
use crate::signature::{ConjunctionSignature, Field, FieldToken, SignatureSet};
use leaksig_http::{Destination, HttpPacket, Method, RequestLine};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// Verdicts.
// ---------------------------------------------------------------------------

/// A machine-checkable dominance proof: how each dominator token is
/// implied by the dominated signature.
#[derive(Debug, Clone)]
pub struct DominanceProof {
    /// Per dominator-token: `(a_index, Some(b_index))` when A's token is
    /// implied by B's token at `b_index`, `(a_index, None)` when the
    /// token is present in every packet (the request-line space).
    /// Empty for vacuous and fraction-counting proofs.
    pub token_map: Vec<(usize, Option<usize>)>,
    /// Human-readable statement of the argument.
    pub detail: String,
}

/// A verified counterexample or overlap packet.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The synthesized packet, verified against the real matchers.
    pub packet: HttpPacket,
    /// What the packet demonstrates.
    pub trace: String,
}

impl Witness {
    /// One-line display form (lossy for non-UTF-8 cookie/body bytes).
    pub fn describe(&self) -> String {
        format!(
            "{} {} | cookie {:?} | body {:?} — {}",
            self.packet.request_line.method.as_str(),
            self.packet.request_line.target,
            String::from_utf8_lossy(self.packet.cookie()),
            String::from_utf8_lossy(&self.packet.body),
            self.trace
        )
    }
}

/// The three-valued outcome of a dominance query.
#[derive(Debug, Clone)]
pub enum Dominance {
    /// Every packet matching the dominated signature matches the
    /// dominator; the proof says why.
    Proved(DominanceProof),
    /// A verified packet matches the dominated signature but not the
    /// claimed dominator.
    Refuted(Witness),
    /// Neither proved nor refuted (budget exceeded, or no synthesized
    /// witness survived verification).
    Undecided(String),
}

enum RefuteHint {
    /// Aim the witness at B's full token list.
    FullB,
    /// Aim the witness at this subset of B's token indices (fraction
    /// mode's minimizing presence set).
    FractionSet(Vec<usize>),
}

enum Decision {
    Proved(DominanceProof),
    NotProved(RefuteHint),
    Budget(String),
}

// ---------------------------------------------------------------------------
// Shared primitives.
// ---------------------------------------------------------------------------

fn display(bytes: &[u8]) -> String {
    format!("{:?}", String::from_utf8_lossy(bytes))
}

fn fidx(f: Field) -> usize {
    match f {
        Field::RequestLine => 0,
        Field::Cookie => 1,
        Field::Body => 2,
    }
}

/// First occurrence of `needle` in `hay[from..]`, absolute offset —
/// the same semantics as the ordered matcher's `find_from`.
fn find_sub_from(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || from >= hay.len() || needle.len() > hay.len() - from {
        return None;
    }
    hay[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

/// Whether the token occurs in **every** packet's field content. The
/// request-line view is always `"METHOD target"`, so the single space is
/// the one token universally present (tokens are never empty: `Needle`
/// refuses zero-length patterns).
fn always_present(t: &FieldToken) -> bool {
    t.field == Field::RequestLine && t.bytes() == b" "
}

/// Bytes that cannot occur anywhere in valid UTF-8 (RFC 3629): a
/// request-line token containing one can never match, because the
/// request-line view is built from Rust `String`s.
fn utf8_impossible(b: u8) -> bool {
    matches!(b, 0xC0 | 0xC1 | 0xF5..=0xFF)
}

fn dead_rline_token(t: &FieldToken) -> bool {
    t.field == Field::RequestLine && t.bytes().iter().copied().any(utf8_impossible)
}

/// Smallest hit count whose fraction clears threshold `t` (computed with
/// the engine's exact float expression, so boundary thresholds like 0.5
/// on odd token counts agree bit-for-bit). Returns `total + 1` when no
/// count clears it.
fn min_count(total: usize, t: f64) -> usize {
    (1..=total)
        .find(|&c| c as f64 / total as f64 >= t)
        .unwrap_or(total + 1)
}

/// Why the signature can never match any packet under `mode`, if the
/// analyzer can prove it. `None` means "not proved unmatchable", not
/// "satisfiable".
pub fn unmatchable_reason(sig: &ConjunctionSignature, mode: MatchMode) -> Option<String> {
    match mode {
        MatchMode::Conjunction | MatchMode::Ordered => {
            sig.tokens.iter().find(|t| dead_rline_token(t)).map(|t| {
                format!(
                    "request-line token {} contains bytes no UTF-8 request line can carry",
                    display(t.bytes())
                )
            })
        }
        MatchMode::Fraction(t) => {
            if t <= 0.0 {
                return None; // Fraction 0.0 matches everything.
            }
            if t > 1.0 {
                return Some(format!("fraction threshold {t} exceeds 1.0: unreachable"));
            }
            let n = sig.tokens.len();
            if n == 0 {
                return Some(
                    "empty token list scores 0.0, below any positive fraction threshold"
                        .to_string(),
                );
            }
            let dead = sig.tokens.iter().filter(|tk| dead_rline_token(tk)).count();
            let best = (n - dead) as f64 / n as f64;
            if best < t {
                Some(format!(
                    "{dead} of {n} tokens can never match; best reachable fraction \
                     {best:.3} is below threshold {t}"
                ))
            } else {
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-mode decision procedures.
// ---------------------------------------------------------------------------

fn prove_conjunction(a: &ConjunctionSignature, b: &ConjunctionSignature) -> Decision {
    let mut map = Vec::with_capacity(a.tokens.len());
    for (ai, at) in a.tokens.iter().enumerate() {
        if always_present(at) {
            map.push((ai, None));
            continue;
        }
        let hit = b
            .tokens
            .iter()
            .position(|bt| bt.field == at.field && contains_bytes(bt.bytes(), at.bytes()));
        match hit {
            Some(bi) => map.push((ai, Some(bi))),
            None => return Decision::NotProved(RefuteHint::FullB),
        }
    }
    Decision::Proved(DominanceProof {
        token_map: map,
        detail: "every dominator token is contained in a same-field dominated token \
                 (or is universally present)"
            .to_string(),
    })
}

/// Per-field tokens with their indices in storage order, stably sorted by
/// order hint — exactly `matches_ordered`'s iteration order.
fn hint_sorted(sig: &ConjunctionSignature, field: Field) -> Vec<(usize, &FieldToken)> {
    let mut v: Vec<(usize, &FieldToken)> = sig
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.field == field)
        .collect();
    v.sort_by_key(|&(_, t)| t.order_hint());
    v
}

fn prove_ordered(a: &ConjunctionSignature, b: &ConjunctionSignature) -> Decision {
    let mut map = Vec::with_capacity(a.tokens.len());
    for field in Field::ALL {
        let a_seq = hint_sorted(a, field);
        if a_seq.is_empty() {
            continue;
        }
        let b_seq = hint_sorted(b, field);
        // Greedy embedding of A's sequence into the concatenation of B's
        // ordered occurrences: walk B's tokens with an intra-token
        // offset. Greedy-stays-ahead on the (token, offset) cursor makes
        // this complete, not just sound.
        let mut bi = 0usize;
        let mut off = 0usize;
        'next_a: for &(aidx, at) in &a_seq {
            loop {
                if bi >= b_seq.len() {
                    return Decision::NotProved(RefuteHint::FullB);
                }
                if let Some(p) = find_sub_from(b_seq[bi].1.bytes(), at.bytes(), off) {
                    off = p + at.bytes().len();
                    map.push((aidx, Some(b_seq[bi].0)));
                    continue 'next_a;
                }
                bi += 1;
                off = 0;
            }
        }
    }
    map.sort_unstable_by_key(|&(ai, _)| ai);
    Decision::Proved(DominanceProof {
        token_map: map,
        detail: "the dominator's ordered token sequence embeds, in order, into the \
                 dominated signature's ordered token occurrences"
            .to_string(),
    })
}

/// Token-count cap for the fraction search (masks are `u64`s).
const FRACTION_TOKEN_CAP: usize = 64;
/// Node budget for the branch-and-bound search.
const FRACTION_NODE_CAP: u64 = 1 << 20;

struct FractionSearch {
    n: usize,
    k_b: u32,
    /// Per B token j: B tokens forced present when j is (same-field
    /// substrings of j, including j itself; byte-equal duplicates are
    /// mutual).
    closure: Vec<u64>,
    /// Per B token j: B tokens whose presence forces j's.
    supers: Vec<u64>,
    /// Per B token j: A tokens forced present when j's closure is.
    implied_closure: Vec<u64>,
    full: u64,
    nodes: u64,
    best_count: u32,
    best_set: u64,
    overflow: bool,
}

impl FractionSearch {
    fn dfs(&mut self, i: usize, s: u64, x: u64, imp: u64) {
        if self.overflow {
            return;
        }
        self.nodes += 1;
        if self.nodes > FRACTION_NODE_CAP {
            self.overflow = true;
            return;
        }
        if s.count_ones() >= self.k_b {
            // Minimal satisfying leaf: adding tokens only adds
            // implications, so the minimum sits here.
            let c = imp.count_ones();
            if c < self.best_count {
                self.best_count = c;
                self.best_set = s;
            }
            return;
        }
        if imp.count_ones() >= self.best_count {
            return; // Cannot beat the incumbent.
        }
        if (s | (self.full & !x)).count_ones() < self.k_b {
            return; // Even including everything undecided falls short.
        }
        let mut idx = i;
        while idx < self.n && (s >> idx) & 1 | (x >> idx) & 1 == 1 {
            idx += 1;
        }
        if idx >= self.n {
            return;
        }
        if self.closure[idx] & x == 0 {
            self.dfs(idx + 1, s | self.closure[idx], x, imp | self.implied_closure[idx]);
        }
        if self.supers[idx] & s == 0 {
            self.dfs(idx + 1, s, x | self.supers[idx], imp);
        }
    }
}

fn prove_fraction(a: &ConjunctionSignature, b: &ConjunctionSignature, t: f64) -> Decision {
    if t <= 0.0 {
        return Decision::Proved(DominanceProof {
            token_map: Vec::new(),
            detail: "threshold ≤ 0: every packet matches both signatures".to_string(),
        });
    }
    let n_a = a.tokens.len();
    let n_b = b.tokens.len();
    if n_a == 0 {
        // A scores 0.0 < t on every packet; B is matchable (the caller
        // screened unmatchable B), so dominance fails.
        return Decision::NotProved(RefuteHint::FullB);
    }
    if n_a > FRACTION_TOKEN_CAP || n_b > FRACTION_TOKEN_CAP {
        return Decision::Budget(format!(
            "token count exceeds the {FRACTION_TOKEN_CAP}-token fraction-analysis cap"
        ));
    }
    let k_a = min_count(n_a, t) as u32;
    let k_b = min_count(n_b, t) as u32;

    let mut implied = vec![0u64; n_b];
    let mut closure = vec![0u64; n_b];
    let mut supers = vec![0u64; n_b];
    for (j, bt) in b.tokens.iter().enumerate() {
        for (i2, at) in a.tokens.iter().enumerate() {
            if at.field == bt.field && contains_bytes(bt.bytes(), at.bytes()) {
                implied[j] |= 1 << i2;
            }
        }
        for (j2, bt2) in b.tokens.iter().enumerate() {
            if bt2.field == bt.field && contains_bytes(bt.bytes(), bt2.bytes()) {
                closure[j] |= 1 << j2;
            }
        }
    }
    for (j, sup) in supers.iter_mut().enumerate() {
        for (j2, cl) in closure.iter().enumerate() {
            if (cl >> j) & 1 == 1 {
                *sup |= 1 << j2;
            }
        }
    }
    let implied_closure: Vec<u64> = closure
        .iter()
        .map(|cl| {
            let mut m = 0u64;
            for (j2, imp) in implied.iter().enumerate() {
                if (cl >> j2) & 1 == 1 {
                    m |= imp;
                }
            }
            m
        })
        .collect();

    // Universally-present tokens are forced into every presence pattern.
    let mut base_s = 0u64;
    for (j, bt) in b.tokens.iter().enumerate() {
        if always_present(bt) {
            base_s |= closure[j];
        }
    }
    let mut base_imp = 0u64;
    for (j, imp) in implied.iter().enumerate() {
        if (base_s >> j) & 1 == 1 {
            base_imp |= imp;
        }
    }
    for (i2, at) in a.tokens.iter().enumerate() {
        if always_present(at) {
            base_imp |= 1 << i2;
        }
    }

    let full = if n_b == 64 { u64::MAX } else { (1u64 << n_b) - 1 };
    let mut search = FractionSearch {
        n: n_b,
        k_b,
        closure,
        supers,
        implied_closure,
        full,
        nodes: 0,
        best_count: u32::MAX,
        best_set: 0,
        overflow: false,
    };
    search.dfs(0, base_s, 0, base_imp);
    if search.overflow {
        return Decision::Budget("fraction dominance search exceeded its node budget".to_string());
    }
    if search.best_count == u32::MAX {
        return Decision::Proved(DominanceProof {
            token_map: Vec::new(),
            detail: format!(
                "no substring-closed presence pattern reaches {k_b} of the dominated \
                 signature's {n_b} tokens: vacuously dominated"
            ),
        });
    }
    if search.best_count >= k_a {
        Decision::Proved(DominanceProof {
            token_map: Vec::new(),
            detail: format!(
                "every packet presenting ≥{k_b}/{n_b} dominated tokens carries \
                 ≥{}/{n_a} dominator tokens (threshold needs {k_a})",
                search.best_count
            ),
        })
    } else {
        Decision::NotProved(RefuteHint::FractionSet(
            (0..n_b).filter(|&j| (search.best_set >> j) & 1 == 1).collect(),
        ))
    }
}

fn prove_decision(a: &ConjunctionSignature, b: &ConjunctionSignature, mode: MatchMode) -> Decision {
    if let Some(reason) = unmatchable_reason(b, mode) {
        return Decision::Proved(DominanceProof {
            token_map: Vec::new(),
            detail: format!("vacuous: the dominated signature can never match ({reason})"),
        });
    }
    match mode {
        MatchMode::Conjunction | MatchMode::Ordered => {
            if a.tokens.is_empty() {
                return Decision::Proved(DominanceProof {
                    token_map: Vec::new(),
                    detail: "the dominator has no tokens and matches every packet".to_string(),
                });
            }
            if mode == MatchMode::Conjunction {
                prove_conjunction(a, b)
            } else {
                prove_ordered(a, b)
            }
        }
        MatchMode::Fraction(t) => prove_fraction(a, b, t),
    }
}

/// Witness-free fast path: `Some(proof)` when A provably dominates B
/// under `mode`, `None` when not proved (which is **not** a refutation —
/// use [`dominates`] for a verified counterexample).
pub fn prove_dominates(
    a: &ConjunctionSignature,
    b: &ConjunctionSignature,
    mode: MatchMode,
) -> Option<DominanceProof> {
    match prove_decision(a, b, mode) {
        Decision::Proved(p) => Some(p),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Witness synthesis.
// ---------------------------------------------------------------------------

/// Separator candidates: bytes essentially never part of real tokens,
/// filtered against the actual token bytes before use.
const SEPARATORS: [u8; 13] = [
    0x01, 0x02, 0x03, 0x04, 0x1a, 0x1c, 0x1d, 0x1e, 0x7f, b'#', b'|', b'~', b'^',
];
/// Method tokens unlikely to collide with request-line token content.
const METHODS: [&str; 3] = ["WZQ", "KJX", "VY"];

fn forbidden_bytes(sigs: &[&ConjunctionSignature]) -> [bool; 256] {
    let mut f = [false; 256];
    for s in sigs {
        for t in &s.tokens {
            for &b in t.bytes() {
                f[b as usize] = true;
            }
        }
    }
    f
}

fn separator_candidates(forbidden: &[bool; 256]) -> Vec<u8> {
    SEPARATORS
        .iter()
        .copied()
        .filter(|&b| !forbidden[b as usize])
        .take(3)
        .collect()
}

/// Group token byte slices per field, in hint order (stable on ties, like
/// the ordered matcher).
fn field_groups<'a>(tokens: &[&'a FieldToken]) -> [Vec<&'a [u8]>; 3] {
    let mut out: [Vec<&[u8]>; 3] = Default::default();
    for field in Field::ALL {
        let mut in_f: Vec<&FieldToken> =
            tokens.iter().copied().filter(|t| t.field == field).collect();
        in_f.sort_by_key(|t| t.order_hint());
        out[fidx(field)] = in_f.iter().map(|t| t.bytes()).collect();
    }
    out
}

fn join_field(toks: &[&[u8]], sep: u8) -> Vec<u8> {
    let mut out = vec![sep];
    for t in toks {
        out.extend_from_slice(t);
        out.push(sep);
    }
    out
}

/// Build a candidate packet containing exactly the given per-field token
/// sequences, `sep`-delimited. `None` when the request-line content is
/// not valid UTF-8 (the request line is a `String`).
fn synth_packet(
    rline: &[&[u8]],
    cookie: &[&[u8]],
    body: &[&[u8]],
    sep: u8,
    method: &str,
) -> Option<HttpPacket> {
    let target = if rline.is_empty() {
        "/".to_string()
    } else {
        String::from_utf8(join_field(rline, sep)).ok()?
    };
    let mut headers = Vec::new();
    if !cookie.is_empty() {
        headers.push(("Cookie".into(), join_field(cookie, sep)));
    }
    let body_bytes = if body.is_empty() {
        Vec::new()
    } else {
        join_field(body, sep)
    };
    Some(HttpPacket {
        destination: Destination::new(Ipv4Addr::new(203, 0, 113, 77), 80, "witness.invalid"),
        request_line: RequestLine {
            method: Method::from_token(method),
            target,
            version: "HTTP/1.1".to_string(),
        },
        headers,
        body: body_bytes,
    })
}

fn refute_with_witness(
    a: &ConjunctionSignature,
    b: &ConjunctionSignature,
    mode: MatchMode,
    hint: RefuteHint,
) -> Dominance {
    let picks: Vec<&FieldToken> = match &hint {
        RefuteHint::FullB => b.tokens.iter().collect(),
        RefuteHint::FractionSet(idxs) => idxs.iter().map(|&i| &b.tokens[i]).collect(),
    };
    let forbidden = forbidden_bytes(&[a, b]);
    let groups = field_groups(&picks);
    for sep in separator_candidates(&forbidden) {
        for method in METHODS {
            if let Some(w) = synth_packet(&groups[0], &groups[1], &groups[2], sep, method) {
                // Verification against the real matchers is what makes
                // the refutation a proof, not a guess.
                if b.matches_mode(mode, &w) && !a.matches_mode(mode, &w) {
                    let trace = format!(
                        "matches signature {} but not signature {} under {mode:?}",
                        b.id, a.id
                    );
                    return Dominance::Refuted(Witness { packet: w, trace });
                }
            }
        }
    }
    Dominance::Undecided(
        "no separator/method combination produced a verified counterexample".to_string(),
    )
}

/// Decide whether `a` dominates `b` under `mode`: proved with a token
/// map, refuted with a verified counterexample packet, or undecided.
pub fn dominates(a: &ConjunctionSignature, b: &ConjunctionSignature, mode: MatchMode) -> Dominance {
    match prove_decision(a, b, mode) {
        Decision::Proved(p) => Dominance::Proved(p),
        Decision::Budget(why) => Dominance::Undecided(why),
        Decision::NotProved(hint) => refute_with_witness(a, b, mode, hint),
    }
}

// ---------------------------------------------------------------------------
// Dead-signature detection.
// ---------------------------------------------------------------------------

/// Why a signature is proved dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadReason {
    /// The signature can never match any packet under the mode.
    Unmatchable {
        /// Proof sketch.
        detail: String,
    },
    /// An earlier signature provably matches everything this one matches,
    /// so first-match detection never reports it.
    Dominated {
        /// Set position of the dominating signature.
        by_index: usize,
        /// Wire id of the dominating signature.
        by_id: u32,
    },
}

/// One proved-dead signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadSignature {
    /// Set position of the dead signature.
    pub index: usize,
    /// Wire id of the dead signature.
    pub id: u32,
    /// Why it is dead.
    pub reason: DeadReason,
}

/// Proved-dead signatures under `mode`: unmatchable outright, or strictly
/// dominated by an earlier live signature (first-match order). Removing
/// them changes neither the any-match set nor the first-match id of any
/// packet: dominance chains bottom out at a live signature by index
/// well-ordering, using only the soundness of the proofs.
pub fn dead_signatures(set: &SignatureSet, mode: MatchMode) -> Vec<DeadSignature> {
    let n = set.signatures.len();
    let unmatchable: Vec<Option<String>> = set
        .signatures
        .iter()
        .map(|s| unmatchable_reason(s, mode))
        .collect();
    let mut out = Vec::new();
    for b in 0..n {
        if let Some(detail) = &unmatchable[b] {
            out.push(DeadSignature {
                index: b,
                id: set.signatures[b].id,
                reason: DeadReason::Unmatchable {
                    detail: detail.clone(),
                },
            });
            continue;
        }
        for (a, a_unmatchable) in unmatchable.iter().enumerate().take(b) {
            if a_unmatchable.is_some() {
                continue;
            }
            if prove_dominates(&set.signatures[a], &set.signatures[b], mode).is_some() {
                out.push(DeadSignature {
                    index: b,
                    id: set.signatures[b].id,
                    reason: DeadReason::Dominated {
                        by_index: a,
                        by_id: set.signatures[a].id,
                    },
                });
                break;
            }
        }
    }
    out
}

/// Remove every proved-dead signature ([`dead_signatures`]) from the set,
/// returning how many were dropped. Complements the pipeline's
/// syntactic [`crate::pipeline::drop_dominated`], which by definition
/// skips dominators with more tokens than the dominated signature.
pub fn drop_dead(set: &mut SignatureSet, mode: MatchMode) -> usize {
    let dead = dead_signatures(set, mode);
    if dead.is_empty() {
        return 0;
    }
    let mut is_dead = vec![false; set.signatures.len()];
    for d in &dead {
        is_dead[d.index] = true;
    }
    let mut it = is_dead.iter();
    set.signatures.retain(|_| !*it.next().unwrap());
    dead.len()
}

// ---------------------------------------------------------------------------
// Static cost and FP-risk bounds.
// ---------------------------------------------------------------------------

/// Static cost of a compiled set: automaton sizes per field plus the
/// worst-case number of pattern hits any single scan position can emit.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Per-field matcher costs, in [`Field::ALL`] order.
    pub fields: Vec<FieldCost>,
    /// Total automaton states across fields.
    pub total_states: usize,
    /// Total distinct `(field, bytes)` patterns.
    pub total_patterns: usize,
    /// Worst-case pattern hits emitted at one scan position (the maximum
    /// output-set size over all automaton states).
    pub worst_hits_per_position: usize,
}

/// Compile the set for `mode` and measure its static cost.
pub fn cost_report(set: &SignatureSet, mode: MatchMode) -> CostReport {
    let engine = CompiledDetector::compile(set, mode);
    let fields = engine.field_costs().to_vec();
    CostReport {
        total_states: fields.iter().map(|f| f.states).sum(),
        total_patterns: fields.iter().map(|f| f.patterns).sum(),
        worst_hits_per_position: fields.iter().map(|f| f.max_outputs).max().unwrap_or(0),
        fields,
    }
}

/// Per-signature static false-positive exposure against a corpus.
#[derive(Debug, Clone)]
pub struct FpExposure {
    /// Set position of the signature.
    pub index: usize,
    /// Wire id of the signature.
    pub id: u32,
    /// Sound upper bound on the fraction of corpus packets the signature
    /// can match, from per-token document frequencies.
    pub bound: f64,
    /// Exact corpus match fraction, computed only when the bound exceeds
    /// the caller's threshold (the bound clears most signatures without
    /// any per-signature scanning).
    pub exact: Option<f64>,
}

/// Static FP exposure of every signature against `corpus`: one compiled
/// pass computes per-token document frequencies, then per-mode sound
/// upper bounds. `exact` is filled in only for signatures whose bound
/// exceeds `threshold`.
///
/// Bounds: under Conjunction/Ordered a match needs every token, so the
/// match count is at most the rarest token's frequency. Under
/// Fraction(t) with `n` tokens a match carries ≥ `k = ⌈t·n⌉` tokens and
/// therefore misses at most `n − k`, so at least one of any fixed
/// `n − k + 1` tokens is present — summing the `n − k + 1` smallest
/// frequencies bounds the match count.
pub fn fp_exposure(
    set: &SignatureSet,
    corpus: &[&HttpPacket],
    mode: MatchMode,
    threshold: f64,
) -> Vec<FpExposure> {
    if corpus.is_empty() || set.is_empty() {
        return Vec::new();
    }
    use std::collections::BTreeMap;
    let mut index: BTreeMap<(u8, Vec<u8>), usize> = BTreeMap::new();
    for sig in set {
        for t in &sig.tokens {
            let next = index.len();
            index.entry((fidx(t.field) as u8, t.bytes().to_vec())).or_insert(next);
        }
    }
    // One probe signature per distinct token; a single compiled pass per
    // corpus packet counts document frequencies for every token at once.
    let mut probe_sigs: Vec<ConjunctionSignature> = index
        .iter()
        .map(|((f, bytes), &pos)| ConjunctionSignature {
            id: pos as u32,
            tokens: vec![FieldToken::new(Field::ALL[*f as usize], bytes.clone())],
            cluster_size: 1,
            hosts: Vec::new(),
        })
        .collect();
    probe_sigs.sort_by_key(|s| s.id);
    let probes = SignatureSet {
        signatures: probe_sigs,
    };
    let engine = CompiledDetector::compile(&probes, MatchMode::Conjunction);
    let mut scratch = engine.scratch();
    let mut freq = vec![0usize; index.len()];
    for p in corpus {
        for i in engine.matched_indices(&mut scratch, p) {
            freq[i] += 1;
        }
    }

    let len = corpus.len() as f64;
    set.iter()
        .enumerate()
        .map(|(si, sig)| {
            let fr: Vec<usize> = sig
                .tokens
                .iter()
                .map(|t| freq[index[&(fidx(t.field) as u8, t.bytes().to_vec())]])
                .collect();
            let bound = match mode {
                MatchMode::Conjunction | MatchMode::Ordered => match fr.iter().min() {
                    Some(&m) => m as f64 / len,
                    None => 1.0, // Token-free signature matches everything.
                },
                MatchMode::Fraction(t) => {
                    if t <= 0.0 {
                        1.0
                    } else if fr.is_empty() {
                        0.0
                    } else {
                        let n = fr.len();
                        let k = min_count(n, t);
                        if k > n {
                            0.0
                        } else {
                            let mut sorted = fr.clone();
                            sorted.sort_unstable();
                            let sum: usize = sorted[..n - k + 1].iter().sum();
                            (sum as f64 / len).min(1.0)
                        }
                    }
                }
            };
            let exact = if bound > threshold {
                Some(corpus.iter().filter(|p| sig.matches_mode(mode, p)).count() as f64 / len)
            } else {
                None
            };
            FpExposure {
                index: si,
                id: sig.id,
                bound,
                exact,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Whole-set analysis: dominance lattice + shadow/overlap graph + cost.
// ---------------------------------------------------------------------------

/// A proved dominance edge: every packet matching `dominated` matches
/// `dominator`.
#[derive(Debug, Clone)]
pub struct DominanceEdge {
    /// Set position of the dominating signature.
    pub dominator: usize,
    /// Set position of the dominated signature.
    pub dominated: usize,
    /// The per-token containment proof.
    pub proof: DominanceProof,
}

/// A heuristic shadow (L007 fires) that the analyzer *refuted*: the
/// witness packet matches the later signature but not the earlier one.
#[derive(Debug, Clone)]
pub struct RefutedShadow {
    /// Set position of the earlier (suspected-shadowing) signature.
    pub earlier: usize,
    /// Set position of the later (suspected-shadowed) signature.
    pub later: usize,
    /// Dual-verified packet separating the two.
    pub witness: Witness,
}

/// Two signatures with no dominance either way that can still fire on
/// the same packet (overlap), shown by a verified common witness.
#[derive(Debug, Clone)]
pub struct OverlapEdge {
    /// Set position of the first signature.
    pub a: usize,
    /// Set position of the second signature.
    pub b: usize,
    /// Packet matching both.
    pub witness: Witness,
}

/// A pair the analyzer could neither prove nor refute within budget.
#[derive(Debug, Clone)]
pub struct UndecidedPair {
    /// Set position of the candidate dominator.
    pub a: usize,
    /// Set position of the candidate dominated signature.
    pub b: usize,
    /// Why the decision procedure gave up.
    pub reason: String,
}

/// Everything [`analyze_set`] computes for one signature set.
#[derive(Debug, Clone)]
pub struct SetAnalysis {
    /// Mode the analysis was decided under.
    pub mode: MatchMode,
    /// Number of signatures analyzed.
    pub signatures: usize,
    /// Proved dominance edges (the subsumption lattice's covering set).
    pub dominance: Vec<DominanceEdge>,
    /// Proved-dead signatures (unmatchable or dominated by an earlier one).
    pub dead: Vec<DeadSignature>,
    /// Heuristic L007 shadows refuted with a concrete witness.
    pub refuted_shadows: Vec<RefutedShadow>,
    /// Non-dominating pairs with a verified common-match witness.
    pub overlaps: Vec<OverlapEdge>,
    /// Pairs neither proved nor refuted.
    pub undecided: Vec<UndecidedPair>,
    /// Static cost of the compiled set.
    pub cost: CostReport,
}

/// The syntactic condition behind audit rule L007: every token of `a`
/// has a same-field containing token in `b`.
fn heuristic_shadow(a: &ConjunctionSignature, b: &ConjunctionSignature) -> bool {
    !a.tokens.is_empty()
        && a.tokens.iter().all(|ta| {
            b.tokens
                .iter()
                .any(|tb| ta.field == tb.field && contains_bytes(tb.bytes(), ta.bytes()))
        })
}

/// Try to synthesize a packet matching both signatures: lay out the
/// union of their tokens per field and dual-verify.
fn overlap_witness(
    a: &ConjunctionSignature,
    b: &ConjunctionSignature,
    mode: MatchMode,
) -> Option<Witness> {
    let forbidden = forbidden_bytes(&[a, b]);
    let union: Vec<&FieldToken> = a.tokens.iter().chain(b.tokens.iter()).collect();
    let groups = field_groups(&union);
    for sep in separator_candidates(&forbidden) {
        for method in METHODS {
            let Some(w) = synth_packet(&groups[0], &groups[1], &groups[2], sep, method) else {
                continue;
            };
            if a.matches_mode(mode, &w) && b.matches_mode(mode, &w) {
                return Some(Witness {
                    packet: w,
                    trace: format!(
                        "matches both signature {} and signature {} under {:?}",
                        a.id, b.id, mode
                    ),
                });
            }
        }
    }
    None
}

/// Analyze a whole set under `mode`: decide dominance for every ordered
/// pair, detect proved-dead signatures, refute heuristic shadows with
/// witnesses, find overlapping live pairs, and measure static cost.
pub fn analyze_set(set: &SignatureSet, mode: MatchMode) -> SetAnalysis {
    let n = set.signatures.len();
    let sigs = &set.signatures;
    let mut dominance = Vec::new();
    let mut undecided = Vec::new();
    let mut refuted_shadows = Vec::new();
    // dominance_bits[a] bit b set ⇔ a dominates b (a ≠ b).
    let mut dominates_pair = vec![vec![false; n]; n];
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            match prove_decision(&sigs[a], &sigs[b], mode) {
                Decision::Proved(proof) => {
                    dominates_pair[a][b] = true;
                    dominance.push(DominanceEdge {
                        dominator: a,
                        dominated: b,
                        proof,
                    });
                }
                Decision::Budget(reason) => undecided.push(UndecidedPair { a, b, reason }),
                Decision::NotProved(hint) => {
                    // Upgrade heuristic L007 verdicts: the audit rule
                    // suspects shadowing when a < b syntactically embeds;
                    // here the proof failed, so hunt for a separating
                    // witness to refute the heuristic outright.
                    if a < b && heuristic_shadow(&sigs[a], &sigs[b]) {
                        match refute_with_witness(&sigs[a], &sigs[b], mode, hint) {
                            Dominance::Refuted(witness) => refuted_shadows.push(RefutedShadow {
                                earlier: a,
                                later: b,
                                witness,
                            }),
                            Dominance::Undecided(reason) => {
                                undecided.push(UndecidedPair { a, b, reason })
                            }
                            Dominance::Proved(_) => unreachable!("decision was NotProved"),
                        }
                    }
                }
            }
        }
    }
    let dead = dead_signatures(set, mode);
    let is_dead: Vec<bool> = {
        let mut v = vec![false; n];
        for d in &dead {
            v[d.index] = true;
        }
        v
    };
    // Overlaps among live, mutually non-dominating pairs.
    let mut overlaps = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if is_dead[a] || is_dead[b] || dominates_pair[a][b] || dominates_pair[b][a] {
                continue;
            }
            if let Some(witness) = overlap_witness(&sigs[a], &sigs[b], mode) {
                overlaps.push(OverlapEdge { a, b, witness });
            }
        }
    }
    SetAnalysis {
        mode,
        signatures: n,
        dominance,
        dead,
        refuted_shadows,
        overlaps,
        undecided,
        cost: cost_report(set, mode),
    }
}

// ---------------------------------------------------------------------------
// Generation semantic diff.
// ---------------------------------------------------------------------------

/// Does any signature in the set match the packet under `mode`?
pub fn set_matches(set: &SignatureSet, mode: MatchMode, packet: &HttpPacket) -> bool {
    set.iter().any(|s| s.matches_mode(mode, packet))
}

/// How a signature present in both generations changed semantically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// New version matches strictly more packets (new dominates old).
    Weakened,
    /// New version matches strictly fewer packets (old dominates new).
    Strengthened,
    /// Both dominate each other: semantically identical despite
    /// differing token lists.
    Equivalent,
    /// Neither dominates: the match sets are incomparable.
    Rewritten,
}

impl ChangeKind {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            ChangeKind::Weakened => "weakened",
            ChangeKind::Strengthened => "strengthened",
            ChangeKind::Equivalent => "equivalent",
            ChangeKind::Rewritten => "rewritten",
        }
    }
}

/// A signature present only in the new generation.
#[derive(Debug, Clone)]
pub struct AddedSignature {
    /// Position in the new set.
    pub index: usize,
    /// Wire id in the new set.
    pub id: u32,
    /// Packet the new generation flags that the old one misses
    /// (verdict flips benign→sensitive), when one could be synthesized.
    pub witness: Option<Witness>,
}

/// A signature present only in the old generation.
#[derive(Debug, Clone)]
pub struct RemovedSignature {
    /// Position in the old set.
    pub index: usize,
    /// Wire id in the old set.
    pub id: u32,
    /// Packet the old generation flags that the new one misses
    /// (verdict flips sensitive→benign), when one could be synthesized.
    pub witness: Option<Witness>,
}

/// A signature whose id survives but whose semantics changed.
#[derive(Debug, Clone)]
pub struct ChangedSignature {
    /// Wire id shared by both versions.
    pub id: u32,
    /// Position in the old set.
    pub old_index: usize,
    /// Position in the new set.
    pub new_index: usize,
    /// Direction of the semantic change.
    pub kind: ChangeKind,
    /// Packet whose whole-set verdict flips between generations,
    /// when one could be synthesized.
    pub witness: Option<Witness>,
}

/// Semantic diff between two signature generations.
#[derive(Debug, Clone)]
pub struct GenerationDiff {
    /// Mode the diff was decided under.
    pub mode: MatchMode,
    /// Signatures with identical token lists in both generations.
    pub unchanged: usize,
    /// Signatures only in the new generation.
    pub added: Vec<AddedSignature>,
    /// Signatures only in the old generation.
    pub removed: Vec<RemovedSignature>,
    /// Same-id signatures whose semantics changed.
    pub changed: Vec<ChangedSignature>,
}

impl GenerationDiff {
    /// No semantic change at all?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }

    /// One-line summary, e.g. `+2 -1 ~1 (=5)`.
    pub fn summary(&self) -> String {
        format!(
            "+{} -{} ~{} (={})",
            self.added.len(),
            self.removed.len(),
            self.changed.len(),
            self.unchanged
        )
    }
}

/// Canonical token-list key: field, bytes, and hint of every token in
/// sorted order. Two signatures with equal keys match identically in
/// every mode.
fn token_key(sig: &ConjunctionSignature) -> Vec<(u8, Vec<u8>, u32)> {
    let mut key: Vec<(u8, Vec<u8>, u32)> = sig
        .tokens
        .iter()
        .map(|t| (fidx(t.field) as u8, t.bytes().to_vec(), t.order_hint()))
        .collect();
    key.sort();
    key
}

/// Synthesize a packet matching `source_sig` (a member of `yes_set`)
/// under `mode` that `yes_set` flags and `no_set` does not — a
/// whole-set verdict flip. Dual-verified against both sets; `None` when
/// no candidate layout separates them.
fn flip_witness(
    yes_set: &SignatureSet,
    no_set: &SignatureSet,
    source_sig: &ConjunctionSignature,
    mode: MatchMode,
) -> Option<Witness> {
    let mut all: Vec<&ConjunctionSignature> = yes_set.iter().collect();
    all.extend(no_set.iter());
    let forbidden = forbidden_bytes(&all);
    let toks: Vec<&FieldToken> = source_sig.tokens.iter().collect();
    let groups = field_groups(&toks);
    for sep in separator_candidates(&forbidden) {
        for method in METHODS {
            let Some(w) = synth_packet(&groups[0], &groups[1], &groups[2], sep, method) else {
                continue;
            };
            if set_matches(yes_set, mode, &w) && !set_matches(no_set, mode, &w) {
                return Some(Witness {
                    packet: w,
                    trace: format!(
                        "flagged only by the generation containing signature {} under {:?}",
                        source_sig.id, mode
                    ),
                });
            }
        }
    }
    None
}

/// Semantic diff between two generations under `mode`.
///
/// Signatures pair up by exact token-list key first (those are
/// `unchanged` regardless of id), then leftovers pair by id (those are
/// `changed`, classified by two-way dominance), and the rest are
/// `added`/`removed` with a synthesized verdict-flip witness where one
/// exists.
pub fn diff_generations(old: &SignatureSet, new: &SignatureSet, mode: MatchMode) -> GenerationDiff {
    use std::collections::BTreeMap;
    type TokenKey = Vec<(u8, Vec<u8>, u32)>;
    let mut old_by_key: BTreeMap<TokenKey, Vec<usize>> = BTreeMap::new();
    for (i, s) in old.iter().enumerate() {
        old_by_key.entry(token_key(s)).or_default().push(i);
    }
    let mut unchanged = 0usize;
    let mut new_left: Vec<usize> = Vec::new();
    for (j, s) in new.iter().enumerate() {
        match old_by_key.get_mut(&token_key(s)) {
            Some(v) if !v.is_empty() => {
                v.remove(0);
                unchanged += 1;
            }
            _ => new_left.push(j),
        }
    }
    let mut old_left: Vec<usize> = old_by_key.into_values().flatten().collect();
    old_left.sort_unstable();

    // Pair same-id leftovers as changed signatures.
    let mut changed = Vec::new();
    let mut added = Vec::new();
    let mut removed_idx: Vec<usize> = Vec::new();
    for &j in &new_left {
        let id = new.signatures[j].id;
        if let Some(pos) = old_left.iter().position(|&i| old.signatures[i].id == id) {
            let i = old_left.remove(pos);
            let o = &old.signatures[i];
            let n = &new.signatures[j];
            let new_dominates = prove_dominates(n, o, mode).is_some();
            let old_dominates = prove_dominates(o, n, mode).is_some();
            let kind = match (new_dominates, old_dominates) {
                (true, true) => ChangeKind::Equivalent,
                (true, false) => ChangeKind::Weakened,
                (false, true) => ChangeKind::Strengthened,
                (false, false) => ChangeKind::Rewritten,
            };
            let witness = match kind {
                ChangeKind::Equivalent => None,
                ChangeKind::Weakened => flip_witness(new, old, n, mode),
                ChangeKind::Strengthened => flip_witness(old, new, o, mode),
                ChangeKind::Rewritten => {
                    flip_witness(new, old, n, mode).or_else(|| flip_witness(old, new, o, mode))
                }
            };
            changed.push(ChangedSignature {
                id,
                old_index: i,
                new_index: j,
                kind,
                witness,
            });
        } else {
            added.push(AddedSignature {
                index: j,
                id,
                witness: flip_witness(new, old, &new.signatures[j], mode),
            });
        }
    }
    removed_idx.extend(old_left);
    let removed = removed_idx
        .into_iter()
        .map(|i| RemovedSignature {
            index: i,
            id: old.signatures[i].id,
            witness: flip_witness(old, new, &old.signatures[i], mode),
        })
        .collect();
    GenerationDiff {
        mode,
        unchanged,
        added,
        removed,
        changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(id: u32, tokens: Vec<FieldToken>) -> ConjunctionSignature {
        ConjunctionSignature {
            id,
            tokens,
            cluster_size: 2,
            hosts: vec!["h.example".to_string()],
        }
    }

    fn tok(field: Field, bytes: &[u8]) -> FieldToken {
        FieldToken::new(field, bytes)
    }

    fn set(sigs: Vec<ConjunctionSignature>) -> SignatureSet {
        SignatureSet { signatures: sigs }
    }

    #[test]
    fn conjunction_substring_containment_is_proved() {
        let a = sig(1, vec![tok(Field::Body, b"imei=")]);
        let b = sig(2, vec![tok(Field::Body, b"imei=35519500")]);
        let proof = prove_dominates(&a, &b, MatchMode::Conjunction).unwrap();
        assert_eq!(proof.token_map, vec![(0, Some(0))]);
        assert!(prove_dominates(&b, &a, MatchMode::Conjunction).is_none());
    }

    #[test]
    fn cross_field_containment_is_not_dominance() {
        let a = sig(1, vec![tok(Field::Cookie, b"imei=")]);
        let b = sig(2, vec![tok(Field::Body, b"imei=35519500")]);
        match dominates(&a, &b, MatchMode::Conjunction) {
            Dominance::Refuted(w) => {
                assert!(b.matches(&w.packet));
                assert!(!a.matches(&w.packet));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn ordered_mode_respects_hint_sequences() {
        // A's sequence "ab" then "cd" embeds into B's single token "ab?cd".
        let a = sig(
            1,
            vec![
                FieldToken::with_hint(Field::Body, &b"ab"[..], 0),
                FieldToken::with_hint(Field::Body, &b"cd"[..], 5),
            ],
        );
        let b = sig(2, vec![tok(Field::Body, b"abxcd")]);
        assert!(prove_dominates(&a, &b, MatchMode::Ordered).is_some());
        // Reversed hints require "cd" before "ab": not embeddable.
        let a_rev = sig(
            1,
            vec![
                FieldToken::with_hint(Field::Body, &b"ab"[..], 5),
                FieldToken::with_hint(Field::Body, &b"cd"[..], 0),
            ],
        );
        assert!(prove_dominates(&a_rev, &b, MatchMode::Ordered).is_none());
    }

    #[test]
    fn fraction_dominance_counts_containment() {
        // B = {imei=12345678}; A = {imei=, 12345678 in body}: any packet
        // carrying B's token carries both A tokens, so at threshold 1.0
        // A (2-of-2) is implied by B (1-of-1).
        let a = sig(
            1,
            vec![tok(Field::Body, b"imei="), tok(Field::Body, b"12345678")],
        );
        let b = sig(2, vec![tok(Field::Body, b"imei=12345678")]);
        assert!(prove_dominates(&a, &b, MatchMode::Fraction(1.0)).is_some());
        // At 0.5, A needs only 1 of its 2 tokens — still implied.
        assert!(prove_dominates(&a, &b, MatchMode::Fraction(0.5)).is_some());
        // Reverse direction: a packet with only "imei=x" gives A 1/2 ≥ 0.5
        // but B 0/1 — refutable.
        match dominates(&b, &a, MatchMode::Fraction(0.5)) {
            Dominance::Refuted(w) => {
                assert!(a.match_fraction(&w.packet) >= 0.5);
                assert!(b.match_fraction(&w.packet) < 0.5);
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn unmatchable_rline_token_is_detected() {
        // 0xFF can never appear in a UTF-8 request target.
        let dead = sig(1, vec![tok(Field::RequestLine, &[0xFF, b'/', b'x'][..])]);
        assert!(unmatchable_reason(&dead, MatchMode::Conjunction).is_some());
        assert!(unmatchable_reason(&dead, MatchMode::Ordered).is_some());
        // Fraction 0.5 with one live of two tokens: 1/2 ≥ 0.5 reachable.
        let half = sig(
            2,
            vec![
                tok(Field::RequestLine, &[0xFF][..]),
                tok(Field::Body, b"imei="),
            ],
        );
        assert!(unmatchable_reason(&half, MatchMode::Fraction(0.5)).is_none());
        assert!(unmatchable_reason(&half, MatchMode::Fraction(1.0)).is_some());
        let live = sig(3, vec![tok(Field::Body, b"imei=")]);
        assert!(unmatchable_reason(&live, MatchMode::Conjunction).is_none());
    }

    #[test]
    fn dead_signatures_and_drop_dead() {
        let general = sig(1, vec![tok(Field::Body, b"imei=")]);
        let specific = sig(2, vec![tok(Field::Body, b"imei=35519500")]);
        let unrelated = sig(3, vec![tok(Field::Cookie, b"session=")]);
        let mut s = set(vec![general, specific, unrelated]);
        let dead = dead_signatures(&s, MatchMode::Conjunction);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].index, 1);
        assert_eq!(
            dead[0].reason,
            DeadReason::Dominated {
                by_index: 0,
                by_id: 1
            }
        );
        assert_eq!(drop_dead(&mut s, MatchMode::Conjunction), 1);
        let ids: Vec<u32> = s.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn dominated_by_larger_dominator_is_caught() {
        // Dominator has MORE tokens than the dominated signature — the
        // pipeline's syntactic dominance test skips this shape.
        let a = sig(
            1,
            vec![tok(Field::Body, b"id="), tok(Field::Body, b"id=")],
        );
        let b = sig(2, vec![tok(Field::Body, b"id=123456")]);
        let s = set(vec![a, b]);
        let dead = dead_signatures(&s, MatchMode::Conjunction);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].index, 1);
    }

    #[test]
    fn analyze_set_reports_lattice_dead_and_overlap() {
        let s = set(vec![
            sig(1, vec![tok(Field::Body, b"imei=")]),
            sig(2, vec![tok(Field::Body, b"imei=35519500")]),
            sig(3, vec![tok(Field::Cookie, b"track=")]),
        ]);
        let report = analyze_set(&s, MatchMode::Conjunction);
        assert_eq!(report.signatures, 3);
        assert!(report
            .dominance
            .iter()
            .any(|e| e.dominator == 0 && e.dominated == 1));
        assert_eq!(report.dead.len(), 1);
        assert_eq!(report.dead[0].index, 1);
        // Signatures 1 and 3 live in different fields: they overlap.
        assert!(report.overlaps.iter().any(|o| o.a == 0 && o.b == 2));
        assert!(report.cost.total_patterns >= 3);
        assert!(report.cost.total_states > 0);
    }

    #[test]
    fn analyze_refutes_heuristic_shadow_under_fraction() {
        // L007's syntactic condition fires (every A token embeds in a B
        // token), and under Conjunction the dominance is real — but at
        // Fraction(0.5) B can reach 1/2 via its second token alone while
        // A stays at 0/1, so the heuristic verdict is refutable.
        let a = sig(1, vec![tok(Field::Body, b"imei=")]);
        let b = sig(
            2,
            vec![
                tok(Field::Body, b"imei=35519500"),
                tok(Field::Cookie, b"track=on"),
            ],
        );
        let s = set(vec![a, b]);
        let report = analyze_set(&s, MatchMode::Fraction(0.5));
        assert!(
            report
                .refuted_shadows
                .iter()
                .any(|r| r.earlier == 0 && r.later == 1),
            "expected refuted shadow, got {report:?}"
        );
    }

    #[test]
    fn fp_exposure_bounds_are_sound() {
        use leaksig_http::{Destination, Method, RequestLine};
        use std::net::Ipv4Addr;
        let mk = |body: &[u8]| HttpPacket {
            destination: Destination::new(Ipv4Addr::new(10, 0, 0, 1), 80, "c.example"),
            request_line: RequestLine {
                method: Method::Get,
                target: "/app".to_string(),
                version: "HTTP/1.1".to_string(),
            },
            headers: vec![],
            body: body.to_vec(),
        };
        let corpus_owned: Vec<HttpPacket> = vec![
            mk(b"lang=en&imei=355195000000017"),
            mk(b"lang=en"),
            mk(b"theme=dark"),
            mk(b"lang=fr"),
        ];
        let corpus: Vec<&HttpPacket> = corpus_owned.iter().collect();
        let s = set(vec![
            sig(1, vec![tok(Field::Body, b"imei="), tok(Field::Body, b"lang=")]),
            sig(2, vec![tok(Field::Body, b"lang=")]),
        ]);
        let exp = fp_exposure(&s, &corpus, MatchMode::Conjunction, 0.5);
        // Sig 1: min(freq imei= (1), freq lang= (3)) / 4 = 0.25 ≤ 0.5.
        assert!((exp[0].bound - 0.25).abs() < 1e-9);
        assert!(exp[0].exact.is_none());
        // Sig 2: bound 0.75 > 0.5 → exact computed, and equal here.
        assert!((exp[1].bound - 0.75).abs() < 1e-9);
        assert_eq!(exp[1].exact, Some(0.75));
        // Fraction(0.5) on sig 1: k = 1 of 2, bound = sum of 2 smallest
        // freqs = (1 + 3)/4 = 1.0.
        let exp_f = fp_exposure(&s, &corpus, MatchMode::Fraction(0.5), 2.0);
        assert!((exp_f[0].bound - 1.0).abs() < 1e-9);
        // Every bound is ≥ the exact fraction (soundness).
        for mode in [
            MatchMode::Conjunction,
            MatchMode::Ordered,
            MatchMode::Fraction(0.5),
            MatchMode::Fraction(1.0),
        ] {
            for e in fp_exposure(&s, &corpus, mode, 2.0) {
                let exact = corpus
                    .iter()
                    .filter(|p| s.signatures[e.index].matches_mode(mode, p))
                    .count() as f64
                    / corpus.len() as f64;
                assert!(
                    e.bound + 1e-9 >= exact,
                    "mode {mode:?} sig {} bound {} < exact {exact}",
                    e.id,
                    e.bound
                );
            }
        }
    }

    #[test]
    fn diff_classifies_generations() {
        let old = set(vec![
            sig(1, vec![tok(Field::Body, b"imei=35519500")]),
            sig(2, vec![tok(Field::Body, b"udid=dd72cbae")]),
            sig(3, vec![tok(Field::Cookie, b"sess=abcdef")]),
        ]);
        let new = set(vec![
            // id 1 unchanged (identical tokens).
            sig(1, vec![tok(Field::Body, b"imei=35519500")]),
            // id 2 weakened: shorter token matches strictly more.
            sig(2, vec![tok(Field::Body, b"udid=")]),
            // id 3 removed; id 4 added.
            sig(4, vec![tok(Field::Body, b"mac=00aabb")]),
        ]);
        let diff = diff_generations(&old, &new, MatchMode::Conjunction);
        assert_eq!(diff.unchanged, 1);
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.removed.len(), 1);
        assert_eq!(diff.changed.len(), 1);
        assert_eq!(diff.changed[0].kind, ChangeKind::Weakened);
        assert_eq!(diff.summary(), "+1 -1 ~1 (=1)");
        // Every reported witness genuinely flips the whole-set verdict.
        let w = diff.changed[0].witness.as_ref().expect("weaken witness");
        assert!(set_matches(&new, MatchMode::Conjunction, &w.packet));
        assert!(!set_matches(&old, MatchMode::Conjunction, &w.packet));
        let aw = diff.added[0].witness.as_ref().expect("added witness");
        assert!(set_matches(&new, MatchMode::Conjunction, &aw.packet));
        assert!(!set_matches(&old, MatchMode::Conjunction, &aw.packet));
        let rw = diff.removed[0].witness.as_ref().expect("removed witness");
        assert!(set_matches(&old, MatchMode::Conjunction, &rw.packet));
        assert!(!set_matches(&new, MatchMode::Conjunction, &rw.packet));
    }

    #[test]
    fn diff_of_identical_sets_is_empty() {
        let s = set(vec![sig(1, vec![tok(Field::Body, b"imei=35519500")])]);
        let diff = diff_generations(&s, &s, MatchMode::Conjunction);
        assert!(diff.is_empty());
        assert_eq!(diff.unchanged, 1);
    }

    #[test]
    fn witness_describe_mentions_both_ids() {
        let a = sig(7, vec![tok(Field::Cookie, b"imei=")]);
        let b = sig(9, vec![tok(Field::Body, b"imei=35519500")]);
        match dominates(&a, &b, MatchMode::Conjunction) {
            Dominance::Refuted(w) => {
                let d = w.describe();
                assert!(d.contains("signature 9"), "{d}");
                assert!(d.contains("signature 7"), "{d}");
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }
}
