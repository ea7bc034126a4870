//! Whole-set semantic analysis over a [`SignatureSet`] — no live traffic
//! required.
//!
//! Every production path (regeneration's dead-signature pass, the deploy
//! gate, the device gate, the generation diff) evaluates signatures under
//! conjunction semantics, and so does this module. It decides **A
//! dominates B** — every packet matching B also matches A — exactly: A
//! dominates B when every A token is a substring of a same-field B token
//! (or is present in every packet, like the request-line `" "`), so B's
//! constraints imply A's.
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
    /// Empty for vacuous proofs.
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
    /// Not proved, and no synthesized witness survived verification.
    Undecided(String),
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

/// Whether the token occurs in **every** packet's field content. The
/// request-line view is always `"METHOD target"`, so the single space is
/// the one token universally present (tokens are never empty:
/// [`FieldToken::new`] refuses zero-length bytes).
fn always_present(t: &FieldToken) -> bool {
    t.field == Field::RequestLine && t.bytes() == b" "
}

/// Bytes that cannot occur anywhere in valid UTF-8 (RFC 3629): a
/// request-line token containing one can never match, because the
/// request-line view is built from Rust `String`s.
fn utf8_impossible(b: u8) -> bool {
    matches!(b, 0xC0 | 0xC1 | 0xF5..=0xFF)
}

/// Why the signature can never match any packet, if the analyzer can
/// prove it. `None` means "not proved unmatchable", not "satisfiable".
pub fn unmatchable_reason(sig: &ConjunctionSignature) -> Option<String> {
    sig.tokens
        .iter()
        .find(|t| t.field == Field::RequestLine && t.bytes().iter().copied().any(utf8_impossible))
        .map(|t| {
            format!(
                "request-line token {} contains bytes no UTF-8 request line can carry",
                display(t.bytes())
            )
        })
}

// ---------------------------------------------------------------------------
// The decision procedure.
// ---------------------------------------------------------------------------

/// Witness-free fast path: `Some(proof)` when A provably dominates B,
/// `None` when not proved (which is **not** a refutation — use
/// [`dominates`] for a verified counterexample).
pub fn prove_dominates(
    a: &ConjunctionSignature,
    b: &ConjunctionSignature,
) -> Option<DominanceProof> {
    if let Some(reason) = unmatchable_reason(b) {
        return Some(DominanceProof {
            token_map: Vec::new(),
            detail: format!("vacuous: the dominated signature can never match ({reason})"),
        });
    }
    if a.tokens.is_empty() {
        return Some(DominanceProof {
            token_map: Vec::new(),
            detail: "the dominator has no tokens and matches every packet".to_string(),
        });
    }
    let mut map = Vec::with_capacity(a.tokens.len());
    for (ai, at) in a.tokens.iter().enumerate() {
        if always_present(at) {
            map.push((ai, None));
            continue;
        }
        let bi = b
            .tokens
            .iter()
            .position(|bt| bt.field == at.field && contains_bytes(bt.bytes(), at.bytes()))?;
        map.push((ai, Some(bi)));
    }
    Some(DominanceProof {
        token_map: map,
        detail: "every dominator token is contained in a same-field dominated token \
                 (or is universally present)"
            .to_string(),
    })
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

/// Group token byte slices per field, in hint order (stable on ties),
/// so a witness lays tokens out in their emission order.
fn field_groups<'a>(tokens: &[&'a FieldToken]) -> [Vec<&'a [u8]>; 3] {
    let mut out: [Vec<&[u8]>; 3] = Default::default();
    for field in Field::ALL {
        let mut in_f: Vec<&FieldToken> = tokens
            .iter()
            .copied()
            .filter(|t| t.field == field)
            .collect();
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

/// The first synthesized packet laying out `tokens` per field that
/// `accept` verifies, trying each usable separator with each method.
fn synth_witness(
    sigs: &[&ConjunctionSignature],
    tokens: &[&FieldToken],
    accept: impl Fn(&HttpPacket) -> bool,
) -> Option<HttpPacket> {
    let groups = field_groups(tokens);
    for sep in separator_candidates(&forbidden_bytes(sigs)) {
        for method in METHODS {
            if let Some(w) = synth_packet(&groups[0], &groups[1], &groups[2], sep, method) {
                if accept(&w) {
                    return Some(w);
                }
            }
        }
    }
    None
}

/// Decide whether `a` dominates `b`: proved with a token map, refuted
/// with a verified counterexample packet, or undecided.
pub fn dominates(a: &ConjunctionSignature, b: &ConjunctionSignature) -> Dominance {
    if let Some(p) = prove_dominates(a, b) {
        return Dominance::Proved(p);
    }
    let tokens: Vec<&FieldToken> = b.tokens.iter().collect();
    // Verification against the real matchers is what makes the
    // refutation a proof, not a guess.
    match synth_witness(&[a, b], &tokens, |w| b.matches(w) && !a.matches(w)) {
        Some(packet) => Dominance::Refuted(Witness {
            packet,
            trace: format!(
                "matches signature {} but not signature {} under Conjunction",
                b.id, a.id
            ),
        }),
        None => Dominance::Undecided(
            "no separator/method combination produced a verified counterexample".to_string(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Dead-signature detection.
// ---------------------------------------------------------------------------

/// Why a signature is proved dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadReason {
    /// The signature can never match any packet.
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

/// Proved-dead signatures: unmatchable outright, or strictly
/// dominated by an earlier live signature (first-match order). Removing
/// them changes neither the any-match set nor the first-match id of any
/// packet: dominance chains bottom out at a live signature by index
/// well-ordering, using only the soundness of the proofs.
pub fn dead_signatures(set: &SignatureSet) -> Vec<DeadSignature> {
    let n = set.signatures.len();
    let unmatchable: Vec<Option<String>> = set.signatures.iter().map(unmatchable_reason).collect();
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
            if prove_dominates(&set.signatures[a], &set.signatures[b]).is_some() {
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
pub fn drop_dead(set: &mut SignatureSet) -> usize {
    let dead = dead_signatures(set);
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

/// Compile the set and measure its static cost.
pub fn cost_report(set: &SignatureSet) -> CostReport {
    let engine = CompiledDetector::compile(set, MatchMode::Conjunction);
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
/// pass computes per-token document frequencies, then a sound upper
/// bound per signature — a match needs every token, so the match count
/// is at most the rarest token's frequency. `exact` is filled in only
/// for signatures whose bound exceeds `threshold`.
pub fn fp_exposure(set: &SignatureSet, corpus: &[&HttpPacket], threshold: f64) -> Vec<FpExposure> {
    if corpus.is_empty() || set.is_empty() {
        return Vec::new();
    }
    use std::collections::BTreeMap;
    let mut index: BTreeMap<(u8, Vec<u8>), usize> = BTreeMap::new();
    for sig in set {
        for t in &sig.tokens {
            let next = index.len();
            index
                .entry((fidx(t.field) as u8, t.bytes().to_vec()))
                .or_insert(next);
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
            let rarest = sig
                .tokens
                .iter()
                .map(|t| freq[index[&(fidx(t.field) as u8, t.bytes().to_vec())]])
                .min();
            let bound = match rarest {
                Some(m) => m as f64 / len,
                None => 1.0, // Token-free signature matches everything.
            };
            let exact = if bound > threshold {
                Some(corpus.iter().filter(|p| sig.matches(p)).count() as f64 / len)
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

/// Everything [`analyze_set`] computes for one signature set.
#[derive(Debug, Clone)]
pub struct SetAnalysis {
    /// Number of signatures analyzed.
    pub signatures: usize,
    /// Proved dominance edges (the subsumption lattice's covering set).
    pub dominance: Vec<DominanceEdge>,
    /// Proved-dead signatures (unmatchable or dominated by an earlier one).
    pub dead: Vec<DeadSignature>,
    /// Non-dominating pairs with a verified common-match witness.
    pub overlaps: Vec<OverlapEdge>,
    /// Static cost of the compiled set.
    pub cost: CostReport,
}

/// Try to synthesize a packet matching both signatures: lay out the
/// union of their tokens per field and dual-verify.
fn overlap_witness(a: &ConjunctionSignature, b: &ConjunctionSignature) -> Option<Witness> {
    let union: Vec<&FieldToken> = a.tokens.iter().chain(b.tokens.iter()).collect();
    let packet = synth_witness(&[a, b], &union, |w| a.matches(w) && b.matches(w))?;
    Some(Witness {
        packet,
        trace: format!(
            "matches both signature {} and signature {} under Conjunction",
            a.id, b.id
        ),
    })
}

/// Analyze a whole set: decide dominance for every ordered pair, detect
/// proved-dead signatures, find overlapping live pairs, and measure
/// static cost.
pub fn analyze_set(set: &SignatureSet) -> SetAnalysis {
    let n = set.signatures.len();
    let sigs = &set.signatures;
    let mut dominance = Vec::new();
    // dominates_pair[a][b] ⇔ a dominates b (a ≠ b).
    let mut dominates_pair = vec![vec![false; n]; n];
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            if let Some(proof) = prove_dominates(&sigs[a], &sigs[b]) {
                dominates_pair[a][b] = true;
                dominance.push(DominanceEdge {
                    dominator: a,
                    dominated: b,
                    proof,
                });
            }
        }
    }
    let dead = dead_signatures(set);
    let mut is_dead = vec![false; n];
    for d in &dead {
        is_dead[d.index] = true;
    }
    // Overlaps among live, mutually non-dominating pairs.
    let mut overlaps = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if is_dead[a] || is_dead[b] || dominates_pair[a][b] || dominates_pair[b][a] {
                continue;
            }
            if let Some(witness) = overlap_witness(&sigs[a], &sigs[b]) {
                overlaps.push(OverlapEdge { a, b, witness });
            }
        }
    }
    SetAnalysis {
        signatures: n,
        dominance,
        dead,
        overlaps,
        cost: cost_report(set),
    }
}

// ---------------------------------------------------------------------------
// Generation semantic diff.
// ---------------------------------------------------------------------------

/// Does any signature in the set match the packet?
pub fn set_matches(set: &SignatureSet, packet: &HttpPacket) -> bool {
    set.iter().any(|s| s.matches(packet))
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
/// sorted order. Two signatures with equal keys carry the same wire
/// token list.
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
/// that `yes_set` flags and `no_set` does not — a whole-set verdict
/// flip. Dual-verified against both sets; `None` when no candidate
/// layout separates them.
fn flip_witness(
    yes_set: &SignatureSet,
    no_set: &SignatureSet,
    source_sig: &ConjunctionSignature,
) -> Option<Witness> {
    let all: Vec<&ConjunctionSignature> = yes_set.iter().chain(no_set.iter()).collect();
    let toks: Vec<&FieldToken> = source_sig.tokens.iter().collect();
    let packet = synth_witness(&all, &toks, |w| {
        set_matches(yes_set, w) && !set_matches(no_set, w)
    })?;
    Some(Witness {
        packet,
        trace: format!(
            "flagged only by the generation containing signature {} under Conjunction",
            source_sig.id
        ),
    })
}

/// Semantic diff between two generations.
///
/// Signatures pair up by exact token-list key first (those are
/// `unchanged` regardless of id), then leftovers pair by id (those are
/// `changed`, classified by two-way dominance), and the rest are
/// `added`/`removed` with a synthesized verdict-flip witness where one
/// exists.
pub fn diff_generations(old: &SignatureSet, new: &SignatureSet) -> GenerationDiff {
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
            let new_dominates = prove_dominates(n, o).is_some();
            let old_dominates = prove_dominates(o, n).is_some();
            let kind = match (new_dominates, old_dominates) {
                (true, true) => ChangeKind::Equivalent,
                (true, false) => ChangeKind::Weakened,
                (false, true) => ChangeKind::Strengthened,
                (false, false) => ChangeKind::Rewritten,
            };
            let witness = match kind {
                ChangeKind::Equivalent => None,
                ChangeKind::Weakened => flip_witness(new, old, n),
                ChangeKind::Strengthened => flip_witness(old, new, o),
                ChangeKind::Rewritten => {
                    flip_witness(new, old, n).or_else(|| flip_witness(old, new, o))
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
                witness: flip_witness(new, old, &new.signatures[j]),
            });
        }
    }
    removed_idx.extend(old_left);
    let removed = removed_idx
        .into_iter()
        .map(|i| RemovedSignature {
            index: i,
            id: old.signatures[i].id,
            witness: flip_witness(old, new, &old.signatures[i]),
        })
        .collect();
    GenerationDiff {
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
        let proof = prove_dominates(&a, &b).unwrap();
        assert_eq!(proof.token_map, vec![(0, Some(0))]);
        assert!(prove_dominates(&b, &a).is_none());
    }

    #[test]
    fn cross_field_containment_is_not_dominance() {
        let a = sig(1, vec![tok(Field::Cookie, b"imei=")]);
        let b = sig(2, vec![tok(Field::Body, b"imei=35519500")]);
        match dominates(&a, &b) {
            Dominance::Refuted(w) => {
                assert!(b.matches(&w.packet));
                assert!(!a.matches(&w.packet));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn unmatchable_rline_token_is_detected() {
        // 0xFF can never appear in a UTF-8 request target.
        let dead = sig(1, vec![tok(Field::RequestLine, &[0xFF, b'/', b'x'][..])]);
        assert!(unmatchable_reason(&dead).is_some());
        // One dead token of two is enough: the conjunction needs both.
        let half = sig(
            2,
            vec![
                tok(Field::RequestLine, &[0xFF][..]),
                tok(Field::Body, b"imei="),
            ],
        );
        assert!(unmatchable_reason(&half).is_some());
        let live = sig(3, vec![tok(Field::Body, b"imei=")]);
        assert!(unmatchable_reason(&live).is_none());
    }

    #[test]
    fn dead_signatures_and_drop_dead() {
        let general = sig(1, vec![tok(Field::Body, b"imei=")]);
        let specific = sig(2, vec![tok(Field::Body, b"imei=35519500")]);
        let unrelated = sig(3, vec![tok(Field::Cookie, b"session=")]);
        let mut s = set(vec![general, specific, unrelated]);
        let dead = dead_signatures(&s);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].index, 1);
        assert_eq!(
            dead[0].reason,
            DeadReason::Dominated {
                by_index: 0,
                by_id: 1
            }
        );
        assert_eq!(drop_dead(&mut s), 1);
        let ids: Vec<u32> = s.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn dominated_by_larger_dominator_is_caught() {
        // Dominator has MORE tokens than the dominated signature — the
        // pipeline's syntactic dominance test skips this shape.
        let a = sig(1, vec![tok(Field::Body, b"id="), tok(Field::Body, b"id=")]);
        let b = sig(2, vec![tok(Field::Body, b"id=123456")]);
        let s = set(vec![a, b]);
        let dead = dead_signatures(&s);
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
        let report = analyze_set(&s);
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
            sig(
                1,
                vec![tok(Field::Body, b"imei="), tok(Field::Body, b"lang=")],
            ),
            sig(2, vec![tok(Field::Body, b"lang=")]),
        ]);
        let exp = fp_exposure(&s, &corpus, 0.5);
        // Sig 1: min(freq imei= (1), freq lang= (3)) / 4 = 0.25 ≤ 0.5.
        assert!((exp[0].bound - 0.25).abs() < 1e-9);
        assert!(exp[0].exact.is_none());
        // Sig 2: bound 0.75 > 0.5 → exact computed, and equal here.
        assert!((exp[1].bound - 0.75).abs() < 1e-9);
        assert_eq!(exp[1].exact, Some(0.75));
        // Every bound is ≥ the exact fraction (soundness).
        for e in fp_exposure(&s, &corpus, 2.0) {
            let exact = corpus
                .iter()
                .filter(|p| s.signatures[e.index].matches(p))
                .count() as f64
                / corpus.len() as f64;
            assert!(
                e.bound + 1e-9 >= exact,
                "sig {} bound {} < exact {exact}",
                e.id,
                e.bound
            );
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
        let diff = diff_generations(&old, &new);
        assert_eq!(diff.unchanged, 1);
        assert_eq!(diff.added.len(), 1);
        assert_eq!(diff.removed.len(), 1);
        assert_eq!(diff.changed.len(), 1);
        assert_eq!(diff.changed[0].kind, ChangeKind::Weakened);
        assert_eq!(diff.summary(), "+1 -1 ~1 (=1)");
        // Every reported witness genuinely flips the whole-set verdict.
        let w = diff.changed[0].witness.as_ref().expect("weaken witness");
        assert!(set_matches(&new, &w.packet));
        assert!(!set_matches(&old, &w.packet));
        let aw = diff.added[0].witness.as_ref().expect("added witness");
        assert!(set_matches(&new, &aw.packet));
        assert!(!set_matches(&old, &aw.packet));
        let rw = diff.removed[0].witness.as_ref().expect("removed witness");
        assert!(set_matches(&old, &rw.packet));
        assert!(!set_matches(&new, &rw.packet));
    }

    #[test]
    fn diff_of_identical_sets_is_empty() {
        let s = set(vec![sig(1, vec![tok(Field::Body, b"imei=35519500")])]);
        let diff = diff_generations(&s, &s);
        assert!(diff.is_empty());
        assert_eq!(diff.unchanged, 1);
    }

    #[test]
    fn witness_describe_mentions_both_ids() {
        let a = sig(7, vec![tok(Field::Cookie, b"imei=")]);
        let b = sig(9, vec![tok(Field::Body, b"imei=35519500")]);
        match dominates(&a, &b) {
            Dominance::Refuted(w) => {
                let d = w.describe();
                assert!(d.contains("signature 9"), "{d}");
                assert!(d.contains("signature 7"), "{d}");
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }
}
