//! Static auditing of generated signature sets.
//!
//! §VI warns that naive generation emits signatures "that match most
//! network packets (e.g. `POST *`, `GET *`, `* HTTP/1.1`)". The
//! generation-time filters in [`crate::signature`] guard one producer,
//! but sets also arrive from the wire, from older tool versions, and from
//! hand edits — so the same invariants must be checkable on a finished
//! [`SignatureSet`] before it is accepted for deployment.
//!
//! This module holds the diagnostic vocabulary ([`Code`], [`Severity`],
//! [`Diagnostic`]) and the rules that need nothing beyond `leaksig-core`
//! itself: structural checks, policy cross-references, wire round-trip
//! fidelity, and the analyzer's proved verdicts ([`semantic_dead`] for
//! shadowed and unmatchable signatures, [`corpus_fp_bounds`] for corpus
//! false positives over a caller-supplied corpus). The `leaksig-lint`
//! crate layers a bundled normal-traffic corpus and rendering on top;
//! [`deploy_check`] is the gate `pipeline` and the device store apply by
//! default.

use crate::engine::contains_bytes;
use crate::signature::{ConjunctionSignature, Field, SignatureConfig, SignatureSet};
use crate::wire;
use leaksig_http::HttpPacket;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but deployable: the set still behaves as specified.
    Warning,
    /// The set must not ship: §VI-class false-positive hazard or a
    /// structural impossibility.
    Error,
}

impl Severity {
    /// Lower-case label (`"warning"` / `"error"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. The numeric part never changes meaning; new
/// rules append. L005, L006, L007 and L009 are retired (their questions
/// are answered by the proved A001/A003 verdicts, or asked only of a
/// match mode that no longer exists) and their numbers are never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// L001: a signature has no tokens at all (matches everything).
    EmptyTokenList,
    /// L002: a token with zero-length bytes (matches everywhere).
    ZeroLengthToken,
    /// L003: no token reaches the anchor length — the §VI `POST *`
    /// boilerplate-only hazard.
    MissingAnchor,
    /// L004: a token is a substring of protocol boilerplate.
    BoilerplateToken,
    /// L008: cookie/body token on a GET-only cluster.
    FieldTokenOnGet,
    /// L010: a device policy rule references a signature id the set does
    /// not contain.
    UnknownPolicySignature,
    /// L011: encoding and re-decoding the set loses information.
    WireRoundTripLoss,
    /// L012: two signatures share an id (detections become ambiguous).
    DuplicateId,
    /// L013: duplicate token bytes within one signature's per-field
    /// token list (inflates Fraction-mode denominators, silently
    /// weakening the threshold).
    DuplicateTokenBytes,
    /// A001: the analyzer proved the signature unreachable — an earlier
    /// signature (possibly an exact duplicate) dominates it.
    ProvedDead,
    /// A002: the analyzer proved the signature can never match any
    /// packet.
    ProvedUnmatchable,
    /// A003: the signature's exact corpus match fraction exceeds the
    /// false-positive budget (found via the static frequency bound).
    ProvedCorpusFp,
    /// A004: the compiled set exceeds the static cost budget
    /// (automaton states or worst-case hit density).
    CostBudgetExceeded,
}

impl Code {
    /// The stable `Lnnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::EmptyTokenList => "L001",
            Code::ZeroLengthToken => "L002",
            Code::MissingAnchor => "L003",
            Code::BoilerplateToken => "L004",
            Code::FieldTokenOnGet => "L008",
            Code::UnknownPolicySignature => "L010",
            Code::WireRoundTripLoss => "L011",
            Code::DuplicateId => "L012",
            Code::DuplicateTokenBytes => "L013",
            Code::ProvedDead => "A001",
            Code::ProvedUnmatchable => "A002",
            Code::ProvedCorpusFp => "A003",
            Code::CostBudgetExceeded => "A004",
        }
    }

    /// The fixed severity of this rule.
    pub fn severity(self) -> Severity {
        match self {
            Code::EmptyTokenList
            | Code::ZeroLengthToken
            | Code::MissingAnchor
            | Code::UnknownPolicySignature
            | Code::WireRoundTripLoss
            | Code::DuplicateId
            | Code::ProvedDead
            | Code::ProvedUnmatchable
            | Code::ProvedCorpusFp => Severity::Error,
            Code::BoilerplateToken
            | Code::FieldTokenOnGet
            | Code::DuplicateTokenBytes
            | Code::CostBudgetExceeded => Severity::Warning,
        }
    }
}

impl std::fmt::Display for Code {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// The signature the finding is about, when it is about one.
    pub signature_id: Option<u32>,
    /// The content field involved, when one is.
    pub field: Option<Field>,
    /// Human-readable statement of the problem.
    pub message: String,
    /// What to do about it, when a fix is known.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A finding not tied to a specific signature.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            signature_id: None,
            field: None,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach the signature the finding is about.
    pub fn on_signature(mut self, id: u32) -> Self {
        self.signature_id = Some(id);
        self
    }

    /// Attach the content field involved.
    pub fn on_field(mut self, field: Field) -> Self {
        self.field = Some(field);
        self
    }

    /// Attach a remediation hint.
    pub fn suggest(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.severity.label(), self.code)?;
        if let Some(id) = self.signature_id {
            write!(f, " sig {id}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Parameters shared by the structural rules. Mirrors the generation-time
/// filters so that audit and generation agree on what "boilerplate" and
/// "anchor" mean.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Minimum anchor-token length (L003).
    pub min_anchor_len: usize,
    /// Boilerplate strings whose substrings discriminate nothing (L004).
    pub boilerplate: Vec<Vec<u8>>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig::from(&SignatureConfig::default())
    }
}

impl From<&SignatureConfig> for AuditConfig {
    fn from(cfg: &SignatureConfig) -> Self {
        AuditConfig {
            min_anchor_len: cfg.min_anchor_len,
            boilerplate: cfg.boilerplate.clone(),
        }
    }
}

fn display_token(bytes: &[u8]) -> String {
    format!("{:?}", String::from_utf8_lossy(bytes))
}

/// Per-signature structural findings: L001, L002, L003, L004, L008, L013.
pub fn signature_structure(sig: &ConjunctionSignature, config: &AuditConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    if sig.tokens.is_empty() {
        out.push(
            Diagnostic::new(
                Code::EmptyTokenList,
                "no tokens: the signature matches every packet",
            )
            .on_signature(sig.id)
            .suggest("regenerate from the source cluster or delete the signature"),
        );
        return out; // Nothing below applies to an empty token list.
    }

    for t in &sig.tokens {
        if t.bytes().is_empty() {
            out.push(
                Diagnostic::new(
                    Code::ZeroLengthToken,
                    "zero-length token matches everywhere",
                )
                .on_signature(sig.id)
                .on_field(t.field)
                .suggest("drop the token"),
            );
        }
    }

    if !sig
        .tokens
        .iter()
        .any(|t| t.bytes().len() >= config.min_anchor_len)
    {
        let longest = sig
            .tokens
            .iter()
            .map(|t| t.bytes().len())
            .max()
            .unwrap_or(0);
        out.push(
            Diagnostic::new(
                Code::MissingAnchor,
                format!(
                    "no anchor token of {} bytes or more (longest is {longest}): \
                     §VI boilerplate-only hazard",
                    config.min_anchor_len
                ),
            )
            .on_signature(sig.id)
            .suggest("regenerate from a tighter cluster or discard the signature"),
        );
    }

    for t in &sig.tokens {
        if config
            .boilerplate
            .iter()
            .any(|b| contains_bytes(b, t.bytes()))
        {
            out.push(
                Diagnostic::new(
                    Code::BoilerplateToken,
                    format!(
                        "token {} is protocol boilerplate and discriminates nothing",
                        display_token(t.bytes())
                    ),
                )
                .on_signature(sig.id)
                .on_field(t.field)
                .suggest("drop the token; it only costs matching time"),
            );
        }
    }

    // L008: the request-line invariant pins the cluster to GET, yet the
    // signature constrains the body — GET requests carry no body, so the
    // conjunction can never fire on the traffic the cluster came from.
    // A cookie constraint is flagged too (per-field extraction on a
    // GET-only cluster usually means the cookie is a session value that
    // rotates, not an invariant).
    let get_only = sig
        .tokens
        .iter()
        .any(|t| t.field == Field::RequestLine && t.bytes().starts_with(b"GET "));
    if get_only {
        for t in &sig.tokens {
            if t.field != Field::RequestLine {
                out.push(
                    Diagnostic::new(
                        Code::FieldTokenOnGet,
                        format!(
                            "{} token {} on a GET-only cluster",
                            t.field.tag(),
                            display_token(t.bytes())
                        ),
                    )
                    .on_signature(sig.id)
                    .on_field(t.field)
                    .suggest("verify the cluster really sends this field on GET requests"),
                );
            }
        }
    }

    // L013: the same bytes twice in one field inflate the Fraction-mode
    // denominator — a 2-of-4 threshold quietly becomes 2-of-3 effective
    // evidence, weakening the rule the operator thinks they installed.
    {
        let mut seen: std::collections::HashSet<(Field, &[u8])> = std::collections::HashSet::new();
        let mut reported: std::collections::HashSet<(Field, &[u8])> =
            std::collections::HashSet::new();
        for t in &sig.tokens {
            let key = (t.field, t.bytes());
            if !seen.insert(key) && reported.insert(key) {
                out.push(
                    Diagnostic::new(
                        Code::DuplicateTokenBytes,
                        format!(
                            "token {} appears more than once in the {} field: \
                             duplicate tokens inflate the Fraction-mode denominator",
                            display_token(t.bytes()),
                            t.field.tag()
                        ),
                    )
                    .on_signature(sig.id)
                    .on_field(t.field)
                    .suggest("deduplicate the token list; each invariant counts once"),
                );
            }
        }
    }

    out
}

/// Structural findings over a whole set: every per-signature rule plus
/// L012 (duplicate ids).
pub fn structural(set: &SignatureSet, config: &AuditConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut seen_ids: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (i, sig) in set.signatures.iter().enumerate() {
        out.extend(signature_structure(sig, config));
        if let Some(&first) = seen_ids.get(&sig.id) {
            out.push(
                Diagnostic::new(
                    Code::DuplicateId,
                    format!(
                        "id {} already used at position {first} (this is position {i}): \
                         detections become ambiguous",
                        sig.id
                    ),
                )
                .on_signature(sig.id)
                .suggest("renumber the set; ids must be unique within a set"),
            );
        } else {
            seen_ids.insert(sig.id, i);
        }
    }
    out
}

/// Cross-artifact check of device policy rows against the set (L010).
/// Rows are `(app, signature_id, allow)` as produced by the device
/// policy engine's persistence snapshot.
pub fn policy_references(set: &SignatureSet, rows: &[(String, u32, bool)]) -> Vec<Diagnostic> {
    let known: std::collections::HashSet<u32> = set.signatures.iter().map(|s| s.id).collect();
    let mut out = Vec::new();
    for (app, sig_id, allow) in rows {
        if !known.contains(sig_id) {
            out.push(
                Diagnostic::new(
                    Code::UnknownPolicySignature,
                    format!(
                        "policy rule ({app}, sig {sig_id}, {}) references a signature \
                         the set does not contain",
                        if *allow { "allow" } else { "block" }
                    ),
                )
                .on_signature(*sig_id)
                .suggest("forget the stale rule or ship the referenced signature"),
            );
        }
    }
    out
}

/// Wire round-trip fidelity (L011): encoding and re-decoding the set must
/// preserve every signature, token, and host.
pub fn wire_round_trip(set: &SignatureSet) -> Vec<Diagnostic> {
    let text = wire::encode(set);
    let back = match wire::decode(&text) {
        Ok(b) => b,
        Err(e) => {
            return vec![Diagnostic::new(
                Code::WireRoundTripLoss,
                format!("the set's own encoding fails to decode: {e}"),
            )
            .suggest("the set holds content the wire format cannot carry")];
        }
    };
    let mut out = Vec::new();
    if back.len() != set.len() {
        out.push(Diagnostic::new(
            Code::WireRoundTripLoss,
            format!("{} signatures encode but {} decode", set.len(), back.len()),
        ));
        return out;
    }
    for (orig, dec) in set.signatures.iter().zip(&back.signatures) {
        let tokens_match = orig.tokens.len() == dec.tokens.len()
            && orig.tokens.iter().zip(&dec.tokens).all(|(a, b)| {
                a.field == b.field && a.bytes() == b.bytes() && a.order_hint() == b.order_hint()
            });
        if orig.id != dec.id || !tokens_match || orig.hosts != dec.hosts {
            out.push(
                Diagnostic::new(
                    Code::WireRoundTripLoss,
                    "signature does not survive encode/decode unchanged".to_string(),
                )
                .on_signature(orig.id)
                .suggest("the set holds content the wire format cannot carry"),
            );
        }
    }
    out
}

/// Whether any finding is Error-level.
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(|d| d.severity == Severity::Error)
}

/// Proved-verdict findings from [`crate::analyze::dead_signatures`]:
/// A002 for provably-unmatchable signatures, A001 for signatures an
/// earlier signature provably dominates — an exact duplicate included.
/// Both carry a proof, so both are Errors.
pub fn semantic_dead(set: &SignatureSet) -> Vec<Diagnostic> {
    crate::analyze::dead_signatures(set)
        .into_iter()
        .map(|d| match d.reason {
            crate::analyze::DeadReason::Unmatchable { detail } => Diagnostic::new(
                Code::ProvedUnmatchable,
                format!("proved unmatchable under Conjunction: {detail}"),
            )
            .on_signature(d.id)
            .suggest("delete the signature; it can never fire"),
            crate::analyze::DeadReason::Dominated { by_index, by_id } => Diagnostic::new(
                Code::ProvedDead,
                format!(
                    "proved dominated by signature {by_id} (position {by_index}) \
                     under Conjunction: every packet it matches, that one matches first"
                ),
            )
            .on_signature(d.id)
            .suggest("drop the signature or reorder the set"),
        })
        .collect()
}

/// Proved corpus false positives via [`crate::analyze::fp_exposure`]:
/// A003 when a signature's *exact* corpus match fraction exceeds
/// `max_fraction` (the static frequency bound decides which signatures
/// need the exact count at all).
pub fn corpus_fp_bounds(
    set: &SignatureSet,
    corpus: &[&HttpPacket],
    max_fraction: f64,
) -> Vec<Diagnostic> {
    crate::analyze::fp_exposure(set, corpus, max_fraction)
        .into_iter()
        .filter_map(|e| {
            let exact = e.exact?;
            (exact > max_fraction).then(|| {
                Diagnostic::new(
                    Code::ProvedCorpusFp,
                    format!(
                        "matches {:.1}% of the normal corpus under Conjunction \
                         (static bound {:.1}%, budget {:.1}%)",
                        exact * 100.0,
                        e.bound * 100.0,
                        max_fraction * 100.0
                    ),
                )
                .on_signature(e.id)
                .suggest("tighten the tokens or regenerate from a purer cluster")
            })
        })
        .collect()
}

/// Static resource budget for a compiled set, checked by
/// [`cost_findings`].
#[derive(Debug, Clone)]
pub struct CostBudget {
    /// Maximum automaton states across all fields.
    pub max_states: usize,
    /// Maximum pattern hits a single scan position may emit.
    pub max_hits_per_position: usize,
}

impl Default for CostBudget {
    fn default() -> Self {
        CostBudget {
            max_states: 200_000,
            max_hits_per_position: 16,
        }
    }
}

/// A004 findings when a [`crate::analyze::CostReport`] exceeds `budget`.
/// Warnings, not Errors: an oversized set still detects correctly, it
/// just costs device memory and per-byte time.
pub fn cost_findings(cost: &crate::analyze::CostReport, budget: &CostBudget) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if cost.total_states > budget.max_states {
        out.push(
            Diagnostic::new(
                Code::CostBudgetExceeded,
                format!(
                    "compiled set needs {} automaton states (budget {})",
                    cost.total_states, budget.max_states
                ),
            )
            .suggest("split the set or drop low-value signatures"),
        );
    }
    if cost.worst_hits_per_position > budget.max_hits_per_position {
        out.push(
            Diagnostic::new(
                Code::CostBudgetExceeded,
                format!(
                    "worst-case {} pattern hits at one scan position (budget {})",
                    cost.worst_hits_per_position, budget.max_hits_per_position
                ),
            )
            .suggest("long shared token suffixes cause output pile-up; diversify tokens"),
        );
    }
    out
}

/// The deploy gate: the corpus-free rules (structural, wire round-trip)
/// under default parameters, plus the analyzer's proved verdicts
/// ([`semantic_dead`] — A001/A002), reduced to Error-level findings.
/// `Ok(())` means the set may ship; `Err` carries the blocking findings.
///
/// This is what [`crate::pipeline`] and the device store apply by
/// default. The full linter (`leaksig-lint`) runs the same rules plus
/// the corpus false-positive bound (A003) and renders reports.
pub fn deploy_check(set: &SignatureSet) -> Result<(), Vec<Diagnostic>> {
    let config = AuditConfig::default();
    let mut errors: Vec<Diagnostic> = structural(set, &config)
        .into_iter()
        .chain(wire_round_trip(set))
        .chain(semantic_dead(set))
        .filter(|d| d.severity == Severity::Error)
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        errors.sort_by_key(|d| (d.signature_id, d.code));
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::FieldToken;

    fn sig(id: u32, tokens: Vec<FieldToken>) -> ConjunctionSignature {
        ConjunctionSignature {
            id,
            tokens,
            cluster_size: 2,
            hosts: vec!["h.example".to_string()],
        }
    }

    fn set_of(sigs: Vec<ConjunctionSignature>) -> SignatureSet {
        SignatureSet { signatures: sigs }
    }

    /// §VI regression: a `POST *`-style boilerplate-only signature is an
    /// Error and fails the deploy gate.
    #[test]
    fn post_star_is_an_error() {
        let pathological = set_of(vec![sig(
            0,
            vec![FieldToken::new(Field::RequestLine, &b"POST /x"[..])],
        )]);
        let diags = structural(&pathological, &AuditConfig::default());
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::MissingAnchor && d.severity == Severity::Error),
            "diags: {diags:?}"
        );
        let gate = deploy_check(&pathological);
        assert!(gate.is_err());
        assert!(gate
            .unwrap_err()
            .iter()
            .all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn empty_token_list_is_an_error() {
        let s = set_of(vec![sig(3, vec![])]);
        let diags = structural(&s, &AuditConfig::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::EmptyTokenList);
        assert_eq!(diags[0].signature_id, Some(3));
        assert!(deploy_check(&s).is_err());
    }

    #[test]
    fn boilerplate_token_is_a_warning() {
        let s = set_of(vec![sig(
            1,
            vec![
                FieldToken::new(Field::Body, &b"imei=355195000000017"[..]),
                FieldToken::new(Field::RequestLine, &b"ST /"[..]), // inside "POST /"
            ],
        )]);
        let diags = structural(&s, &AuditConfig::default());
        let boiler: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::BoilerplateToken)
            .collect();
        assert_eq!(boiler.len(), 1);
        assert_eq!(boiler[0].severity, Severity::Warning);
        // Warning-only sets pass the gate.
        assert!(deploy_check(&s).is_ok());
    }

    #[test]
    fn body_token_on_get_cluster_warns() {
        let s = set_of(vec![sig(
            2,
            vec![
                FieldToken::new(Field::RequestLine, &b"GET /ad?imei=355195"[..]),
                FieldToken::new(Field::Body, &b"trailing-body"[..]),
            ],
        )]);
        let diags = structural(&s, &AuditConfig::default());
        assert!(diags
            .iter()
            .any(|d| d.code == Code::FieldTokenOnGet && d.field == Some(Field::Body)));
    }

    #[test]
    fn duplicate_ids_are_an_error() {
        let tok = || vec![FieldToken::new(Field::Body, &b"imei=355195000000017"[..])];
        let s = set_of(vec![sig(7, tok()), sig(7, tok())]);
        let diags = structural(&s, &AuditConfig::default());
        assert!(diags.iter().any(|d| d.code == Code::DuplicateId));
        assert!(deploy_check(&s).is_err());
    }

    #[test]
    fn duplicate_token_bytes_within_one_signature_warn() {
        // Same bytes twice in one field → exactly one L013 per duplicated
        // pattern, a Warning (the set still behaves as specified under
        // Conjunction; only Fraction denominators are inflated).
        let s = sig(
            4,
            vec![
                FieldToken::new(Field::Body, &b"imei=355195000000017"[..]),
                FieldToken::new(Field::Body, &b"imei=355195000000017"[..]),
                FieldToken::new(Field::Body, &b"imei=355195000000017"[..]),
            ],
        );
        let diags = signature_structure(&s, &AuditConfig::default());
        let l013: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::DuplicateTokenBytes)
            .collect();
        assert_eq!(
            l013.len(),
            1,
            "one finding per duplicated pattern: {diags:?}"
        );
        assert_eq!(l013[0].severity, Severity::Warning);
        assert_eq!(l013[0].field, Some(Field::Body));
        // Same bytes in *different* fields are distinct invariants.
        let cross = sig(
            5,
            vec![
                FieldToken::new(Field::Body, &b"imei=355195000000017"[..]),
                FieldToken::new(Field::Cookie, &b"imei=355195000000017"[..]),
            ],
        );
        let diags = signature_structure(&cross, &AuditConfig::default());
        assert!(!diags.iter().any(|d| d.code == Code::DuplicateTokenBytes));
    }

    #[test]
    fn semantic_dead_findings_carry_proved_codes() {
        let general = sig(1, vec![FieldToken::new(Field::Body, &b"imei=355195"[..])]);
        let specific = sig(
            2,
            vec![FieldToken::new(Field::Body, &b"imei=355195000000017"[..])],
        );
        let unmatchable = sig(
            3,
            vec![FieldToken::new(
                Field::RequestLine,
                &[0xFF, b'/', b'a', b'b', b'c', b'd', b'e', b'f', b'g', b'h'][..],
            )],
        );
        let s = set_of(vec![general, specific, unmatchable]);
        let diags = semantic_dead(&s);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::ProvedDead && d.signature_id == Some(2)));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::ProvedUnmatchable && d.signature_id == Some(3)));
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        // The deploy gate now carries the proved verdicts.
        let gate = deploy_check(&s).unwrap_err();
        assert!(gate.iter().any(|d| d.code == Code::ProvedDead));
        assert!(gate.iter().any(|d| d.code == Code::ProvedUnmatchable));
    }

    #[test]
    fn cost_findings_respect_budget() {
        let s = set_of(vec![sig(
            1,
            vec![FieldToken::new(Field::Body, &b"imei=355195000000017"[..])],
        )]);
        let cost = crate::analyze::cost_report(&s);
        assert!(cost_findings(&cost, &CostBudget::default()).is_empty());
        let tiny = CostBudget {
            max_states: 1,
            max_hits_per_position: 0,
        };
        let diags = cost_findings(&cost, &tiny);
        assert_eq!(diags.len(), 2);
        assert!(diags
            .iter()
            .all(|d| d.code == Code::CostBudgetExceeded && d.severity == Severity::Warning));
    }

    #[test]
    fn corpus_fp_bounds_flag_general_signatures() {
        use leaksig_http::RequestBuilder;
        use std::net::Ipv4Addr;
        let corpus_owned: Vec<HttpPacket> = (0..20)
            .map(|i| {
                RequestBuilder::post("/app")
                    .form("lang", "en")
                    .form("slot", &i.to_string())
                    .destination(Ipv4Addr::new(10, 0, 0, 9), 80, "c.example")
                    .build()
            })
            .collect();
        let corpus: Vec<&HttpPacket> = corpus_owned.iter().collect();
        let over = sig(1, vec![FieldToken::new(Field::Body, &b"lang=en"[..])]);
        let under = sig(
            2,
            vec![FieldToken::new(Field::Body, &b"imei=355195000000017"[..])],
        );
        let s = set_of(vec![over, under]);
        let diags = corpus_fp_bounds(&s, &corpus, 0.05);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::ProvedCorpusFp);
        assert_eq!(diags[0].signature_id, Some(1));
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn exact_duplicate_token_sets_are_an_error() {
        let tok = || vec![FieldToken::new(Field::Body, &b"udid=dd72cbaeab8d2e44"[..])];
        let s = set_of(vec![sig(1, tok()), sig(2, tok())]);
        // An exact duplicate is the degenerate dominance case: proved
        // dead, and the later one is flagged.
        let diags = semantic_dead(&s);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::ProvedDead);
        assert_eq!(diags[0].signature_id, Some(2), "the later one is flagged");
        assert_eq!(deploy_check(&s).unwrap_err(), diags);
    }

    /// The acceptance-criteria shadowing case: an earlier signature whose
    /// single token is contained in the later one's token makes the later
    /// one unreachable.
    #[test]
    fn earlier_general_signature_shadows_later_specific_one() {
        let general = sig(10, vec![FieldToken::new(Field::Body, &b"imei=355195"[..])]);
        let specific = sig(
            11,
            vec![
                FieldToken::new(Field::Body, &b"imei=355195000000017"[..]),
                FieldToken::new(Field::Cookie, &b"sid=abcdef"[..]),
            ],
        );
        let s = set_of(vec![general, specific]);
        let diags = semantic_dead(&s);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::ProvedDead);
        assert_eq!(diags[0].signature_id, Some(11));
        assert_eq!(diags[0].severity, Severity::Error);

        // Reversed order: the specific one runs first, nothing shadowed.
        let s = set_of(vec![
            sig(
                11,
                vec![
                    FieldToken::new(Field::Body, &b"imei=355195000000017"[..]),
                    FieldToken::new(Field::Cookie, &b"sid=abcdef"[..]),
                ],
            ),
            sig(10, vec![FieldToken::new(Field::Body, &b"imei=355195"[..])]),
        ]);
        assert!(semantic_dead(&s).is_empty());
    }

    #[test]
    fn cross_field_containment_does_not_shadow() {
        // Same bytes, different field: no implication.
        let s = set_of(vec![
            sig(0, vec![FieldToken::new(Field::Cookie, &b"imei=355195"[..])]),
            sig(
                1,
                vec![FieldToken::new(Field::Body, &b"imei=355195000000017"[..])],
            ),
        ]);
        assert!(semantic_dead(&s).is_empty());
    }

    #[test]
    fn corpus_rule_flags_generic_signatures() {
        use leaksig_http::RequestBuilder;
        use std::net::Ipv4Addr;
        let corpus: Vec<HttpPacket> = (0..40)
            .map(|i| {
                RequestBuilder::get("/api/v1/items")
                    .query("page", &i.to_string())
                    .destination(Ipv4Addr::LOCALHOST, 80, "api.example.jp")
                    .build()
            })
            .collect();
        let refs: Vec<&HttpPacket> = corpus.iter().collect();
        let generic = set_of(vec![sig(
            0,
            vec![FieldToken::new(Field::RequestLine, &b"/api/v1/items"[..])],
        )]);
        let diags = corpus_fp_bounds(&generic, &refs, 0.05);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::ProvedCorpusFp);
        assert_eq!(diags[0].severity, Severity::Error);

        // A specific signature passes.
        let specific = set_of(vec![sig(
            0,
            vec![FieldToken::new(Field::Body, &b"udid=dd72cbaeab8d2e44"[..])],
        )]);
        assert!(corpus_fp_bounds(&specific, &refs, 0.05).is_empty());
        // Empty corpus: no findings, no division by zero.
        assert!(corpus_fp_bounds(&generic, &[], 0.05).is_empty());
    }

    #[test]
    fn policy_rule_must_reference_known_ids() {
        let s = set_of(vec![sig(
            5,
            vec![FieldToken::new(Field::Body, &b"imei=355195000000017"[..])],
        )]);
        let rows = vec![
            ("jp.co.x.game".to_string(), 5, true),
            ("jp.co.x.game".to_string(), 99, false),
        ];
        let diags = policy_references(&s, &rows);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::UnknownPolicySignature);
        assert_eq!(diags[0].signature_id, Some(99));
        assert!(diags[0].message.contains("jp.co.x.game"));
    }

    #[test]
    fn wire_round_trip_clean_set_is_silent() {
        let s = set_of(vec![sig(
            5,
            vec![FieldToken::with_hint(
                Field::Body,
                &b"imei=355195000000017"[..],
                9,
            )],
        )]);
        assert!(wire_round_trip(&s).is_empty());
    }

    #[test]
    fn wire_round_trip_flags_uncodable_content() {
        // Any host is codable, including empty and spaced ones.
        let mut odd_hosts = sig(
            5,
            vec![FieldToken::new(Field::Body, &b"imei=355195000000017"[..])],
        );
        odd_hosts.hosts = vec![String::new(), "two words".to_string()];
        assert!(wire_round_trip(&set_of(vec![odd_hosts])).is_empty());

        // A token-less signature is not: its encoding fails to decode.
        let lossy = sig(5, Vec::new());
        let diags = wire_round_trip(&set_of(vec![lossy]));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::WireRoundTripLoss);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn display_formats() {
        let d = Diagnostic::new(Code::MissingAnchor, "msg").on_signature(4);
        assert_eq!(d.to_string(), "error[L003] sig 4: msg");
        assert_eq!(Code::FieldTokenOnGet.to_string(), "L008");
        assert_eq!(Severity::Warning.label(), "warning");
        assert!(!has_errors(&[Diagnostic::new(Code::BoilerplateToken, "x")]));
        assert!(has_errors(&[Diagnostic::new(Code::DuplicateId, "x")]));
    }
}
