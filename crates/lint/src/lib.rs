#![warn(missing_docs)]
//! `leaksig-lint` — static auditor for finished signature artifacts.
//!
//! The generation pipeline filters §VI's `POST *` hazards at the source,
//! but signature sets also arrive over the wire, from older producers,
//! and from hand edits. This crate runs the set-level rule catalogue
//! over a [`SignatureSet`] and renders the findings as human-readable
//! text or stable JSON.
//!
//! The rule primitives live in `leaksig_core::audit` so the core pipeline
//! and the device store can gate deployments without depending on this
//! crate; what `leaksig-lint` adds is:
//!
//! * a bundled normal-traffic corpus (deterministic `leaksig-netsim`
//!   benign traffic) behind the A003 corpus false-positive bound, so
//!   "would this signature fire on ordinary packets?" is answerable
//!   offline;
//! * one-call orchestration of every set-level rule with deterministic
//!   ordering — the deploy gate's rules plus A003, so every Error the
//!   gate blocks on, `lint` reports with the same code;
//! * report rendering ([`render_text`], [`render_json`]).
//!
//! ```
//! use leaksig_lint::Linter;
//! use leaksig_core::prelude::*;
//!
//! let set = SignatureSet::default();
//! let linter = Linter::new();
//! assert!(linter.lint(&set).is_empty());
//! ```

use leaksig_core::audit::{self, AuditConfig, Code, Diagnostic, Severity};
use leaksig_core::signature::SignatureSet;
use leaksig_http::HttpPacket;
use leaksig_netsim::{Dataset, MarketConfig};

pub use leaksig_core::audit::has_errors;

mod render;
pub use render::{render_json, render_text};

/// A003 budget: a signature matching more than this fraction of the
/// bundled corpus is an Error. Chosen above the pipeline's own vetting
/// bar (2%) so sets that passed generation-time pruning on a *different*
/// benign sample do not flap.
const CORPUS_MAX_FRACTION: f64 = 0.05;
/// Number of benign packets in the bundled corpus.
const CORPUS_SIZE: usize = 1200;
/// Seed of the bundled corpus (deterministic across runs).
const CORPUS_SEED: u64 = 0x11D2;

/// The auditor: the normal-traffic corpus the A003 bound measures
/// against, with the rules run at their default parameters.
#[derive(Debug)]
pub struct Linter {
    corpus: Vec<HttpPacket>,
}

impl Default for Linter {
    fn default() -> Self {
        Linter::new()
    }
}

impl Linter {
    /// A linter over the bundled corpus.
    pub fn new() -> Self {
        Linter {
            corpus: bundled_corpus(CORPUS_SEED, CORPUS_SIZE),
        }
    }

    /// Number of packets in the corpus behind the A003 bound.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Run every set-level rule: structural, the analyzer's proved
    /// dead/unmatchable verdicts (A001/A002), the corpus false-positive
    /// bound (A003), and wire round-trip. A superset of
    /// [`audit::deploy_check`]'s rules. Findings are ordered by severity
    /// (errors first), then code, then signature id.
    pub fn lint(&self, set: &SignatureSet) -> Vec<Diagnostic> {
        let refs: Vec<&HttpPacket> = self.corpus.iter().collect();
        let mut out = audit::structural(set, &AuditConfig::default());
        out.extend(audit::semantic_dead(set));
        out.extend(audit::corpus_fp_bounds(set, &refs, CORPUS_MAX_FRACTION));
        out.extend(audit::wire_round_trip(set));
        sort_findings(&mut out);
        out
    }
}

/// Deterministic report order: errors before warnings, then by code,
/// signature id (set-level findings first), field, and message — so gate
/// logs and report snapshots are byte-identical across runs regardless
/// of which rule emitted a finding first.
pub fn sort_findings(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.code.cmp(&b.code))
            .then(a.signature_id.cmp(&b.signature_id))
            .then(a.field.map(|f| f.tag()).cmp(&b.field.map(|f| f.tag())))
            .then(a.message.cmp(&b.message))
    });
}

/// The bundled benign corpus: the deterministic netsim market's normal
/// group. Generated once per [`Linter`] construction; the seed is fixed,
/// so two runs agree on every A003 verdict.
fn bundled_corpus(seed: u64, size: usize) -> Vec<HttpPacket> {
    let data = Dataset::generate(MarketConfig::scaled(seed, 0.02));
    data.packets
        .iter()
        .filter(|p| !p.is_sensitive())
        .take(size)
        .map(|p| p.packet.clone())
        .collect()
}

/// Count findings at a severity.
pub fn count_at(diagnostics: &[Diagnostic], severity: Severity) -> usize {
    diagnostics
        .iter()
        .filter(|d| d.severity == severity)
        .count()
}

/// Convenience used by tests and callers: does the report contain a
/// specific code?
pub fn contains_code(diagnostics: &[Diagnostic], code: Code) -> bool {
    diagnostics.iter().any(|d| d.code == code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_core::signature::{ConjunctionSignature, Field, FieldToken};

    fn sig(id: u32, tokens: Vec<FieldToken>) -> ConjunctionSignature {
        ConjunctionSignature {
            id,
            tokens,
            cluster_size: 2,
            hosts: vec!["h.example".to_string()],
        }
    }

    #[test]
    fn bundled_corpus_is_deterministic_and_benign() {
        let linter = Linter::new();
        assert!(linter.corpus_len() > 200, "corpus {}", linter.corpus_len());
        let again = Linter::new();
        assert_eq!(linter.corpus_len(), again.corpus_len());
    }

    #[test]
    fn empty_set_is_clean() {
        assert!(Linter::new().lint(&SignatureSet::default()).is_empty());
    }

    #[test]
    fn report_orders_errors_first() {
        let set = SignatureSet {
            signatures: vec![
                // Warning: boilerplate fragment (plus a healthy anchor).
                sig(
                    0,
                    vec![
                        FieldToken::new(Field::Body, &b"imei=355195000000017"[..]),
                        FieldToken::new(Field::RequestLine, &b"ST /"[..]),
                    ],
                ),
                // Error: no anchor.
                sig(
                    1,
                    vec![FieldToken::new(Field::RequestLine, &b"POST /x"[..])],
                ),
            ],
        };
        let report = Linter::new().lint(&set);
        assert!(report.len() >= 2);
        assert_eq!(report[0].severity, Severity::Error);
        assert!(contains_code(&report, Code::MissingAnchor));
        assert!(contains_code(&report, Code::BoilerplateToken));
        let first_warning = report
            .iter()
            .position(|d| d.severity == Severity::Warning)
            .unwrap();
        assert!(report[..first_warning]
            .iter()
            .all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn report_order_is_deterministic_and_code_sorted() {
        use leaksig_core::signature::Field as F;
        // Hand-shuffled findings at mixed severities: sorting must give
        // severity-major, then code, then signature id, then field.
        let mk = |code: Code, id: Option<u32>, field: Option<F>| {
            let mut d = Diagnostic::new(code, "m");
            d.signature_id = id;
            d.field = field;
            d
        };
        let mut a = vec![
            mk(Code::BoilerplateToken, Some(2), Some(F::Body)),
            mk(Code::MissingAnchor, Some(9), None),
            mk(Code::BoilerplateToken, Some(2), Some(F::Cookie)),
            mk(Code::DuplicateId, Some(1), None),
            mk(Code::MissingAnchor, Some(3), None),
        ];
        let mut b: Vec<Diagnostic> = a.iter().rev().cloned().collect();
        sort_findings(&mut a);
        sort_findings(&mut b);
        assert_eq!(a, b, "order must not depend on input order");
        let keys: Vec<(&str, Option<u32>)> = a
            .iter()
            .map(|d| (d.code.as_str(), d.signature_id))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("L003", Some(3)),
                ("L003", Some(9)),
                ("L012", Some(1)),
                ("L004", Some(2)),
                ("L004", Some(2)),
            ]
        );
        // Field breaks the tie between the two L004 findings on sig 2.
        assert_eq!(a[3].field, Some(F::Body));
        assert_eq!(a[4].field, Some(F::Cookie));
    }

    #[test]
    fn counts() {
        let d = vec![
            Diagnostic::new(Code::MissingAnchor, "x"),
            Diagnostic::new(Code::BoilerplateToken, "y"),
        ];
        assert_eq!(count_at(&d, Severity::Error), 1);
        assert_eq!(count_at(&d, Severity::Warning), 1);
    }
}
