//! End-to-end audit scenarios over real pipeline output.

use leaksig_core::audit::{Code, Severity};
use leaksig_core::prelude::*;
use leaksig_core::signature::{ConjunctionSignature, Field, FieldToken};
use leaksig_lint::{contains_code, count_at, has_errors, render_json, render_text, Linter};
use leaksig_netsim::{Dataset, MarketConfig};

/// Signatures generated by the default pipeline from the default netsim
/// scenario carry zero Error-level findings (acceptance condition: the
/// gate admits paper-parameter sets).
#[test]
fn default_scenario_set_lints_clean_of_errors() {
    let data = Dataset::generate(MarketConfig::scaled(42, 0.05));
    let packets: Vec<&leaksig_http::HttpPacket> = data.packets.iter().map(|p| &p.packet).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();
    let out = run_experiment_refs(&packets, &labels, 120, &PipelineConfig::default());
    assert!(
        !out.signatures.is_empty(),
        "scenario produced no signatures"
    );

    let report = Linter::new().lint(&out.signatures);
    assert_eq!(
        count_at(&report, Severity::Error),
        0,
        "errors on a clean set: {}",
        render_text(&report)
    );
    // The deploy gate agrees.
    deploy_check(&out.signatures).expect("gate admits the clean set");
}

/// §VI regression at the linter level: a `POST *`-style boilerplate-only
/// signature injected into an otherwise-clean set is flagged as an Error
/// with the documented code.
#[test]
fn pathological_generic_signature_is_an_error() {
    let set = SignatureSet {
        signatures: vec![ConjunctionSignature {
            id: 0,
            tokens: vec![FieldToken::new(Field::RequestLine, &b"POST /x"[..])],
            cluster_size: 9,
            hosts: vec!["anywhere.example".to_string()],
        }],
    };
    let report = Linter::new().lint(&set);
    assert!(has_errors(&report));
    assert!(contains_code(&report, Code::MissingAnchor));
    let text = render_text(&report);
    assert!(text.contains("error[L003] sig 0"), "text: {text}");
}

/// A long-but-generic token passes the anchor rule yet hits the corpus
/// bound (A003): generality is measured, not inferred from length.
#[test]
fn corpus_rule_catches_long_generic_tokens() {
    let linter = Linter::new();
    assert!(linter.corpus_len() >= 500);

    // "GET /" + anything common: build the token from the corpus itself
    // so the test does not depend on netsim template details — take a
    // 10+-byte request-line prefix shared by many benign packets.
    let data = Dataset::generate(MarketConfig::scaled(0x11D2, 0.02));
    let benign: Vec<_> = data
        .packets
        .iter()
        .filter(|p| !p.is_sensitive())
        .take(1200)
        .collect();
    // Most common first 10 bytes of "METHOD target" across the corpus.
    let mut counts: std::collections::HashMap<Vec<u8>, usize> = Default::default();
    for p in &benign {
        let rline = format!(
            "{} {}",
            p.packet.request_line.method.as_str(),
            p.packet.request_line.target
        );
        let bytes = rline.as_bytes();
        if bytes.len() >= 10 {
            *counts.entry(bytes[..10].to_vec()).or_default() += 1;
        }
    }
    let (prefix, n) = counts.into_iter().max_by_key(|&(_, n)| n).unwrap();
    assert!(
        n as f64 / benign.len() as f64 > 0.05,
        "corpus has no dominant prefix; pick a bigger slice"
    );

    let generic = SignatureSet {
        signatures: vec![ConjunctionSignature {
            id: 1,
            tokens: vec![FieldToken::new(Field::RequestLine, prefix)],
            cluster_size: 3,
            hosts: vec![],
        }],
    };
    let report = linter.lint(&generic);
    assert!(
        contains_code(&report, Code::ProvedCorpusFp),
        "report: {}",
        render_text(&report)
    );
    assert!(has_errors(&report));
}

/// The shadowed pair: sig 4's token is a substring of sig 9's, so every
/// packet sig 9 matches, sig 4 matched first.
fn shadowed_pair() -> SignatureSet {
    let general = ConjunctionSignature {
        id: 4,
        tokens: vec![FieldToken::new(Field::Body, &b"imei=35519500"[..])],
        cluster_size: 5,
        hosts: vec![],
    };
    let specific = ConjunctionSignature {
        id: 9,
        tokens: vec![FieldToken::new(
            Field::Body,
            &b"imei=355195000000017&slot=1"[..],
        )],
        cluster_size: 2,
        hosts: vec![],
    };
    SignatureSet {
        signatures: vec![general, specific],
    }
}

/// Shadowing at the linter level: two signatures where the earlier
/// subsumes the later produce exactly one proved A001 Error on the later
/// id.
#[test]
fn shadowing_pair_is_reported() {
    let report = Linter::new().lint(&shadowed_pair());
    let shadowed: Vec<_> = report
        .iter()
        .filter(|d| d.code == Code::ProvedDead)
        .collect();
    assert_eq!(shadowed.len(), 1, "report: {}", render_text(&report));
    assert_eq!(shadowed[0].signature_id, Some(9));
    assert_eq!(shadowed[0].severity, Severity::Error);
}

/// One verdict per question: every Error the deploy gate blocks on,
/// `lint` reports with the same code and signature id — on a shadowed
/// pair, an exact-duplicate pair, a generated set, and that set with a
/// duplicate of its first signature appended.
#[test]
fn lint_reports_every_deploy_gate_error() {
    let duplicate = {
        let tok = || vec![FieldToken::new(Field::Body, &b"udid=dd72cbaeab8d2e44"[..])];
        let sig = |id| ConjunctionSignature {
            id,
            tokens: tok(),
            cluster_size: 2,
            hosts: vec![],
        };
        SignatureSet {
            signatures: vec![sig(1), sig(2)],
        }
    };
    let data = Dataset::generate(MarketConfig::scaled(42, 0.05));
    let packets: Vec<&leaksig_http::HttpPacket> = data.packets.iter().map(|p| &p.packet).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();
    let generated =
        run_experiment_refs(&packets, &labels, 120, &PipelineConfig::default()).signatures;
    assert!(!generated.is_empty());
    let mut injected = generated.clone();
    let mut copy = injected.signatures[0].clone();
    copy.id = injected.signatures.iter().map(|s| s.id).max().unwrap() + 1;
    injected.signatures.push(copy);

    let linter = Linter::new();
    let mut gated = 0;
    for set in [shadowed_pair(), duplicate, generated, injected] {
        let report = linter.lint(&set);
        let gate = deploy_check(&set).err().unwrap_or_default();
        for g in &gate {
            assert!(
                report.iter().any(|d| d.severity == Severity::Error
                    && d.code == g.code
                    && d.signature_id == g.signature_id),
                "lint misses gate error {g}: {}",
                render_text(&report)
            );
        }
        gated += gate.len();
    }
    assert_eq!(
        gated, 3,
        "the shadowed, duplicate and injected sets each block once"
    );
}

/// JSON rendering of a real report stays parseable-by-eye and carries the
/// schema keys in order.
#[test]
fn json_schema_on_real_findings() {
    let set = SignatureSet {
        signatures: vec![ConjunctionSignature {
            id: 2,
            tokens: vec![FieldToken::new(Field::RequestLine, &b"GET /a"[..])],
            cluster_size: 1,
            hosts: vec![],
        }],
    };
    let report = Linter::new().lint(&set);
    assert!(has_errors(&report));
    let json = render_json(&report);
    assert!(json.starts_with("{\"version\":1,\"errors\":"));
    for key in [
        "\"code\":",
        "\"severity\":",
        "\"signature_id\":",
        "\"field\":",
        "\"message\":",
        "\"suggestion\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
