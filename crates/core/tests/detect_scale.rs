//! Full-dataset differential test: the compiled engine must agree with
//! the naive per-signature matcher over an entire synthetic market, in
//! every match mode — the scale counterpart to the per-packet property
//! tests in `prop.rs`.

use leaksig_core::prelude::*;
use leaksig_http::{HttpPacket, RequestBuilder};
use leaksig_netsim::{Dataset, MarketConfig};
use std::net::Ipv4Addr;

/// One seeded market plus signatures generated from its suspicious group.
fn market() -> (Vec<HttpPacket>, SignatureSet) {
    let dataset = Dataset::generate(MarketConfig::scaled(77, 0.05));
    let (suspicious, _) = dataset.split_indices();
    let sample: Vec<&HttpPacket> = suspicious
        .iter()
        .take(40)
        .map(|&i| &dataset.packets[i].packet)
        .collect();
    let set = generate_signatures(&sample, &PipelineConfig::default());
    assert!(!set.is_empty(), "market sample must yield signatures");
    let packets: Vec<HttpPacket> = dataset.packets.into_iter().map(|p| p.packet).collect();
    (packets, set)
}

fn naive_mask(
    set: &SignatureSet,
    packets: &[HttpPacket],
    matches: impl Fn(&ConjunctionSignature, &HttpPacket) -> bool,
) -> Vec<bool> {
    packets
        .iter()
        .map(|p| set.signatures.iter().any(|s| matches(s, p)))
        .collect()
}

#[test]
fn compiled_scan_matches_naive_over_full_market() {
    let (packets, set) = market();
    assert!(
        packets.len() > 1000,
        "need a real dataset, got {}",
        packets.len()
    );
    let naive = naive_mask(&set, &packets, |s, p| s.matches(p));
    assert!(
        naive.iter().any(|&m| m),
        "signatures must detect something in their own market"
    );
    assert!(
        naive.iter().any(|&m| !m),
        "signatures must not match everything"
    );

    // The batch scan (parallel above its threshold) and the per-packet
    // path must both reproduce the naive mask exactly.
    let detector = Detector::new(set.clone());
    assert_eq!(detector.scan(packets.iter()), naive);
    for (p, &expect) in packets.iter().zip(&naive).take(500) {
        assert_eq!(detector.match_packet(p).is_some(), expect);
    }
}

#[test]
fn fraction_mode_matches_naive_over_full_market() {
    let (packets, set) = market();
    let threshold = 0.6;
    let naive = naive_mask(&set, &packets, |s, p| s.match_fraction(p) >= threshold);
    let detector = Detector::with_mode(set, MatchMode::Fraction(threshold));
    assert_eq!(detector.scan(packets.iter()), naive);
}

/// Hand-built packets pinning the Fraction semantics: 2-of-3 tokens clear
/// a 0.6 threshold, 1-of-3 does not — in both engines.
#[test]
fn fraction_equivalence_on_hand_built_packets() {
    use leaksig_core::signature::{ConjunctionSignature, Field, FieldToken};
    let set = SignatureSet {
        signatures: vec![ConjunctionSignature {
            id: 3,
            tokens: vec![
                FieldToken::new(Field::RequestLine, &b"imei="[..]),
                FieldToken::new(Field::RequestLine, &b"carrier="[..]),
                FieldToken::new(Field::Cookie, &b"sid="[..]),
            ],
            cluster_size: 2,
            hosts: vec![],
        }],
    };
    let dst = |b: RequestBuilder| {
        b.destination(Ipv4Addr::new(203, 0, 113, 2), 80, "x.jp")
            .build()
    };
    let two_of_three = dst(RequestBuilder::get("/a?imei=1&carrier=docomo"));
    let one_of_three = dst(RequestBuilder::get("/a?imei=1"));

    let sig = &set.signatures[0];
    assert!(sig.match_fraction(&two_of_three) >= 0.6);
    assert!(sig.match_fraction(&one_of_three) < 0.6);
    assert!(!sig.matches(&two_of_three), "conjunction needs all three");

    let fraction = Detector::with_mode(set.clone(), MatchMode::Fraction(0.6));
    assert!(fraction.match_packet(&two_of_three).is_some());
    assert!(fraction.match_packet(&one_of_three).is_none());

    let conjunction = Detector::new(set);
    assert!(conjunction.match_packet(&two_of_three).is_none());
}
