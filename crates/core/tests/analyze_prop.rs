//! Parity properties for the semantic analyzer: dominance verdicts must
//! never disagree with brute-force dual evaluation of both signatures
//! over concretely constructed packets.

use leaksig_core::analyze::{dominates, drop_dead, prove_dominates, set_matches, Dominance};
use leaksig_core::prelude::*;
use leaksig_core::signature::{ConjunctionSignature, Field, FieldToken};
use leaksig_http::{Destination, HttpPacket, Method, RequestLine};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Tokens over a tiny alphabet (no spaces, no `#`) so brute-force packets
/// built by joining tokens with `#` see real matches and near-misses,
/// including tokens that are substrings of each other.
fn arb_sig_token() -> impl Strategy<Value = FieldToken> {
    (
        prop_oneof![
            Just(Field::RequestLine),
            Just(Field::Cookie),
            Just(Field::Body),
        ],
        "[xyz]{1,4}",
        0u32..16,
    )
        .prop_map(|(field, bytes, hint)| FieldToken::with_hint(field, bytes.into_bytes(), hint))
}

fn arb_sig(id: u32) -> impl Strategy<Value = ConjunctionSignature> {
    proptest::collection::vec(arb_sig_token(), 1..4).prop_map(move |tokens| ConjunctionSignature {
        id,
        tokens,
        cluster_size: 2,
        hosts: Vec::new(),
    })
}

/// Build a packet presenting exactly the given per-field byte sequences,
/// each field's pieces joined (and delimited) by `#` — a byte outside the
/// token alphabet, so joining never fabricates a token occurrence.
fn packet_from(rline: &[&[u8]], cookie: &[&[u8]], body: &[&[u8]]) -> HttpPacket {
    let join = |parts: &[&[u8]]| -> Vec<u8> {
        let mut out = Vec::new();
        for p in parts {
            out.push(b'#');
            out.extend_from_slice(p);
        }
        out.push(b'#');
        out
    };
    let target = format!("/{}", String::from_utf8(join(rline)).unwrap());
    let mut headers = Vec::new();
    if !cookie.is_empty() {
        headers.push(("Cookie".into(), join(cookie)));
    }
    HttpPacket {
        destination: Destination::new(Ipv4Addr::new(198, 51, 100, 9), 80, "prop.example"),
        request_line: RequestLine {
            method: Method::Other("QZV".to_string()),
            target,
            version: "HTTP/1.1".to_string(),
        },
        headers,
        body: join(body),
    }
}

/// Every packet the brute-force oracle evaluates: one per subset of the
/// two signatures' combined token list, laid out per field.
fn enumerate_packets(a: &ConjunctionSignature, b: &ConjunctionSignature) -> Vec<HttpPacket> {
    let union: Vec<&FieldToken> = a.tokens.iter().chain(b.tokens.iter()).collect();
    let n = union.len().min(8);
    let mut packets = Vec::new();
    for mask in 0u32..(1 << n) {
        let mut groups: [Vec<&FieldToken>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, tok) in union.iter().take(n).enumerate() {
            if mask >> i & 1 == 1 {
                let g = match tok.field {
                    Field::RequestLine => 0,
                    Field::Cookie => 1,
                    Field::Body => 2,
                };
                groups[g].push(tok);
            }
        }
        fn bytes<'a>(g: &[&'a FieldToken]) -> Vec<&'a [u8]> {
            g.iter().map(|t| t.bytes()).collect()
        }
        packets.push(packet_from(
            &bytes(&groups[0]),
            &bytes(&groups[1]),
            &bytes(&groups[2]),
        ));
    }
    packets
}

proptest! {
    /// The acceptance property: for random signature pairs, the
    /// analyzer's dominance verdict never disagrees with brute-force
    /// dual evaluation over the enumerated packets.
    ///
    /// * `Proved` ⇒ no enumerated packet matches B without matching A.
    /// * `Refuted` ⇒ the witness actually matches B and not A.
    /// * Any enumerated counterexample ⇒ the proof procedure said no.
    #[test]
    fn dominance_agrees_with_brute_force(a in arb_sig(1), b in arb_sig(2)) {
        let packets = enumerate_packets(&a, &b);
        let proved = prove_dominates(&a, &b).is_some();
        let counterexample = packets.iter().find(|p| b.matches(p) && !a.matches(p));
        if let Some(p) = counterexample {
            prop_assert!(
                !proved,
                "claimed proof contradicted\na = {:?}\nb = {:?}\npacket {} {:?} {:?}",
                a.tokens, b.tokens, p.request_line.target,
                String::from_utf8_lossy(p.cookie()),
                String::from_utf8_lossy(&p.body),
            );
        }
        match dominates(&a, &b) {
            Dominance::Proved(_) => prop_assert!(proved),
            Dominance::Refuted(w) => {
                prop_assert!(b.matches(&w.packet), "witness must match B");
                prop_assert!(!a.matches(&w.packet), "witness must miss A");
            }
            Dominance::Undecided(_) => {}
        }
    }

    /// Removing proved-dead signatures never changes the whole-set
    /// verdict of any enumerated packet.
    #[test]
    fn drop_dead_preserves_set_semantics(
        sigs in proptest::collection::vec(proptest::collection::vec(arb_sig_token(), 1..3), 1..4)
    ) {
        let set = SignatureSet {
            signatures: sigs
                .into_iter()
                .enumerate()
                .map(|(i, tokens)| ConjunctionSignature {
                    id: i as u32,
                    tokens,
                    cluster_size: 2,
                    hosts: Vec::new(),
                })
                .collect(),
        };
        // Probe packets from every pair's enumeration (covers each
        // signature's own tokens plus cross-signature combinations).
        let mut packets = Vec::new();
        for s in &set.signatures {
            packets.extend(enumerate_packets(s, &set.signatures[0]));
        }
        let mut reduced = set.clone();
        drop_dead(&mut reduced);
        for p in &packets {
            prop_assert_eq!(set_matches(&set, p), set_matches(&reduced, p), "any-match changed");
        }
    }
}

/// The acceptance scenario for the generation diff: two consecutive
/// regeneration passes over overlapping market samples produce sets whose
/// semantic diff classifies every signature, with a verdict-flipping
/// witness for every added/removed/changed entry that is not equivalent.
#[test]
fn diff_of_consecutive_regenerations_has_flip_witnesses() {
    use leaksig_core::analyze::{diff_generations, ChangeKind};
    use leaksig_netsim::{Dataset, MarketConfig};

    let data1 = Dataset::generate(MarketConfig::scaled(0xD1FF, 0.02));
    let data2 = Dataset::generate(MarketConfig::scaled(0xD1FF + 1, 0.02));
    let config = PipelineConfig::default();
    let mut generations = Vec::new();
    for data in [&data1, &data2] {
        let sample: Vec<&leaksig_http::HttpPacket> = data
            .packets
            .iter()
            .filter(|p| p.is_sensitive())
            .take(60)
            .map(|p| &p.packet)
            .collect();
        let normal: Vec<&leaksig_http::HttpPacket> = data
            .packets
            .iter()
            .filter(|p| !p.is_sensitive())
            .take(200)
            .map(|p| &p.packet)
            .collect();
        generations.push(regeneration_pass(&sample, &normal, &config));
    }
    let (old, new) = (&generations[0], &generations[1]);
    assert!(!old.is_empty() && !new.is_empty());

    let diff = diff_generations(old, new);
    assert_eq!(
        diff.unchanged + diff.removed.len() + diff.changed.len(),
        old.len(),
        "every old signature is classified"
    );
    assert_eq!(
        diff.unchanged + diff.added.len() + diff.changed.len(),
        new.len(),
        "every new signature is classified"
    );
    assert!(
        !diff.is_empty(),
        "different seeds must produce a semantic change: {}",
        diff.summary()
    );
    // Every witness the diff reports genuinely flips the whole-set
    // verdict between the generations.
    let mut witnesses = 0;
    for a in &diff.added {
        if let Some(w) = &a.witness {
            assert!(set_matches(new, &w.packet));
            assert!(!set_matches(old, &w.packet));
            witnesses += 1;
        }
    }
    for r in &diff.removed {
        if let Some(w) = &r.witness {
            assert!(set_matches(old, &w.packet));
            assert!(!set_matches(new, &w.packet));
            witnesses += 1;
        }
    }
    for c in &diff.changed {
        if c.kind == ChangeKind::Equivalent {
            continue;
        }
        if let Some(w) = &c.witness {
            let (yes, no) = match c.kind {
                ChangeKind::Weakened => (new, old),
                _ => (old, new),
            };
            assert!(set_matches(yes, &w.packet));
            assert!(!set_matches(no, &w.packet));
            witnesses += 1;
        }
    }
    assert!(
        witnesses >= 1,
        "at least one verdict flip: {}",
        diff.summary()
    );
}
