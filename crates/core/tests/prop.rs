//! Property tests for core invariants.

use leaksig_core::prelude::*;
use leaksig_core::signature::{ConjunctionSignature, Field, FieldToken};
use leaksig_http::RequestBuilder;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_packet() -> impl Strategy<Value = leaksig_http::HttpPacket> {
    (
        "[a-z0-9.-]{1,24}",
        any::<u32>(),
        1u16..,
        "[a-z/]{1,12}",
        proptest::collection::vec(("[a-z]{1,8}", "[a-zA-Z0-9]{0,16}"), 0..6),
        proptest::option::of("[a-z0-9=;]{1,24}"),
    )
        .prop_map(|(host, ip, port, path, qs, cookie)| {
            let mut b = RequestBuilder::get(&format!("/{path}"));
            for (k, v) in &qs {
                b = b.query(k, v);
            }
            if let Some(c) = &cookie {
                b = b.cookie(c);
            }
            b.destination(Ipv4Addr::from(ip), port, &host).build()
        })
}

fn arb_token() -> impl Strategy<Value = FieldToken> {
    (
        prop_oneof![
            Just(Field::RequestLine),
            Just(Field::Cookie),
            Just(Field::Body),
        ],
        // Arbitrary non-empty bytes (the wire decoder rejects empty
        // tokens, and has no length cap): mostly short, sometimes past
        // 255 bytes.
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 1..24),
            proptest::collection::vec(any::<u8>(), 1..24),
            proptest::collection::vec(any::<u8>(), 256..400),
        ],
        any::<u32>(),
    )
        .prop_map(|(field, bytes, hint)| FieldToken::with_hint(field, bytes, hint))
}

/// Signature sets the generator would never emit (arbitrary ids, hint
/// values, byte patterns) — the wire format must carry them regardless.
fn arb_wire_set() -> impl Strategy<Value = SignatureSet> {
    proptest::collection::vec(
        (
            any::<u32>(),
            1usize..50,
            // Empty and whitespace-bearing hosts included: they take
            // the hex-encoded host line.
            proptest::collection::vec("[a-z0-9. \t-]{0,16}", 0..3),
            proptest::collection::vec(arb_token(), 1..5),
        ),
        0..6,
    )
    .prop_map(|sigs| SignatureSet {
        signatures: sigs
            .into_iter()
            .map(|(id, cluster_size, hosts, tokens)| ConjunctionSignature {
                id,
                tokens,
                cluster_size,
                hosts,
            })
            .collect(),
    })
}

/// Packets over a tiny alphabet so engine/naive differential tests see
/// real matches (and near-misses) instead of a wall of trivial rejects.
fn arb_collision_packet() -> impl Strategy<Value = leaksig_http::HttpPacket> {
    (
        "[ab]{0,12}",
        proptest::option::of("[ab]{1,12}"),
        proptest::option::of("[ab]{0,16}"),
    )
        .prop_map(|(path, cookie, body)| {
            let mut b = RequestBuilder::get(&format!("/{path}"));
            if let Some(c) = &cookie {
                b = b.cookie(c);
            }
            if let Some(body) = body {
                b = b.body(body.into_bytes());
            }
            b.destination(Ipv4Addr::new(203, 0, 113, 9), 80, "a.example")
                .build()
        })
}

/// Signature sets whose tokens share the same tiny alphabet: heavy
/// cross-signature token overlap, duplicate tokens inside one signature,
/// and arbitrary order hints — the hard cases for a shared automaton.
fn arb_collision_set() -> impl Strategy<Value = SignatureSet> {
    let token = (
        prop_oneof![
            Just(Field::RequestLine),
            Just(Field::Cookie),
            Just(Field::Body),
        ],
        "[ab]{1,4}",
        0u32..8,
    )
        .prop_map(|(field, bytes, hint)| FieldToken::with_hint(field, bytes.into_bytes(), hint));
    proptest::collection::vec(proptest::collection::vec(token, 1..6), 0..8).prop_map(|sigs| {
        SignatureSet {
            signatures: sigs
                .into_iter()
                .enumerate()
                .map(|(id, tokens)| ConjunctionSignature {
                    id: id as u32,
                    tokens,
                    cluster_size: 2,
                    hosts: Vec::new(),
                })
                .collect(),
        }
    })
}

/// Signature sets built to stress dominance: fresh token lists over a
/// two-letter alphabet, plus signatures derived from an earlier one —
/// an equal copy, every token nested inside a longer one (dominated),
/// the same tokens moved to the next field (not dominated), or the
/// earlier tokens with extra ones appended (dominated by it, and a
/// would-be dominator with more tokens of the rest).
fn arb_dominance_set() -> impl Strategy<Value = SignatureSet> {
    let field = || {
        prop_oneof![
            Just(Field::RequestLine),
            Just(Field::Cookie),
            Just(Field::Body),
        ]
    };
    let token = (field(), "[ab]{1,5}")
        .prop_map(|(field, bytes)| FieldToken::new(field, bytes.into_bytes()));
    let spec = (
        proptest::collection::vec(token, 0..4),
        0usize..5,
        0usize..16,
        "[ab]{0,2}",
        "[ab]{0,2}",
    );
    proptest::collection::vec(spec, 1..12).prop_map(|specs| {
        let mut sigs: Vec<Vec<FieldToken>> = Vec::new();
        for (fresh, derive, pick, pre, post) in specs {
            let tokens = if sigs.is_empty() || derive == 0 {
                fresh
            } else {
                let base = sigs[pick % sigs.len()].clone();
                match derive {
                    1 => base,
                    2 => base
                        .iter()
                        .map(|t| {
                            let bytes = [pre.as_bytes(), t.bytes(), post.as_bytes()].concat();
                            FieldToken::new(t.field, bytes)
                        })
                        .collect(),
                    3 => base
                        .iter()
                        .map(|t| {
                            let next = Field::ALL[(t.field as usize + 1) % 3];
                            FieldToken::new(next, t.bytes())
                        })
                        .collect(),
                    _ => base.into_iter().chain(fresh).collect(),
                }
            };
            sigs.push(tokens);
        }
        SignatureSet {
            signatures: sigs
                .into_iter()
                .enumerate()
                .map(|(id, tokens)| ConjunctionSignature {
                    id: id as u32,
                    tokens,
                    cluster_size: 2,
                    hosts: Vec::new(),
                })
                .collect(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The engine-scan `drop_dominated` keeps exactly the signatures the
    /// naive O(S²·T²) definition keeps: A drops B when A ≠ B, A has no
    /// more tokens, the token lists differ, and every token of A lies in
    /// some same-field token of B.
    #[test]
    fn drop_dominated_equals_naive_definition(set in arb_dominance_set()) {
        let naive_survivors = |set: &SignatureSet| -> Vec<u32> {
            let contains = |hay: &[u8], nee: &[u8]| hay.windows(nee.len()).any(|w| w == nee);
            let views: Vec<Vec<(u8, &[u8])>> = set
                .signatures
                .iter()
                .map(|s| s.tokens.iter().map(|t| (t.field as u8, t.bytes())).collect())
                .collect();
            set.signatures
                .iter()
                .enumerate()
                .filter(|&(b, _)| {
                    !(0..views.len()).any(|a| {
                        a != b
                            && views[a].len() <= views[b].len()
                            && views[a] != views[b]
                            && views[a].iter().all(|&(fa, ta)| {
                                views[b].iter().any(|&(fb, tb)| fa == fb && contains(tb, ta))
                            })
                    })
                })
                .map(|(_, s)| s.id)
                .collect()
        };
        let expected = naive_survivors(&set);
        let mut pruned = set;
        drop_dominated(&mut pruned);
        let got: Vec<u32> = pruned.signatures.iter().map(|s| s.id).collect();
        prop_assert_eq!(got, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packet distance under the corrected convention is a bounded,
    /// symmetric-ish, near-zero-on-identity quantity.
    #[test]
    fn corrected_distance_properties(a in arb_packet(), b in arb_packet()) {
        let d: PacketDistance = PacketDistance::default();
        let (fa, fb) = (d.features(&a), d.features(&b));
        let dab = d.packet(&fa, &fb);
        prop_assert!(dab >= 0.0);
        prop_assert!(dab <= 6.5, "d = {}", dab); // 3 dst + 3 content + NCD slack
        let dba = d.packet(&fb, &fa);
        prop_assert!((dab - dba).abs() < 0.35, "asymmetry {} vs {}", dab, dba);
        let self_dist = d.packet(&fa, &fa);
        prop_assert!(self_dist < 1.0, "self distance {}", self_dist);
    }

    /// Dendrogram cuts always produce a partition of the leaves.
    #[test]
    fn cuts_partition(packets in proptest::collection::vec(arb_packet(), 2..16),
                      threshold in 0.0f64..6.0) {
        let d: PacketDistance = PacketDistance::default();
        let feats: Vec<_> = packets.iter().map(|p| d.features(p)).collect();
        let dg = agglomerate(&pairwise(&d, &feats));
        let clusters = dg.cut(threshold);
        let mut all: Vec<usize> = clusters.into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<usize> = (0..packets.len()).collect();
        prop_assert_eq!(all, expect);
    }

    /// Every cluster member matches the signature generated from its own
    /// cluster (conjunction soundness).
    #[test]
    fn members_match_own_signature(seed_pkt in arb_packet(), copies in 2usize..6) {
        // A cluster of near-duplicates (volatile param varies).
        let packets: Vec<_> = (0..copies)
            .map(|i| {
                let mut b = RequestBuilder::get(seed_pkt.request_line.path());
                if let Some(q) = seed_pkt.request_line.query() {
                    b = b.query("orig", &q.replace('&', "_"));
                }
                b = b.query("i", &i.to_string());
                b.destination(
                    seed_pkt.destination.ip,
                    seed_pkt.destination.port,
                    &seed_pkt.destination.host,
                )
                .build()
            })
            .collect();
        let refs: Vec<&leaksig_http::HttpPacket> = packets.iter().collect();
        if let Some(sig) = signature_from_cluster(0, &refs, &SignatureConfig::default()) {
            for p in &packets {
                prop_assert!(sig.matches(p), "member fails own signature");
            }
        }
    }

    /// Wire encode/decode round-trips arbitrary generated signature sets.
    #[test]
    fn wire_round_trip(packets in proptest::collection::vec(arb_packet(), 2..10)) {
        let refs: Vec<&leaksig_http::HttpPacket> = packets.iter().collect();
        let set = generate_signatures(&refs, &PipelineConfig::default());
        let text = encode(&set);
        let back = decode(&text).unwrap();
        prop_assert_eq!(back.len(), set.len());
        for (x, y) in back.signatures.iter().zip(&set.signatures) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.tokens.len(), y.tokens.len());
            for (tx, ty) in x.tokens.iter().zip(&y.tokens) {
                prop_assert_eq!(tx.field, ty.field);
                prop_assert_eq!(tx.bytes(), ty.bytes());
            }
        }
    }

    /// Wire round-trip over *arbitrary* sets, not just generator output:
    /// every id, host list, token byte pattern, and order hint survives.
    #[test]
    fn arbitrary_sets_survive_the_wire(set in arb_wire_set()) {
        let back = decode(&encode(&set)).unwrap();
        prop_assert_eq!(back.len(), set.len());
        for (x, y) in back.signatures.iter().zip(&set.signatures) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.cluster_size, y.cluster_size);
            prop_assert_eq!(&x.hosts, &y.hosts);
            prop_assert_eq!(x.tokens.len(), y.tokens.len());
            for (tx, ty) in x.tokens.iter().zip(&y.tokens) {
                prop_assert_eq!(tx.field, ty.field);
                prop_assert_eq!(tx.bytes(), ty.bytes());
                prop_assert_eq!(tx.order_hint(), ty.order_hint());
            }
        }
    }

    /// Malformed wire input — truncated at any byte, junk without the
    /// magic header, or extra junk lines — returns an error or a valid
    /// set; it never panics.
    #[test]
    fn malformed_wire_errors_instead_of_panicking(
        set in arb_wire_set(),
        cut_frac in 0.0f64..1.0,
        junk in "[a-z0-9 .=&]{0,32}",
    ) {
        let text = encode(&set);
        // Truncation at an arbitrary byte (encode output is ASCII, so
        // every index is a char boundary).
        let cut = (text.len() as f64 * cut_frac) as usize;
        let _ = decode(&text[..cut.min(text.len())]);
        // Junk without the magic header is always rejected.
        prop_assert!(decode(&junk).is_err());
        // A junk line appended to valid text must not panic (it may
        // happen to parse when it spells a valid directive).
        let mut corrupted = text;
        corrupted.push_str(&junk);
        corrupted.push('\n');
        let _ = decode(&corrupted);
    }

    /// The `LEAKFRAME/1` envelope round-trips any encodable payload.
    #[test]
    fn frame_round_trips(set in arb_wire_set()) {
        let text = encode(&set);
        let framed = frame(&text);
        prop_assert_eq!(unframe(&framed).unwrap(), text.as_str());
    }

    /// Unframing never panics, whatever the bytes — arbitrary garbage,
    /// a valid frame truncated at any byte, or a valid frame with any
    /// single byte flipped. Any mutation of a valid frame must be
    /// *detected*, not silently accepted.
    #[test]
    fn unframe_total_on_arbitrary_and_mutated_input(
        set in arb_wire_set(),
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
        cut_frac in 0.0f64..1.0,
        flip_at_frac in 0.0f64..1.0,
        flip_mask in 1u8..=255,
    ) {
        let _ = unframe(&garbage);

        let framed = frame(&encode(&set));
        let cut = (framed.len() as f64 * cut_frac) as usize;
        if cut < framed.len() {
            prop_assert!(unframe(&framed[..cut]).is_err(), "truncation accepted");
        }

        let mut flipped = framed.clone();
        let at = ((flipped.len() - 1) as f64 * flip_at_frac) as usize;
        flipped[at] ^= flip_mask;
        prop_assert!(unframe(&flipped).is_err(), "bit flip at {} accepted", at);
    }

    /// Streaming reassembly equals whole-buffer unframing for every
    /// chunking of a valid frame: feeding the frame split at an
    /// arbitrary boundary (plus trailing bytes from a second message)
    /// yields Incomplete on every proper prefix and the identical
    /// payload at completion. A split frame is never mistaken for a
    /// malformed one.
    #[test]
    fn unframe_partial_equals_unframe_under_any_split(
        set in arb_wire_set(),
        split_frac in 0.0f64..1.0,
        trailer in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        use leaksig_core::wire::{unframe_partial, FrameProgress};

        let text = encode(&set);
        let framed = frame(&text);
        let whole = unframe(&framed).unwrap();

        // Every proper prefix is Incomplete — including the one at the
        // drawn split point — and never an error.
        let split = ((framed.len() - 1) as f64 * split_frac) as usize;
        for cut in [0, split, framed.len() - 1] {
            prop_assert!(matches!(
                unframe_partial(&framed[..cut]),
                Ok(FrameProgress::Incomplete { .. })
            ), "prefix of {} bytes misjudged", cut);
        }

        // With the next message's bytes already buffered behind it, the
        // frame still decodes identically and consumes exactly itself.
        let mut buf = framed.clone();
        buf.extend_from_slice(&trailer);
        let Ok(FrameProgress::Complete { payload, consumed }) = unframe_partial(&buf) else {
            return Err(TestCaseError::fail("complete frame did not decode"));
        };
        prop_assert_eq!(payload, whole);
        prop_assert_eq!(consumed, framed.len());
    }

    /// The payload check's one-automaton scan agrees with checking each
    /// needle on its own. Values over a tiny alphabet nest and overlap
    /// (`a`, `aa`, `a a`), and the space and `0xFF` bytes give them
    /// form-urlencoded variants (`a+a`, `%FF`) that become needles too;
    /// tags repeat, so deduplication in needle order is exercised.
    #[test]
    fn payload_check_agrees_with_per_needle_oracle(
        values in proptest::collection::vec(
            (
                0u8..4,
                proptest::collection::vec(
                    prop_oneof![Just(b'a'), Just(b'b'), Just(b' '), Just(0xFFu8)],
                    1..6,
                ),
            ),
            0..8,
        ),
        hay in proptest::collection::vec(
            prop_oneof![
                Just(b'a'), Just(b'b'), Just(b' '), Just(0xFFu8),
                Just(b'+'), Just(b'%'), Just(b'F'), Just(b'x'),
            ],
            0..40,
        ),
    ) {
        let check = PayloadCheck::new(values.iter().map(|(t, v)| (*t, v.clone())));
        let mut oracle: Vec<u8> = Vec::new();
        let mut needles = 0usize;
        for (tag, value) in &values {
            let encoded = leaksig_http::query::encode_component(value).into_bytes();
            let mut variants = vec![value.clone()];
            if encoded != *value {
                variants.insert(0, encoded);
            }
            for pattern in variants {
                needles += 1;
                if hay.windows(pattern.len()).any(|w| w == &pattern[..]) && !oracle.contains(tag) {
                    oracle.push(*tag);
                }
            }
        }
        prop_assert_eq!(check.needle_count(), needles);
        prop_assert_eq!(check.scan_bytes(&hay), oracle.clone());
        prop_assert_eq!(check.is_suspicious_bytes(&hay), !oracle.is_empty());
    }

    /// The compiled automaton finds exactly the substring occurrences a
    /// brute-force search finds. Patterns over `{a, b, 0x00, 0xFF}` nest
    /// and overlap, so failure chains run deep; haystacks add bytes no
    /// pattern contains (the shared class 0). Each pattern is a
    /// single-token signature, so `matched_into` over a window reports
    /// which patterns occur in it; a pattern occurs ending at `e` with
    /// length `L` exactly when it is reported for the window `[e+1-L, e]`
    /// but for neither of that window's one-byte-shorter sub-windows. The
    /// `(pattern, end)` multiset read off that way over every window must
    /// equal the brute-force one, and so must each window's match list
    /// (every prefix window replays the one-pass state sequence of a
    /// long scan).
    #[test]
    fn automaton_hits_equal_brute_force(
        patterns in proptest::collection::vec(
            (
                0usize..3,
                proptest::collection::vec(
                    prop_oneof![Just(b'a'), Just(b'b'), Just(0x00u8), Just(0xFFu8)],
                    1..7,
                ),
            ),
            1..14,
        ),
        hay in proptest::collection::vec(
            prop_oneof![
                Just(b'a'), Just(b'b'), Just(0x00u8), Just(0xFFu8),
                Just(b'c'), Just(0x7Fu8), Just(b'\n'), Just(0x80u8),
            ],
            0..28,
        ),
    ) {
        let set = SignatureSet {
            signatures: patterns
                .iter()
                .enumerate()
                .map(|(i, (field, bytes))| ConjunctionSignature {
                    id: i as u32,
                    tokens: vec![FieldToken::new(Field::ALL[*field], bytes.clone())],
                    cluster_size: 2,
                    hosts: vec![],
                })
                .collect(),
        };
        let engine = leaksig_core::engine::CompiledDetector::compile(&set, MatchMode::Conjunction);
        let mut scratch = engine.scratch();
        let mut out = Vec::new();
        let n = hay.len();
        // present[s][e]: signatures reported for the window hay[s..e]
        // (end exclusive; empty windows report nothing).
        let mut present = vec![vec![Vec::new(); n + 1]; n + 1];
        for s in 0..n {
            for e in s + 1..=n {
                let w = &hay[s..e];
                engine.matched_into(&mut scratch, FieldBytes { rline: w, cookie: w, body: w }, &mut out);
                let naive: Vec<u32> = (0..patterns.len() as u32)
                    .filter(|&i| {
                        let pat = &patterns[i as usize].1;
                        w.windows(pat.len()).any(|x| x == &pat[..])
                    })
                    .collect();
                prop_assert_eq!(&out, &naive, "window {}..{}", s, e);
                present[s][e] = out.clone();
            }
        }
        let mut hits = Vec::new();
        for s in 0..n {
            for e in s + 1..=n {
                for &i in &present[s][e] {
                    if !present[s + 1][e].contains(&i) && !present[s][e - 1].contains(&i) {
                        hits.push((i, e - 1));
                    }
                }
            }
        }
        let mut brute = Vec::new();
        for (i, (_, pat)) in patterns.iter().enumerate() {
            for end in pat.len() - 1..n {
                if hay[end + 1 - pat.len()..=end] == pat[..] {
                    brute.push((i as u32, end));
                }
            }
        }
        hits.sort_unstable();
        brute.sort_unstable();
        prop_assert_eq!(hits, brute);
    }

    /// Compiled engine vs naive token matching, Conjunction mode: the
    /// automaton must agree with `ConjunctionSignature::matches` on every
    /// (set, packet) pair — including the first-match id and the full
    /// match list. Small alphabets force heavy token overlap, shared
    /// automaton prefixes, and duplicate tokens across signatures.
    #[test]
    fn compiled_conjunction_equals_naive(
        set in arb_collision_set(),
        packets in proptest::collection::vec(arb_collision_packet(), 1..8),
    ) {
        let detector = Detector::new(set.clone());
        for p in &packets {
            let naive: Vec<u32> = set
                .signatures
                .iter()
                .filter(|s| s.matches(p))
                .map(|s| s.id)
                .collect();
            prop_assert_eq!(detector.matches_all(p), &naive[..]);
            prop_assert_eq!(
                detector.match_packet(p).map(|d| d.signature_id),
                naive.first().copied()
            );
        }
        let refs: Vec<&leaksig_http::HttpPacket> = packets.iter().collect();
        let mask: Vec<bool> = refs
            .iter()
            .map(|p| set.signatures.iter().any(|s| s.matches(p)))
            .collect();
        prop_assert_eq!(detector.scan_refs(&refs), mask);
    }

    /// Fraction mode: counter ratios must reproduce the naive
    /// floating-point expression `hits / total >= threshold` bit-for-bit.
    #[test]
    fn compiled_fraction_equals_naive(
        set in arb_collision_set(),
        packets in proptest::collection::vec(arb_collision_packet(), 1..8),
        threshold in prop_oneof![Just(0.25f64), Just(1.0 / 3.0), Just(0.5), Just(0.75), Just(1.0)],
    ) {
        let detector = Detector::with_mode(set.clone(), MatchMode::Fraction(threshold));
        for p in &packets {
            let naive: Vec<u32> = set
                .signatures
                .iter()
                .filter(|s| s.match_fraction(p) >= threshold)
                .map(|s| s.id)
                .collect();
            prop_assert_eq!(detector.matches_all(p), &naive[..]);
            prop_assert_eq!(
                detector.match_packet(p).map(|d| d.signature_id),
                naive.first().copied()
            );
        }
    }

    /// Zero-copy verdicts are byte-identical to the owned path in both
    /// match modes: same first-match id and same full match list on
    /// the wire image of every packet, through both the raw-bytes entry
    /// point (view parse + scan) and a pre-parsed borrowed view.
    #[test]
    fn zero_copy_verdicts_equal_owned_all_modes(
        set in arb_collision_set(),
        packets in proptest::collection::vec(arb_collision_packet(), 1..8),
    ) {
        let limits = leaksig_http::ParseLimits::UNLIMITED;
        let modes = [MatchMode::Conjunction, MatchMode::Fraction(0.5)];
        for mode in modes {
            let detector = Detector::with_mode(set.clone(), mode);
            let mut scanner = detector.scanner();
            let mut scratch = detector.engine().scratch();
            let mut matches_buf: Vec<u32> = Vec::new();
            let mut arena = leaksig_http::ParseArena::new();
            for p in &packets {
                let raw = p.to_bytes();
                let owned_first = detector.match_packet(p).map(|d| d.signature_id);
                let owned_all = detector.matches_all(p);
                let v = scanner.scan_raw(&raw, p.destination.ip, p.destination.port, &limits);
                prop_assert!(!v.parse_failed);
                prop_assert_eq!(v.matched, owned_first, "{:?}", mode);
                arena.reset();
                let view = leaksig_http::parse_request_view(
                    &raw, p.destination.ip, p.destination.port, &limits, &mut arena,
                ).unwrap();
                prop_assert!(view.is_utf8_line(), "builder output has a UTF-8 request line");
                prop_assert_eq!(scanner.scan_view(&view).matched, owned_first, "{:?}", mode);
                detector.engine().matched_into(
                    &mut scratch,
                    FieldBytes::from_view(&view),
                    &mut matches_buf,
                );
                let ids: Vec<u32> = matches_buf
                    .iter()
                    .map(|&i| detector.engine().wire_id(i as usize))
                    .collect();
                prop_assert_eq!(ids, owned_all, "{:?}", mode);
            }
        }
    }

    /// Rates are bounded for arbitrary consistent counts.
    #[test]
    fn rates_bounded(sens in 1usize..500, norm in 0usize..500,
                     n_frac in 0.0f64..1.0, det_s_frac in 0.0f64..1.0,
                     det_n_frac in 0.0f64..1.0) {
        let sample_n = (sens as f64 * n_frac) as usize;
        let detected_sensitive = sample_n
            + ((sens - sample_n) as f64 * det_s_frac) as usize;
        let detected_normal = (norm as f64 * det_n_frac) as usize;
        let c = Counts {
            sensitive_total: sens,
            normal_total: norm,
            sample_n,
            detected_sensitive,
            detected_normal,
        };
        let r = c.rates();
        prop_assert!(r.true_positive >= 0.0 && r.true_positive <= 1.0);
        prop_assert!(r.false_negative >= 0.0 && r.false_negative <= 1.0);
        prop_assert!(r.false_positive >= 0.0);
        prop_assert!((0.0..=1.0).contains(&c.precision()));
        prop_assert!((0.0..=1.0).contains(&c.recall()));
    }
}

/// `Detector::scan_batch` above the parallel threshold produces the same
/// verdict vector as a single serial scanner, flags malformed records,
/// and scans a request line that is not UTF-8 as its lossy-decoded
/// packet: a signature cut from packets whose target holds U+FFFD
/// matches the raw `\xff` record, as `match_packet(parse_request(raw))`
/// does.
#[test]
fn scan_batch_parallel_matches_serial_and_flags_rejects() {
    use leaksig_core::signature::{signature_from_cluster, SignatureConfig};

    let mk = |slot: &str| {
        RequestBuilder::get("/ad")
            .query("imei", "355195000000017")
            .query("slot", slot)
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad-maker.info")
            .build()
    };
    let (a, b) = (mk("1"), mk("2"));
    let sig = signature_from_cluster(42, &[&a, &b], &SignatureConfig::default()).unwrap();
    let mk_lossy = |slot: &str| {
        RequestBuilder::get("/\u{fffd}ad")
            .query("imei", "355195000000017")
            .query("slot", slot)
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad-maker.info")
            .build()
    };
    let (c, d) = (mk_lossy("1"), mk_lossy("2"));
    let lossy_sig = signature_from_cluster(43, &[&c, &d], &SignatureConfig::default()).unwrap();
    let detector = Detector::new(SignatureSet {
        signatures: vec![sig, lossy_sig],
    });
    let limits = leaksig_http::ParseLimits::intake();

    let hit = mk("9").to_bytes();
    let miss = RequestBuilder::get("/img/cat.png")
        .destination(Ipv4Addr::new(198, 51, 100, 2), 80, "cdn.example")
        .build()
        .to_bytes();
    let garbage = b"definitely not http\r\n\r\n".to_vec();
    // Invalid UTF-8 in the request line, without and with a leak.
    let opaque = b"GET /\xff\xfe HTTP/1.1\r\nHost: x.example\r\n\r\n".to_vec();
    let lossy_hit =
        b"GET /\xffad?imei=355195000000017&slot=7 HTTP/1.1\r\nHost: ad-maker.info\r\n\r\n".to_vec();
    let raws: Vec<&[u8]> = vec![&hit, &miss, &garbage, &opaque, &lossy_hit];

    // Enough records to cross the parallel threshold (256).
    let records: Vec<RawPacket<'_>> = (0..600)
        .map(|i| RawPacket {
            raw: raws[i % raws.len()],
            ip: Ipv4Addr::new(203, 0, 113, 9),
            port: 80,
        })
        .collect();

    let parallel = detector.scan_batch(&records, &limits);
    let mut scanner = detector.scanner();
    let serial = scanner.scan_batch(records.iter().copied(), &limits);
    assert_eq!(parallel.as_slice(), serial);

    assert_eq!(parallel[0].matched, Some(42), "hit record");
    assert_eq!(parallel[1].matched, None, "miss record");
    assert!(parallel[2].parse_failed, "garbage record");
    assert!(
        !parallel[3].parse_failed && parallel[3].matched.is_none(),
        "non-UTF-8 record without a leak parses and misses"
    );
    let owned = leaksig_http::parse_request(&lossy_hit, Ipv4Addr::new(203, 0, 113, 9), 80)
        .expect("lossy record parses");
    assert_eq!(
        detector.match_packet(&owned).map(|d| d.signature_id),
        Some(43),
        "owned path"
    );
    assert_eq!(
        parallel[4].matched,
        Some(43),
        "lossy record matches its signature"
    );
}
