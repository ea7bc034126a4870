//! End-to-end pipeline tests on synthetic market data (scaled-down
//! versions of the paper's §V experiment).

use leaksig_core::prelude::*;
use leaksig_netsim::{Dataset, MarketConfig, SensitiveKind};

fn dataset() -> Dataset {
    Dataset::generate(MarketConfig::scaled(1234, 0.04))
}

/// The §IV-A payload check, fed with the device's identifier values, must
/// agree exactly with the generator's ground-truth labels.
#[test]
fn payload_check_agrees_with_ground_truth() {
    let data = dataset();
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
    for p in data.packets.iter().take(4000) {
        let verdict = check.is_suspicious(&p.packet);
        assert_eq!(
            verdict,
            p.is_sensitive(),
            "payload check disagrees on {:?} (truth {:?})",
            String::from_utf8_lossy(&p.packet.to_bytes()),
            p.truth
        );
        let mut found = check.scan(&p.packet);
        found.sort();
        assert_eq!(found, p.truth, "kind mismatch");
    }
}

/// Signatures generated from a modest sample must reach high TP and low
/// FP on the full (scaled) dataset — the headline result's shape.
#[test]
fn detection_rates_have_the_papers_shape() {
    let data = dataset();
    let packets: Vec<_> = data.packets.iter().map(|p| p.packet.clone()).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();

    let out = run_experiment(&packets, &labels, 120, &PipelineConfig::default());
    assert!(
        out.rates.true_positive > 0.75,
        "TP {:.3} ({} signatures from {} clusters, {} sensitive)",
        out.rates.true_positive,
        out.signatures.len(),
        out.clusters,
        out.counts.sensitive_total,
    );
    assert!(
        out.rates.false_positive < 0.08,
        "FP {:.3}",
        out.rates.false_positive
    );
    assert!(
        (out.rates.true_positive + out.rates.false_negative - 1.0).abs() < 0.05,
        "TP + FN should be ~1 when the sample is mostly self-detected"
    );
}

/// More sample → better TP (the Fig. 4 trend), comparing a small and a
/// large N under the same seed.
#[test]
fn tp_improves_with_sample_size() {
    let data = dataset();
    let packets: Vec<_> = data.packets.iter().map(|p| p.packet.clone()).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();
    let cfg = PipelineConfig::default();

    let small = run_experiment(&packets, &labels, 15, &cfg);
    let large = run_experiment(&packets, &labels, 150, &cfg);
    assert!(
        large.rates.true_positive >= small.rates.true_positive - 0.02,
        "TP small {:.3} vs large {:.3}",
        small.rates.true_positive,
        large.rates.true_positive
    );
}

/// Signatures survive a wire round-trip and detect identically.
#[test]
fn wire_round_trip_preserves_detection() {
    let data = dataset();
    let packets: Vec<_> = data.packets.iter().map(|p| p.packet.clone()).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();
    let out = run_experiment(&packets, &labels, 80, &PipelineConfig::default());

    let text = encode(&out.signatures);
    let decoded = leaksig_core::wire::decode(&text).expect("wire decode");
    let a = Detector::new(out.signatures);
    let b = Detector::new(decoded);
    for p in packets.iter().take(3000) {
        assert_eq!(a.match_packet(p).is_some(), b.match_packet(p).is_some());
    }
}

/// The corrected distance convention must cluster better than the
/// paper-literal one (the ablation's claim, verified at test scale).
#[test]
fn corrected_convention_beats_paper_literal() {
    let data = dataset();
    let packets: Vec<_> = data.packets.iter().map(|p| p.packet.clone()).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();

    let corrected = run_experiment(&packets, &labels, 100, &PipelineConfig::default());
    let mut literal_cfg = PipelineConfig::default();
    literal_cfg.distance.convention = DistanceConvention::PaperLiteral;
    let literal = run_experiment(&packets, &labels, 100, &literal_cfg);

    let f1_corrected = corrected.counts.f1();
    let f1_literal = literal.counts.f1();
    assert!(
        f1_corrected >= f1_literal - 0.02,
        "corrected F1 {f1_corrected:.3} vs literal {f1_literal:.3}"
    );
}

/// Negative control: signatures generated from a *benign* sample must not
/// detect sensitive traffic any better than chance — detection power
/// comes from the suspicious sample, not from the machinery itself.
#[test]
fn benign_sample_has_no_detection_power() {
    let data = dataset();
    let benign: Vec<&leaksig_http::HttpPacket> = data
        .packets
        .iter()
        .filter(|p| !p.is_sensitive())
        .take(100)
        .map(|p| &p.packet)
        .collect();
    let set = generate_signatures(&benign, &PipelineConfig::default());
    let detector = Detector::new(set);

    let sensitive: Vec<&leaksig_http::HttpPacket> = data
        .packets
        .iter()
        .filter(|p| p.is_sensitive())
        .take(2000)
        .map(|p| &p.packet)
        .collect();
    let hits = sensitive
        .iter()
        .filter(|p| detector.match_packet(p).is_some())
        .count();
    assert!(
        (hits as f64) < 0.05 * sensitive.len() as f64,
        "benign-trained signatures matched {hits}/{} sensitive packets",
        sensitive.len()
    );
}

/// Degenerate inputs the pipeline must survive: all-sensitive capture,
/// duplicate packets, and a single-packet sample.
#[test]
fn pipeline_edge_cases() {
    let data = dataset();
    let sensitive: Vec<leaksig_http::HttpPacket> = data
        .packets
        .iter()
        .filter(|p| p.is_sensitive())
        .take(120)
        .map(|p| p.packet.clone())
        .collect();

    // All-sensitive dataset: FP denominator is empty → FP reported 0.
    let all_true = vec![true; sensitive.len()];
    let out = run_experiment(&sensitive, &all_true, 40, &PipelineConfig::default());
    assert_eq!(out.rates.false_positive, 0.0);
    assert!(out.rates.true_positive > 0.0);

    // Duplicate packets: identical copies cluster trivially and the
    // resulting signature detects the original.
    let dup = vec![sensitive[0].clone(); 30];
    let labels = vec![true; 30];
    let out = run_experiment(&dup, &labels, 10, &PipelineConfig::default());
    assert!(
        out.counts.detected_sensitive >= 29,
        "duplicates must all be detected: {:?}",
        out.counts
    );

    // Single-packet sample still produces a (singleton) signature set.
    let refs: Vec<&leaksig_http::HttpPacket> = sensitive.iter().take(1).collect();
    let set = generate_signatures(&refs, &PipelineConfig::default());
    assert!(set.len() <= 1);
}

/// The §V experiment driver evaluates exactly the set the collection
/// server would publish: over the same drawn sample and benign slice,
/// `run_experiment_refs` and `regeneration_pass` wire-encode to the same
/// bytes, with validation on or off and the deploy gate on or off.
#[test]
fn experiment_driver_evaluates_the_published_set() {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    let data = dataset();
    let packets: Vec<&leaksig_http::HttpPacket> = data.packets.iter().map(|p| &p.packet).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();
    let n = 120;
    let draw = |want: bool, seed: u64, k: usize| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..packets.len()).filter(|&i| labels[i] == want).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        idx.truncate(k);
        idx
    };

    let base = PipelineConfig::default();
    let configs = [
        base.clone(),
        PipelineConfig {
            fp_validation: None,
            ..base.clone()
        },
        PipelineConfig {
            deploy_gate: false,
            ..base.clone()
        },
        // Strict enough that which benign packets were drawn decides
        // which candidates survive.
        PipelineConfig {
            fp_validation: Some(FpValidation {
                sample: 300,
                max_hits: 1,
            }),
            ..base.clone()
        },
    ];
    for cfg in configs {
        let outcome = run_experiment_refs(&packets, &labels, n, &cfg);

        let suspicious = draw(true, cfg.sample_seed, n);
        let slice = cfg.fp_validation.unwrap_or_default().sample;
        let normal = draw(false, cfg.sample_seed ^ 0x4650, slice);
        let sample: Vec<_> = suspicious.iter().map(|&i| packets[i]).collect();
        let normal: Vec<_> = normal.iter().map(|&i| packets[i]).collect();
        let published = regeneration_pass(&sample, &normal, &cfg);

        assert!(!published.is_empty(), "{cfg:?}");
        assert_eq!(
            encode(&outcome.signatures),
            encode(&published),
            "driver and server sets differ under {cfg:?}"
        );
        let marked: Vec<usize> = (0..packets.len()).filter(|&i| outcome.sampled[i]).collect();
        assert_eq!(marked.len(), outcome.counts.sample_n);
        let mut drawn = suspicious;
        drawn.sort_unstable();
        assert_eq!(marked, drawn);
    }
}
