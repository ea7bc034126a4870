//! **Probabilistic signatures** (the §VI future-work item): sweep the
//! token-fraction matching threshold and report the TP/FP trade-off at a
//! fixed sample size.
//!
//! Conjunction matching (threshold 1.0) is the paper's semantics; lower
//! thresholds tolerate partially-evolved module traffic at the cost of
//! false positives.
//!
//! ```text
//! cargo run --release -p leaksig-bench --bin probabilistic
//! ```

use leaksig_bench::{cli_config, generate, pct, rule};
use leaksig_core::detect::MatchMode;
use leaksig_core::eval::tally;
use leaksig_core::prelude::*;

fn main() {
    let config = cli_config();
    let data = generate(config);
    let packets: Vec<&leaksig_http::HttpPacket> = data.packets.iter().map(|p| &p.packet).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();
    let n = ((300.0 * config.scale).round() as usize).max(10);

    // One shared signature set, generated exactly as the pipeline would.
    let cfg = PipelineConfig::default();
    let outcome = run_experiment_refs(&packets, &labels, n, &cfg);
    let set = outcome.signatures;
    eprintln!("{} signatures from N = {n}", set.len());

    // The same sample mask for every threshold.
    let sampled = outcome.sampled;

    println!("Probabilistic signatures — token-fraction threshold sweep (N = {n})\n");
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8}",
        "threshold", "TP", "FN", "FP", "F1"
    );
    rule(48);
    for t in [1.0f64, 0.9, 0.8, 0.7, 0.6, 0.5] {
        let detector = Detector::with_mode(set.clone(), MatchMode::Fraction(t));
        let detected: Vec<bool> = packets
            .iter()
            .map(|p| detector.match_packet(p).is_some())
            .collect();
        let counts = tally(&labels, &detected, &sampled);
        let rates = counts.rates();
        println!(
            "{:>10} {:>8} {:>8} {:>8} {:>8.3}",
            if t == 1.0 {
                "1.0 (=∧)".to_string()
            } else {
                format!("{t:.1}")
            },
            pct(rates.true_positive),
            pct(rates.false_negative),
            pct(rates.false_positive),
            counts.f1(),
        );
    }
    rule(48);

    // The third Polygraph class: a Bayes (token-scoring) signature trained
    // on the same sample plus a benign slice, threshold self-calibrated.
    let mut suspicious_refs: Vec<&leaksig_http::HttpPacket> = Vec::new();
    let mut normal_refs: Vec<&leaksig_http::HttpPacket> = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        if sampled[i] {
            suspicious_refs.push(p);
        } else if !labels[i] && normal_refs.len() < 2000 {
            normal_refs.push(p);
        }
    }
    if let Some(bayes) =
        BayesSignature::train(&suspicious_refs, &normal_refs, &cfg, BayesConfig::default())
    {
        let detected: Vec<bool> = packets.iter().map(|p| bayes.matches(p)).collect();
        let counts = tally(&labels, &detected, &sampled);
        let rates = counts.rates();
        println!(
            "\nBayes signature ({} weighted tokens, theta = {:.2}):",
            bayes.token_count(),
            bayes.threshold()
        );
        println!(
            "{:>10} {:>8} {:>8} {:>8} {:>8.3}",
            "bayes",
            pct(rates.true_positive),
            pct(rates.false_negative),
            pct(rates.false_positive),
            counts.f1(),
        );
    }

    println!(
        "\nreading: relaxing the conjunction buys recall only once signatures\n\
         are allowed to fire on partial template matches — and pays in FP.\n\
         On this dataset the conjunction point dominates; probabilistic\n\
         matching is the insurance policy for module evolution, not a free\n\
         accuracy win."
    );
}
