//! **Ablation** (ours): which design choices in §IV actually carry the
//! result? The baseline and five single-change variants, evaluated at a
//! fixed (scaled) N = 300, each through the experiment driver
//! ([`run_experiment_with`]):
//!
//! 1. baseline — corrected convention, LZSS NCD, destination distance on,
//!    generic-token filtering on, all-nodes signature generation;
//! 2. distance convention — the paper-literal §IV-B formulas as printed;
//! 3. destination distance off (content-only clustering);
//! 4. LZW instead of LZSS behind the NCD;
//! 5. generic-token filtering off (§VI's `GET *` hazard);
//! 6. single-cut selection instead of all-dendrogram-nodes.
//!
//! ```text
//! cargo run --release -p leaksig-bench --bin ablation
//! ```

use leaksig_bench::{cli_config, generate, pct, rule};
use leaksig_compress::{Lzss, Lzw};
use leaksig_core::prelude::*;
use leaksig_http::HttpPacket;

fn main() {
    let config = cli_config();
    let data = generate(config);
    let packets: Vec<&HttpPacket> = data.packets.iter().map(|p| &p.packet).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();
    let n = ((300.0 * config.scale).round() as usize).max(10);
    eprintln!("ablation at N = {n}");

    let base = PipelineConfig::default();

    let mut literal = base.clone();
    literal.distance.convention = DistanceConvention::PaperLiteral;

    let mut no_dest = base.clone();
    no_dest.distance.destination_weight = 0.0;

    let mut unfiltered = base.clone();
    unfiltered.signature.boilerplate.clear();
    unfiltered.signature.min_anchor_len = 1;

    let mut single_cut = base.clone();
    single_cut.selection = ClusterSelection::Cut(1.6);

    let variants: Vec<(&str, PipelineConfig, bool)> = vec![
        (
            "baseline (corrected, LZSS, dst on, filter on)",
            base.clone(),
            false,
        ),
        ("paper-literal distance convention", literal, false),
        ("destination distance off", no_dest, false),
        ("LZW compressor for NCD", base.clone(), true),
        ("generic-token filter off", unfiltered, false),
        ("single-cut selection (theta = 1.6)", single_cut, false),
    ];

    println!("Ablation — fixed N = {n}\n");
    println!(
        "{:<46} {:>7} {:>7} {:>7} {:>6} {:>6}",
        "variant", "TP", "FN", "FP", "F1", "sigs"
    );
    rule(84);
    for (name, cfg, lzw) in variants {
        let out = if lzw {
            run_experiment_with(Lzw, &packets, &labels, n, &cfg)
        } else {
            run_experiment_with(Lzss::default(), &packets, &labels, n, &cfg)
        };
        println!(
            "{:<46} {:>7} {:>7} {:>7} {:>6.3} {:>6}",
            name,
            pct(out.rates.true_positive),
            pct(out.rates.false_negative),
            pct(out.rates.false_positive),
            out.counts.f1(),
            out.signatures.len(),
        );
    }
    rule(84);
}
