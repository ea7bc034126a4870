//! Regenerate **Fig. 4**: detection rate of sensitive-information leakage
//! versus sample size `N` — the paper's headline experiment.
//!
//! For each `N ∈ {100, 200, 300, 400, 500}` (scaled): sample `N` packets
//! from the suspicious group, cluster them with the HTTP packet distance,
//! generate conjunction signatures, apply them to the entire dataset, and
//! report TP/FN/FP with the paper's formulas.
//!
//! ```text
//! cargo run --release -p leaksig-bench --bin fig4
//! ```

use leaksig_bench::{generate, pct, rule, Positionals};
use leaksig_core::prelude::*;
use std::num::NonZeroU64;

/// Mean rates over `runs` independent sample draws.
fn averaged(
    packets: &[&leaksig_http::HttpPacket],
    labels: &[bool],
    n: usize,
    runs: u64,
    base: &PipelineConfig,
) -> (Rates, usize, usize) {
    let mut acc = Rates {
        true_positive: 0.0,
        false_negative: 0.0,
        false_positive: 0.0,
    };
    let (mut clusters, mut sigs) = (0usize, 0usize);
    for r in 0..runs {
        let cfg = PipelineConfig {
            sample_seed: base.sample_seed ^ (r * 0x9e37),
            ..base.clone()
        };
        let out = run_experiment_refs(packets, labels, n, &cfg);
        acc.true_positive += out.rates.true_positive;
        acc.false_negative += out.rates.false_negative;
        acc.false_positive += out.rates.false_positive;
        clusters += out.clusters;
        sigs += out.signatures.len();
    }
    let k = runs as f64;
    (
        Rates {
            true_positive: acc.true_positive / k,
            false_negative: acc.false_negative / k,
            false_positive: acc.false_positive / k,
        },
        clusters / runs as usize,
        sigs / runs as usize,
    )
}

/// The paper's reported series (percent).
const PAPER: &[(usize, f64, f64, f64)] = &[
    (100, 85.0, 15.0, 0.3),
    (200, 90.0, 8.0, 0.9),
    (300, 91.5, 7.0, 1.4),
    (400, 93.0, 6.0, 1.8),
    (500, 94.0, 5.0, 2.3),
];

fn main() {
    // `runs`: independent sample draws to average (default 1, the paper's
    // single-draw protocol); `csv`: a path to also write the series to
    // (for plotting).
    let args = Positionals::from_env("[seed] [scale] [runs] [csv]");
    let runs = args.get("runs").unwrap_or(NonZeroU64::MIN).get();
    let csv_path: Option<String> = args.get("csv");
    let mut csv = String::from("n,tp,fn,fp,paper_tp,paper_fn,paper_fp\n");
    let config = args.market(1.0);
    let data = generate(config);
    let packets: Vec<&leaksig_http::HttpPacket> = data.packets.iter().map(|p| &p.packet).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();
    let sensitive = labels.iter().filter(|&&s| s).count();
    eprintln!(
        "{} sensitive / {} normal packets",
        sensitive,
        labels.len() - sensitive
    );

    println!("Fig. 4 — detection rate vs sample size N\n");
    println!(
        "{:>5} | {:>7} {:>7} | {:>7} {:>7} | {:>7} {:>7} | {:>5} {:>5}",
        "N", "TP", "paper", "FN", "paper", "FP", "paper", "clus", "sigs"
    );
    rule(78);

    let pipeline = PipelineConfig::default();
    for &(n_paper, tp_p, fn_p, fp_p) in PAPER {
        let n = ((n_paper as f64 * config.scale).round() as usize).max(5);
        let t0 = std::time::Instant::now();
        let (rates, clusters, sigs) = averaged(&packets, &labels, n, runs, &pipeline);
        eprintln!("N = {n} x{runs}: {:?}", t0.elapsed());
        println!(
            "{:>5} | {:>7} {:>6.1}% | {:>7} {:>6.1}% | {:>7} {:>6.1}% | {:>5} {:>5}",
            n,
            pct(rates.true_positive),
            tp_p,
            pct(rates.false_negative),
            fn_p,
            pct(rates.false_positive),
            fp_p,
            clusters,
            sigs,
        );
        csv.push_str(&format!(
            "{n},{:.4},{:.4},{:.4},{},{},{}\n",
            rates.true_positive,
            rates.false_negative,
            rates.false_positive,
            tp_p / 100.0,
            fn_p / 100.0,
            fp_p / 100.0
        ));
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, csv).expect("write csv");
        eprintln!("csv series written to {path}");
    }
    rule(78);
    println!(
        "\n(paper rows for N=300,400 are interpolated from Fig. 4's curve;\n\
         the printed anchors are 85/15/0.3 at N=100 and 94/5/2.3 at N=500)"
    );
}
