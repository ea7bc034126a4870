//! Golden confusion counts for the Fig. 4 experiment.
//!
//! `run_experiment` over the market at seed 42, for each of the `fig4`
//! binary's sample sizes (the paper's N = 100 … 500, scaled), at a
//! reduced scale (0.3) and at the full scale `fig4` publishes (1.0; about
//! a second in the test profile). The exact detected counts per N fix
//! TP, FN and FP, so any change to sampling, clustering, signature
//! generation, pruning or detection that moves a published set fails
//! here. The constants were captured from the code before the analyzer
//! and the deploy gate became conjunction-only.

use leaksig::core::prelude::*;
use leaksig::http::HttpPacket;
use leaksig::netsim::{Dataset, MarketConfig};

const SEED: u64 = 42;

/// Per scale: (sensitive packets, normal packets) in the market, and
/// (N, detected sensitive, detected normal, signatures) per sample size.
type Golden = (f64, (usize, usize), [(usize, usize, usize, usize); 5]);

const GOLDEN: [Golden; 2] = [
    (
        0.3,
        (7118, 25240),
        [
            (30, 6125, 19, 16),
            (60, 6388, 19, 28),
            (90, 6412, 19, 30),
            (120, 6548, 19, 32),
            (150, 6610, 19, 37),
        ],
    ),
    (
        1.0,
        (23920, 83939),
        [
            (100, 19803, 0, 29),
            (200, 22763, 793, 33),
            (300, 23538, 793, 18),
            (400, 23130, 793, 27),
            (500, 23366, 793, 38),
        ],
    ),
];

#[test]
fn fig4_counts_match_golden() {
    let config = PipelineConfig::default();
    for (scale, totals, series) in GOLDEN {
        let data = Dataset::generate(MarketConfig::scaled(SEED, scale));
        let packets: Vec<HttpPacket> = data.packets.iter().map(|p| p.packet.clone()).collect();
        let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();
        let got: Vec<(usize, usize, usize, usize)> = [100, 200, 300, 400, 500]
            .iter()
            .map(|&n_paper| {
                let n = (n_paper as f64 * scale).round() as usize;
                let out = run_experiment(&packets, &labels, n, &config);
                let c = out.counts;
                assert_eq!((c.sensitive_total, c.normal_total), totals, "scale {scale}");
                assert_eq!(c.sample_n, n);
                (
                    n,
                    c.detected_sensitive,
                    c.detected_normal,
                    out.signatures.len(),
                )
            })
            .collect();
        assert_eq!(got, series, "scale {scale}: got {got:?}");
    }
}
