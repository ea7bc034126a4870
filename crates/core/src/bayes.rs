//! Bayes signatures — the third signature class of Polygraph (the
//! paper's reference \[14\]), adapted to the leaksig pipeline.
//!
//! Where a conjunction signature demands *all* tokens and a probabilistic
//! one a token *fraction*, a Bayes signature scores each token by how
//! much more often it appears in suspicious than in normal traffic and
//! flags packets whose summed score clears a threshold:
//!
//! ```text
//! w(t) = ln( (P(t | suspicious) + ε) / (P(t | normal) + ε) )
//! score(p) = Σ_{t present in p} w(t)      flag iff score ≥ θ
//! ```
//!
//! θ is set from the training data itself, Polygraph-style: the maximum
//! score any *normal* training packet achieves, plus a small margin — a
//! zero-training-false-positive calibration.
//!
//! The token pool is harvested from an all-nodes conjunction generation
//! pass, so the two approaches see the same invariants; the Bayes layer
//! re-weighs rather than re-discovers them.

use crate::pipeline::{generate_signatures, PipelineConfig};
use crate::signature::{field_views, rline_view, FieldToken};
use leaksig_http::HttpPacket;

/// A trained token-scoring signature.
#[derive(Debug, Clone)]
pub struct BayesSignature {
    tokens: Vec<FieldToken>,
    weights: Vec<f64>,
    threshold: f64,
}

/// Training parameters.
#[derive(Debug, Clone, Copy)]
pub struct BayesConfig {
    /// Laplace-style smoothing added to both occurrence rates.
    pub epsilon: f64,
    /// Margin added to the calibrated threshold.
    pub margin: f64,
    /// Drop tokens whose absolute weight falls below this (they carry no
    /// discriminative signal and only cost matching time).
    pub min_abs_weight: f64,
}

impl Default for BayesConfig {
    fn default() -> Self {
        BayesConfig {
            epsilon: 0.01,
            margin: 1e-6,
            min_abs_weight: 0.1,
        }
    }
}

impl BayesSignature {
    /// Train from labelled samples. The token pool comes from running the
    /// conjunction generator over `suspicious` with `pipeline_config`.
    /// Returns `None` when no tokens survive weighting (e.g. empty or
    /// degenerate training sets).
    pub fn train(
        suspicious: &[&HttpPacket],
        normal: &[&HttpPacket],
        pipeline_config: &PipelineConfig,
        config: BayesConfig,
    ) -> Option<BayesSignature> {
        if suspicious.is_empty() {
            return None;
        }
        // Harvest a deduplicated token pool.
        let set = generate_signatures(suspicious, pipeline_config);
        let mut pool: Vec<FieldToken> = Vec::new();
        let mut seen: std::collections::HashSet<(u8, Vec<u8>)> = Default::default();
        for sig in &set.signatures {
            for t in &sig.tokens {
                if seen.insert((t.field as u8, t.bytes().to_vec())) {
                    pool.push(t.clone());
                }
            }
        }
        if pool.is_empty() {
            return None;
        }

        // Occurrence rates per class.
        let sus_rlines: Vec<String> = suspicious.iter().map(|p| rline_view(p)).collect();
        let norm_rlines: Vec<String> = normal.iter().map(|p| rline_view(p)).collect();
        let rate = |t: &FieldToken, packets: &[&HttpPacket], rlines: &[String]| -> f64 {
            if packets.is_empty() {
                return 0.0;
            }
            let hits = packets
                .iter()
                .zip(rlines)
                .filter(|(p, r)| t.is_in(field_views(r, p)))
                .count();
            hits as f64 / packets.len() as f64
        };

        let mut tokens = Vec::new();
        let mut weights = Vec::new();
        for t in pool {
            let p_sus = rate(&t, suspicious, &sus_rlines);
            let p_norm = rate(&t, normal, &norm_rlines);
            let w = ((p_sus + config.epsilon) / (p_norm + config.epsilon)).ln();
            if w.abs() >= config.min_abs_weight {
                tokens.push(t);
                weights.push(w);
            }
        }
        if tokens.is_empty() {
            return None;
        }

        let mut sig = BayesSignature {
            tokens,
            weights,
            threshold: f64::NEG_INFINITY,
        };
        // Calibrate θ: never flag a normal training packet.
        let max_normal = normal
            .iter()
            .map(|p| sig.score(p))
            .fold(f64::NEG_INFINITY, f64::max);
        // And never miss every suspicious packet: θ must be reachable.
        let max_sus = suspicious
            .iter()
            .map(|p| sig.score(p))
            .fold(f64::NEG_INFINITY, f64::max);
        let theta = if max_normal.is_finite() {
            max_normal + config.margin
        } else {
            0.0
        };
        sig.threshold = theta.min(max_sus);
        Some(sig)
    }

    /// Number of weighted tokens.
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }

    /// Calibrated decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Summed token score of `packet`.
    pub fn score(&self, packet: &HttpPacket) -> f64 {
        let rline = rline_view(packet);
        let fields = field_views(&rline, packet);
        self.tokens
            .iter()
            .zip(&self.weights)
            .filter(|(t, _)| t.is_in(fields))
            .map(|(_, &w)| w)
            .sum()
    }

    /// Whether `packet` clears the threshold.
    pub fn matches(&self, packet: &HttpPacket) -> bool {
        self.score(packet) >= self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn leak(slot: usize) -> HttpPacket {
        RequestBuilder::get("/getad")
            .query("imei", "355195000000017")
            .query("slot", &slot.to_string())
            .query("fmt", "json")
            .cookie("sid=abcdef0123456789")
            .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
            .build()
    }

    fn clean(i: usize) -> HttpPacket {
        RequestBuilder::get("/api/items")
            .query("page", &i.to_string())
            .destination(Ipv4Addr::new(198, 51, 100, 7), 80, "api.example.jp")
            .build()
    }

    fn train() -> BayesSignature {
        let sus: Vec<HttpPacket> = (0..20).map(leak).collect();
        let norm: Vec<HttpPacket> = (0..40).map(clean).collect();
        let sus_refs: Vec<&HttpPacket> = sus.iter().collect();
        let norm_refs: Vec<&HttpPacket> = norm.iter().collect();
        BayesSignature::train(
            &sus_refs,
            &norm_refs,
            &PipelineConfig::default(),
            BayesConfig::default(),
        )
        .expect("trains")
    }

    #[test]
    fn separates_classes_with_calibrated_threshold() {
        let sig = train();
        assert!(sig.token_count() > 0);
        // Fresh same-module traffic scores above threshold.
        assert!(sig.matches(&leak(999)));
        // Fresh benign traffic scores below.
        assert!(!sig.matches(&clean(999)));
        assert!(sig.score(&leak(999)) > sig.score(&clean(999)));
    }

    #[test]
    fn zero_training_false_positives_by_construction() {
        let sig = train();
        for i in 0..40 {
            assert!(!sig.matches(&clean(i)), "training-normal packet flagged");
        }
    }

    #[test]
    fn empty_training_sets() {
        let norm: Vec<HttpPacket> = (0..5).map(clean).collect();
        let norm_refs: Vec<&HttpPacket> = norm.iter().collect();
        assert!(BayesSignature::train(
            &[],
            &norm_refs,
            &PipelineConfig::default(),
            BayesConfig::default()
        )
        .is_none());

        // No normal data at all: still trains, θ defaults low enough to
        // catch the suspicious class.
        let sus: Vec<HttpPacket> = (0..5).map(leak).collect();
        let sus_refs: Vec<&HttpPacket> = sus.iter().collect();
        let sig = BayesSignature::train(
            &sus_refs,
            &[],
            &PipelineConfig::default(),
            BayesConfig::default(),
        )
        .expect("trains without normals");
        assert!(sig.matches(&leak(7)));
    }

    #[test]
    fn partial_token_survival_still_matches() {
        // A module revision drops the cookie and renames one param; the
        // score degrades gracefully instead of failing a conjunction.
        let sig = train();
        // The imei param is renamed, but the fmt suffix and session cookie
        // invariants survive.
        let revised = RequestBuilder::get("/getad")
            .query("udid", "355195000000017")
            .query("slot", "3")
            .query("fmt", "json")
            .cookie("sid=abcdef0123456789")
            .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
            .build();
        assert!(
            sig.matches(&revised),
            "score {} vs threshold {}",
            sig.score(&revised),
            sig.threshold()
        );
    }
}
