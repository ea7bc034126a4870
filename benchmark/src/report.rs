//! Sample statistics, the metric catalogue, and the result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// An end-to-end metric: `(name, unit)`. Every workload reports all of
/// them (see the crate docs for what each means per workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("tp_rate", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric: `(name, unit)`. A traced run prints every one;
/// layers a workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_ratio", "share"),
    ("quality.fp_rate", "share"),
    ("net.loop_us_per_batch", "us"),
    ("net.decode_us_per_batch", "us"),
    ("net.bytes_in_per_rec", "B"),
    ("net.terminal_failures", "count"),
    ("gen.encode_us_per_batch", "us"),
    ("gen.write_us_per_batch", "us"),
    ("http.parse_ns_per_rec", "ns"),
    ("http.reject_share", "share"),
    ("payload.classify_ns_per_rec", "ns"),
    ("payload.suspicious_share", "share"),
    ("server.ingest_raw_ns_per_rec", "ns"),
    ("server.pump_ns_per_rec", "ns"),
    ("server.queue_len_max", "count"),
    ("state.apply_calls_per_rec", "count"),
    ("state.ops_per_rec", "count"),
    ("state.apply_ns_per_call", "ns"),
    ("wal.append_calls_per_1k_rec", "count"),
    ("wal.append_bytes_per_rec", "B"),
    ("wal.append_us_total", "us"),
    ("wal.sync_calls", "count"),
    ("wal.sync_us_total", "us"),
    ("wal.compactions", "count"),
    ("regen.sample_ms", "ms"),
    ("distance.features_ms", "ms"),
    ("matrix.pairwise_ms", "ms"),
    ("matrix.cells_per_s", "1/s"),
    ("cluster.agglomerate_ms", "ms"),
    ("signature.extract_ms", "ms"),
    ("pipeline.prune_ms", "ms"),
    ("store.publish_ms", "ms"),
    ("signature.candidates", "count"),
    ("signature.published", "count"),
    ("signature.yield", "share"),
    ("wire.decode_ms", "ms"),
    ("engine.compile_ms", "ms"),
    ("store.install_ms", "ms"),
    ("store.match_ns_per_pkt", "ns"),
    ("gate.overhead_ns_per_pkt", "ns"),
    ("detect.scan_raw_ns_per_pkt", "ns"),
    ("detect.scan_batch_ns_per_pkt", "ns"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one workload run produced: metric values by name, the operation
/// counts, and any failed output check.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record the result of an output check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Print the human-readable metric lines, then the one-line JSON
    /// result (always the last line of standard output).
    pub fn print(&self, traced: bool) {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for failure in &self.check_failures {
            println!("CHECK FAILED: {failure}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.check_failures.is_empty(),
            self.attempted.max(1),
            self.failed
        );
    }
}

fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Order statistics over a sample of durations or values.
#[derive(Debug, Clone)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(|a, b| a.total_cmp(b));
        Sample { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = (q * (self.sorted.len() - 1) as f64).round() as usize;
        self.sorted[rank.min(self.sorted.len() - 1)]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// p90 as `(label, value)`, or the maximum when fewer than ten
    /// samples lie beyond p90. (p99 spread too widely between runs on a
    /// shared two-core host to carry a regression bound.)
    pub fn tail(&self) -> (&'static str, f64) {
        if self.sorted.len() as f64 * 0.1 >= 10.0 {
            ("p90", self.quantile(0.9))
        } else {
            ("max", self.max())
        }
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
