//! Shared harness for the table/figure regeneration binaries.
//!
//! Each binary regenerates one published table or figure from the paper
//! and prints it side by side with the paper's numbers. Most binaries
//! accept two optional positional arguments: `seed` (default 42) and
//! `scale` (default 1.0 = paper size), so `cargo run -p leaksig-bench
//! --bin fig4 -- 7 0.25` gives a quick quarter-scale run. Positional
//! arguments are read strictly ([`Positionals`]).

use leaksig_netsim::{Dataset, MarketConfig};
use std::str::FromStr;

/// One binary's positional arguments, read strictly: an argument that
/// does not parse, or one more than the usage names, prints the
/// argument's name and the usage line and exits 1, before any work.
pub struct Positionals {
    /// The argument names in order, each bracketed: `"[seed] [scale]"`.
    usage: &'static str,
    values: Vec<String>,
}

impl Positionals {
    /// The process's arguments, checked against `usage`.
    pub fn from_env(usage: &'static str) -> Positionals {
        let values = std::env::args().skip(1).collect();
        let args = Positionals { usage, values };
        if let Some(extra) = args.values.get(usage.split_whitespace().count()) {
            args.fail(&format!("unexpected argument {extra:?}"));
        }
        args
    }

    /// The argument called `name`, parsed; `None` when it is absent.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        let mut names = self.usage.split_whitespace();
        let at = names.position(|n| n.trim_matches(['[', ']']) == name);
        let raw = self.values.get(at.expect("a name the usage lists"))?;
        let error = || self.fail(&format!("{name}: cannot parse {raw:?}"));
        Some(raw.parse().unwrap_or_else(|_| error()))
    }

    /// Print `error` and the usage line, then exit 1.
    fn fail(&self, error: &str) -> ! {
        let bin = std::env::args().next().unwrap_or_default();
        eprintln!("error: {error}\nusage: {bin} {}", self.usage);
        std::process::exit(1)
    }

    /// The market the `seed` (default 42) and `scale` arguments name.
    pub fn market(&self, default_scale: f64) -> MarketConfig {
        let scale = self.get("scale").unwrap_or(default_scale);
        if !(scale > 0.0 && scale <= 1.0) {
            self.fail(&format!("scale: {scale} is not in (0, 1]"));
        }
        MarketConfig::scaled(self.get("seed").unwrap_or(42), scale)
    }
}

/// Parse `[seed] [scale]` from the command line.
pub fn cli_config() -> MarketConfig {
    Positionals::from_env("[seed] [scale]").market(1.0)
}

/// Generate the dataset, reporting timing to stderr.
pub fn generate(config: MarketConfig) -> Dataset {
    eprintln!(
        "generating market (seed={}, scale={})...",
        config.seed, config.scale
    );
    let t0 = std::time::Instant::now();
    let data = Dataset::generate(config);
    eprintln!(
        "generated {} packets in {:?}",
        data.packets.len(),
        t0.elapsed()
    );
    data
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Relative deviation of `measured` from `paper`, formatted.
pub fn dev(measured: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}%", 100.0 * (measured - paper) / paper)
}

/// Print a horizontal rule sized for the standard table width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.941), "94.1%");
        assert_eq!(dev(110.0, 100.0), "+10.0%");
        assert_eq!(dev(95.0, 100.0), "-5.0%");
        assert_eq!(dev(5.0, 0.0), "-");
    }
}
