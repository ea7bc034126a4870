//! The experiment binaries read their positional arguments strictly: a
//! value that does not parse, or an argument the usage does not name,
//! exits 1 with the argument's name and the usage line on stderr, before
//! any market is generated.

use std::process::Command;

#[test]
fn bad_positional_arguments_exit_1_with_usage() {
    let seed_scale = "[seed] [scale]";
    let cases: [(&str, &[&str], &str, &str); 9] = [
        (
            env!("CARGO_BIN_EXE_crossdevice"),
            &["42", "0.O5"],
            "scale: cannot parse \"0.O5\"",
            seed_scale,
        ),
        (
            env!("CARGO_BIN_EXE_crossdevice"),
            &["4x2"],
            "seed: cannot parse \"4x2\"",
            seed_scale,
        ),
        (
            env!("CARGO_BIN_EXE_crossdevice"),
            &["42", "0.1", "7"],
            "unexpected argument \"7\"",
            seed_scale,
        ),
        (
            env!("CARGO_BIN_EXE_obfuscation"),
            &["seven"],
            "seed: cannot parse \"seven\"",
            "[seed]",
        ),
        (
            env!("CARGO_BIN_EXE_obfuscation"),
            &["7", "0.5"],
            "unexpected argument \"0.5\"",
            "[seed]",
        ),
        (
            env!("CARGO_BIN_EXE_fig4"),
            &["42", "0.3", "three"],
            "runs: cannot parse \"three\"",
            "[seed] [scale] [runs] [csv]",
        ),
        (
            env!("CARGO_BIN_EXE_fig4"),
            &["42", "0.3", "0"],
            "runs: cannot parse \"0\"",
            "[seed] [scale] [runs] [csv]",
        ),
        (
            env!("CARGO_BIN_EXE_table3"),
            &["42", "1.5"],
            "scale: 1.5 is not in (0, 1]",
            seed_scale,
        ),
        (
            env!("CARGO_BIN_EXE_fig2"),
            &["42", "0.3", "x"],
            "unexpected argument \"x\"",
            seed_scale,
        ),
    ];
    for (bin, args, error, usage) in cases {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}:\n{stderr}");
        assert!(stderr.starts_with(&format!("error: {error}\n")), "{stderr}");
        assert!(stderr.trim_end().ends_with(usage), "{stderr}");
        assert!(
            !stderr.contains("market"),
            "{bin} {args:?} generated a market:\n{stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed results");
    }
}
