//! End-to-end CLI test: market → check → generate → detect → inspect,
//! exercising the real binary and the on-disk file formats.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_leaksig-cli"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("spawn leaksig-cli");
    assert!(
        out.status.success(),
        "command {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn full_workflow() {
    let dir = std::env::temp_dir().join(format!("leaksig-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (cap, dev, sigs) = (path("cap.lsc"), path("device.txt"), path("sigs.txt"));

    // market
    let out = run_ok(&[
        "market", "--out", &cap, "--device", &dev, "--seed", "7", "--scale", "0.03",
    ]);
    assert!(out.contains("wrote"), "{out}");
    assert!(std::fs::metadata(&cap).unwrap().len() > 10_000);

    // check
    let out = run_ok(&["check", "--capture", &cap, "--device", &dev]);
    assert!(out.contains("suspicious"), "{out}");
    let suspicious: usize = out
        .split_whitespace()
        .zip(out.split_whitespace().skip(1))
        .find(|(_, w)| *w == "suspicious,")
        .map(|(n, _)| n.parse().unwrap())
        .expect("suspicious count in output");
    assert!(suspicious > 100, "only {suspicious} suspicious packets");

    // generate
    let out = run_ok(&[
        "generate",
        "--capture",
        &cap,
        "--device",
        &dev,
        "--out",
        &sigs,
        "--n",
        "80",
    ]);
    assert!(out.contains("signatures written"), "{out}");
    let sig_text = std::fs::read_to_string(&sigs).unwrap();
    assert!(sig_text.starts_with("LEAKSIG/1"));

    // detect (with evaluation)
    let out = run_ok(&[
        "detect",
        "--capture",
        &cap,
        "--sigs",
        &sigs,
        "--device",
        &dev,
    ]);
    assert!(out.contains("matched"), "{out}");
    assert!(out.contains("evaluation: TP"), "{out}");
    // TP should be substantial at this scale.
    let tp: f64 = out
        .split("TP ")
        .nth(1)
        .and_then(|s| s.split('%').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("TP in output");
    assert!(tp > 50.0, "TP {tp}% too low; output:\n{out}");

    // inspect
    let out = run_ok(&["inspect", "--sigs", &sigs]);
    assert!(out.contains("signature 0"), "{out}");

    // lint: the freshly generated set must carry zero errors (exit 0).
    let out = run_ok(&["lint", "--sigs", &sigs]);
    assert!(out.contains("0 errors"), "{out}");

    // gate replay with a block-everything user
    let out = run_ok(&[
        "gate",
        "--capture",
        &cap,
        "--sigs",
        &sigs,
        "--policy",
        "block",
    ]);
    assert!(out.contains("replayed"), "{out}");
    assert!(out.contains("blocked"), "{out}");
    let blocked: usize = out
        .split_whitespace()
        .zip(out.split_whitespace().skip(1))
        .find(|(_, w)| *w == "blocked,")
        .map(|(n, _)| n.parse().unwrap())
        .expect("blocked count");
    assert!(blocked > 50, "only {blocked} blocked");

    std::fs::remove_dir_all(&dir).ok();
}

/// `lint` against a known-bad set: generate a clean set from a netsim
/// capture, inject a §VI pathological signature (boilerplate-only
/// `POST /xyz` anchor, far below the minimum anchor length), and assert
/// the expected diagnostic code and exit status in both output formats.
#[test]
fn lint_flags_injected_generic_signature() {
    let dir = std::env::temp_dir().join(format!("leaksig-lint-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (cap, dev, sigs) = (path("cap.lsc"), path("device.txt"), path("sigs.txt"));

    run_ok(&[
        "market", "--out", &cap, "--device", &dev, "--seed", "11", "--scale", "0.03",
    ]);
    run_ok(&[
        "generate",
        "--capture",
        &cap,
        "--device",
        &dev,
        "--out",
        &sigs,
        "--n",
        "80",
    ]);

    // Clean set: exit 0 in both formats, stable JSON schema.
    let out = run_ok(&["lint", "--sigs", &sigs]);
    assert!(out.contains("0 errors"), "{out}");
    let out = run_ok(&["lint", "--sigs", &sigs, "--format", "json"]);
    assert!(out.starts_with(r#"{"version":1,"errors":0,"#), "{out}");

    // Inject a §VI hazard: "POST /xyz" (9 bytes, all boilerplate-ish, no
    // anchor) as an extra signature appended in wire format.
    let mut text = std::fs::read_to_string(&sigs).unwrap();
    text.push_str("sig 99 2\ntok rline 504f5354202f78797a 0\nend\n");
    let bad = path("bad-sigs.txt");
    std::fs::write(&bad, text).unwrap();

    // Text format: exit 1, the anchor diagnostic named by code.
    let out = bin().args(["lint", "--sigs", &bad]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[L003] sig 99"), "{stdout}");
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("usage"),
        "findings must not print usage"
    );

    // JSON format: exit 1, schema-stable keys in fixed order.
    let out = bin()
        .args(["lint", "--sigs", &bad, "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with(r#"{"version":1,"errors":"#), "{stdout}");
    assert!(stdout.contains(r#""diagnostics":[{"code":"#), "{stdout}");
    assert!(
        stdout.contains(
            r#""code":"L003","severity":"error","signature_id":99,"field":null,"message":"#
        ),
        "{stdout}"
    );

    // A bad --format value is a usage error, not a lint finding.
    let out = bin()
        .args(["lint", "--sigs", &bad, "--format", "yaml"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--format"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let out = bin().args(["wat"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = bin().args(["detect", "--capture"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));

    let out = bin()
        .args(["detect", "--capture", "/nonexistent.lsc", "--sigs", "/nope"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = bin().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
}

/// `analyze`: semantic set analysis on a clean generated set exits 0; an
/// injected shadowed signature becomes a proved A001 finding (exit 1, in
/// both formats); `analyze --diff` classifies two generations and prints
/// verdict-flipping witnesses.
#[test]
fn analyze_proves_dead_signatures_and_diffs_generations() {
    let dir = std::env::temp_dir().join(format!("leaksig-analyze-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (cap, dev, sigs) = (path("cap.lsc"), path("device.txt"), path("sigs.txt"));

    run_ok(&[
        "market", "--out", &cap, "--device", &dev, "--seed", "13", "--scale", "0.03",
    ]);
    run_ok(&[
        "generate",
        "--capture",
        &cap,
        "--device",
        &dev,
        "--out",
        &sigs,
        "--n",
        "80",
    ]);

    // Clean set: exit 0, lattice summary and cost report present.
    let out = run_ok(&["analyze", "--sigs", &sigs]);
    assert!(out.contains("signatures under Conjunction"), "{out}");
    assert!(out.contains("cost:"), "{out}");
    assert!(out.contains("0 errors"), "{out}");

    // Inject a shadow pair: sig 90 ("imei=" in body) dominates sig 91
    // ("imei=355195000000017" in body) — the analyzer must prove sig 91
    // dead (A001) and fail the gate.
    let mut text = std::fs::read_to_string(&sigs).unwrap();
    text.push_str("sig 90 2\ntok body 696d65693d3335353139 0\nend\n");
    text.push_str("sig 91 2\ntok body 696d65693d333535313935303030303030303137 0\nend\n");
    let bad = path("shadowed.txt");
    std::fs::write(&bad, &text).unwrap();

    let out = bin().args(["analyze", "--sigs", &bad]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[A001] sig 91"), "{stdout}");
    assert!(
        stdout.contains("proved dominated by signature 90"),
        "{stdout}"
    );

    // JSON format renders the A-code through the stable schema.
    let out = bin()
        .args(["analyze", "--sigs", &bad, "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with(r#"{"version":1,"errors":"#), "{stdout}");
    assert!(
        stdout.contains(r#""code":"A001","severity":"error","signature_id":91,"#),
        "{stdout}"
    );

    // Generation diff: a second generation from a different seed.
    let (cap2, dev2, sigs2) = (path("cap2.lsc"), path("device2.txt"), path("sigs2.txt"));
    run_ok(&[
        "market", "--out", &cap2, "--device", &dev2, "--seed", "14", "--scale", "0.03",
    ]);
    run_ok(&[
        "generate",
        "--capture",
        &cap2,
        "--device",
        &dev2,
        "--out",
        &sigs2,
        "--n",
        "80",
    ]);
    let out = run_ok(&["analyze", "--diff", &sigs, "--new", &sigs2]);
    assert!(
        out.contains("generation diff under Conjunction: +"),
        "{out}"
    );
    assert!(
        out.contains("added") || out.contains("removed") || out.contains("no semantic change"),
        "{out}"
    );
    // Different market seeds always change the set; each change line for
    // a synthesizable flip carries a witness packet.
    assert!(out.contains("witness:"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

/// The lint exit-code contract, pinned in both formats: warnings-only
/// reports exit 0, error reports exit 1 — the JSON rendering must not
/// change the status the text rendering gives.
#[test]
fn lint_exit_codes_match_across_formats() {
    let dir = std::env::temp_dir().join(format!("leaksig-lintexit-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (cap, dev, sigs) = (path("cap.lsc"), path("device.txt"), path("sigs.txt"));
    run_ok(&[
        "market", "--out", &cap, "--device", &dev, "--seed", "17", "--scale", "0.03",
    ]);
    run_ok(&[
        "generate",
        "--capture",
        &cap,
        "--device",
        &dev,
        "--out",
        &sigs,
        "--n",
        "80",
    ]);

    // Warnings-only: a healthy anchor plus a boilerplate fragment
    // ("ST /" ⊂ "POST /") — L004 Warning, no Error.
    let mut text = std::fs::read_to_string(&sigs).unwrap();
    text.push_str(
        "sig 95 2\ntok body 696d65693d333535313935303030303030303137 0\ntok rline 5354202f 0\nend\n",
    );
    let warny = path("warnings-only.txt");
    std::fs::write(&warny, &text).unwrap();

    for format in ["text", "json"] {
        let out = bin()
            .args(["lint", "--sigs", &warny, "--format", format])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "warnings-only must exit 0 in {format}:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(if format == "json" {
                r#""code":"L004""#
            } else {
                "warning[L004]"
            }),
            "{stdout}"
        );
    }

    // Error-level: a boilerplate-only signature — exit 1 in both formats.
    let mut text = std::fs::read_to_string(&sigs).unwrap();
    text.push_str("sig 96 2\ntok rline 504f5354202f78797a 0\nend\n");
    let bad = path("errors.txt");
    std::fs::write(&bad, &text).unwrap();
    for format in ["text", "json"] {
        let out = bin()
            .args(["lint", "--sigs", &bad, "--format", format])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "errors must exit 1 in {format}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `lint` and the deploy gate give one verdict on a shadowed pair: sig 4
/// (`imei=35519500` in the body) matches everything sig 9
/// (`imei=355195000000017&slot=1`) matches, so sig 9 is a proved A001
/// Error and `lint` exits 1 in both formats, as `gate` refuses the set.
#[test]
fn lint_reports_shadowed_pair_as_proved_dead() {
    let dir = std::env::temp_dir().join(format!("leaksig-shadow-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sigs = dir.join("shadowed.txt").to_string_lossy().into_owned();
    std::fs::write(
        &sigs,
        "LEAKSIG/1\n\
         sig 4 5\ntok body 696d65693d3335353139353030 0\nend\n\
         sig 9 2\ntok body 696d65693d33353531393530303030303030313726736c6f743d31 0\nend\n",
    )
    .unwrap();

    let out = bin().args(["lint", "--sigs", &sigs]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("error[A001] sig 9"), "{stdout}");

    let out = bin()
        .args(["lint", "--sigs", &sigs, "--format", "json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(r#""code":"A001","severity":"error","signature_id":9,"#),
        "{stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Every publish during `chaos` prints its semantic diff against the
/// generation served just before it: `generation diff: +A -R ~C (=U)`.
/// The first diff is against the empty set; after that the removed,
/// changed and unchanged counts add up to the previous generation's size,
/// and the added, changed and unchanged counts to the new one's.
#[test]
fn chaos_prints_each_publish_diff_against_the_previous_generation() {
    let out = run_ok(&["chaos", "--seed", "3"]);
    let lines: Vec<&str> = out.lines().collect();
    let mut previous: Option<usize> = None;
    let mut publishes = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(rest) = line.split(": published v").nth(1) else {
            continue;
        };
        let size: usize = rest
            .split(" (")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("signature count in {line:?}"));
        let diff = lines
            .get(i + 1)
            .and_then(|l| l.strip_prefix("  generation diff: +"))
            .unwrap_or_else(|| panic!("no diff line after {line:?}:\n{out}"));
        let counts: Vec<usize> = diff
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        let [added, removed, changed, unchanged] = counts[..] else {
            panic!("diff line {diff:?} is not `+A -R ~C (=U)`");
        };
        assert_eq!(
            diff,
            format!("{added} -{removed} ~{changed} (={unchanged})")
        );
        assert_eq!(added + changed + unchanged, size, "{out}");
        assert_eq!(
            removed + changed + unchanged,
            previous.unwrap_or(0),
            "{out}"
        );
        previous = Some(size);
        publishes += 1;
    }
    assert!(publishes >= 2, "{out}");
}
