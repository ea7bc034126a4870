//! `leaksig-cli` — drive the leaksig pipeline from the command line.
//!
//! Every command form and the flags it reads are declared once, in
//! [`FORMS`]; `leaksig-cli --help` prints the usage text generated from
//! it, and a flag a form does not declare is a usage error.
//!
//! The `market` command synthesizes a capture (stand-in for a real
//! capture loop); every other command works on capture/signature files
//! and would apply unchanged to real traffic dumps converted to the
//! `.lsc` format.

mod args;
mod capture;
mod commands;
mod devicefile;

use args::Rule::{Addr, Choice, Int, Kinds, Text, Unit};
use args::{def, kinds, opt, req, Args, Flag, Form};
use leaksig_faults::{DiskFaultKind, FaultKind, IngestFaultKind, SocketFaultKind};

const CAPTURE: Flag = req("capture", "FILE", Text);
const DEVICE: Flag = req("device", "FILE", Text);
const SIGS: Flag = req("sigs", "FILE", Text);
const OUT: Flag = req("out", "FILE", Text);
const SEED: Flag = def("seed", "N", "42", Int(0));
const FORMAT: Flag = def("format", "text|json", "text", Choice);
const SCALE: args::Rule = Unit { open: true };
const INTENSITY: args::Rule = Unit { open: false };
const SYNC_FAULTS: &str = "drop,delay,duplicate,truncate,corrupt|all";
const INGEST_FAULTS: &str = "garbage,oversize,headerbomb,dupflood,slowdrip|all";
const SOCKET_FAULTS: &str = "chop,stall,reset,garbage,halfframe|all";
const DISK_FAULTS: &str = "shortwrite,torn,fsyncfail,enospc,crash|all";

/// The command surface: every usage line with the flags it reads, in the
/// order `--help` lists them; see [`Form`] for how a line is picked.
#[rustfmt::skip]
static FORMS: &[Form] = &[
    Form { command: "market", about: "synthesize a market capture", run: commands::market,
        flags: &[OUT, DEVICE, SEED, def("scale", "X", "0.05", SCALE)] },
    Form { command: "check", about: "run the payload check", run: commands::check,
        flags: &[CAPTURE, DEVICE] },
    Form { command: "generate", about: "generate signatures", run: commands::generate,
        flags: &[CAPTURE, DEVICE, OUT, def("n", "N", "300", Int(0)),
            def("seed", "N", "12648430", Int(0)), def("gate", "on|off", "on", Choice)] },
    Form { command: "detect", about: "apply signatures; with --device, evaluate them",
        run: commands::detect, flags: &[CAPTURE, SIGS, opt("device", "FILE", Text)] },
    Form { command: "gate", about: "replay through the device gate under a scripted user",
        run: commands::gate,
        flags: &[CAPTURE, SIGS, def("policy", "allow|block", "block", Choice)] },
    Form { command: "inspect", about: "print a signature set", run: commands::inspect,
        flags: &[SIGS] },
    Form { command: "lint", about: "audit a signature set (exit 1 on errors)",
        run: commands::lint, flags: &[SIGS, FORMAT] },
    Form { command: "analyze", about: "lint findings + semantic analysis (exit 1 on errors)",
        run: commands::analyze, flags: &[SIGS, FORMAT] },
    Form { command: "analyze", about: "semantic diff between two signature generations",
        run: commands::analyze_diff, flags: &[req("diff", "OLD", Text), req("new", "NEW", Text)] },
    Form { command: "chaos", about: "fault-injected sync replay (exit 1 unless converged)",
        run: commands::chaos,
        flags: &[SEED, def("faults", SYNC_FAULTS, "all", Kinds(kinds::<FaultKind>)),
            def("intensity", "X", "0.5", INTENSITY), def("rounds", "N", "3", Int(1)),
            opt("ingest", INGEST_FAULTS, Kinds(kinds::<IngestFaultKind>)),
            def("deadline", "MS", "5000", Int(0))] },
    Form { command: "chaos", about: "socket frontier: loopback TCP soak, per-connection log",
        run: commands::chaos_net,
        flags: &[req("net", SOCKET_FAULTS, Kinds(kinds::<SocketFaultKind>)), SEED,
            def("intensity", "X", "0.3", INTENSITY), def("scale", "X", "0.02", SCALE)] },
    Form { command: "chaos", about: "storage frontier: WAL fault soak + crash-recovery matrix",
        run: commands::chaos_disk,
        flags: &[req("disk", DISK_FAULTS, Kinds(kinds::<DiskFaultKind>)), SEED,
            def("intensity", "X", "0.2", INTENSITY)] },
    Form { command: "serve", about: "run the TCP collection server (WAL-backed with --state-dir)",
        run: commands::serve,
        flags: &[DEVICE, def("bind", "ADDR", "127.0.0.1:7341", Text), SEED,
            def("batches", "N", "0", Int(0)), def("regen-every", "N", "0", Int(0)),
            def("n", "N", "150", Int(0)), opt("sigs-out", "FILE", Text),
            opt("state-dir", "DIR", Text), def("durability", "open|closed", "open", Choice)] },
    Form { command: "send", about: "upload a capture over TCP (--intensity: 0.3 with --faults)",
        run: commands::send,
        flags: &[req("addr", "ADDR", Addr), CAPTURE, def("batch", "N", "64", Int(1)), SEED,
            opt("faults", SOCKET_FAULTS, Kinds(kinds::<SocketFaultKind>)),
            opt("intensity", "X", INTENSITY), opt("sync", "VER", Int(0))] },
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print!("{}", args::usage(FORMS, None));
        return;
    }
    // `Ok(code)` is the process exit status (non-zero for commands like
    // `lint` that report findings through it); `Err` is a usage or
    // runtime error, printed with the command's usage lines.
    let exit = match Args::parse(FORMS, &argv).and_then(|args| (args.form.run)(&args)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprint!("{}", args::usage(FORMS, Some(&argv[0])));
            1
        }
    };
    std::process::exit(exit);
}
