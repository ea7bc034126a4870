//! `leaksig-cli` — drive the leaksig pipeline from the command line.
//!
//! ```text
//! leaksig-cli market   --out capture.lsc --device device.txt [--seed 42] [--scale 0.05]
//! leaksig-cli check    --capture capture.lsc --device device.txt
//! leaksig-cli generate --capture capture.lsc --device device.txt --out sigs.txt [--n 300]
//! leaksig-cli detect   --capture capture.lsc --sigs sigs.txt [--device device.txt]
//! leaksig-cli inspect  --sigs sigs.txt
//! leaksig-cli lint     --sigs sigs.txt [--format text|json]
//! leaksig-cli analyze  --sigs sigs.txt [--format text|json]
//! leaksig-cli analyze  --diff old.txt --new new.txt
//! leaksig-cli serve    --device device.txt [--bind 127.0.0.1:7341] [--batches 10]
//! leaksig-cli send     --addr 127.0.0.1:7341 --capture capture.lsc [--faults all]
//! ```
//!
//! The `market` command synthesizes a capture (stand-in for a real
//! capture loop); every other command works on capture/signature files
//! and would apply unchanged to real traffic dumps converted to the
//! `.lsc` format.

mod args;
mod capture;
mod commands;
mod devicefile;

use args::Args;

const USAGE: &str = "\
usage: leaksig-cli <command> [--flag value]...

commands:
  market    synthesize a market capture:  --out FILE --device FILE [--seed N] [--scale X]
  check     run the payload check:        --capture FILE --device FILE
  generate  generate signatures:          --capture FILE --device FILE --out FILE [--n N] [--seed N] [--gate on|off]
  detect    apply signatures:             --capture FILE --sigs FILE [--device FILE]
  gate      replay through the device gate: --capture FILE --sigs FILE [--policy allow|block]
  inspect   print a signature set:        --sigs FILE
  lint      audit a signature set:        --sigs FILE [--format text|json]  (exit 1 on errors)
  analyze   semantic set analysis:        --sigs FILE [--format text|json]  (lint findings + cost; exit 1 on errors)
            generation diff:              --diff OLD --new NEW
  chaos     fault-injected sync replay:   [--seed N] [--faults drop,corrupt|all] [--intensity X] [--rounds N]
            raw-intake frontier:          [--ingest garbage,oversize,headerbomb,dupflood,slowdrip|all] [--deadline MS]  (exit 1 unless converged)
            socket frontier:              [--net chop,stall,reset,garbage,halfframe|all] [--scale X]  (loopback TCP soak, per-connection log)
            storage frontier:             [--disk shortwrite,torn,fsyncfail,enospc,crash|all]  (WAL fault soak + full crash-recovery matrix)
  serve     run the TCP collection server: --device FILE [--bind ADDR] [--batches N] [--regen-every N] [--n N] [--sigs-out FILE]
                                          [--state-dir DIR] [--durability open|closed]  (WAL-backed durable state + recovery)
  send      upload a capture over TCP:    --addr ADDR --capture FILE [--batch N] [--faults chop,...|all] [--intensity X] [--sync VER]
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print!("{USAGE}");
        return;
    }
    let exit = match run(argv) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprint!("{USAGE}");
            1
        }
    };
    std::process::exit(exit);
}

/// Run a subcommand. `Ok(code)` is the process exit status (non-zero for
/// commands like `lint` that report findings through it); `Err` is a
/// usage/runtime error that also prints the usage text.
fn run(argv: Vec<String>) -> Result<i32, String> {
    let args = Args::parse(argv).map_err(|e| e.to_string())?;
    match args.command.as_str() {
        "market" => commands::market(&args).map(|()| 0),
        "check" => commands::check(&args).map(|()| 0),
        "generate" => commands::generate(&args).map(|()| 0),
        "detect" => commands::detect(&args).map(|()| 0),
        "gate" => commands::gate(&args).map(|()| 0),
        "inspect" => commands::inspect(&args).map(|()| 0),
        "lint" => commands::lint(&args),
        "analyze" => commands::analyze(&args),
        "chaos" => commands::chaos(&args),
        "serve" => commands::serve(&args),
        "send" => commands::send(&args),
        other => Err(format!("unknown command {other:?}")),
    }
}
