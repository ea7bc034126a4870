//! End-to-end `serve` test: the real binary listens on loopback, `send`
//! uploads a small market capture to it, and the server regenerates,
//! publishes and writes the published set to `--sigs-out`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// Batches `send` uploads; `serve` regenerates after this many and then
/// exits.
const BATCHES: usize = 2;
/// How long any one step may take before the test gives up.
const STEP: Duration = Duration::from_secs(60);

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

/// A running `serve`, killed and reaped when dropped, so no exit path of
/// the test (a failed assertion included) leaves it running.
struct Server {
    child: Child,
    lines: Receiver<String>,
    seen: Vec<String>,
}

impl Server {
    fn spawn(args: &[&str]) -> Server {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn leaksig-cli serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        // Ends when the child's stdout closes.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Server {
            child,
            lines,
            seen: Vec::new(),
        }
    }

    /// The next stdout line, or `None` once stdout has closed.
    fn next_line(&mut self) -> Option<String> {
        match self.lines.recv_timeout(STEP) {
            Ok(line) => {
                self.seen.push(line.clone());
                Some(line)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!(
                    "serve printed nothing for {STEP:?}; so far: {:?}",
                    self.seen
                )
            }
        }
    }

    /// Reads stdout up to the `listening on ADDR` line; returns `ADDR`.
    fn addr(&mut self) -> String {
        while let Some(line) = self.next_line() {
            if let Some(rest) = line.strip_prefix("listening on ") {
                return rest.split_whitespace().next().expect("address").to_string();
            }
        }
        panic!("serve exited before listening: {:?}", self.seen);
    }

    /// Reads stdout to its end and waits for the process to exit with
    /// success; returns every line read.
    fn finish(&mut self) -> Vec<String> {
        while self.next_line().is_some() {}
        let start = Instant::now();
        loop {
            match self.child.try_wait().expect("poll serve") {
                Some(status) => {
                    assert!(status.success(), "serve exited {status}: {:?}", self.seen);
                    return self.seen.clone();
                }
                None if start.elapsed() > STEP => panic!("serve did not exit: {:?}", self.seen),
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_regenerates_from_uploaded_batches_and_writes_the_set() {
    let dir = std::env::temp_dir().join(format!("leaksig-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (cap, dev, sigs) = (path("cap.lsc"), path("device.txt"), path("sigs.txt"));

    let out = run_ok(&[
        "market", "--out", &cap, "--device", &dev, "--seed", "7", "--scale", "0.01",
    ]);
    let packets: usize = out
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no packet count in {out:?}"));
    let batch = packets.div_ceil(BATCHES).to_string();
    let batches = BATCHES.to_string();

    let mut server = Server::spawn(&[
        "serve",
        "--device",
        &dev,
        "--bind",
        "127.0.0.1:0",
        "--regen-every",
        &batches,
        "--batches",
        &batches,
        "--sigs-out",
        &sigs,
    ]);
    let addr = server.addr();
    let sent = run_ok(&[
        "send",
        "--addr",
        &addr,
        "--capture",
        &cap,
        "--batch",
        &batch,
    ]);
    assert!(sent.contains(&format!("{BATCHES} acked")), "{sent}");

    let lines = server.finish();
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("regeneration at ") && l.contains(": published v1 (")),
        "no periodic publish: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("wrote v")),
        "no set written: {lines:?}"
    );
    let text = std::fs::read_to_string(&sigs).expect("serve wrote --sigs-out");
    let set = leaksig_core::wire::decode(&text).expect("--sigs-out decodes");
    assert!(!set.signatures.is_empty(), "empty published set");

    std::fs::remove_dir_all(&dir).ok();
}
