//! Subcommand implementations.

use crate::args::Args;
use crate::capture::{self, CaptureRecord};
use crate::devicefile;
use leaksig_core::prelude::*;
use leaksig_core::wire;
use leaksig_faults::Taxonomy;
use leaksig_netsim::{Dataset, MarketConfig, SensitiveKind};

/// `gate`: replay a capture through the on-device packet gate under a
/// scripted user policy, printing the enforcement summary and the tail
/// of the audit log.
pub fn gate(args: &Args) -> Result<(), String> {
    use leaksig_device::{GateAction, PacketGate, SignatureStore, UserChoice};

    let records = capture::read_file(args.required("capture").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let set = load_sigs(args.required("sigs").map_err(|e| e.to_string())?)?;
    // Scripted user: "block" (default) or "allow" every prompt, always.
    let choice = match args.optional("policy").unwrap_or("block") {
        "block" => UserChoice::BlockAlways,
        "allow" => UserChoice::AllowAlways,
        other => return Err(format!("--policy must be allow|block, got {other:?}")),
    };

    let store = SignatureStore::new();
    store
        .install(1, &wire::encode(&set))
        .map_err(|e| e.to_string())?;
    let gate = PacketGate::new(&store);

    for rec in &records {
        let app = rec.app.as_deref().unwrap_or("<unknown>");
        if let GateAction::PendingPrompt { prompt_id, .. } = gate.intercept(app, &rec.packet) {
            gate.answer(prompt_id, choice)
                .map_err(|_| "prompt vanished".to_string())?;
        }
    }
    let stats = gate.stats();
    println!(
        "replayed {} packets: {} forwarded, {} blocked, {} prompts",
        records.len(),
        stats.forwarded,
        stats.blocked,
        stats.prompted
    );
    println!(
        "
last 10 audit records:"
    );
    let log = gate.audit_log();
    for rec in log.iter().rev().take(10).rev() {
        println!(
            "  #{:<6} {:<32} -> {:<28} {:<12} sig {:?}",
            rec.seq, rec.app, rec.host, rec.action, rec.signature_id
        );
    }
    Ok(())
}

/// The generation `publisher` serves, decoded: the empty set before the
/// first publish.
fn served_set(publisher: &leaksig_device::SignatureServer) -> SignatureSet {
    publisher
        .fetch(0)
        .and_then(|(_, text)| wire::decode(&text).ok())
        .unwrap_or_default()
}

/// Run one regeneration and print its outcome the same way everywhere. A
/// publish also prints its semantic diff against the generation
/// `publisher` served before it, for the operator to review.
fn report_regen(
    publisher: &leaksig_device::SignatureServer,
    regenerate: impl FnOnce() -> leaksig_device::RegenerateOutcome,
) {
    use leaksig_device::RegenerateOutcome;
    let prev = served_set(publisher);
    match regenerate() {
        RegenerateOutcome::Published {
            version,
            signatures,
        } => {
            println!("published v{version} ({signatures} signatures)");
            let diff = diff_generations(&prev, &served_set(publisher));
            println!("  generation diff: {}", diff.summary());
        }
        RegenerateOutcome::NoTraffic => println!("no suspicious traffic yet"),
        RegenerateOutcome::Rejected(diags) => {
            println!("publish rejected ({} findings)", diags.len())
        }
        RegenerateOutcome::TimedOut { deadline_ms } => {
            println!("regeneration exceeded {deadline_ms}ms; kept old set")
        }
        RegenerateOutcome::Panicked { message } => {
            println!("pipeline panicked ({message}); kept old set")
        }
    }
}

/// `serve`: run the TCP collection server — real sockets in front of the
/// hardened intake, periodic regeneration, `SYNC` answering — until
/// `--batches N` acked batches arrive (`0` = run until killed). With
/// `--state-dir DIR` the server's durable state (reservoir, quarantine
/// ledger, published generation, counters) lives in a WAL-backed store:
/// it recovers the directory on start, republishes the recovered
/// signature generation, and flushes on shutdown, so a restart resumes
/// where the last run stopped. `--durability open|closed` picks the
/// degraded-mode policy when the WAL fails mid-run.
pub fn serve(args: &Args) -> Result<i32, String> {
    use leaksig_device::{
        CollectionServer, DurabilityMode, IngestConfig, RateLimit, Shed, SignatureServer,
        WalConfig, WalStore,
    };
    use leaksig_net::{NetConfig, NetServer};
    use std::sync::Arc;

    let check = load_check(args.required("device").map_err(|e| e.to_string())?)?;
    let bind = args.optional("bind").unwrap_or("127.0.0.1:7341");
    let seed: u64 = args.parsed_or("seed", 42).map_err(|e| e.to_string())?;
    let batches: u64 = args.parsed_or("batches", 0).map_err(|e| e.to_string())?;
    let regen_every: u64 = args
        .parsed_or("regen-every", 0)
        .map_err(|e| e.to_string())?;
    let n: usize = args.parsed_or("n", 150).map_err(|e| e.to_string())?;
    let mode = match args.optional("durability") {
        None => DurabilityMode::FailOpen,
        Some(label) => DurabilityMode::parse(label)
            .ok_or_else(|| format!("--durability must be open|closed, got {label:?}"))?,
    };

    let intake = IngestConfig {
        rate: Some(RateLimit {
            burst: 256,
            per_second: 10_000,
        }),
        shed: Shed::Newest,
        ..IngestConfig::default()
    };
    let collector = Arc::new(match args.optional("state-dir") {
        None => CollectionServer::with_intake(check, PipelineConfig::default(), 400, seed, intake),
        Some(dir) => {
            let (store, report) = WalStore::open(
                dir,
                Box::new(leaksig_faults::RealDisk),
                WalConfig {
                    mode,
                    ..WalConfig::default()
                },
            )
            .map_err(|e| format!("cannot open state dir {dir}: {e}"))?;
            println!(
                "state dir {dir}: snapshot gen {:?}, {} ops replayed{}{}, {} temp(s) swept",
                report.snapshot_generation,
                report.replayed_ops,
                if report.torn_tail {
                    ", torn tail discarded"
                } else {
                    ""
                },
                if report.corrupt_tail {
                    ", corrupt tail discarded"
                } else {
                    ""
                },
                report.swept_temps
            );
            CollectionServer::with_store(
                check,
                PipelineConfig::default(),
                400,
                seed,
                intake,
                Box::new(store),
            )
        }
    });
    let publisher = Arc::new(SignatureServer::new());
    if let Some(version) = collector.restore_publisher(&publisher) {
        println!("republished recovered signature generation v{version}");
    }
    let server = NetServer::spawn(
        collector.clone(),
        publisher.clone(),
        bind,
        NetConfig::default(),
    )
    .map_err(|e| format!("cannot bind {bind}: {e}"))?;
    println!(
        "listening on {} (LEAKBATCH/1 ingest, SYNC distribution)",
        server.addr()
    );
    if batches > 0 {
        println!("will exit after {batches} acked batches");
    }

    let mut last_regen = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
        let s = server.stats();
        if regen_every > 0 && s.batches.saturating_sub(last_regen) >= regen_every {
            last_regen = s.batches;
            print!("regeneration at {} batches: ", s.batches);
            report_regen(&publisher, || collector.regenerate(n, &publisher));
        }
        if batches > 0 && s.batches >= batches {
            break;
        }
    }
    let net = server.shutdown();
    print!("final regeneration: ");
    report_regen(&publisher, || collector.regenerate(n, &publisher));
    if let Some(out) = args.optional("sigs-out") {
        match publisher.fetch(0) {
            Some((version, text)) => {
                std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
                println!("wrote v{version} signature set to {out}");
            }
            None => println!("no signature set published; {out} not written"),
        }
    }

    let s = collector.stats();
    println!(
        "\nlistener: {} accepted, {} shed, {} batches ({} records), \
         {} sync answered ({} current), {} B in, {} B out",
        net.accepted,
        net.accept_shed,
        net.batches,
        net.batch_packets,
        net.sync_sent + net.sync_current,
        net.sync_current,
        net.bytes_in,
        net.bytes_out
    );
    println!(
        "closes: {} clean, {} aborted, {} rejected, {} stalled, {} idle, {} budget",
        net.closed_clean,
        net.aborted,
        net.rejected,
        net.evicted_stalled,
        net.evicted_idle,
        net.evicted_budget
    );
    println!(
        "intake: {} offered, {} admitted, {} parse-rejected, {} quarantined, \
         {} rate-limited, {} shed",
        s.raw_seen, s.admitted, s.parse_rejects, s.quarantined, s.rate_limited, s.shed
    );
    if args.optional("state-dir").is_some() {
        collector.flush_state();
        println!(
            "state: {} ({} degradations, {} refused batches)",
            collector.durability().label(),
            s.durability_degraded,
            s.durability_refused
        );
    }
    Ok(0)
}

/// The enabled fault kinds as the comma-separated labels the chaos
/// banners print.
fn kind_labels<K: Taxonomy>(kinds: &[K]) -> String {
    let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
    labels.join(",")
}

/// `send`: upload a capture file to a running collection server over
/// TCP, batch by batch, optionally misbehaving per a socket-fault plan;
/// print the per-connection event log.
pub fn send(args: &Args) -> Result<i32, String> {
    use leaksig_faults::{SocketFaultKind, SocketFaultPlan};
    use leaksig_net::{drive_chaos, BatchOutcome, BatchRecord, NetClient, SyncReply};

    let addr: std::net::SocketAddr = args
        .required("addr")
        .map_err(|e| e.to_string())?
        .parse()
        .map_err(|e| format!("--addr: {e}"))?;
    let records = capture::read_file(args.required("capture").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let batch: usize = args.parsed_or("batch", 64).map_err(|e| e.to_string())?;
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    let seed: u64 = args.parsed_or("seed", 42).map_err(|e| e.to_string())?;
    let kinds = match args.optional("faults") {
        Some(list) => SocketFaultKind::parse_list(list)?,
        None => Vec::new(),
    };
    let default_intensity = if kinds.is_empty() { 0.0 } else { 0.3 };
    let intensity: f64 = args
        .parsed_or("intensity", default_intensity)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&intensity) {
        return Err(format!("--intensity must be in [0, 1], got {intensity}"));
    }

    let recs: Vec<BatchRecord> = records
        .iter()
        .map(|r| BatchRecord::from_packet(&r.packet))
        .collect();
    let batches: Vec<Vec<BatchRecord>> = recs.chunks(batch).map(|c| c.to_vec()).collect();
    let mut plan = SocketFaultPlan::new(seed, &kinds, intensity);
    let events = drive_chaos(addr, &mut plan, &batches).map_err(|e| e.to_string())?;
    for e in &events {
        println!("{e}");
    }
    let (mut acked, mut admitted) = (0u64, 0u64);
    for e in &events {
        if let BatchOutcome::Acked(a) = &e.outcome {
            acked += 1;
            admitted += a.admitted;
        }
    }
    println!(
        "\n{} connections ({} faulty): {} acked, {} records admitted",
        events.len(),
        plan.injected(),
        acked,
        admitted
    );
    if let Some(raw) = args.optional("sync") {
        let have: u64 = raw
            .parse()
            .map_err(|_| format!("--sync: bad version {raw:?}"))?;
        match NetClient::new(addr).sync(have).map_err(|e| e.to_string())? {
            SyncReply::Current => println!("sync: already current at v{have}"),
            SyncReply::Installed { version, frame } => {
                println!("sync: server has v{version} ({} frame bytes)", frame.len())
            }
        }
    }
    Ok(0)
}

/// `chaos --net`: the socket-frontier variant — spawn a real loopback
/// collection server, drive a whole market capture at it under a seeded
/// connection-fault plan, print the per-connection event log, then prove
/// the counters reconcile and a device syncs the published set over TCP.
fn chaos_net(args: &Args, list: &str) -> Result<i32, String> {
    use leaksig_device::{
        CollectionServer, IngestConfig, Shed, SignatureServer, SignatureStore, SyncClient,
    };
    use leaksig_faults::{SocketFaultKind, SocketFaultPlan};
    use leaksig_net::{drive_chaos, BatchRecord, NetConfig, NetServer, TcpTransport};
    use std::sync::Arc;

    let seed: u64 = args.parsed_or("seed", 42).map_err(|e| e.to_string())?;
    let intensity: f64 = args
        .parsed_or("intensity", 0.3)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&intensity) {
        return Err(format!("--intensity must be in [0, 1], got {intensity}"));
    }
    let scale: f64 = args.parsed_or("scale", 0.02).map_err(|e| e.to_string())?;
    let kinds = SocketFaultKind::parse_list(list)?;
    println!(
        "socket chaos: seed {seed}, faults [{}], intensity {intensity}",
        kind_labels(&kinds)
    );

    let data = Dataset::generate(MarketConfig::scaled(seed, scale));
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
    let collector = Arc::new(CollectionServer::with_intake(
        check,
        PipelineConfig::default(),
        400,
        seed,
        IngestConfig {
            shed: Shed::Newest,
            ..IngestConfig::default()
        },
    ));
    let publisher = Arc::new(SignatureServer::new());
    let config = NetConfig {
        frame_ms: 150,
        idle_ms: 400,
        write_ms: 400,
        ..NetConfig::default()
    };
    let server = NetServer::spawn(collector.clone(), publisher.clone(), "127.0.0.1:0", config)
        .map_err(|e| e.to_string())?;
    println!(
        "loopback server on {}; driving {} packets\n",
        server.addr(),
        data.packets.len()
    );

    let batches: Vec<Vec<BatchRecord>> = data
        .packets
        .chunks(32)
        .map(|c| {
            c.iter()
                .map(|p| BatchRecord::from_packet(&p.packet))
                .collect()
        })
        .collect();
    let mut plan = SocketFaultPlan::new(seed, &kinds, intensity);
    let events = drive_chaos(server.addr(), &mut plan, &batches).map_err(|e| e.to_string())?;
    for e in &events {
        println!("  {e}");
    }

    print!("\nregeneration: ");
    report_regen(&publisher, || collector.regenerate(150, &publisher));
    let store = SignatureStore::new();
    let mut sync = SyncClient::with_default_policy(TcpTransport::new(server.addr()));
    let report = sync.sync(&store);
    println!(
        "sync over TCP: {:?}; device store at v{}, health {}",
        report.outcome,
        store.version(),
        store.health()
    );

    let net = server.shutdown();
    let s = collector.stats();
    println!(
        "\nlistener: {} accepted, {} shed, {} batches ({} records), {} B in, {} B out",
        net.accepted, net.accept_shed, net.batches, net.batch_packets, net.bytes_in, net.bytes_out
    );
    println!(
        "closes: {} clean, {} aborted, {} rejected, {} stalled, {} idle, {} budget",
        net.closed_clean,
        net.aborted,
        net.rejected,
        net.evicted_stalled,
        net.evicted_idle,
        net.evicted_budget
    );
    println!(
        "intake: {} offered, {} admitted, {} parse-rejected, {} quarantined, \
         {} rate-limited, {} shed",
        s.raw_seen, s.admitted, s.parse_rejects, s.quarantined, s.rate_limited, s.shed
    );

    let reconciled = net.accepted == net.closed_total()
        && s.raw_seen == s.admitted + s.rate_limited + s.parse_rejects + s.shed;
    let converged = publisher.version() > 0 && store.version() == publisher.version();
    println!(
        "\n{} socket faults injected; reconciliation {}; device {}",
        plan.injected(),
        if reconciled { "ok" } else { "FAILED" },
        if converged {
            "converged"
        } else {
            "DID NOT CONVERGE"
        }
    );
    Ok(if reconciled && converged { 0 } else { 1 })
}

/// `chaos --disk`: the storage-frontier variant — run the WAL-backed
/// durable state store against a disk that misbehaves on schedule.
/// Phase 1 soaks the store under a seeded random fault plan (short
/// writes, torn records, fsync failures, ENOSPC, crashes) and shows the
/// degradation machinery; phase 2 sweeps a crash through *every*
/// mutating I/O point × {before, torn, after} and proves each recovered
/// state is a prefix of the applied operations. Exit 0 when every
/// recovery was a clean prefix.
fn chaos_disk(args: &Args, list: &str) -> Result<i32, String> {
    use leaksig_device::state::encode_state;
    use leaksig_device::{CollectionServer, IngestConfig, WalConfig, WalStore};
    use leaksig_faults::{CrashFlavor, DiskFaultKind, DiskFaultPlan, FaultyDisk, RealDisk};

    let seed: u64 = args.parsed_or("seed", 42).map_err(|e| e.to_string())?;
    let intensity: f64 = args
        .parsed_or("intensity", 0.2)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&intensity) {
        return Err(format!("--intensity must be in [0, 1], got {intensity}"));
    }
    let kinds = DiskFaultKind::parse_list(list)?;
    println!(
        "disk chaos: seed {seed}, faults [{}], intensity {intensity}",
        kind_labels(&kinds)
    );

    let data = Dataset::generate(MarketConfig::scaled(seed, 0.01));
    let packets: Vec<_> = data.packets.iter().take(150).collect();
    let check =
        || -> PayloadCheck<SensitiveKind> { PayloadCheck::new(data.model.device.all_values()) };
    // Small WAL groups/compaction windows so a 150-packet run exercises
    // the whole protocol: group commit, compaction, prune.
    let config = WalConfig {
        group_ops: 8,
        compact_every: 64,
        ..WalConfig::default()
    };
    let collector_on = |store: Box<dyn leaksig_device::StateStore>| {
        CollectionServer::with_store(
            check(),
            PipelineConfig::default(),
            400,
            seed,
            IngestConfig::default(),
            store,
        )
    };
    let scratch =
        std::env::temp_dir().join(format!("leaksig-diskchaos-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // The gold twin: same seed, same packets, memory-backed. Its state
    // after each ingest is the set of legal recovery outcomes.
    let gold = CollectionServer::with_intake(
        check(),
        PipelineConfig::default(),
        400,
        seed,
        IngestConfig::default(),
    );
    let mut prefixes = vec![gold.encoded_state()];
    for p in &packets {
        gold.ingest(&p.packet);
        prefixes.push(gold.encoded_state());
    }

    // Phase 1: seeded sick-disk soak.
    let dir = scratch.join("soak");
    let (disk, ctl) = FaultyDisk::with_plan(RealDisk, DiskFaultPlan::new(seed, &kinds, intensity));
    let (store, _) = WalStore::open(&dir, Box::new(disk), config).map_err(|e| e.to_string())?;
    let collector = collector_on(Box::new(store));
    let mut fed = 0usize;
    for p in &packets {
        if ctl.crashed() {
            break;
        }
        collector.ingest(&p.packet);
        fed += 1;
    }
    collector.flush_state();
    let s = collector.stats();
    println!(
        "\nsoak: fed {fed}/{} packets, {} faults injected, {} mutating ops, \
         store {} ({} degradations){}",
        packets.len(),
        ctl.injected(),
        ctl.mutations(),
        collector.durability().label(),
        s.durability_degraded,
        if ctl.crashed() {
            ", then the disk died"
        } else {
            ""
        }
    );
    drop(collector);
    let (recovered, report) =
        WalStore::open(&dir, Box::new(RealDisk), config).map_err(|e| e.to_string())?;
    // Degradation accounting is the one divergence a sick-but-alive
    // disk may legitimately persist: a compaction *after* a degrade
    // snapshots the bumped counters, while the memory twin never
    // degrades. Compare modulo them — everything else must be an
    // exact prefix.
    let mut soak_state = leaksig_device::StateStore::state(&recovered).clone();
    soak_state.stats.durability_degraded = 0;
    soak_state.stats.durability_refused = 0;
    let soak_prefix = prefixes.contains(&encode_state(&soak_state));
    println!(
        "soak recovery: snapshot gen {:?}, {} ops replayed{}{}; state is {} of the applied ops",
        report.snapshot_generation,
        report.replayed_ops,
        if report.torn_tail { ", torn tail" } else { "" },
        if report.corrupt_tail {
            ", corrupt tail"
        } else {
            ""
        },
        if soak_prefix {
            "a clean prefix"
        } else {
            "NOT A PREFIX"
        }
    );
    drop(recovered);

    // Phase 2: crash matrix. Learn the uninjured run's mutating-op
    // count, then kill the process at every point in every flavor.
    let dir = scratch.join("probe");
    let (disk, ctl) = FaultyDisk::new(RealDisk);
    let (store, _) = WalStore::open(&dir, Box::new(disk), config).map_err(|e| e.to_string())?;
    let collector = collector_on(Box::new(store));
    for p in &packets {
        collector.ingest(&p.packet);
    }
    collector.flush_state();
    let total = ctl.mutations();
    drop(collector);
    println!("\ncrash matrix: {total} mutating I/O points × 3 flavors");

    let mut failures = 0usize;
    for flavor in CrashFlavor::ALL {
        let mut crashed_runs = 0usize;
        let mut ok = 0usize;
        for at in 0..total {
            let dir = scratch.join(format!("crash-{}-{at}", flavor.label()));
            let (disk, ctl) = FaultyDisk::new(RealDisk);
            let (store, _) =
                WalStore::open(&dir, Box::new(disk), config).map_err(|e| e.to_string())?;
            ctl.arm_crash(at, flavor);
            let collector = collector_on(Box::new(store));
            for p in &packets {
                if ctl.crashed() {
                    break;
                }
                collector.ingest(&p.packet);
            }
            if !ctl.crashed() {
                collector.flush_state();
            }
            crashed_runs += ctl.crashed() as usize;
            drop(collector);
            let (recovered, _) =
                WalStore::open(&dir, Box::new(RealDisk), config).map_err(|e| e.to_string())?;
            if prefixes.contains(&encode_state(leaksig_device::StateStore::state(&recovered))) {
                ok += 1;
            } else {
                failures += 1;
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        println!(
            "  crash-{:<7} {ok}/{total} recoveries were clean prefixes ({crashed_runs} runs died)",
            flavor.label()
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);

    if failures == 0 && soak_prefix {
        println!("\nall recoveries consistent");
        Ok(0)
    } else {
        println!("\n{failures} INCONSISTENT recoveries");
        Ok(1)
    }
}

/// `chaos`: drive the full distribution loop under a seeded fault plan
/// and print the per-attempt event log — a command-line replay of the
/// chaos soak. Exit code 0 when the device converged to the latest
/// published version, 1 otherwise. With `--net <kinds|all>` the replay
/// moves onto real sockets (see [`chaos_net`]); with `--disk
/// <kinds|all>` it moves onto the durable state store's I/O frontier
/// (see [`chaos_disk`]).
pub fn chaos(args: &Args) -> Result<i32, String> {
    if let Some(list) = args.optional("disk") {
        return chaos_disk(args, list);
    }
    if let Some(list) = args.optional("net") {
        return chaos_net(args, list);
    }
    use leaksig_device::{
        CollectionServer, FaultyTransport, InProcessTransport, IngestConfig, RateLimit,
        RegenerationSupervisor, RetryPolicy, SignatureServer, SignatureStore, SnapshotVault,
        SupervisorConfig, SyncClient, SyncEventKind,
    };
    use leaksig_faults::{
        apply_ingest_fault, CrashFlavor, FaultKind, FaultPlan, FaultyDisk, IngestFaultKind,
        IngestFaultPlan, RealDisk,
    };

    let seed: u64 = args.parsed_or("seed", 42).map_err(|e| e.to_string())?;
    let kinds: Vec<FaultKind> = FaultKind::parse_list(args.optional("faults").unwrap_or("all"))?;
    let intensity: f64 = args
        .parsed_or("intensity", 0.5)
        .map_err(|e| e.to_string())?;
    if !(0.0..=1.0).contains(&intensity) {
        return Err(format!("--intensity must be in [0, 1], got {intensity}"));
    }
    let rounds: usize = args.parsed_or("rounds", 3).map_err(|e| e.to_string())?;
    if rounds == 0 {
        return Err("--rounds must be at least 1".to_string());
    }
    // `--ingest garbage,headerbomb|all` switches the capture loop from
    // the trusted packet path to the hardened raw-bytes frontier, with
    // the listed ingestion faults mangling the wire images.
    let ingest_kinds: Option<Vec<IngestFaultKind>> = args
        .optional("ingest")
        .map(IngestFaultKind::parse_list)
        .transpose()?;
    let deadline_ms: u64 = args
        .parsed_or("deadline", 5_000)
        .map_err(|e| e.to_string())?;

    println!(
        "chaos: seed {seed}, faults [{}], intensity {intensity}, {rounds} rounds",
        kind_labels(&kinds)
    );
    let mut ingest_plan = ingest_kinds.as_ref().map(|ks| {
        println!("raw intake on: ingestion faults [{}]", kind_labels(ks));
        IngestFaultPlan::new(seed ^ 0x1A7E57, ks, intensity)
    });

    // A small synthetic market stands in for the capture loop.
    let data = Dataset::generate(MarketConfig::scaled(seed, 0.02));
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
    let collector = CollectionServer::with_intake(
        check,
        PipelineConfig::default(),
        400,
        seed,
        IngestConfig {
            rate: Some(RateLimit {
                burst: 32,
                per_second: 500,
            }),
            ..IngestConfig::default()
        },
    );
    let supervisor = RegenerationSupervisor::new(SupervisorConfig {
        deadline_ms,
        ..SupervisorConfig::default()
    });
    let publisher = SignatureServer::new();
    let store = SignatureStore::new();
    let mut client = SyncClient::new(
        FaultyTransport::new(
            InProcessTransport::new(&publisher),
            FaultPlan::new(seed, &kinds, intensity),
        ),
        RetryPolicy {
            max_attempts: 24,
            jitter_seed: seed,
            ..RetryPolicy::default()
        },
    );

    let chunk = data.packets.len().div_ceil(rounds).max(1);
    for (round, packets) in data.packets.chunks(chunk).take(rounds).enumerate() {
        for p in packets {
            match &mut ingest_plan {
                None => {
                    collector.ingest(&p.packet);
                }
                Some(plan) => {
                    let mut raw = p.packet.to_bytes();
                    let copies = match plan.next_action() {
                        Some(fault) => apply_ingest_fault(fault, &mut raw),
                        None => 1,
                    };
                    let dst = &p.packet.destination;
                    for _ in 0..copies {
                        collector.ingest_raw(&raw, dst.ip, dst.port);
                    }
                }
            }
        }
        if ingest_plan.is_some() {
            let s = collector.stats();
            println!(
                "\nround {round} intake: {} offered, {} admitted, {} parse-rejected, \
                 {} quarantined, {} rate-limited, {} shed, {} queued",
                s.raw_seen,
                s.admitted,
                s.parse_rejects,
                s.quarantined,
                s.rate_limited,
                s.shed,
                collector.queue_len()
            );
        }
        print!("\nround {round}: ");
        report_regen(&publisher, || {
            supervisor.regenerate(&collector, 150, &publisher)
        });
        if let Some(t) = take_last_timings() {
            println!("  {}", t.event_line());
        }
        let report = client.sync(&store);
        for ev in &report.events {
            let detail = match &ev.kind {
                SyncEventKind::NotModified => "already current".to_string(),
                SyncEventKind::Dropped => "exchange lost".to_string(),
                SyncEventKind::TimedOut { latency_ms } => {
                    format!("response took {latency_ms}ms")
                }
                SyncEventKind::StaleReplay { version } => {
                    format!("replayed v{version}, ignored")
                }
                SyncEventKind::FrameRejected { error } => format!("{error}"),
                SyncEventKind::WireRejected => "checksum ok, wire text unparsable".to_string(),
                SyncEventKind::GateRejected { errors } => {
                    format!("{errors} audit errors")
                }
                SyncEventKind::Installed { version } => format!("now at v{version}"),
            };
            println!(
                "  attempt {:>2}  +{:>5}ms  {:<14} {detail}",
                ev.attempt,
                ev.backoff_ms,
                ev.kind.tag()
            );
        }
        println!(
            "  round outcome: {:?}; store v{}, health {}",
            report.outcome,
            store.version(),
            store.health()
        );
    }

    // Crash-safe persistence demo: snapshot, kill the next save with a
    // torn write, and show the restore landing on the last good
    // generation.
    let dir = std::env::temp_dir().join(format!("leaksig-chaos-{seed}-{}", std::process::id()));
    let saved = SnapshotVault::new(&dir)
        .and_then(|mut vault| vault.save_store(&store))
        .map_err(|e| e.to_string())?;
    let (disk, ctl) = FaultyDisk::new(RealDisk);
    let mut vault = SnapshotVault::open(&dir, Box::new(disk)).map_err(|e| e.to_string())?;
    ctl.arm_crash(ctl.mutations(), CrashFlavor::Torn);
    let crashed = vault.save_store(&store).is_err();
    let (restored, report) = SnapshotVault::new(&dir)
        .map_err(|e| e.to_string())?
        .restore_store();
    println!(
        "\npersistence: saved gen {saved}, tore gen {} mid-write; restore picked gen {:?} \
         ({} corrupt skipped), health {}",
        saved + 1,
        report.generation,
        report.skipped_corrupt,
        report.health
    );
    let intact = crashed && restored.version() == store.version();
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(plan) = &ingest_plan {
        let ledger = collector.quarantine_ledger();
        println!(
            "\n{} ingestion faults injected; last {} quarantine records:",
            plan.injected(),
            ledger.len().min(8)
        );
        for rec in ledger.iter().rev().take(8).rev() {
            println!(
                "  [{:<14}] {}:{} {:>6}B  {}",
                rec.reason.tag(),
                rec.source,
                rec.port,
                rec.bytes,
                rec.summary
            );
        }
    }

    let converged = publisher.version() > 0 && store.version() == publisher.version();
    let injected = client.transport().injected();
    println!(
        "\n{} faults injected; device at v{} of v{}; rollback {}",
        injected,
        store.version(),
        publisher.version(),
        if intact { "ok" } else { "FAILED" }
    );
    if converged && intact {
        println!("converged");
        Ok(0)
    } else {
        println!("DID NOT CONVERGE");
        Ok(1)
    }
}

/// `market`: synthesize a capture + device file.
pub fn market(args: &Args) -> Result<(), String> {
    let out = args.required("out").map_err(|e| e.to_string())?;
    let device_path = args.required("device").map_err(|e| e.to_string())?;
    let seed: u64 = args.parsed_or("seed", 42).map_err(|e| e.to_string())?;
    let scale: f64 = args.parsed_or("scale", 0.05).map_err(|e| e.to_string())?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }

    let data = Dataset::generate(MarketConfig::scaled(seed, scale));
    let records: Vec<CaptureRecord> = data
        .packets
        .iter()
        .map(|p| CaptureRecord {
            app: Some(data.model.apps[p.app].package.clone()),
            packet: p.packet.clone(),
        })
        .collect();
    capture::write_file(out, &records).map_err(|e| e.to_string())?;
    devicefile::write_file(device_path, &data.model.device).map_err(|e| e.to_string())?;
    println!(
        "wrote {} packets from {} apps to {out}; device identity to {device_path}",
        records.len(),
        data.model.apps.len()
    );
    Ok(())
}

fn load_check(device_path: &str) -> Result<PayloadCheck<SensitiveKind>, String> {
    let device = devicefile::read_file(device_path).map_err(|e| e.to_string())?;
    Ok(PayloadCheck::new(device.all_values()))
}

/// `check`: payload check over a capture, with per-kind counts.
pub fn check(args: &Args) -> Result<(), String> {
    let records = capture::read_file(args.required("capture").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let check = load_check(args.required("device").map_err(|e| e.to_string())?)?;

    let mut suspicious = 0usize;
    let mut per_kind: std::collections::BTreeMap<SensitiveKind, usize> = Default::default();
    for rec in &records {
        let kinds = check.scan(&rec.packet);
        if !kinds.is_empty() {
            suspicious += 1;
            for k in kinds {
                *per_kind.entry(k).or_default() += 1;
            }
        }
    }
    println!(
        "{} packets: {} suspicious, {} normal",
        records.len(),
        suspicious,
        records.len() - suspicious
    );
    for (kind, count) in per_kind {
        println!("  {:<22} {count}", kind.label());
    }
    Ok(())
}

/// `generate`: payload check → sample → cluster → signatures → wire file.
pub fn generate(args: &Args) -> Result<(), String> {
    let records = capture::read_file(args.required("capture").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let check = load_check(args.required("device").map_err(|e| e.to_string())?)?;
    let out = args.required("out").map_err(|e| e.to_string())?;
    let n: usize = args.parsed_or("n", 300).map_err(|e| e.to_string())?;
    let seed: u64 = args
        .parsed_or("seed", 0xC0FFEE)
        .map_err(|e| e.to_string())?;
    let deploy_gate = match args.optional("gate").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => return Err(format!("--gate must be on|off, got {other:?}")),
    };

    let packets: Vec<&leaksig_http::HttpPacket> = records.iter().map(|r| &r.packet).collect();
    let labels: Vec<bool> = packets.iter().map(|p| check.is_suspicious(p)).collect();
    let suspicious = labels.iter().filter(|&&s| s).count();
    if suspicious == 0 {
        return Err("no suspicious packets in the capture; nothing to cluster".to_string());
    }

    let config = PipelineConfig {
        sample_seed: seed,
        deploy_gate,
        ..Default::default()
    };
    let outcome = run_experiment_refs(&packets, &labels, n, &config);
    std::fs::write(out, wire::encode(&outcome.signatures))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "sampled {} of {} suspicious packets; {} signatures written to {out}",
        outcome.counts.sample_n,
        suspicious,
        outcome.signatures.len()
    );
    println!(
        "self-evaluation on this capture: TP {:.1}%  FN {:.1}%  FP {:.1}%",
        100.0 * outcome.rates.true_positive,
        100.0 * outcome.rates.false_negative,
        100.0 * outcome.rates.false_positive
    );
    println!("{}", outcome.timings.event_line());
    Ok(())
}

fn load_sigs(path: &str) -> Result<SignatureSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    wire::decode(&text).map_err(|e| format!("{path}: {e}"))
}

/// `detect`: scan a capture with a signature file; evaluate when a device
/// file supplies ground truth.
pub fn detect(args: &Args) -> Result<(), String> {
    let records = capture::read_file(args.required("capture").map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let set = load_sigs(args.required("sigs").map_err(|e| e.to_string())?)?;
    let detector = Detector::new(set);

    let mut hits = 0usize;
    let mut per_app: std::collections::BTreeMap<&str, usize> = Default::default();
    let mut detections: Vec<bool> = Vec::with_capacity(records.len());
    for rec in &records {
        let hit = detector.match_packet(&rec.packet).is_some();
        detections.push(hit);
        if hit {
            hits += 1;
            *per_app
                .entry(rec.app.as_deref().unwrap_or("<unknown>"))
                .or_default() += 1;
        }
    }
    println!("{hits} of {} packets matched", records.len());

    let mut worst: Vec<(&str, usize)> = per_app.into_iter().collect();
    worst.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!("top leaking apps:");
    for (app, count) in worst.into_iter().take(8) {
        println!("  {app:<36} {count}");
    }

    if let Some(device_path) = args.optional("device") {
        let check = load_check(device_path)?;
        let labels: Vec<bool> = records
            .iter()
            .map(|r| check.is_suspicious(&r.packet))
            .collect();
        let sampled = vec![false; records.len()];
        let counts = leaksig_core::eval::tally(&labels, &detections, &sampled);
        let rates = counts.rates();
        println!(
            "evaluation: TP {:.1}%  FN {:.1}%  FP {:.1}%  (precision {:.3}, recall {:.3})",
            100.0 * rates.true_positive,
            100.0 * rates.false_negative,
            100.0 * rates.false_positive,
            counts.precision(),
            counts.recall()
        );
    }
    Ok(())
}

/// `lint`: audit a signature file for §VI false-positive hazards,
/// proved-dead (shadowed or unmatchable) signatures, and structural
/// defects. Returns the process exit code:
/// 1 when any Error-level diagnostic was found, 0 otherwise.
pub fn lint(args: &Args) -> Result<i32, String> {
    let set = load_sigs(args.required("sigs").map_err(|e| e.to_string())?)?;
    let linter = leaksig_lint::Linter::new();
    let diags = linter.lint(&set);
    match args.optional("format").unwrap_or("text") {
        "text" => print!("{}", leaksig_lint::render_text(&diags)),
        "json" => println!("{}", leaksig_lint::render_json(&diags)),
        other => return Err(format!("--format must be text|json, got {other:?}")),
    }
    Ok(if leaksig_lint::has_errors(&diags) {
        1
    } else {
        0
    })
}

/// `inspect`: human-readable dump of a signature file.
pub fn inspect(args: &Args) -> Result<(), String> {
    let set = load_sigs(args.required("sigs").map_err(|e| e.to_string())?)?;
    println!("{} signatures, {} tokens", set.len(), set.token_count());
    for sig in &set.signatures {
        println!(
            "\nsignature {} (cluster of {}, hosts: {})",
            sig.id,
            sig.cluster_size,
            sig.hosts.join(", ")
        );
        for tok in &sig.tokens {
            println!(
                "  [{:<6}] {:?}",
                tok.field.tag(),
                String::from_utf8_lossy(tok.bytes())
            );
        }
    }
    Ok(())
}

/// `analyze`: whole-set semantic analysis (proved subsumption lattice,
/// dead signatures, overlap graph, static cost) with the linter's
/// findings plus the A004 cost findings, or — with `--diff OLD --new
/// NEW` — the semantic diff between two generations. Exit code 1 on any
/// Error-level finding (the same errors `lint` reports), 0 otherwise.
pub fn analyze(args: &Args) -> Result<i32, String> {
    if let Some(old_path) = args.optional("diff") {
        let old = load_sigs(old_path)?;
        let new = load_sigs(args.required("new").map_err(|e| e.to_string())?)?;
        print_diff(&diff_generations(&old, &new), &old, &new);
        return Ok(0);
    }

    let set = load_sigs(args.required("sigs").map_err(|e| e.to_string())?)?;
    let report = leaksig_core::analyze::analyze_set(&set);
    let mut diags = leaksig_lint::Linter::new().lint(&set);
    diags.extend(leaksig_core::audit::cost_findings(
        &report.cost,
        &leaksig_core::audit::CostBudget::default(),
    ));
    leaksig_lint::sort_findings(&mut diags);

    match args.optional("format").unwrap_or("text") {
        "json" => println!("{}", leaksig_lint::render_json(&diags)),
        "text" => {
            println!(
                "{} signatures under Conjunction: {} dominance edge{}, {} proved dead, \
                 {} overlap{}",
                report.signatures,
                report.dominance.len(),
                if report.dominance.len() == 1 { "" } else { "s" },
                report.dead.len(),
                report.overlaps.len(),
                if report.overlaps.len() == 1 { "" } else { "s" },
            );
            for e in &report.dominance {
                println!(
                    "  sig {} dominates sig {}: {}",
                    set.signatures[e.dominator].id, set.signatures[e.dominated].id, e.proof.detail
                );
            }
            println!(
                "cost: {} patterns, {} states, worst {} hits/position",
                report.cost.total_patterns,
                report.cost.total_states,
                report.cost.worst_hits_per_position
            );
            for f in &report.cost.fields {
                println!(
                    "  [{:<6}] {} patterns, {} bytes, {} states, depth {}, max outputs {}",
                    f.field.tag(),
                    f.patterns,
                    f.pattern_bytes,
                    f.states,
                    f.max_depth,
                    f.max_outputs
                );
            }
            print!("{}", leaksig_lint::render_text(&diags));
        }
        other => return Err(format!("--format must be text|json, got {other:?}")),
    }
    Ok(if leaksig_lint::has_errors(&diags) {
        1
    } else {
        0
    })
}

fn print_diff(
    diff: &leaksig_core::analyze::GenerationDiff,
    old: &SignatureSet,
    new: &SignatureSet,
) {
    println!("generation diff under Conjunction: {}", diff.summary());
    let witness_line = |w: &Option<leaksig_core::analyze::Witness>| match w {
        Some(w) => format!("\n      witness: {}", w.describe()),
        None => String::new(),
    };
    for a in &diff.added {
        println!(
            "  added     sig {} ({} tokens){}",
            a.id,
            new.signatures[a.index].tokens.len(),
            witness_line(&a.witness)
        );
    }
    for r in &diff.removed {
        println!(
            "  removed   sig {} ({} tokens){}",
            r.id,
            old.signatures[r.index].tokens.len(),
            witness_line(&r.witness)
        );
    }
    for c in &diff.changed {
        println!(
            "  {:<9} sig {} ({} -> {} tokens){}",
            c.kind.label(),
            c.id,
            old.signatures[c.old_index].tokens.len(),
            new.signatures[c.new_index].tokens.len(),
            witness_line(&c.witness)
        );
    }
    if diff.is_empty() {
        println!("  no semantic change");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_device::SignatureServer;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn one_signature_set() -> SignatureSet {
        let leak = |slot: &str| {
            RequestBuilder::get("/getad")
                .query("imei", "355195000000017")
                .query("slot", slot)
                .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
                .build()
        };
        let (a, b) = (leak("1"), leak("2"));
        let mut cfg = PipelineConfig::default();
        cfg.signature.include_singletons = false;
        generate_signatures(&[&a, &b], &cfg)
    }

    /// What `report_regen` diffs: each publish against the generation
    /// served just before it.
    #[test]
    fn publish_diffs_against_the_served_generation() {
        let server = SignatureServer::new();
        let diff_since = |prev: &SignatureSet| diff_generations(prev, &served_set(&server));
        let before = served_set(&server);
        assert!(before.is_empty(), "nothing published yet");

        let set = one_signature_set();
        assert!(!set.is_empty());
        server.publish(&set).unwrap();
        let d1 = diff_since(&before);
        assert_eq!(d1.added.len(), set.len(), "everything is new");
        assert!(d1.removed.is_empty());

        // Republish the identical set: an empty diff.
        let before = served_set(&server);
        server.publish(&set).unwrap();
        let d2 = diff_since(&before);
        assert!(d2.is_empty());
        assert_eq!(d2.unchanged, set.len());

        // Publish the empty set: everything removed.
        let before = served_set(&server);
        server.publish(&SignatureSet::default()).unwrap();
        assert_eq!(diff_since(&before).removed.len(), set.len());
    }
}
