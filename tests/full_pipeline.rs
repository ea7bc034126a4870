//! Workspace integration: netsim → core → device, end to end, through the
//! facade crate's re-exports.

use leaksig::core::prelude::*;
use leaksig::device::{GateAction, PacketGate, SignatureServer, SignatureStore, UserChoice};
use leaksig::netsim::{Dataset, MarketConfig, SensitiveKind};

fn dataset() -> Dataset {
    Dataset::generate(MarketConfig::scaled(31337, 0.05))
}

/// The whole Fig. 3 loop: market traffic → payload check → clustering →
/// signatures → wire → device store → gate enforcement.
#[test]
fn server_to_device_loop() {
    let data = dataset();
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());

    // Server: collect, split, sample, generate.
    let suspicious: Vec<&leaksig::http::HttpPacket> = data
        .packets
        .iter()
        .filter(|p| check.is_suspicious(&p.packet))
        .take(120)
        .map(|p| &p.packet)
        .collect();
    assert!(suspicious.len() >= 100, "scaled market too small");
    let set = generate_signatures(&suspicious, &PipelineConfig::default());
    assert!(!set.is_empty());

    // Distribution.
    let server = SignatureServer::new();
    server.publish(&set).unwrap();
    let store = SignatureStore::new();
    assert!(store.sync(&server).unwrap());
    assert_eq!(store.signature_count(), set.len());

    // Enforcement: replay traffic; prompts must fire only on packets that
    // actually carry sensitive values, and blocking must stick.
    let gate = PacketGate::new(&store);
    let mut prompted_on_clean = 0usize;
    let mut blocked_after_decision = 0usize;
    for labeled in data.packets.iter().take(4000) {
        let app = &data.model.apps[labeled.app].package;
        match gate.intercept(app, &labeled.packet) {
            GateAction::PendingPrompt { prompt_id, .. } => {
                if !labeled.is_sensitive() {
                    prompted_on_clean += 1;
                }
                gate.answer(prompt_id, UserChoice::BlockAlways).unwrap();
            }
            GateAction::Blocked { .. } => blocked_after_decision += 1,
            GateAction::Forwarded => {}
            GateAction::DegradedBlocked { health } => {
                panic!("freshly synced store reported degraded ({health})")
            }
        }
    }
    let stats = gate.stats();
    assert!(stats.prompted > 0, "no prompts at all");
    assert!(blocked_after_decision > 0, "BlockAlways never stuck");
    // Signature FP rate is small; prompts on clean traffic must be rare.
    assert!(
        (prompted_on_clean as f64) < 0.05 * stats.prompted as f64 + 5.0,
        "{prompted_on_clean} clean-traffic prompts out of {} total",
        stats.prompted
    );
}

/// The paper's evaluation formulas computed over the facade, with the
/// expected qualitative result at test scale.
#[test]
fn scaled_experiment_matches_paper_shape() {
    let data = dataset();
    let packets: Vec<&leaksig::http::HttpPacket> = data.packets.iter().map(|p| &p.packet).collect();
    let labels: Vec<bool> = data.packets.iter().map(|p| p.is_sensitive()).collect();

    let small = run_experiment_refs(&packets, &labels, 25, &PipelineConfig::default());
    let large = run_experiment_refs(&packets, &labels, 250, &PipelineConfig::default());

    assert!(
        large.rates.true_positive > 0.80,
        "TP at large N = {:.3}",
        large.rates.true_positive
    );
    assert!(
        large.rates.true_positive + 0.03 >= small.rates.true_positive,
        "TP must not degrade with N: {:.3} -> {:.3}",
        small.rates.true_positive,
        large.rates.true_positive
    );
    assert!(large.rates.false_positive < 0.06);
    assert!(large.rates.false_negative < 0.20);
}

/// Payload check ↔ generator label agreement at integration scale.
#[test]
fn payload_check_is_the_ground_truth_oracle() {
    let data = dataset();
    let check: PayloadCheck<SensitiveKind> = PayloadCheck::new(data.model.device.all_values());
    for p in &data.packets {
        assert_eq!(check.is_suspicious(&p.packet), p.is_sensitive());
    }
}

/// Full determinism across the facade: regenerating with the same seed
/// reproduces the identical wire text.
#[test]
fn same_seed_same_wire_text() {
    let run = || {
        let data = dataset();
        let sample: Vec<&leaksig::http::HttpPacket> = data
            .packets
            .iter()
            .filter(|p| p.is_sensitive())
            .take(80)
            .map(|p| &p.packet)
            .collect();
        encode(&generate_signatures(&sample, &PipelineConfig::default()))
    };
    assert_eq!(run(), run());
}

/// A suspicious request whose host the plain `host <fqdn>` wire line
/// cannot carry — no `Host` header at all (HTTP/1.0) or a host with a
/// space — must not make the deploy gate refuse the whole generation.
#[test]
fn hosts_without_a_plain_wire_form_still_publish() {
    use leaksig::device::{CollectionServer, RegenerateOutcome};
    use leaksig::http::RequestBuilder;
    use std::net::Ipv4Addr;

    const IMEI: &str = "355195000000017";
    let check = PayloadCheck::new([("imei", IMEI)]);
    for (case, odd_host) in [
        ("no Host header", None),
        ("spaced host", Some("ad maker.info")),
    ] {
        let collector = CollectionServer::new(check.clone(), PipelineConfig::default(), 64, 7);
        let ip = Ipv4Addr::new(203, 0, 113, 3);
        for slot in 0..8 {
            let raw = RequestBuilder::get("/getad")
                .query("imei", IMEI)
                .query("slot", &slot.to_string())
                .destination(ip, 80, "ad-maker.info")
                .build()
                .to_bytes();
            let raw = String::from_utf8(raw).expect("builder emits text");
            // Half the traffic is odd, so the odd requests form a
            // cluster of their own and reach a signature.
            let raw = match (slot % 2, odd_host) {
                (0, None) => raw
                    .replace("HTTP/1.1", "HTTP/1.0")
                    .replace("Host: ad-maker.info\r\n", ""),
                (0, Some(host)) => raw.replace("Host: ad-maker.info", &format!("Host: {host}")),
                _ => raw,
            };
            collector.ingest_raw(raw.as_bytes(), ip, 80);
        }
        collector.pump_all();
        assert_eq!(collector.reservoir_len(), 8, "{case}");

        let publisher = SignatureServer::new();
        let outcome = collector.regenerate(8, &publisher);
        assert!(
            matches!(outcome, RegenerateOutcome::Published { .. }),
            "{case}: {outcome:?}"
        );
        let store = SignatureStore::new();
        assert!(
            store.sync(&publisher).expect("published set installs"),
            "{case}"
        );
        let want = odd_host.unwrap_or("");
        let set = leaksig::core::wire::decode(&store.wire_text()).expect("wire decodes");
        assert!(
            set.signatures
                .iter()
                .any(|s| s.hosts.iter().any(|h| h == want)),
            "{case}: host {want:?} survives the wire"
        );
    }
}
