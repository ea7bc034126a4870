//! Signature generation folds each dendrogram node's tokens up from its
//! two children, and `drop_dominated` finds dominators with one engine
//! scan per candidate. Both must reproduce, byte for byte, the direct
//! definitions written out here: every node's member list through
//! `signature_from_cluster`, and the pairwise containment test for
//! dominance. Compared over market seeds, sample sizes, both node
//! selections, and the deploy gate on and off.

use leaksig::compress::Lzss;
use leaksig::core::audit::signature_structure;
use leaksig::core::prelude::*;
use leaksig::http::HttpPacket;
use leaksig::netsim::{Dataset, MarketConfig};
use std::collections::{BTreeMap, HashSet};

/// Dendrogram nodes in emission order, as member lists.
fn oracle_nodes(dg: &Dendrogram, selection: ClusterSelection) -> Vec<Vec<usize>> {
    let n = dg.leaves();
    match selection {
        ClusterSelection::AllNodes { max_distance } => {
            let mut nodes: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            for (m, merge) in dg.merges().iter().enumerate() {
                if merge.distance <= max_distance {
                    nodes.push(dg.members(n + m));
                }
            }
            nodes
        }
        ClusterSelection::Cut(threshold) => {
            // Maximal nodes within the threshold, largest first, then by
            // member list.
            let total = n + dg.merges().len();
            let mut parent = vec![usize::MAX; total];
            for (m, merge) in dg.merges().iter().enumerate() {
                parent[merge.a] = n + m;
                parent[merge.b] = n + m;
            }
            let survives = |id: usize| id < n || dg.merges()[id - n].distance <= threshold;
            let mut clusters: Vec<Vec<usize>> = (0..total)
                .filter(|&id| survives(id) && (parent[id] == usize::MAX || !survives(parent[id])))
                .map(|id| dg.members(id))
                .collect();
            clusters.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
            clusters
        }
    }
}

/// Candidate generation from per-node member lists, with the deploy gate
/// applied when `gate` is set.
fn oracle_generate(
    packets: &[&HttpPacket],
    dg: &Dendrogram,
    config: &PipelineConfig,
    gate: bool,
) -> SignatureSet {
    let mut signatures: Vec<ConjunctionSignature> = Vec::new();
    let mut seen: HashSet<Vec<(u8, Vec<u8>)>> = HashSet::new();
    for members in oracle_nodes(dg, config.selection) {
        let mut by_method: BTreeMap<&str, Vec<&HttpPacket>> = BTreeMap::new();
        for i in members {
            let method = packets[i].request_line.method.as_str();
            by_method.entry(method).or_default().push(packets[i]);
        }
        for part in by_method.values() {
            let id = signatures.len() as u32;
            if let Some(sig) = signature_from_cluster(id, part, &config.signature) {
                let key = sig
                    .tokens
                    .iter()
                    .map(|t| (t.field as u8, t.bytes().to_vec()))
                    .collect();
                if seen.insert(key) {
                    signatures.push(sig);
                }
            }
        }
    }
    let mut set = SignatureSet { signatures };
    if gate {
        retain_structurally_clean(&mut set);
        drop_dead(&mut set);
    }
    set
}

fn retain_structurally_clean(set: &mut SignatureSet) {
    let audit = AuditConfig::default();
    set.signatures.retain(|sig| {
        !signature_structure(sig, &audit)
            .iter()
            .any(|d| d.severity == Severity::Error)
    });
}

/// Dominance by definition: A drops B when A ≠ B, A has no more tokens,
/// their token lists differ, and each token of A lies inside a token of
/// B in the same field.
fn naive_drop_dominated(set: &mut SignatureSet) {
    let contains =
        |hay: &[u8], nee: &[u8]| nee.is_empty() || hay.windows(nee.len()).any(|w| w == nee);
    let views: Vec<Vec<(Field, &[u8])>> = set
        .signatures
        .iter()
        .map(|s| s.tokens.iter().map(|t| (t.field, t.bytes())).collect())
        .collect();
    let keep: Vec<bool> = (0..views.len())
        .map(|b| {
            !(0..views.len()).any(|a| {
                a != b
                    && views[a].len() <= views[b].len()
                    && views[a] != views[b]
                    && views[a].iter().all(|&(fa, ta)| {
                        views[b]
                            .iter()
                            .any(|&(fb, tb)| fa == fb && contains(tb, ta))
                    })
            })
        })
        .collect();
    let mut keep = keep.into_iter();
    set.signatures.retain(|_| keep.next().unwrap());
}

/// `regeneration_pass` by definition, on the oracle's ungated candidates.
fn oracle_regenerate(
    packets: &[&HttpPacket],
    normal: &[&HttpPacket],
    dg: &Dendrogram,
    config: &PipelineConfig,
) -> SignatureSet {
    let mut set = oracle_generate(packets, dg, config, false);
    if let Some(v) = config.fp_validation {
        prune_against_normal(&mut set, normal, v.max_hits);
    }
    if config.deploy_gate {
        retain_structurally_clean(&mut set);
    }
    naive_drop_dominated(&mut set);
    drop_dead(&mut set);
    set
}

#[test]
fn folded_generation_and_engine_dominance_match_the_definitions() {
    let selections = [
        ClusterSelection::AllNodes { max_distance: 3.5 },
        ClusterSelection::Cut(1.6),
    ];
    let mut compared = 0;
    for market_seed in [2u64, 3, 5] {
        let data = Dataset::generate(MarketConfig::scaled(market_seed, 0.06));
        let normal: Vec<&HttpPacket> = data
            .packets
            .iter()
            .filter(|p| !p.is_sensitive())
            .map(|p| &p.packet)
            .take(600)
            .collect();
        for n in [50usize, 500] {
            let sample: Vec<&HttpPacket> = data
                .packets
                .iter()
                .filter(|p| p.is_sensitive())
                .map(|p| &p.packet)
                .take(n)
                .collect();
            assert_eq!(sample.len(), n, "market too small for N = {n}");

            let base = PipelineConfig::default();
            let dist = PacketDistance::new(Lzss::default(), base.distance);
            let features: Vec<PacketFeatures> = sample.iter().map(|p| dist.features(p)).collect();
            let dg = agglomerate(&pairwise(&dist, &features));

            for selection in selections {
                for deploy_gate in [true, false] {
                    let config = PipelineConfig {
                        selection,
                        deploy_gate,
                        ..base.clone()
                    };
                    let what =
                        format!("market {market_seed}, N {n}, {selection:?}, gate {deploy_gate}");

                    let generated = generate_signatures_counted(Lzss::default(), &sample, &config);
                    let expected = oracle_generate(&sample, &dg, &config, deploy_gate);
                    assert!(!expected.is_empty(), "{what}: empty oracle set");
                    assert_eq!(
                        encode(&generated.set),
                        encode(&expected),
                        "{what}: candidates"
                    );

                    let published = regeneration_pass(&sample, &normal, &config);
                    let expected = oracle_regenerate(&sample, &normal, &dg, &config);
                    assert!(!expected.is_empty(), "{what}: empty oracle publication");
                    assert_eq!(encode(&published), encode(&expected), "{what}: published");
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 24);
}
