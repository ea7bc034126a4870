//! The end-to-end pipeline of Fig. 3a: payload check → sample → cluster →
//! signature generation → detection → evaluation.

use crate::cluster::{agglomerate_until, Dendrogram, Linkage};
use crate::detect::Detector;
use crate::distance::{DistanceConfig, PacketDistance, PacketFeatures};
use crate::eval::{tally, Counts, Rates};
use crate::matrix::pairwise_until;
use crate::par;
use crate::signature::{
    assemble_signature, field_views, rline_view, ConjunctionSignature, Field, SignatureConfig,
    SignatureSet,
};
use leaksig_compress::Lzss;
use leaksig_http::HttpPacket;
use leaksig_textdist::{common_tokens, fold_common_tokens, TokenConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Wall-clock milliseconds spent in each stage of one generation /
/// regeneration pass. Filled in by [`generate_signatures_counted`] (the
/// first four stages) and [`regeneration_pass`] (pruning); the CLI prints
/// one event line per pass so operators can see *where* a slow
/// regeneration went without attaching a profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Per-packet feature extraction (parse + per-field self-compression).
    pub features_ms: f64,
    /// Pairwise NCD distance matrix.
    pub matrix_ms: f64,
    /// Agglomerative clustering.
    pub cluster_ms: f64,
    /// Token extraction, dedup, and the deploy gate.
    pub signatures_ms: f64,
    /// Benign-traffic validation plus dominated-signature removal.
    pub prune_ms: f64,
}

impl StageTimings {
    /// Sum of all recorded stages.
    pub fn total_ms(&self) -> f64 {
        self.features_ms + self.matrix_ms + self.cluster_ms + self.signatures_ms + self.prune_ms
    }

    /// The one-line form the CLI prints after a pass.
    pub fn event_line(&self) -> String {
        format!(
            "stage times: features {:.0}ms, matrix {:.0}ms, cluster {:.0}ms, \
             signatures {:.0}ms, prune {:.0}ms (total {:.0}ms)",
            self.features_ms,
            self.matrix_ms,
            self.cluster_ms,
            self.signatures_ms,
            self.prune_ms,
            self.total_ms()
        )
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Timings of the most recent [`regeneration_pass`], on any thread.
///
/// The pass runs deep inside the collection server (inside its supervised
/// `regenerate`, behind a pluggable runner) where its return type — the
/// signature set — has no room for diagnostics, so the timings are parked
/// here for whoever reports on the pass afterwards.
static LAST_TIMINGS: std::sync::Mutex<Option<StageTimings>> = std::sync::Mutex::new(None);

/// Take (and clear) the timings recorded by the most recent completed
/// [`regeneration_pass`]. Returns `None` when no pass has finished since
/// the last take.
pub fn take_last_timings() -> Option<StageTimings> {
    LAST_TIMINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
}

/// Extract [`PacketFeatures`] for every packet across all cores.
///
/// Feature extraction indexes and self-compresses three content fields
/// per packet, so at regeneration scale it costs O(n) compressor runs —
/// embarrassingly parallel, and before this ran serially it was the
/// second-largest slice of a pass after the matrix. Each field is indexed
/// here once ([`leaksig_compress::IndexedBytes`]) and every matrix cell
/// walks those indexes. Workers claim contiguous chunks of
/// [`FEATURE_CHUNK`] packets, each with its own output slice, so output
/// order (and therefore every downstream id) is identical to the serial
/// map; a sample of one chunk or less runs serially.
///
/// `None` once `expired()` turns true before every chunk has run.
fn extract_features<C: leaksig_compress::Compressor + Sync>(
    dist: &PacketDistance<C>,
    packets: &[&HttpPacket],
    expired: par::Expired<'_>,
) -> Option<Vec<PacketFeatures>> {
    let mut features = vec![None; packets.len()];
    let jobs = packets
        .chunks(FEATURE_CHUNK)
        .zip(features.chunks_mut(FEATURE_CHUNK))
        .collect();
    let finished = par::for_each_claimed_until(
        jobs,
        || (),
        |_, (chunk, out)| {
            for (p, f) in chunk.iter().zip(out) {
                *f = Some(dist.features(p));
            }
        },
        expired,
    );
    finished.then(|| {
        features
            .into_iter()
            .map(|f| f.expect("every packet is extracted"))
            .collect()
    })
}

/// Packets per feature-extraction job: below this, spawning a worker
/// costs more than it saves.
const FEATURE_CHUNK: usize = 64;

/// Which dendrogram nodes become signature candidates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterSelection {
    /// One signature per cluster of a single horizontal cut.
    Cut(f64),
    /// §IV-E as written: walk the whole dendrogram and emit a signature
    /// for **every** node (leaf and internal) whose merge distance is at
    /// most `max_distance` — "select the top of cluster Ci ∈ C ... remove
    /// Ci from C and repeat for all clusters". Near-root nodes mix
    /// unrelated modules and their candidate tokens degrade to protocol
    /// boilerplate (killed by the anchor filter); mid-level nodes that
    /// join *different destinations leaking the same identifier* refine
    /// down to the bare identifier value, which is what detects leak
    /// destinations that were never sampled.
    AllNodes {
        /// Skip nodes merged above this distance (they mix unrelated
        /// modules and their tokens die in the filters anyway).
        max_distance: f64,
    },
}

/// Validation of candidate signatures against normal traffic.
///
/// The signature server necessarily holds the normal group — the payload
/// check that formed the suspicious sample produced it — so it can vet
/// each candidate against a slice of benign packets before publication.
/// Signatures matching more than `max_hits` of a `sample`-packet benign
/// sample are discarded. Validation is sampled, not exhaustive, so a
/// residue of weakly-matching signatures survives and grows with N —
/// reproducing the paper's rising false-positive curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpValidation {
    /// Number of normal packets sampled for vetting.
    pub sample: usize,
    /// Maximum tolerated matches within the vetting sample.
    pub max_hits: usize,
}

impl Default for FpValidation {
    fn default() -> Self {
        FpValidation {
            sample: 2000,
            max_hits: 40,
        }
    }
}

/// Everything configurable about one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Distance configuration.
    pub distance: DistanceConfig,
    /// Signature-generation configuration.
    pub signature: SignatureConfig,
    /// Node selection. `d_pkt` ranges over `[0, 6]`; same-module pairs sit
    /// below ~1.2, same-identifier cross-module pairs around 2.2–3.3,
    /// unrelated pairs above ~3.4.
    pub selection: ClusterSelection,
    /// Seed for drawing the `N`-packet sample from the suspicious group.
    pub sample_seed: u64,
    /// Optional benign-traffic vetting of candidate signatures.
    pub fp_validation: Option<FpValidation>,
    /// Refuse to emit signatures carrying Error-level audit findings
    /// (§VI's `POST *` hazard, re-checked on the finished artifact).
    /// Default on; turn off only to study unfiltered generation.
    pub deploy_gate: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            distance: DistanceConfig::default(),
            signature: SignatureConfig::default(),
            selection: ClusterSelection::AllNodes { max_distance: 3.5 },
            sample_seed: 0xC0FFEE,
            fp_validation: Some(FpValidation::default()),
            deploy_gate: true,
        }
    }
}

/// Drop signatures that match more than `max_hits` of `normal_sample`.
///
/// The whole set is compiled once ([`crate::engine::CompiledDetector`])
/// and each benign packet is scanned in a single pass that credits every
/// matching signature — O(sample × |packet|) instead of
/// O(signatures × tokens × sample × |packet|).
pub fn prune_against_normal(
    set: &mut SignatureSet,
    normal_sample: &[&HttpPacket],
    max_hits: usize,
) {
    if set.is_empty() || normal_sample.is_empty() {
        return;
    }
    let engine =
        crate::engine::CompiledDetector::compile(set, crate::detect::MatchMode::Conjunction);
    let mut keep = vec![true; set.len()];
    mark_benign_hits(&engine, normal_sample, max_hits, &mut keep);
    retain_marked(set, &keep);
}

/// The benign scan of [`prune_against_normal`] over `engine`: clears the
/// `keep` mark of every signature matching more than `max_hits` of
/// `normal_sample`.
fn mark_benign_hits(
    engine: &crate::engine::CompiledDetector,
    normal_sample: &[&HttpPacket],
    max_hits: usize,
    keep: &mut [bool],
) {
    let mut scratch = engine.scratch();
    let mut hits = vec![0usize; keep.len()];
    for p in normal_sample {
        for idx in engine.matched_indices(&mut scratch, p) {
            hits[idx] += 1;
        }
    }
    for (k, h) in keep.iter_mut().zip(hits) {
        *k &= h <= max_hits;
    }
}

/// A generated signature set plus the clustering diagnostics the
/// experiment driver needs — returned together so callers never recompute
/// the O(n²) distance matrix just to count clusters.
#[derive(Debug, Clone)]
pub struct GeneratedSignatures {
    /// The signatures that survived the filters and the deploy gate.
    pub set: SignatureSet,
    /// Cluster count under the configured selection: the cut size for
    /// [`ClusterSelection::Cut`], the full dendrogram node count
    /// (`2n − 1`) for [`ClusterSelection::AllNodes`].
    pub clusters: usize,
    /// Where the wall-clock went (`prune_ms` is zero straight out of
    /// generation; the pass behind [`regeneration_pass`] and
    /// [`run_experiment_with`] fills it in).
    pub timings: StageTimings,
}

/// Cluster a packet sample and emit conjunction signatures (§IV-D +
/// §IV-E). `packets` is the sampled suspicious group `P ⊂ H`.
pub fn generate_signatures(packets: &[&HttpPacket], config: &PipelineConfig) -> SignatureSet {
    generate_signatures_counted(Lzss::default(), packets, config).set
}

/// [`generate_signatures`] under an explicit NCD compressor, also
/// reporting the cluster count from the **same** dendrogram (features,
/// matrix and clustering are computed exactly once).
pub fn generate_signatures_counted<C: leaksig_compress::Compressor + Sync>(
    compressor: C,
    packets: &[&HttpPacket],
    config: &PipelineConfig,
) -> GeneratedSignatures {
    generate(compressor, packets, config, par::NEVER)
        .expect("generation with no deadline completes")
}

/// [`generate_signatures_counted`] that gives up once `expired()` turns
/// true: feature extraction and the matrix check it before each job, the
/// clustering between merges, and token extraction once it is done. A
/// stage that gave up hands nothing on.
fn generate<C: leaksig_compress::Compressor + Sync>(
    compressor: C,
    packets: &[&HttpPacket],
    config: &PipelineConfig,
    expired: par::Expired<'_>,
) -> Option<GeneratedSignatures> {
    if packets.is_empty() {
        return Some(GeneratedSignatures {
            set: SignatureSet::default(),
            clusters: 0,
            timings: StageTimings::default(),
        });
    }
    let mut timings = StageTimings::default();
    let dist = PacketDistance::new(compressor, config.distance);
    let t = Instant::now();
    let features = extract_features(&dist, packets, expired)?;
    timings.features_ms = ms_since(t);
    let t = Instant::now();
    let matrix = pairwise_until(&dist, &features, expired)?;
    timings.matrix_ms = ms_since(t);
    let t = Instant::now();
    let dendrogram = agglomerate_until(matrix, Linkage::GroupAverage, expired)?;
    timings.cluster_ms = ms_since(t);
    let t = Instant::now();
    // Candidate nodes in emission order. The diagnostic cluster count is
    // the cut size under `Cut` and the full dendrogram node count under
    // `AllNodes` (a fixed cut is not meaningful there).
    let n = dendrogram.leaves();
    let (nodes, cluster_count): (Vec<usize>, usize) = match config.selection {
        ClusterSelection::Cut(threshold) => {
            let nodes = dendrogram.cut_nodes(threshold);
            let count = nodes.len();
            (nodes, count)
        }
        ClusterSelection::AllNodes { max_distance } => {
            let internal = dendrogram
                .merges()
                .iter()
                .enumerate()
                .filter(|(_, merge)| merge.distance <= max_distance)
                .map(|(m, _)| n + m);
            ((0..n).chain(internal).collect(), 2 * n - 1)
        }
    };

    // Token extraction is per content field, so a cluster mixing GET and
    // POST members of one module would lose the identifier token (it sits
    // in the request line for GETs but the body for POSTs). Each node is
    // partitioned by method, and each partition's tokens are folded up
    // from its children's.
    let rlines: Vec<String> = packets.iter().map(|p| rline_view(p)).collect();
    let min_len = config.signature.token.min_len;
    let mut fold = NodeFold::new(packets, &rlines, &dendrogram, min_len);
    let mut signatures: Vec<ConjunctionSignature> = Vec::new();
    let mut seen_token_sets: std::collections::HashSet<Vec<(u8, Vec<u8>)>> =
        std::collections::HashSet::new();
    for node in nodes {
        for part in fold.state(node) {
            if part.size == 1 && !config.signature.include_singletons {
                continue;
            }
            let first = part.first;
            let Some(sig) = assemble_signature(
                signatures.len() as u32,
                &part.tokens,
                field_views(&rlines[first], packets[first]),
                part.size,
                &part.hosts,
                &config.signature,
            ) else {
                continue;
            };
            // Overlapping dendrogram nodes produce many duplicates.
            let key: Vec<(u8, Vec<u8>)> = sig
                .tokens
                .iter()
                .map(|t| (t.field as u8, t.bytes().to_vec()))
                .collect();
            if seen_token_sets.insert(key) {
                signatures.push(sig);
            }
        }
    }
    let mut set = SignatureSet { signatures };

    // Deploy gate: under the default configuration the generation filters
    // above leave nothing for this to catch — the gate is the invariant
    // that no Error-level signature leaves the pipeline regardless of how
    // `config.signature` was loosened. It deliberately audits against the
    // *default* policy, not the caller's: a caller who lowers
    // `min_anchor_len` is experimenting with generation, which is fine,
    // but shipping §VI boilerplate-only signatures additionally requires
    // `deploy_gate: false`.
    if config.deploy_gate {
        retain_structurally_clean(&mut set);
        // The publish/install gate also refuses proved-dead signatures
        // (A001/A002), so gated output must clear them too. Safe here
        // because this function never prunes against benign traffic; the
        // pruning pass (`pass`) defers the whole gate until after
        // validation.
        crate::analyze::drop_dead(&mut set);
    }
    timings.signatures_ms = ms_since(t);
    (!expired()).then_some(GeneratedSignatures {
        set,
        clusters: cluster_count,
        timings,
    })
}

/// One method partition of a dendrogram node: what signature extraction
/// needs of its members, without the member list.
struct Partition<'p> {
    method: &'p str,
    /// Untruncated common tokens per field, in [`Field::ALL`] order.
    tokens: [Vec<Vec<u8>>; 3],
    size: usize,
    /// Smallest member index: the reference member for order hints.
    first: usize,
    /// Distinct destination hosts, sorted.
    hosts: Vec<&'p str>,
}

/// Per-node extraction state over one dendrogram, computed bottom-up on
/// demand: a leaf's tokens are its whole fields, and an internal node's
/// are folded from its two children's ([`fold_common_tokens`]), which it
/// takes over. Each node holds its partitions sorted by method.
struct NodeFold<'p> {
    packets: &'p [&'p HttpPacket],
    rlines: &'p [String],
    dendrogram: &'p Dendrogram,
    min_len: usize,
    slots: Vec<Option<Vec<Partition<'p>>>>,
}

impl<'p> NodeFold<'p> {
    fn new(
        packets: &'p [&'p HttpPacket],
        rlines: &'p [String],
        dendrogram: &'p Dendrogram,
        min_len: usize,
    ) -> Self {
        let total = dendrogram.leaves() + dendrogram.merges().len();
        NodeFold {
            packets,
            rlines,
            dendrogram,
            min_len,
            slots: (0..total).map(|_| None).collect(),
        }
    }

    /// The partitions of `node`, computing it (and any child not yet
    /// computed) first. A child's state moves into its parent, so ask for
    /// a node before its parent.
    fn state(&mut self, node: usize) -> &[Partition<'p>] {
        let n = self.dendrogram.leaves();
        let mut stack = vec![node];
        while let Some(&id) = stack.last() {
            if self.slots[id].is_some() {
                stack.pop();
            } else if id < n {
                self.slots[id] = Some(vec![self.leaf(id)]);
                stack.pop();
            } else {
                let merge = self.dendrogram.merges()[id - n];
                let depth = stack.len();
                let slots = &self.slots;
                stack.extend(
                    [merge.a, merge.b]
                        .into_iter()
                        .filter(|&c| slots[c].is_none()),
                );
                if stack.len() == depth {
                    let a = self.slots[merge.a].take().expect("child computed");
                    let b = self.slots[merge.b].take().expect("child computed");
                    self.slots[id] = Some(self.merge(a, b));
                    stack.pop();
                }
            }
        }
        self.slots[node].as_deref().expect("node computed")
    }

    fn leaf(&self, i: usize) -> Partition<'p> {
        let packet = self.packets[i];
        let whole = TokenConfig {
            min_len: self.min_len,
            max_tokens: usize::MAX,
        };
        Partition {
            method: packet.request_line.method.as_str(),
            tokens: field_views(&self.rlines[i], packet).map(|f| common_tokens(&[f], whole)),
            size: 1,
            first: i,
            hosts: vec![packet.destination.host.as_str()],
        }
    }

    /// Union two nodes' partitions; a method both sides hold folds.
    fn merge(&self, a: Vec<Partition<'p>>, b: Vec<Partition<'p>>) -> Vec<Partition<'p>> {
        let mut out: Vec<Partition<'p>> = Vec::with_capacity(a.len() + b.len());
        let mut b = b.into_iter().peekable();
        for pa in a {
            while let Some(pb) = b.next_if(|pb| pb.method < pa.method) {
                out.push(pb);
            }
            match b.next_if(|pb| pb.method == pa.method) {
                Some(pb) => {
                    let mut hosts = pa.hosts;
                    hosts.extend(pb.hosts);
                    hosts.sort_unstable();
                    hosts.dedup();
                    out.push(Partition {
                        method: pa.method,
                        tokens: std::array::from_fn(|f| {
                            fold_common_tokens(&pa.tokens[f], &pb.tokens[f], self.min_len)
                        }),
                        size: pa.size + pb.size,
                        first: pa.first.min(pb.first),
                        hosts,
                    });
                }
                None => out.push(pa),
            }
        }
        out.extend(b);
        out
    }
}

/// One complete regeneration pass: §IV generation over `sample`,
/// benign-traffic pruning against `normal` (when the config enables
/// validation), and dominated-signature removal — the exact sequence the
/// collection server runs outside its state lock. Factored out so the
/// server's supervised `regenerate` runs the identical pass (and the
/// same pass on bisected sub-samples) without duplicating the ordering,
/// which is load-bearing: pruning must precede dominance removal.
///
/// Runs to completion; [`regeneration_pass_until`] is the same pass under
/// a deadline.
pub fn regeneration_pass(
    sample: &[&HttpPacket],
    normal: &[&HttpPacket],
    config: &PipelineConfig,
) -> SignatureSet {
    recorded_pass(sample, normal, config, par::NEVER).expect("a pass with no deadline completes")
}

/// [`regeneration_pass`] that gives up at `deadline`: `None` once the
/// deadline has passed, whether the pass noticed it mid-stage or only on
/// finishing. Every parallel job of the feature and matrix stages checks
/// the deadline before it starts, and the clustering checks it between
/// merges, so the pass stops within one job of the deadline and leaves
/// no worker running; no partial stage output reaches the next stage.
pub fn regeneration_pass_until(
    sample: &[&HttpPacket],
    normal: &[&HttpPacket],
    config: &PipelineConfig,
    deadline: Instant,
) -> Option<SignatureSet> {
    recorded_pass(sample, normal, config, &|| Instant::now() >= deadline)
}

/// [`pass`] under the production compressor, its timings parked for
/// [`take_last_timings`] when it completes.
fn recorded_pass(
    sample: &[&HttpPacket],
    normal: &[&HttpPacket],
    config: &PipelineConfig,
    expired: par::Expired<'_>,
) -> Option<SignatureSet> {
    let generated = pass(Lzss::default(), sample, normal, config, expired)?;
    *LAST_TIMINGS.lock().unwrap_or_else(|e| e.into_inner()) = Some(generated.timings);
    Some(generated.set)
}

/// The §IV pass every published or evaluated set goes through: generate
/// (gate deferred) → [`prune_against_normal`] → structural gate →
/// [`drop_dominated`] → dead-signature removal. Returns the set with
/// `clusters` and `timings.prune_ms` filled in, or `None` once
/// `expired()` turns true.
fn pass<C: leaksig_compress::Compressor + Sync>(
    compressor: C,
    sample: &[&HttpPacket],
    normal: &[&HttpPacket],
    config: &PipelineConfig,
    expired: par::Expired<'_>,
) -> Option<GeneratedSignatures> {
    // Defer the deploy gate past benign pruning: gate-time dead-signature
    // removal must not let a general signature swallow its specific
    // children before validation has had a chance to reject it.
    let mut gen_config = config.clone();
    gen_config.deploy_gate = false;
    let mut generated = generate(compressor, sample, &gen_config, expired)?;
    let set = &mut generated.set;
    let t = Instant::now();
    // One engine serves benign pruning and dominance: a survivor mask
    // carries the pruning and gate verdicts into the dominance scan.
    let engine =
        crate::engine::CompiledDetector::compile(set, crate::detect::MatchMode::Conjunction);
    let mut keep = vec![true; set.len()];
    if let Some(v) = config.fp_validation {
        mark_benign_hits(&engine, normal, v.max_hits, &mut keep);
    }
    if config.deploy_gate {
        for (k, sig) in keep.iter_mut().zip(&set.signatures) {
            *k &= structurally_clean(sig);
        }
    }
    mark_dominated(&engine, &set.signatures, &mut keep);
    retain_marked(set, &keep);
    // The syntactic dominance test above skips dominators with more
    // tokens than the dominated signature; the analyzer's proved verdicts
    // catch the remainder, so the published artifact clears the A001/A002
    // gate.
    crate::analyze::drop_dead(set);
    generated.timings.prune_ms = ms_since(t);
    (!expired()).then_some(generated)
}

/// Keep the signatures whose `keep` entry is set.
fn retain_marked(set: &mut SignatureSet, keep: &[bool]) {
    let mut keep = keep.iter();
    set.signatures.retain(|_| *keep.next().unwrap());
}

/// Whether `sig` carries no Error-level per-signature audit finding
/// under the *default* policy: the deploy gate's structural half (see the
/// gate comment in `generate_signatures_counted` for why the caller's
/// loosened `config.signature` is deliberately not consulted).
fn structurally_clean(sig: &ConjunctionSignature) -> bool {
    !crate::audit::signature_structure(sig, &crate::audit::AuditConfig::default())
        .iter()
        .any(|d| d.severity == crate::audit::Severity::Error)
}

/// Drop every signature that fails [`structurally_clean`].
fn retain_structurally_clean(set: &mut SignatureSet) {
    set.signatures.retain(structurally_clean);
}

/// Remove signatures whose token set is a superset of another signature's
/// (same-field containment): whatever the superset matches, the more
/// general signature already matches, so the superset is dead weight. This
/// collapses the leaf-level singleton explosion under
/// [`ClusterSelection::AllNodes`].
///
/// A dominates B when A ≠ B, A has no more tokens than B, their token
/// lists differ, and every token of A lies inside some token of B in the
/// same field. The set is compiled once as a conjunction engine and each
/// B's tokens are scanned as that engine's haystacks, one segment per
/// token: the signatures it reports are exactly those whose every token
/// occurs in some token of B.
///
/// Run this **after** [`prune_against_normal`]: a general signature that
/// validation later rejects must not have swallowed its specific children
/// first.
pub fn drop_dominated(set: &mut SignatureSet) {
    let engine =
        crate::engine::CompiledDetector::compile(set, crate::detect::MatchMode::Conjunction);
    let mut keep = vec![true; set.len()];
    mark_dominated(&engine, &set.signatures, &mut keep);
    retain_marked(set, &keep);
}

/// The dominance test of [`drop_dominated`] among the signatures `keep`
/// marks, over `engine` compiled from all of `signatures`: clears the
/// mark of every marked signature a marked other dominates. A conjunction
/// match depends on the signature's own tokens alone, so an engine over a
/// superset reports the marked signatures exactly as one compiled from
/// them would.
fn mark_dominated(
    engine: &crate::engine::CompiledDetector,
    signatures: &[ConjunctionSignature],
    keep: &mut [bool],
) {
    let mut scratch = engine.scratch();
    let mut hits: Vec<u32> = Vec::new();
    fn token_list(s: &ConjunctionSignature) -> impl Iterator<Item = (Field, &[u8])> {
        s.tokens.iter().map(|t| (t.field, t.bytes()))
    }
    let dominated: Vec<bool> = signatures
        .iter()
        .enumerate()
        .map(|(b, sig_b)| {
            if !keep[b] {
                return false;
            }
            engine.matched_segments_into(&mut scratch, token_list(sig_b), &mut hits);
            hits.iter().any(|&a| {
                let (a, sig_a) = (a as usize, &signatures[a as usize]);
                keep[a]
                    && a != b
                    && sig_a.tokens.len() <= sig_b.tokens.len()
                    && token_list(sig_a).ne(token_list(sig_b))
            })
        })
        .collect();
    for (k, d) in keep.iter_mut().zip(dominated) {
        *k &= !d;
    }
}

/// Outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// Raw confusion counts.
    pub counts: Counts,
    /// Rates derived from the counts.
    pub rates: Rates,
    /// Number of clusters the cut produced (≥ number of signatures).
    pub clusters: usize,
    /// The generated signature set.
    pub signatures: SignatureSet,
    /// Per-stage wall-clock of the generation pass (including pruning).
    pub timings: StageTimings,
    /// Which dataset packets were drawn into the `N`-packet sample.
    pub sampled: Vec<bool>,
}

/// Run the full §V experiment: sample `n` packets from the suspicious
/// group (per `sensitive`), generate signatures, apply them to the entire
/// dataset, and evaluate with the paper's formulas.
pub fn run_experiment(
    packets: &[HttpPacket],
    sensitive: &[bool],
    n: usize,
    config: &PipelineConfig,
) -> ExperimentOutcome {
    let refs: Vec<&HttpPacket> = packets.iter().collect();
    run_experiment_refs(&refs, sensitive, n, config)
}

/// [`run_experiment`] over borrowed packets (avoids cloning a large
/// dataset into a contiguous slice).
pub fn run_experiment_refs(
    packets: &[&HttpPacket],
    sensitive: &[bool],
    n: usize,
    config: &PipelineConfig,
) -> ExperimentOutcome {
    run_experiment_with(Lzss::default(), packets, sensitive, n, config)
}

/// [`run_experiment_refs`] under an explicit NCD compressor (the ablation
/// benchmark swaps in LZW). The sample is `n` suspicious packets drawn
/// under `config.sample_seed`; the benign validation slice is drawn under
/// `sample_seed ^ 0x4650`. Both go through the same pass as
/// [`regeneration_pass`].
pub fn run_experiment_with<C: leaksig_compress::Compressor + Sync>(
    compressor: C,
    packets: &[&HttpPacket],
    sensitive: &[bool],
    n: usize,
    config: &PipelineConfig,
) -> ExperimentOutcome {
    assert_eq!(packets.len(), sensitive.len());
    let draw = |want: bool, seed: u64, k: usize| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..packets.len())
            .filter(|&i| sensitive[i] == want)
            .collect();
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
        idx.truncate(k);
        idx
    };
    let suspicious = draw(true, config.sample_seed, n);
    let normal = match config.fp_validation {
        Some(v) => draw(false, config.sample_seed ^ 0x4650, v.sample),
        None => Vec::new(),
    };
    let sample: Vec<&HttpPacket> = suspicious.iter().map(|&i| packets[i]).collect();
    let normal: Vec<&HttpPacket> = normal.iter().map(|&i| packets[i]).collect();
    let mut sampled = vec![false; packets.len()];
    for &i in &suspicious {
        sampled[i] = true;
    }

    let generated = pass(compressor, &sample, &normal, config, par::NEVER)
        .expect("a pass with no deadline completes");

    // Detect over the full dataset.
    let detector = Detector::new(generated.set);
    let detected = detector.scan(packets.iter().copied());

    let counts = tally(sensitive, &detected, &sampled);
    ExperimentOutcome {
        rates: counts.rates(),
        counts,
        clusters: generated.clusters,
        signatures: SignatureSet {
            signatures: detector.signatures().to_vec(),
        },
        timings: generated.timings,
        sampled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::agglomerate;
    use crate::matrix::pairwise;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    /// Held by every test here that runs [`regeneration_pass`]: the pass
    /// parks its timings in the process-global `LAST_TIMINGS`, so a
    /// concurrent pass would refill the slot between another test's take
    /// and its drain check.
    static PASS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn pass_lock() -> std::sync::MutexGuard<'static, ()> {
        PASS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hand-built mini market: two leaking ad modules + benign traffic.
    fn mini_dataset() -> (Vec<HttpPacket>, Vec<bool>) {
        let mut packets = Vec::new();
        let mut labels = Vec::new();
        // Module A: imei leak to ad-maker.info.
        for slot in 0..30 {
            packets.push(
                RequestBuilder::get("/getad")
                    .query("imei", "355195000000017")
                    .query("slot", &slot.to_string())
                    .query("fmt", "json")
                    .destination(Ipv4Addr::new(203, 0, 113, 10), 80, "ad-maker.info")
                    .build(),
            );
            labels.push(true);
        }
        // Module B: hashed android id to minor network.
        for seq in 0..30 {
            packets.push(
                RequestBuilder::post("/imp")
                    .form("udid", "dd72cbaeab8d2e442d92e90c2e829e4b")
                    .form("seq", &format!("{seq:05}"))
                    .destination(Ipv4Addr::new(198, 51, 100, 7), 80, "imp.zeikato.net")
                    .build(),
            );
            labels.push(true);
        }
        // Benign content + API traffic.
        for i in 0..90 {
            packets.push(
                RequestBuilder::get("/img")
                    .query("file", &format!("{i:06x}.png"))
                    .destination(
                        Ipv4Addr::new(210, 12, (i % 7) as u8, 9),
                        80,
                        "cdn.mobika.jp",
                    )
                    .build(),
            );
            labels.push(false);
        }
        (packets, labels)
    }

    #[test]
    fn experiment_on_mini_dataset_detects_modules() {
        let (packets, labels) = mini_dataset();
        let out = run_experiment(&packets, &labels, 20, &PipelineConfig::default());
        assert!(out.counts.sample_n == 20);
        assert!(
            out.rates.true_positive > 0.8,
            "TP {} with {} signatures from {} clusters",
            out.rates.true_positive,
            out.signatures.len(),
            out.clusters
        );
        assert!(
            out.rates.false_positive < 0.05,
            "FP {}",
            out.rates.false_positive
        );
        assert!(out.rates.false_negative < 0.2);
    }

    #[test]
    fn clustering_separates_the_two_modules() {
        let (packets, _) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets[..60].iter().collect();
        let cfg = PipelineConfig::default();
        let set = generate_signatures(&sample, &cfg);
        // At least one signature per module; identifiers captured.
        assert!(set.len() >= 2, "got {} signatures", set.len());
        let all_tokens: Vec<&[u8]> = set
            .signatures
            .iter()
            .flat_map(|s| s.tokens.iter().map(|t| t.bytes()))
            .collect();
        let has = |needle: &[u8]| {
            all_tokens
                .iter()
                .any(|t| t.windows(needle.len()).any(|w| w == needle))
        };
        assert!(has(b"355195000000017"), "imei token missing");
        assert!(
            has(b"dd72cbaeab8d2e442d92e90c2e829e4b"),
            "md5 token missing"
        );
    }

    #[test]
    fn zero_sample_yields_no_signatures_and_zero_rates() {
        let (packets, labels) = mini_dataset();
        let out = run_experiment(&packets, &labels, 0, &PipelineConfig::default());
        assert!(out.signatures.is_empty());
        assert_eq!(out.rates.true_positive, 0.0);
        assert_eq!(out.rates.false_positive, 0.0);
        assert_eq!(out.rates.false_negative, 1.0);
    }

    #[test]
    fn sample_larger_than_suspicious_group_is_clamped() {
        let (packets, labels) = mini_dataset();
        let out = run_experiment(&packets, &labels, 10_000, &PipelineConfig::default());
        assert_eq!(out.counts.sample_n, 60);
    }

    /// §VI regression: with the generation filters loosened so that
    /// boilerplate-only (`POST *`-style) candidates survive extraction,
    /// the deploy gate still refuses them by default; only the explicit
    /// `deploy_gate: false` override lets them through.
    #[test]
    fn deploy_gate_refuses_boilerplate_only_signatures() {
        // Two POSTs sharing nothing beyond the 8-byte "POST /x?" prefix:
        // under the default anchor filter this cluster yields nothing.
        let mk = |v: &str| {
            RequestBuilder::post(&format!("/x?{v}"))
                .destination(Ipv4Addr::LOCALHOST, 80, "x.jp")
                .build()
        };
        let (a, b) = (mk("aaaaaa111111"), mk("zzzzzz999999"));
        let mut loose = PipelineConfig::default();
        loose.signature.min_anchor_len = 3;
        loose.signature.boilerplate.clear();
        // Singletons tokenize whole (specific) request lines and would
        // rightly pass the gate; the §VI hazard is the cluster signature.
        loose.signature.include_singletons = false;

        let gated = generate_signatures(&[&a, &b], &loose);
        assert!(
            gated.is_empty(),
            "gate must drop §VI candidates: {:?}",
            gated.signatures
        );

        let ungated = generate_signatures(&[&a, &b], &{
            let mut cfg = loose.clone();
            cfg.deploy_gate = false;
            cfg
        });
        assert!(
            !ungated.is_empty(),
            "override must admit what generation produced"
        );
        // And what the override admitted is exactly what the audit flags.
        assert!(crate::audit::deploy_check(&ungated).is_err());
    }

    /// The default publish path on clean input produces sets with zero
    /// Error-level findings — the gate never bites on the happy path.
    /// The gated artifact is [`regeneration_pass`]'s output (what the
    /// collection server actually publishes): raw generation under
    /// `AllNodes` may legitimately carry dominance pairs that the
    /// pass's dominated-signature removal then strips.
    #[test]
    fn default_generation_passes_the_deploy_gate() {
        let _pass = pass_lock();
        let (packets, sensitive) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets[..60].iter().collect();
        let normal: Vec<&HttpPacket> = packets
            .iter()
            .enumerate()
            .filter(|(i, _)| !sensitive[*i])
            .map(|(_, p)| p)
            .collect();
        let set = regeneration_pass(&sample, &normal, &PipelineConfig::default());
        assert!(!set.is_empty());
        crate::audit::deploy_check(&set).expect("clean regeneration is gate-clean");
    }

    /// The regeneration pass leaves no signature the analyzer can prove
    /// dead: the published artifact clears the semantic A001/A002 gate,
    /// including dominators the syntactic dominance test skips.
    #[test]
    fn regeneration_output_has_no_proved_dead_signatures() {
        let _pass = pass_lock();
        let (packets, sensitive) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets[..60].iter().collect();
        let normal: Vec<&HttpPacket> = packets
            .iter()
            .enumerate()
            .filter(|(i, _)| !sensitive[*i])
            .map(|(_, p)| p)
            .collect();
        let set = regeneration_pass(&sample, &normal, &PipelineConfig::default());
        let dead = crate::analyze::dead_signatures(&set);
        assert!(dead.is_empty(), "proved-dead survivors: {dead:?}");
    }

    /// The engine-scan [`drop_dominated`] keeps exactly the signatures
    /// the naive O(S²·T²) definition keeps — pinned on a hand-built set:
    /// equal sets (kept), field-mismatch (kept), shorter-token
    /// containment (dropped), and a longer-set non-dominator.
    #[test]
    fn drop_dominated_matches_naive_definition() {
        use crate::signature::{ConjunctionSignature, Field, FieldToken};

        let tok = |field: Field, bytes: &str| FieldToken::new(field, bytes.as_bytes());
        let sig = |id: u32, tokens: Vec<FieldToken>| ConjunctionSignature {
            id,
            tokens,
            cluster_size: 1,
            hosts: Vec::new(),
        };
        let set = SignatureSet {
            signatures: vec![
                // General: single short token. Dominates 1 and 3.
                sig(0, vec![tok(Field::RequestLine, "imei=")]),
                // Specific superset of 0 in the same field.
                sig(1, vec![tok(Field::RequestLine, "imei=355195000000017")]),
                // Same token, different field: no domination either way.
                sig(2, vec![tok(Field::Body, "imei=")]),
                // Two tokens, one containing 0's: dominated by 0.
                sig(
                    3,
                    vec![
                        tok(Field::RequestLine, "x-imei=42"),
                        tok(Field::Cookie, "session"),
                    ],
                ),
                // Exact duplicate token set of 2: neither drops the other.
                sig(4, vec![tok(Field::Body, "imei=")]),
            ],
        };

        let naive_survivors = |set: &SignatureSet| -> Vec<u32> {
            let contains = |hay: &[u8], nee: &[u8]| hay.windows(nee.len()).any(|w| w == nee);
            let views: Vec<Vec<(u8, &[u8])>> = set
                .signatures
                .iter()
                .map(|s| {
                    s.tokens
                        .iter()
                        .map(|t| (t.field as u8, t.bytes()))
                        .collect()
                })
                .collect();
            set.signatures
                .iter()
                .enumerate()
                .filter(|&(b, _)| {
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
                .map(|(_, s)| s.id)
                .collect()
        };

        let expected = naive_survivors(&set);
        assert_eq!(expected, vec![0, 2, 4], "naive oracle sanity");

        let mut pruned = set;
        drop_dominated(&mut pruned);
        let got: Vec<u32> = pruned.signatures.iter().map(|s| s.id).collect();
        assert_eq!(got, expected);
    }

    /// The counted generation reports the same cluster diagnostic the
    /// experiment driver used to recompute from scratch.
    #[test]
    fn counted_clusters_match_recomputed_semantics() {
        let (packets, _) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets[..40].iter().collect();
        let cfg = PipelineConfig::default();
        let generated = generate_signatures_counted(Lzss::default(), &sample, &cfg);
        let expected = match cfg.selection {
            ClusterSelection::AllNodes { .. } => 2 * sample.len() - 1,
            ClusterSelection::Cut(threshold) => {
                let dist = PacketDistance::new(Lzss::default(), cfg.distance);
                let features: Vec<_> = sample.iter().map(|p| dist.features(p)).collect();
                agglomerate(&pairwise(&dist, &features))
                    .cut(threshold)
                    .len()
            }
        };
        assert_eq!(generated.clusters, expected);
        type SigShape = Vec<(u32, Vec<(u8, Vec<u8>)>)>;
        let shape = |set: &SignatureSet| -> SigShape {
            set.signatures
                .iter()
                .map(|s| {
                    (
                        s.id,
                        s.tokens
                            .iter()
                            .map(|t| (t.field as u8, t.bytes().to_vec()))
                            .collect(),
                    )
                })
                .collect()
        };
        assert_eq!(
            shape(&generated.set),
            shape(&generate_signatures(&sample, &cfg))
        );

        let empty = generate_signatures_counted(Lzss::default(), &[], &cfg);
        assert_eq!(empty.clusters, 0);
        assert!(empty.set.is_empty());
    }

    /// Chunked parallel feature extraction preserves order and content —
    /// the distance between any two extracted features is bit-identical
    /// to the serial path (110 packets, comfortably past the serial
    /// cutoff).
    #[test]
    fn parallel_feature_extraction_matches_serial() {
        let packets: Vec<HttpPacket> = (0..110)
            .map(|i| {
                RequestBuilder::get("/t")
                    .query("i", &i.to_string())
                    .query("imei", "355195000000017")
                    .destination(Ipv4Addr::new(203, 0, 113, (i % 200) as u8), 80, "p.example")
                    .build()
            })
            .collect();
        let refs: Vec<&HttpPacket> = packets.iter().collect();
        let dist: PacketDistance = PacketDistance::default();
        let par = extract_features(&dist, &refs, par::NEVER).unwrap();
        let ser: Vec<_> = refs.iter().map(|p| dist.features(p)).collect();
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.ip, s.ip);
            assert_eq!(p.rline, s.rline);
        }
        for (i, j) in [(0, 1), (0, 109), (54, 55), (63, 64), (107, 3)] {
            assert_eq!(
                dist.packet(&par[i], &par[j]),
                dist.packet(&ser[i], &ser[j]),
                "({i},{j})"
            );
        }
    }

    /// `regeneration_pass` parks its stage timings for the reporter;
    /// `take_last_timings` drains them exactly once.
    #[test]
    fn regeneration_pass_records_stage_timings() {
        let _pass = pass_lock();
        let (packets, labels) = mini_dataset();
        let sample: Vec<&HttpPacket> = packets
            .iter()
            .zip(&labels)
            .filter(|&(_, &l)| l)
            .map(|(p, _)| p)
            .collect();
        let normal: Vec<&HttpPacket> = packets
            .iter()
            .zip(&labels)
            .filter(|&(_, &l)| !l)
            .map(|(p, _)| p)
            .collect();
        let _ = take_last_timings();
        let set = regeneration_pass(&sample, &normal, &PipelineConfig::default());
        assert!(!set.is_empty());
        let t = take_last_timings().expect("pass records timings");
        assert!(t.matrix_ms >= 0.0 && t.total_ms() >= t.matrix_ms);
        let line = t.event_line();
        assert!(line.contains("matrix") && line.contains("prune"), "{line}");
        assert!(take_last_timings().is_none(), "take must drain");
    }

    /// A pass whose deadline has already passed returns no set, records
    /// no timings, and starts no matrix job: every job checks the
    /// deadline first, so the counting compressor sees no concatenation.
    #[test]
    fn a_pass_past_its_deadline_returns_no_set() {
        let _pass = pass_lock();
        let (packets, labels) = mini_dataset();
        let (sample, normal): (Vec<&HttpPacket>, Vec<&HttpPacket>) = {
            let (s, n): (Vec<_>, Vec<_>) = packets.iter().zip(&labels).partition(|&(_, &l)| l);
            (
                s.into_iter().map(|(p, _)| p).collect(),
                n.into_iter().map(|(p, _)| p).collect(),
            )
        };
        let cfg = PipelineConfig::default();
        let _ = take_last_timings();
        let deadline = Instant::now();
        assert!(regeneration_pass_until(&sample, &normal, &cfg, deadline).is_none());
        assert!(
            take_last_timings().is_none(),
            "a cancelled pass records nothing"
        );

        let counting = crate::matrix::tests::CountingLzss::default();
        let calls = std::sync::Arc::clone(&counting.calls);
        let past = || Instant::now() >= deadline;
        assert!(pass(counting, &sample, &normal, &cfg, &past).is_none());
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 0);

        // The same pass with a deadline far off publishes what the
        // untimed pass does.
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let timed = regeneration_pass_until(&sample, &normal, &cfg, far).expect("in time");
        let untimed = regeneration_pass(&sample, &normal, &cfg);
        assert_eq!(crate::wire::encode(&timed), crate::wire::encode(&untimed));
        let _ = take_last_timings();
    }

    #[test]
    fn determinism_under_seed() {
        let (packets, labels) = mini_dataset();
        let a = run_experiment(&packets, &labels, 25, &PipelineConfig::default());
        let b = run_experiment(&packets, &labels, 25, &PipelineConfig::default());
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.signatures.len(), b.signatures.len());
        let cfg = PipelineConfig {
            sample_seed: 999,
            ..Default::default()
        };
        let c = run_experiment(&packets, &labels, 25, &cfg);
        // Different sample, potentially different counts — but same totals.
        assert_eq!(c.counts.sensitive_total, a.counts.sensitive_total);
    }
}
