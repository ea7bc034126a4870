//! Workload inputs, all made before any timing starts.
//!
//! The market model (apps, destinations, device identity) is one fixed
//! netsim market, [`WORLD_SEED`] at [`SCALE`]: regeneration cost and
//! quality depend strongly on a market's shape, so varying the model per
//! seed would swamp any code change. The workload seed draws everything
//! else: the capture order (a seeded permutation, which decides the
//! training / held-out split), which images get byte-mangled, and hence
//! the regeneration sample and the held-out packets.

use leaksig_core::payload::PayloadCheck;
use leaksig_http::HttpPacket;
use leaksig_net::{encode_batch, BatchRecord};
use leaksig_netsim::{Dataset, LabeledPacket, MarketConfig, SensitiveKind};
use std::collections::HashSet;

/// Seed of the fixed market model.
pub const WORLD_SEED: u64 = 2013;
/// Market scale: ~54k packets, ~12k of them leaking.
pub const SCALE: f64 = 0.5;
/// Records per `LEAKBATCH/1` batch (the uploader's batch size).
pub const BATCH: usize = 64;
/// One image in this many is byte-mangled.
pub const MANGLE_EVERY: u64 = 20;
/// Bytes flipped in a mangled image.
const FLIPS: usize = 4;

/// The market in seeded capture order, split into a training half (what
/// the collector sees) and a held-out half (what quality is judged on).
pub struct Market {
    pub data: Dataset,
    order: Vec<usize>,
}

/// SplitMix64: a tiny, well-mixed generator for seeded permutations and
/// choices (independent of the program's own RNG).
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

impl Market {
    pub fn generate(seed: u64) -> Market {
        let data = Dataset::generate(MarketConfig::scaled(WORLD_SEED, SCALE));
        let mut order: Vec<usize> = (0..data.packets.len()).collect();
        let mut rng = SplitMix(seed ^ 0x6d61_726b_6574);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Market { data, order }
    }

    pub fn check(&self) -> PayloadCheck<SensitiveKind> {
        PayloadCheck::new(self.data.model.device.all_values())
    }

    pub fn training(&self) -> impl Iterator<Item = &LabeledPacket> {
        let half = self.order.len() / 2;
        self.order[..half].iter().map(|&i| &self.data.packets[i])
    }

    pub fn held_out(&self) -> impl Iterator<Item = &LabeledPacket> {
        let half = self.order.len() / 2;
        self.order[half..].iter().map(|&i| &self.data.packets[i])
    }

    /// The held-out half as `(packet, leaks)` pairs.
    pub fn held_out_labeled(&self) -> impl Iterator<Item = (&HttpPacket, bool)> {
        self.held_out().map(|p| (&p.packet, p.is_sensitive()))
    }

    /// The first `n` distinct suspicious packets of the market model in
    /// its own capture order: a sample that does not depend on the seed.
    pub fn model_sample(&self, n: usize) -> Vec<&LabeledPacket> {
        distinct_suspicious(&self.check(), self.data.packets.iter(), n)
    }

    /// The first `n` distinct (by wire image) packets of the training
    /// half that the payload check flags, or `None` when it holds fewer.
    pub fn distinct_suspicious(&self, n: usize) -> Option<Vec<&LabeledPacket>> {
        let picked = distinct_suspicious(&self.check(), self.training(), n);
        (picked.len() == n).then_some(picked)
    }

    /// The first `n` training packets the payload check passes as normal.
    pub fn normal(&self, n: usize) -> Vec<&LabeledPacket> {
        let check = self.check();
        self.training()
            .filter(|p| !check.is_suspicious(&p.packet))
            .take(n)
            .collect()
    }

    /// Package name of the app that sent `p`.
    pub fn app(&self, p: &LabeledPacket) -> &str {
        &self.data.model.apps[p.app].package
    }

    /// The training half as encoded `LEAKBATCH/1` batches (a partial last
    /// batch is dropped), one image in [`MANGLE_EVERY`] with a mangled
    /// request line.
    pub fn batches(&self, seed: u64) -> Vec<EncodedBatch> {
        let mut rng = SplitMix(seed ^ 0x6d61_6e67_6c65);
        let records: Vec<BatchRecord> = self
            .training()
            .map(|p| {
                let mut record = BatchRecord::from_packet(&p.packet);
                if rng.next_u64().is_multiple_of(MANGLE_EVERY) {
                    mangle_request_line(&mut record.raw, &mut rng);
                }
                record
            })
            .collect();
        records
            .chunks_exact(BATCH)
            .map(|chunk| EncodedBatch {
                wire: encode_batch(chunk),
                records: chunk.len(),
            })
            .collect()
    }
}

/// XOR [`FLIPS`] seeded bytes of the request line with nonzero masks.
///
/// Flips stay in the request line: a flip in a header value can leave an
/// image that still parses but carries a host the signature wire format
/// cannot encode, and a regeneration over a reservoir holding it is then
/// refused by the deploy gate — a failure of the program, not a
/// workload's steady state.
fn mangle_request_line(raw: &mut [u8], rng: &mut SplitMix) {
    let end = raw
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(raw.len());
    if end == 0 {
        return;
    }
    for _ in 0..FLIPS {
        let i = rng.below(end);
        raw[i] ^= (rng.next_u64() as u8) | 1;
    }
}

/// Up to `n` packets of `packets` that `check` flags, distinct by wire
/// image, in order.
fn distinct_suspicious<'a>(
    check: &PayloadCheck<SensitiveKind>,
    packets: impl Iterator<Item = &'a LabeledPacket>,
    n: usize,
) -> Vec<&'a LabeledPacket> {
    let mut seen = HashSet::new();
    packets
        .filter(|p| check.is_suspicious(&p.packet) && seen.insert(p.packet.to_bytes()))
        .take(n)
        .collect()
}

pub struct EncodedBatch {
    pub wire: Vec<u8>,
    pub records: usize,
}
