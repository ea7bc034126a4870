//! A reference kernel that tracks how fast the host is running right now.
//!
//! On a shared virtual machine the same code runs up to a third slower
//! or faster from one second to the next, and regimes half again slower
//! last minutes (other tenants' load; the guest's CPU time does not show
//! it). A fixed kernel timed next to the workload measures that drift,
//! and dividing it out reports each timing at the host's nominal speed.
//! The kernels are the benchmark's own code, so no change to the program
//! moves them: a byte automaton over an L2-sized buffer (the shape of the
//! detection engine's and parsers' inner loops) for one-thread work, and
//! an LZ77 hash-chain match search on two threads at once (the shape of
//! the regeneration matrix) for the two-thread regeneration pass.

use std::hint::black_box;
use std::time::Instant;

/// Scanned buffer size in words (256 KiB: misses L1, stays in L2).
const WORDS: usize = 1 << 15;
/// Kernel iterations (4 bytes each) per run: ~0.4 ms at nominal speed.
const ITERATIONS: u64 = 25_000;
/// Kernel runs per probe (the probe reports their median).
const PROBES: usize = 5;
/// Nanoseconds a probe takes at the nominal speed: the median probe on
/// the reference host (2-vCPU VM, see the crate docs). Only ratios to it
/// matter; it fixes the scale of the reported numbers.
const NOMINAL_NS: f64 = 400_000.0;

pub struct Calib {
    table: Vec<u64>,
    trans: Vec<u16>,
    /// Request-like text for the LZ probe.
    text: Vec<u8>,
}

/// Nanoseconds one LZ probe run takes at the nominal speed.
const NOMINAL_LZ_NS: f64 = 10_000_000.0;

/// Greedy LZ77 match search with hash chains over `data` (the shape of
/// the NCD compressor behind the regeneration matrix); returns the summed
/// match lengths.
fn lz_kernel(data: &[u8]) -> u64 {
    const BITS: usize = 14;
    let mut head = vec![u32::MAX; 1 << BITS];
    let mut prev = vec![u32::MAX; data.len()];
    let mut total = 0u64;
    for i in 0..data.len().saturating_sub(2) {
        let h = ((data[i] as usize) << 10 ^ (data[i + 1] as usize) << 5 ^ data[i + 2] as usize)
            & ((1 << BITS) - 1);
        let mut cand = head[h];
        let mut best = 0;
        for _ in 0..16 {
            if cand == u32::MAX {
                break;
            }
            let c = cand as usize;
            let len = data[c..]
                .iter()
                .zip(&data[i..])
                .take(64)
                .take_while(|(a, b)| a == b)
                .count();
            best = best.max(len);
            cand = prev[c];
        }
        prev[i] = head[h];
        head[h] = i as u32;
        total += best as u64;
    }
    total
}

fn bytemuck_u8(words: &[u64]) -> &[u8] {
    // SAFETY: u8 has no alignment or validity requirements, and the byte
    // length covers exactly the words' memory.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 8) }
}

impl Calib {
    pub fn new() -> Calib {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table: Vec<u64> = (0..WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let trans = table
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(64 * 256)
            .map(|b| (b % 64) as u16)
            .collect();
        let words = [
            "GET /",
            "api/v2/",
            "ad?",
            "imei=",
            "355195",
            "&uid=",
            "a9f3",
            "&os=android",
            " HTTP/1.1\r\n",
            "Host: ",
            "ads.example.jp",
            "\r\n",
        ];
        let text = (0..4096)
            .flat_map(|i: usize| words[(i * 7 + (i >> 3) * 5) % words.len()].bytes())
            .take(16 * 1024)
            .collect();
        Calib { table, trans, text }
    }

    /// The host's slowdown factor right now (1.0 at the nominal speed,
    /// 1.3 when the kernel runs 30% slower): the median of [`PROBES`]
    /// kernel runs on this thread.
    pub fn slowdown(&self) -> f64 {
        let mut runs = [0.0; PROBES];
        for r in &mut runs {
            let t = Instant::now();
            black_box(self.kernel(ITERATIONS));
            *r = t.elapsed().as_nanos() as f64 / NOMINAL_NS;
        }
        runs.sort_by(f64::total_cmp);
        runs[PROBES / 2]
    }

    /// The slowdown of a two-thread compression workload: the slower of
    /// two LZ probes run at once on two threads, each the median of
    /// [`PROBES`] runs.
    pub fn slowdown_pair(&self) -> f64 {
        let lz = || {
            let mut runs = [0.0; PROBES];
            for r in &mut runs {
                let t = Instant::now();
                black_box(lz_kernel(&self.text));
                *r = t.elapsed().as_nanos() as f64 / NOMINAL_LZ_NS;
            }
            runs.sort_by(f64::total_cmp);
            runs[PROBES / 2]
        };
        std::thread::scope(|s| {
            let other = s.spawn(lz);
            let mine = lz();
            mine.max(other.join().expect("probe thread panicked"))
        })
    }

    /// Run `f` between two `probe`s; returns its result, its wall time in
    /// seconds, and the mean slowdown of the probes around it.
    pub fn around<T>(&self, probe: fn(&Calib) -> f64, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = probe(self);
        let t = Instant::now();
        let value = f();
        let elapsed = t.elapsed().as_secs_f64();
        (value, elapsed, (before + probe(self)) / 2.0)
    }

    fn kernel(&self, iterations: u64) -> u64 {
        // A 64-state byte automaton over the table's bytes: the shape of
        // the detection engine's scan loop.
        let bytes: &[u8] = bytemuck_u8(&self.table);
        let mut state = 0usize;
        let mut acc = 0u64;
        let mut i = 0usize;
        for _ in 0..iterations {
            for _ in 0..4 {
                let b = bytes[i & (bytes.len() - 1)] as usize;
                state = self.trans[(state << 8) | b] as usize;
                acc = acc.wrapping_add(state as u64);
                i += 1;
            }
        }
        acc
    }
}
