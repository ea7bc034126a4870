//! The detector: apply a signature set to packets.
//!
//! Matching runs on the compiled engine ([`crate::engine`]): construction
//! compiles the set's tokens into per-field multi-pattern automata once,
//! and every `match_*` call is a linear pass over the packet's bytes
//! regardless of signature count. [`Detector::scan`] additionally fans a
//! large batch out across cores with scoped threads (mirroring
//! [`crate::matrix::pairwise`]), one scratch per worker.

use crate::engine::{CompiledDetector, FieldBytes, ScanScratch};
use crate::signature::{ConjunctionSignature, SignatureSet};
use leaksig_http::{HttpPacket, PacketView, ParseArena, ParseLimits};
use std::net::Ipv4Addr;
use std::sync::Mutex;

/// How a signature is judged against a packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatchMode {
    /// Every token must be present (the paper's conjunction semantics).
    Conjunction,
    /// At least this fraction of tokens must be present — *probabilistic
    /// signatures*, the §VI future-work extension. `Fraction(1.0)` is
    /// equivalent to [`MatchMode::Conjunction`].
    Fraction(f64),
}

/// A compiled signature set ready for high-volume matching.
#[derive(Debug)]
pub struct Detector {
    set: SignatureSet,
    engine: CompiledDetector,
    /// Scratch for the single-packet entry points; batch scans use
    /// per-thread scratches instead of contending on this lock.
    scratch: Mutex<ScanScratch>,
}

impl Clone for Detector {
    fn clone(&self) -> Self {
        Detector {
            set: self.set.clone(),
            engine: self.engine.clone(),
            scratch: Mutex::new(self.engine.scratch()),
        }
    }
}

/// A positive detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Id of the first matching signature.
    pub signature_id: u32,
}

/// A detection with the evidence a user-facing prompt needs: which
/// signature fired, where its cluster's traffic was headed, and the
/// matched invariant tokens (rendered lossily for display).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// Id of the matching signature.
    pub signature_id: u32,
    /// Destinations observed in the signature's source cluster.
    pub hosts: Vec<String>,
    /// The tokens that matched, longest first, as display strings.
    pub matched_tokens: Vec<String>,
}

/// One raw request to scan: wire bytes plus the destination the capture
/// was headed to.
#[derive(Debug, Clone, Copy)]
pub struct RawPacket<'a> {
    /// The raw request bytes as received.
    pub raw: &'a [u8],
    /// Destination IPv4 address.
    pub ip: Ipv4Addr,
    /// Destination TCP port.
    pub port: u16,
}

/// The verdict for one scanned packet on the zero-copy path: the first
/// matching signature's wire id, and whether the bytes failed to parse at
/// all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanVerdict {
    /// Wire id of the first matching signature, if any.
    pub matched: Option<u32>,
    /// The bytes were rejected by the parser: no fields were scanned.
    pub parse_failed: bool,
}

impl ScanVerdict {
    const PARSE_FAILED: ScanVerdict = ScanVerdict {
        matched: None,
        parse_failed: true,
    };
}

/// A reusable per-thread scanning context over a [`Detector`]'s engine:
/// automaton scratch, parse arena, and verdict buffer all persist across
/// calls, so steady-state scanning performs no per-packet allocation.
/// Obtain one per worker thread via [`Detector::scanner`].
#[derive(Debug)]
pub struct PacketScanner<'d> {
    engine: &'d CompiledDetector,
    scratch: ScanScratch,
    arena: ParseArena,
    verdicts: Vec<ScanVerdict>,
}

impl PacketScanner<'_> {
    /// Scan a borrowed packet view (already parsed). Allocation-free.
    /// Reads the raw request-line bytes, so for a view whose line is not
    /// UTF-8 ([`PacketView::is_utf8_line`]) the verdict can differ from
    /// its materialised packet's; [`PacketScanner::scan_raw`] handles
    /// that case.
    pub fn scan_view(&mut self, view: &PacketView<'_>) -> ScanVerdict {
        self.scan_fields(FieldBytes::from_view(view))
    }

    /// Scan pre-extracted field bytes. Allocation-free.
    pub fn scan_fields(&mut self, fields: FieldBytes<'_>) -> ScanVerdict {
        let first = self.engine.verdict(&mut self.scratch, fields);
        self.verdict(first.map(|i| i as usize))
    }

    fn verdict(&self, first: Option<usize>) -> ScanVerdict {
        ScanVerdict {
            matched: first.map(|i| self.engine.wire_id(i)),
            parse_failed: false,
        }
    }

    /// Scan an owned packet. Allocation-free once warm, like the borrowed
    /// entry points.
    pub fn scan_packet(&mut self, packet: &HttpPacket) -> ScanVerdict {
        let first = self.engine.match_first(&mut self.scratch, packet);
        self.verdict(first)
    }

    /// Parse raw wire bytes with the zero-copy parser and scan the view.
    /// A request line that is not UTF-8 is scanned as its lossy-decoded
    /// packet instead, because signature tokens are cut from packets and
    /// so hold U+FFFD where the raw line holds invalid bytes. Verdicts
    /// therefore equal the owned path's. Parser rejects yield a
    /// `parse_failed` verdict.
    pub fn scan_raw(
        &mut self,
        raw: &[u8],
        ip: Ipv4Addr,
        port: u16,
        limits: &ParseLimits,
    ) -> ScanVerdict {
        // Views are transient here (dead before the next parse), so the
        // arena is recycled per call and never grows past one packet.
        self.arena.reset();
        match leaksig_http::parse_request_view(raw, ip, port, limits, &mut self.arena) {
            Ok(view) if view.is_utf8_line() => self.scan_view(&view),
            Ok(view) => self.scan_packet(&view.to_packet(&self.arena)),
            Err(_) => ScanVerdict::PARSE_FAILED,
        }
    }

    /// Scan a batch of raw records, reusing the scanner's verdict buffer
    /// (valid until the next call). The streaming entry point for ingest
    /// loops: batch-amortized O(1) allocations per packet.
    pub fn scan_batch<'a>(
        &mut self,
        records: impl IntoIterator<Item = RawPacket<'a>>,
        limits: &ParseLimits,
    ) -> &[ScanVerdict] {
        self.verdicts.clear();
        for r in records {
            let v = self.scan_raw(r.raw, r.ip, r.port, limits);
            self.verdicts.push(v);
        }
        &self.verdicts
    }
}

impl Detector {
    /// Compile a signature set for conjunction matching. Construction is
    /// where the multi-pattern automata are built — install/restore time
    /// on a device, never the per-packet path.
    pub fn new(set: SignatureSet) -> Self {
        Self::with_mode(set, MatchMode::Conjunction)
    }

    /// Compile a signature set with an explicit match mode.
    pub fn with_mode(set: SignatureSet, mode: MatchMode) -> Self {
        if let MatchMode::Fraction(f) = mode {
            assert!(
                (0.0..=1.0).contains(&f) && f > 0.0,
                "fraction threshold must be in (0, 1], got {f}"
            );
        }
        let engine = CompiledDetector::compile(&set, mode);
        let scratch = Mutex::new(engine.scratch());
        Detector {
            set,
            engine,
            scratch,
        }
    }

    /// A reusable scanning context borrowing this detector's engine.
    /// Allocate one per worker thread; every scan call after warmup is
    /// allocation-free.
    pub fn scanner(&self) -> PacketScanner<'_> {
        PacketScanner {
            engine: &self.engine,
            scratch: self.engine.scratch(),
            arena: ParseArena::new(),
            verdicts: Vec::new(),
        }
    }

    /// Batch-scan raw records on the zero-copy path, fanning large
    /// batches out across cores (contiguous chunks, one scanner per
    /// worker — the verdict vector is deterministic whatever the thread
    /// count).
    pub fn scan_batch(&self, records: &[RawPacket<'_>], limits: &ParseLimits) -> Vec<ScanVerdict> {
        self.chunked(records, ScanVerdict::PARSE_FAILED, |scanner, r| {
            scanner.scan_raw(r.raw, r.ip, r.port, limits)
        })
    }

    /// Map `scan` over `items` with one [`PacketScanner`] per worker:
    /// serially for small inputs or a single core, otherwise in
    /// contiguous chunks across all available cores (results in input
    /// order whatever the thread count).
    fn chunked<T: Sync, R: Copy + Send>(
        &self,
        items: &[T],
        fill: R,
        scan: impl Fn(&mut PacketScanner<'_>, &T) -> R + Sync,
    ) -> Vec<R> {
        /// Below this, thread spawn overhead beats the win.
        const PAR_THRESHOLD: usize = 256;
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        if items.len() < PAR_THRESHOLD || threads < 2 {
            let mut scanner = self.scanner();
            return items.iter().map(|it| scan(&mut scanner, it)).collect();
        }
        let mut out = vec![fill; items.len()];
        let chunk = items.len().div_ceil(threads);
        let scan = &scan;
        crossbeam::scope(|scope| {
            let mut handles = Vec::new();
            for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
                handles.push(scope.spawn(move |_| {
                    let mut scanner = self.scanner();
                    for (it, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = scan(&mut scanner, it);
                    }
                }));
            }
            for h in handles {
                h.join().expect("scan worker panicked");
            }
        })
        .expect("crossbeam scope");
        out
    }

    /// The underlying signatures.
    pub fn signatures(&self) -> &[ConjunctionSignature] {
        &self.set.signatures
    }

    /// The compiled engine (introspection: pattern/state counts, or
    /// per-thread scratches for custom batch drivers).
    pub fn engine(&self) -> &CompiledDetector {
        &self.engine
    }

    /// First matching signature, if any.
    pub fn match_packet(&self, packet: &HttpPacket) -> Option<Detection> {
        let mut scratch = self.scratch.lock().expect("detector scratch");
        self.engine
            .match_first(&mut scratch, packet)
            .map(|i| Detection {
                signature_id: self.set.signatures[i].id,
            })
    }

    /// All matching signature ids (diagnostics; `match_packet` is the
    /// fast path).
    pub fn matches_all(&self, packet: &HttpPacket) -> Vec<u32> {
        let mut scratch = self.scratch.lock().expect("detector scratch");
        self.engine.matched_ids(&mut scratch, packet)
    }

    /// Like [`Detector::match_packet`], but returns the evidence for a
    /// user-facing prompt ("this request matches signature N, whose
    /// cluster sent traffic to these hosts, on these invariants").
    pub fn explain(&self, packet: &HttpPacket) -> Option<Explanation> {
        let first = {
            let mut scratch = self.scratch.lock().expect("detector scratch");
            self.engine.match_first(&mut scratch, packet)?
        };
        let sig = &self.set.signatures[first];
        let matched_tokens = sig
            .tokens
            .iter()
            .map(|t| String::from_utf8_lossy(t.bytes()).into_owned())
            .collect();
        Some(Explanation {
            signature_id: sig.id,
            hosts: sig.hosts.clone(),
            matched_tokens,
        })
    }

    /// Detection mask over a packet slice. Large batches are fanned out
    /// across all available cores in contiguous chunks (deterministic
    /// mask, whatever the thread count).
    pub fn scan<'a, I>(&self, packets: I) -> Vec<bool>
    where
        I: IntoIterator<Item = &'a HttpPacket>,
    {
        let refs: Vec<&HttpPacket> = packets.into_iter().collect();
        self.scan_refs(&refs)
    }

    /// [`Detector::scan`] over an already-collected slice.
    pub fn scan_refs(&self, packets: &[&HttpPacket]) -> Vec<bool> {
        self.chunked(packets, false, |scanner, p| {
            scanner.scan_packet(p).matched.is_some()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{signature_from_cluster, SignatureConfig};
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn sig_for(host: &str, id_param: &str, value: &str, id: u32) -> ConjunctionSignature {
        let mk = |slot: &str| {
            RequestBuilder::get("/ad")
                .query(id_param, value)
                .query("slot", slot)
                .destination(Ipv4Addr::new(203, 0, 113, 9), 80, host)
                .build()
        };
        let (a, b) = (mk("1"), (mk("2")));
        signature_from_cluster(id, &[&a, &b], &SignatureConfig::default()).unwrap()
    }

    #[test]
    fn detector_matches_and_identifies() {
        let s1 = sig_for("ad-maker.info", "imei", "355195000000017", 10);
        let s2 = sig_for("nend.net", "udid", "dd72cbaeab8d2e442d92e90c2e829e4b", 20);
        let det = Detector::new(SignatureSet {
            signatures: vec![s1, s2],
        });
        assert_eq!(det.signatures().len(), 2);

        let hit = RequestBuilder::get("/ad")
            .query("udid", "dd72cbaeab8d2e442d92e90c2e829e4b")
            .query("slot", "9")
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "nend.net")
            .build();
        assert_eq!(det.match_packet(&hit), Some(Detection { signature_id: 20 }));
        assert_eq!(det.matches_all(&hit), vec![20]);

        let miss = RequestBuilder::get("/img/x.png")
            .destination(Ipv4Addr::new(198, 51, 100, 1), 80, "cdn.example")
            .build();
        assert_eq!(det.match_packet(&miss), None);
        assert!(det.matches_all(&miss).is_empty());
    }

    #[test]
    fn scan_produces_mask() {
        let s = sig_for("ad-maker.info", "imei", "355195000000017", 1);
        let det = Detector::new(SignatureSet {
            signatures: vec![s],
        });
        let hit = RequestBuilder::get("/ad")
            .query("imei", "355195000000017")
            .query("slot", "3")
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad-maker.info")
            .build();
        let miss = RequestBuilder::get("/other")
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad-maker.info")
            .build();
        let mask = det.scan([&hit, &miss, &hit]);
        assert_eq!(mask, vec![true, false, true]);
    }

    #[test]
    fn fraction_mode_tolerates_one_renamed_token() {
        // Build a signature spanning two fields (request line + cookie),
        // then probe with a packet missing exactly the cookie token (a
        // module revision dropped its session cookie).
        let mk = |slot: &str| {
            RequestBuilder::get("/ad")
                .query("imei", "355195000000017")
                .query("slot", slot)
                .cookie("sid=abcdef12345678")
                .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad-maker.info")
                .build()
        };
        let (a, b) = (mk("1"), mk("2"));
        let sig = signature_from_cluster(5, &[&a, &b], &SignatureConfig::default()).unwrap();
        assert!(sig.tokens.len() >= 2, "need a multi-token signature");
        let set = SignatureSet {
            signatures: vec![sig],
        };
        // Same module, cookie dropped: the rline tokens still match.
        let revised = RequestBuilder::get("/ad")
            .query("imei", "355195000000017")
            .query("slot", "4")
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad-maker.info")
            .build();
        let strict = Detector::new(set.clone());
        let lenient = Detector::with_mode(set.clone(), MatchMode::Fraction(0.5));
        let exact = Detector::with_mode(set, MatchMode::Fraction(1.0));
        assert_eq!(
            strict.match_packet(&revised).is_some(),
            exact.match_packet(&revised).is_some()
        );
        assert!(
            lenient.match_packet(&revised).is_some(),
            "fractional match should fire"
        );
        // An unrelated packet stays unmatched even leniently.
        let unrelated = RequestBuilder::get("/api/list")
            .query("page", "2")
            .destination(Ipv4Addr::new(198, 51, 100, 7), 80, "api.example.jp")
            .build();
        assert!(lenient.match_packet(&unrelated).is_none());
    }

    #[test]
    fn fraction_one_equals_conjunction() {
        let sig = sig_for("nend.net", "aid", "f3a9c1d200b14e77", 9);
        let set = SignatureSet {
            signatures: vec![sig],
        };
        let conj = Detector::new(set.clone());
        let frac = Detector::with_mode(set, MatchMode::Fraction(1.0));
        let probe = RequestBuilder::get("/ad")
            .query("aid", "f3a9c1d200b14e77")
            .query("slot", "2")
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "nend.net")
            .build();
        assert_eq!(conj.match_packet(&probe), frac.match_packet(&probe));
    }

    #[test]
    #[should_panic(expected = "fraction threshold")]
    fn zero_fraction_rejected() {
        let _ = Detector::with_mode(SignatureSet::default(), MatchMode::Fraction(0.0));
    }

    #[test]
    fn explanations_carry_evidence() {
        let s = sig_for("ad-maker.info", "imei", "355195000000017", 3);
        let det = Detector::new(SignatureSet {
            signatures: vec![s],
        });
        let hit = RequestBuilder::get("/ad")
            .query("imei", "355195000000017")
            .query("slot", "1")
            .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad-maker.info")
            .build();
        let ex = det.explain(&hit).expect("explained");
        assert_eq!(ex.signature_id, 3);
        assert_eq!(ex.hosts, vec!["ad-maker.info".to_string()]);
        assert!(ex
            .matched_tokens
            .iter()
            .any(|t| t.contains("355195000000017")));
        let miss = RequestBuilder::get("/other")
            .destination(Ipv4Addr::LOCALHOST, 80, "x.jp")
            .build();
        assert!(det.explain(&miss).is_none());
    }

    #[test]
    fn empty_detector_matches_nothing() {
        let det = Detector::new(SignatureSet::default());
        let p = RequestBuilder::get("/")
            .destination(Ipv4Addr::LOCALHOST, 80, "x")
            .build();
        assert_eq!(det.match_packet(&p), None);
    }
}
