//! The payload check (§IV-A): separating traffic into the suspicious
//! group (packets containing sensitive information) and the normal group.
//!
//! The check scans raw request bytes for a set of needles — the device's
//! identifier strings and their MD5/SHA-1 hex digests. Because HTTP
//! transports values form-urlencoded, each needle is also matched in its
//! encoded form (`NTT DOCOMO` → `NTT+DOCOMO`); hex digests and numeric
//! identifiers are encoding-invariant but carrier names are not.
//!
//! Every needle, encoded variants included, compiles into one
//! Aho–Corasick automaton — the detection engine's byte-class DFA — so a
//! verdict is one pass over the bytes whatever the needle count. The
//! check runs over the whole 107k-packet dataset and on every record the
//! collection server admits, so that pass is a hot path.

use crate::engine::Automaton;
use leaksig_http::{query, HttpPacket};

/// A compiled search needle (Boyer–Moore–Horspool).
#[derive(Debug, Clone)]
pub struct Needle {
    pattern: Vec<u8>,
    /// Shift per trailing byte value.
    skip: [u8; 256],
}

impl Needle {
    /// Compile a needle. Patterns longer than 255 bytes would truncate the
    /// skip table; identifiers are all far shorter.
    pub fn new(pattern: impl Into<Vec<u8>>) -> Self {
        let pattern = pattern.into();
        assert!(!pattern.is_empty(), "empty needle");
        assert!(pattern.len() < 256, "needle too long for BMH skip table");
        let m = pattern.len();
        let mut skip = [m as u8; 256];
        for (i, &b) in pattern[..m - 1].iter().enumerate() {
            skip[b as usize] = (m - 1 - i) as u8;
        }
        Needle { pattern, skip }
    }

    /// The raw pattern bytes.
    pub fn pattern(&self) -> &[u8] {
        &self.pattern
    }

    /// Whether `haystack` contains the pattern.
    pub fn is_in(&self, haystack: &[u8]) -> bool {
        let m = self.pattern.len();
        let n = haystack.len();
        if m > n {
            return false;
        }
        let mut i = 0usize;
        while i + m <= n {
            if haystack[i..i + m] == self.pattern[..] {
                return true;
            }
            i += self.skip[haystack[i + m - 1] as usize] as usize;
        }
        false
    }
}

/// A labelled needle set: each entry carries an opaque tag `T` returned on
/// match (the netsim `SensitiveKind` in the pipeline, anything else for
/// custom deployments).
#[derive(Debug, Clone)]
pub struct PayloadCheck<T> {
    needles: Vec<(T, Needle)>,
    /// Every needle's pattern, with its index in `needles` as the
    /// pattern id.
    automaton: Automaton,
}

impl<T: Copy + Eq> PayloadCheck<T> {
    /// Build from `(tag, value)` pairs. Each value is compiled both raw
    /// and form-urlencoded (when the encodings differ).
    pub fn new<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = (T, V)>,
        V: AsRef<[u8]>,
    {
        let mut needles = Vec::new();
        for (tag, value) in values {
            let raw = value.as_ref().to_vec();
            let encoded = query::encode_component(&raw).into_bytes();
            if encoded != raw {
                needles.push((tag, Needle::new(encoded)));
            }
            needles.push((tag, Needle::new(raw)));
        }
        let patterns: Vec<(&[u8], u32)> = needles
            .iter()
            .enumerate()
            .map(|(i, (_, n))| (n.pattern(), i as u32))
            .collect();
        let automaton = Automaton::build(&patterns);
        PayloadCheck { needles, automaton }
    }

    /// Number of compiled needles (including encoded variants).
    pub fn needle_count(&self) -> usize {
        self.needles.len()
    }

    /// Tags found in `bytes`, deduplicated, in needle order.
    pub fn scan_bytes(&self, bytes: &[u8]) -> Vec<T> {
        let mut hit = vec![false; self.needles.len()];
        self.automaton
            .scan(bytes, |pid, _| hit[pid as usize] = true);
        let mut found: Vec<T> = Vec::new();
        for ((tag, _), hit) in self.needles.iter().zip(hit) {
            if hit && !found.contains(tag) {
                found.push(*tag);
            }
        }
        found
    }

    /// Tags found anywhere in the packet's wire bytes.
    pub fn scan(&self, packet: &HttpPacket) -> Vec<T> {
        self.scan_bytes(&packet.to_bytes())
    }

    /// The §IV-A binary verdict: does the packet belong to the suspicious
    /// group?
    pub fn is_suspicious(&self, packet: &HttpPacket) -> bool {
        self.is_suspicious_bytes(&packet.to_bytes())
    }

    /// [`is_suspicious`](Self::is_suspicious) over a wire image the
    /// caller already holds (e.g. from
    /// [`PacketView::write_wire`](leaksig_http::PacketView::write_wire)):
    /// one automaton pass that stops at the first needle. Allocation-free.
    pub fn is_suspicious_bytes(&self, bytes: &[u8]) -> bool {
        self.automaton.contains_any(bytes)
    }

    /// The distinct tags in this check, in first-appearance order. Index
    /// in the returned list = the tag's bit in a probe mask.
    pub fn distinct_tags(&self) -> Vec<T> {
        let mut tags: Vec<T> = Vec::new();
        for (tag, _) in &self.needles {
            if !tags.contains(tag) {
                tags.push(*tag);
            }
        }
        tags
    }

    /// Fold this check into the engine's single scan pass: a
    /// [`SensitiveProbe`] carrying every needle (encoded variants
    /// included) keyed by tag bit, plus the bit→tag mapping to interpret
    /// the resulting mask. Panics past 64 distinct tags (the mask is a
    /// `u64`; real deployments carry a handful of identifier kinds).
    ///
    /// Scope note: the probe classifies the three *content fields* the
    /// engine scans (request line, `Cookie`, body), while
    /// [`is_suspicious`](Self::is_suspicious) walks the full wire image
    /// including every header. Identifier leaks in other headers are
    /// invisible to the probe — the §IV distance and signature layers
    /// never see those bytes either, so the folded check classifies
    /// exactly what detection can act on.
    pub fn probe(&self) -> (crate::engine::SensitiveProbe, Vec<T>) {
        let tags = self.distinct_tags();
        assert!(tags.len() <= 64, "probe tag mask is a u64");
        let patterns = self
            .needles
            .iter()
            .map(|(tag, needle)| {
                let bit = tags.iter().position(|t| t == tag).unwrap() as u8;
                (bit, needle.pattern().to_vec())
            })
            .collect();
        (crate::engine::SensitiveProbe::new(patterns), tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn needle_finds_substrings() {
        let n = Needle::new(&b"355195000000017"[..]);
        assert!(n.is_in(b"imei=355195000000017&x=1"));
        assert!(n.is_in(b"355195000000017"));
        assert!(!n.is_in(b"imei=355195000000018"));
        assert!(!n.is_in(b"35519500000001"));
        assert!(!n.is_in(b""));
    }

    #[test]
    fn needle_against_std_oracle() {
        let hay = b"GET /ad?aid=f3a9c1d200b14e77&carrier=NTT+DOCOMO HTTP/1.1";
        for w in 1..hay.len().min(24) {
            for start in 0..hay.len() - w {
                let pat = &hay[start..start + w];
                assert!(Needle::new(pat).is_in(hay), "missed {pat:?}");
            }
        }
        assert!(!Needle::new(&b"zzz"[..]).is_in(hay));
    }

    #[test]
    #[should_panic(expected = "empty needle")]
    fn empty_needle_rejected() {
        let _ = Needle::new(Vec::new());
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Tag {
        Imei,
        Carrier,
    }

    fn check() -> PayloadCheck<Tag> {
        PayloadCheck::new([(Tag::Imei, "355195000000017"), (Tag::Carrier, "NTT DOCOMO")])
    }

    #[test]
    fn scan_tags_matches() {
        let c = check();
        assert_eq!(
            c.scan_bytes(b"imei=355195000000017&c=none"),
            vec![Tag::Imei]
        );
        assert_eq!(c.scan_bytes(b"nothing here"), Vec::<Tag>::new());
    }

    #[test]
    fn encoded_variant_is_matched() {
        let c = check();
        // Form-urlencoded carrier: space became '+'.
        assert_eq!(c.scan_bytes(b"net=NTT+DOCOMO&v=1"), vec![Tag::Carrier]);
        // Raw spelling too (e.g. in a header).
        assert_eq!(c.scan_bytes(b"X: NTT DOCOMO"), vec![Tag::Carrier]);
        assert!(c.needle_count() >= 3, "carrier needs two needles");
    }

    #[test]
    fn packet_level_scan() {
        let c = check();
        let leak = RequestBuilder::get("/ad")
            .query("imei", "355195000000017")
            .query("carrier", "NTT DOCOMO")
            .destination(Ipv4Addr::LOCALHOST, 80, "ad.example")
            .build();
        let clean = RequestBuilder::get("/img/cat.png")
            .destination(Ipv4Addr::LOCALHOST, 80, "cdn.example")
            .build();
        assert_eq!(c.scan(&leak), vec![Tag::Imei, Tag::Carrier]);
        assert!(c.is_suspicious(&leak));
        assert!(c.scan(&clean).is_empty());
        assert!(!c.is_suspicious(&clean));
    }
}
