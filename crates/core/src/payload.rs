//! The payload check (§IV-A): separating traffic into the suspicious
//! group (packets containing sensitive information) and the normal group.
//!
//! The check scans a request's whole wire image — request line, every
//! header, body — for a set of needles: the device's identifier strings
//! and their MD5/SHA-1 hex digests. Because HTTP
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

/// A labelled needle set: each entry carries an opaque tag `T` returned on
/// match (the netsim `SensitiveKind` in the pipeline, anything else for
/// custom deployments).
#[derive(Debug, Clone)]
pub struct PayloadCheck<T> {
    /// The tag of every needle, indexed by its pattern id.
    tags: Vec<T>,
    /// Every needle's pattern.
    automaton: Automaton,
}

impl<T: Copy + Eq> PayloadCheck<T> {
    /// Build from `(tag, value)` pairs. Each value is compiled both raw
    /// and form-urlencoded (when the encodings differ). Values of any
    /// length work; an empty value panics, as it would match everywhere.
    pub fn new<I, V>(values: I) -> Self
    where
        I: IntoIterator<Item = (T, V)>,
        V: AsRef<[u8]>,
    {
        let mut tags = Vec::new();
        let mut needles = Vec::new();
        for (tag, value) in values {
            let raw = value.as_ref().to_vec();
            assert!(!raw.is_empty(), "empty needle");
            let encoded = query::encode_component(&raw).into_bytes();
            if encoded != raw {
                tags.push(tag);
                needles.push(encoded);
            }
            tags.push(tag);
            needles.push(raw);
        }
        let patterns: Vec<(&[u8], u32)> = needles
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_slice(), i as u32))
            .collect();
        let automaton = Automaton::build(&patterns);
        PayloadCheck { tags, automaton }
    }

    /// Number of compiled needles (including encoded variants).
    pub fn needle_count(&self) -> usize {
        self.tags.len()
    }

    /// Tags found in `bytes`, deduplicated, in needle order.
    pub fn scan_bytes(&self, bytes: &[u8]) -> Vec<T> {
        let mut hit = vec![false; self.tags.len()];
        self.automaton
            .scan(bytes, |pid, _| hit[pid as usize] = true);
        let mut found: Vec<T> = Vec::new();
        for (tag, hit) in self.tags.iter().zip(hit) {
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
    /// group? The whole wire image counts, every header included.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

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
    fn needle_finds_substrings() {
        let c = PayloadCheck::new([(Tag::Imei, "355195000000017")]);
        assert!(c.is_suspicious_bytes(b"imei=355195000000017&x=1"));
        assert!(c.is_suspicious_bytes(b"355195000000017"));
        assert!(!c.is_suspicious_bytes(b"imei=355195000000018"));
        assert!(!c.is_suspicious_bytes(b"35519500000001"));
        assert!(!c.is_suspicious_bytes(b""));
        // Values have no length cap.
        let long = "7".repeat(300);
        let c = PayloadCheck::new([(Tag::Imei, long.as_str())]);
        assert!(c.is_suspicious_bytes(format!("v={long}&x=1").as_bytes()));
        assert!(!c.is_suspicious_bytes(&long.as_bytes()[1..]));
    }

    #[test]
    fn needle_against_std_oracle() {
        let hay = b"GET /ad?aid=f3a9c1d200b14e77&carrier=NTT+DOCOMO HTTP/1.1";
        for w in 1..hay.len().min(24) {
            for start in 0..hay.len() - w {
                let pat = &hay[start..start + w];
                let c = PayloadCheck::new([(Tag::Imei, pat)]);
                assert!(c.is_suspicious_bytes(hay), "missed {pat:?}");
            }
        }
        assert!(!PayloadCheck::new([(Tag::Imei, "zzz")]).is_suspicious_bytes(hay));
    }

    #[test]
    #[should_panic(expected = "empty needle")]
    fn empty_needle_rejected() {
        let _ = PayloadCheck::new([(Tag::Imei, "")]);
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
