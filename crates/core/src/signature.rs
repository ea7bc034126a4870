//! Conjunction signatures (§IV-E).
//!
//! A signature is the set of invariant tokens — maximal common substrings
//! — shared by every packet of one cluster, split per content field
//! (request-line, cookie, body). A packet matches when **all** tokens
//! occur in their respective fields (Polygraph-style conjunction).
//!
//! §VI warns that careless generation emits signatures "that match most
//! network packets (e.g. `POST *`, `GET *`, `* HTTP/1.1`)". Two filters
//! address that:
//!
//! * tokens that are substrings of protocol boilerplate are dropped;
//! * a surviving signature must retain at least one *anchor* token of a
//!   minimum length, otherwise it is discarded entirely.

use crate::engine::{contains_bytes, field_index, find_from};
use leaksig_http::HttpPacket;
use leaksig_textdist::{common_tokens, TokenConfig};

/// The HTTP content field a token is anchored to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    /// The request line.
    RequestLine,
    /// The `Cookie` header value.
    Cookie,
    /// The message body.
    Body,
}

impl Field {
    /// All fields in canonical order.
    pub const ALL: [Field; 3] = [Field::RequestLine, Field::Cookie, Field::Body];

    /// Wire-format tag.
    pub fn tag(self) -> &'static str {
        match self {
            Field::RequestLine => "rline",
            Field::Cookie => "cookie",
            Field::Body => "body",
        }
    }

    /// Parse a wire-format tag.
    pub fn from_tag(tag: &str) -> Option<Field> {
        match tag {
            "rline" => Some(Field::RequestLine),
            "cookie" => Some(Field::Cookie),
            "body" => Some(Field::Body),
            _ => None,
        }
    }
}

/// One invariant token: a non-empty byte string anchored to a field.
#[derive(Debug, Clone)]
pub struct FieldToken {
    /// Field the token is anchored to.
    pub field: Field,
    bytes: Vec<u8>,
    /// Position of this token's first occurrence in the cluster's
    /// reference member — the emission order used by
    /// [`ConjunctionSignature::matches_ordered`]. Zero when unknown.
    order_hint: u32,
}

impl FieldToken {
    /// A token with no ordering information. Panics on empty bytes: an
    /// empty token would match every packet.
    pub fn new(field: Field, bytes: impl Into<Vec<u8>>) -> Self {
        Self::with_hint(field, bytes, 0)
    }

    /// A token with a reference-position hint. Panics on empty bytes,
    /// like [`FieldToken::new`].
    pub fn with_hint(field: Field, bytes: impl Into<Vec<u8>>, order_hint: u32) -> Self {
        let bytes = bytes.into();
        assert!(!bytes.is_empty(), "empty token");
        FieldToken {
            field,
            bytes,
            order_hint,
        }
    }

    /// Field the token is anchored to (accessor form, for callers
    /// holding the token behind a reference chain).
    pub fn field(&self) -> Field {
        self.field
    }

    /// The token bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reference-position hint (see struct docs).
    pub fn order_hint(&self) -> u32 {
        self.order_hint
    }

    /// Whether the token occurs in its field, given a packet's
    /// [`field_views`].
    pub(crate) fn is_in(&self, fields: [&[u8]; 3]) -> bool {
        contains_bytes(fields[field_index(self.field)], &self.bytes)
    }
}

/// A conjunction signature generated from one cluster.
#[derive(Debug, Clone)]
pub struct ConjunctionSignature {
    /// Stable id within its [`SignatureSet`].
    pub id: u32,
    /// Tokens, longest first (most selective checked first).
    pub tokens: Vec<FieldToken>,
    /// Number of packets in the source cluster.
    pub cluster_size: usize,
    /// Distinct destination hosts observed in the source cluster
    /// (diagnostics; not used for matching).
    pub hosts: Vec<String>,
}

impl ConjunctionSignature {
    /// The tokens, longest first.
    pub fn tokens(&self) -> &[FieldToken] {
        &self.tokens
    }

    /// Tokens anchored to one field, in storage (longest-first) order.
    pub fn tokens_in(&self, field: Field) -> impl Iterator<Item = &FieldToken> {
        self.tokens.iter().filter(move |t| t.field == field)
    }

    /// Whether every token occurs in its field of `packet`.
    pub fn matches(&self, packet: &HttpPacket) -> bool {
        let rline = rline_view(packet);
        let fields = field_views(&rline, packet);
        self.tokens.iter().all(|t| t.is_in(fields))
    }

    /// Whether the tokens occur **in order** within their fields
    /// (Polygraph's token-subsequence semantics): for each field, this
    /// signature's tokens anchored to it must appear left to right at
    /// non-overlapping, increasing positions. Strictly stronger than
    /// [`ConjunctionSignature::matches`] — order adds a constraint.
    pub fn matches_ordered(&self, packet: &HttpPacket) -> bool {
        let rline = rline_view(packet);
        for (field, hay) in Field::ALL.into_iter().zip(field_views(&rline, packet)) {
            // Tokens are stored longest-first for the conjunction fast
            // path; the emission order lives in the order hints.
            let mut ordered: Vec<&FieldToken> =
                self.tokens.iter().filter(|t| t.field == field).collect();
            ordered.sort_by_key(|t| t.order_hint);
            let mut from = 0usize;
            for t in ordered {
                match find_from(hay, t.bytes(), from) {
                    Some(at) => from = at + t.bytes().len(),
                    None => return false,
                }
            }
        }
        true
    }

    /// Fraction of tokens present in their fields of `packet`
    /// (`1.0` for a conjunction match, `0.0` when nothing matches;
    /// empty-token signatures score `0.0`).
    ///
    /// This is the scoring primitive behind *probabilistic signatures*
    /// (Polygraph's probabilistic conjunction; the paper's §VI names them
    /// as future work): a packet can be flagged when *most* invariant
    /// tokens survive, which tolerates a module revision that renames one
    /// parameter without regenerating signatures.
    pub fn match_fraction(&self, packet: &HttpPacket) -> f64 {
        if self.tokens.is_empty() {
            return 0.0;
        }
        let rline = rline_view(packet);
        let fields = field_views(&rline, packet);
        let hit = self.tokens.iter().filter(|t| t.is_in(fields)).count();
        hit as f64 / self.tokens.len() as f64
    }

    /// One-call evaluation under any [`MatchMode`](crate::detect::MatchMode),
    /// agreeing with the
    /// compiled engine's semantics: [`ConjunctionSignature::matches`]
    /// for conjunction, [`ConjunctionSignature::matches_ordered`] for
    /// ordered, and `match_fraction >= t` for fraction mode.
    pub fn matches_mode(&self, mode: crate::detect::MatchMode, packet: &HttpPacket) -> bool {
        match mode {
            crate::detect::MatchMode::Conjunction => self.matches(packet),
            crate::detect::MatchMode::Ordered => self.matches_ordered(packet),
            crate::detect::MatchMode::Fraction(t) => self.match_fraction(packet) >= t,
        }
    }
}

/// The request-line text tokens are extracted from and matched against:
/// method and target only. The `HTTP/1.x` version suffix is shared by all
/// requests, and tokens straddling it (`"0 HTTP/1.1"` from a size
/// parameter ending in `0`) are §VI's match-everything hazard in a form no
/// finite stoplist can enumerate — so the version never enters the token
/// universe at all.
pub(crate) fn rline_view(packet: &HttpPacket) -> String {
    format!(
        "{} {}",
        packet.request_line.method.as_str(),
        packet.request_line.target
    )
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct SignatureConfig {
    /// Token extraction bounds per field.
    pub token: TokenConfig,
    /// A signature must keep at least one token this long, or it is
    /// discarded as boilerplate-only (§VI's `GET *` hazard).
    pub min_anchor_len: usize,
    /// Emit signatures for single-packet clusters. Their tokens are the
    /// packet's whole field contents — precise but narrow.
    pub include_singletons: bool,
    /// Drop a token when it is a substring of any of these strings.
    pub boilerplate: Vec<Vec<u8>>,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        SignatureConfig {
            token: TokenConfig {
                min_len: 5,
                max_tokens: 12,
            },
            min_anchor_len: 10,
            include_singletons: true,
            boilerplate: default_boilerplate(),
        }
    }
}

/// Protocol fragments every HTTP request shares; tokens contained in any
/// of these discriminate nothing.
fn default_boilerplate() -> Vec<Vec<u8>> {
    ["GET /", "POST /"]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect()
}

/// Generate one signature from a cluster of packets, or `None` when the
/// cluster yields nothing above the boilerplate bar.
pub fn signature_from_cluster(
    id: u32,
    packets: &[&HttpPacket],
    config: &SignatureConfig,
) -> Option<ConjunctionSignature> {
    if packets.is_empty() || (packets.len() == 1 && !config.include_singletons) {
        return None;
    }
    // Request-line strings must outlive the &[u8] views.
    let rlines: Vec<String> = packets.iter().map(|p| rline_view(p)).collect();
    let views = |field: Field| -> Vec<&[u8]> {
        match field {
            Field::RequestLine => rlines.iter().map(|s| s.as_bytes()).collect(),
            Field::Cookie => packets.iter().map(|p| p.cookie()).collect(),
            Field::Body => packets.iter().map(|p| p.body.as_slice()).collect(),
        }
    };
    let tokens = Field::ALL.map(|field| common_tokens(&views(field), config.token));
    let mut hosts: Vec<&str> = packets
        .iter()
        .map(|p| p.destination.host.as_str())
        .collect();
    hosts.sort_unstable();
    hosts.dedup();
    assemble_signature(
        id,
        &tokens,
        field_views(&rlines[0], packets[0]),
        packets.len(),
        &hosts,
        config,
    )
}

/// A packet's three content fields in [`Field::ALL`] order, with `rline`
/// its [`rline_view`].
pub(crate) fn field_views<'a>(rline: &'a str, packet: &'a HttpPacket) -> [&'a [u8]; 3] {
    [rline.as_bytes(), packet.cookie(), &packet.body]
}

/// Build a cluster's signature from its per-field common tokens (each in
/// [`common_tokens`] order, truncated or not): cap each field at
/// `max_tokens`, drop boilerplate, and apply the anchor requirement.
/// `reference` holds the fields of the cluster's first member, where the
/// order hints are taken; `hosts` is sorted and deduplicated.
pub(crate) fn assemble_signature(
    id: u32,
    field_tokens: &[Vec<Vec<u8>>; 3],
    reference: [&[u8]; 3],
    cluster_size: usize,
    hosts: &[&str],
    config: &SignatureConfig,
) -> Option<ConjunctionSignature> {
    let mut tokens: Vec<FieldToken> = Vec::new();
    for (i, field) in Field::ALL.into_iter().enumerate() {
        for tok in field_tokens[i].iter().take(config.token.max_tokens) {
            let generic = config.boilerplate.iter().any(|b| contains_bytes(b, tok));
            if !generic {
                // Emission order = first occurrence in the reference
                // (first) member.
                let hint = find_from(reference[i], tok, 0).unwrap_or(0) as u32;
                tokens.push(FieldToken::with_hint(field, tok.clone(), hint));
            }
        }
    }

    // Anchor requirement: at least one token long enough to be specific.
    if !tokens
        .iter()
        .any(|t| t.bytes().len() >= config.min_anchor_len)
    {
        return None;
    }
    tokens.sort_by(|a, b| {
        b.bytes()
            .len()
            .cmp(&a.bytes().len())
            .then_with(|| (a.field, a.bytes()).cmp(&(b.field, b.bytes())))
    });

    Some(ConjunctionSignature {
        id,
        tokens,
        cluster_size,
        hosts: hosts.iter().map(|h| h.to_string()).collect(),
    })
}

/// An ordered set of signatures, the unit shipped to devices.
#[derive(Debug, Clone, Default)]
pub struct SignatureSet {
    /// The signatures, in generation order.
    pub signatures: Vec<ConjunctionSignature>,
}

impl SignatureSet {
    /// Number of signatures.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True when no signatures are held.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Total token count across signatures.
    pub fn token_count(&self) -> usize {
        self.signatures.iter().map(|s| s.tokens.len()).sum()
    }

    /// Iterate the signatures in detection (first-match) order.
    pub fn iter(&self) -> std::slice::Iter<'_, ConjunctionSignature> {
        self.signatures.iter()
    }

    /// Look a signature up by id.
    pub fn by_id(&self, id: u32) -> Option<&ConjunctionSignature> {
        self.signatures.iter().find(|s| s.id == id)
    }
}

impl<'a> IntoIterator for &'a SignatureSet {
    type Item = &'a ConjunctionSignature;
    type IntoIter = std::slice::Iter<'a, ConjunctionSignature>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn ad_packet(aid: &str, slot: &str) -> HttpPacket {
        RequestBuilder::get("/getad")
            .query("androidid", aid)
            .query("slot", slot)
            .query("fmt", "json")
            .destination(Ipv4Addr::new(203, 0, 113, 4), 80, "ad-maker.info")
            .build()
    }

    #[test]
    fn cluster_yields_shared_tokens() {
        let a = ad_packet("f3a9c1d200b14e77", "1");
        let b = ad_packet("f3a9c1d200b14e77", "2");
        let c = ad_packet("f3a9c1d200b14e77", "9");
        let sig = signature_from_cluster(0, &[&a, &b, &c], &SignatureConfig::default())
            .expect("signature");
        assert!(sig.cluster_size == 3);
        assert_eq!(sig.hosts, vec!["ad-maker.info".to_string()]);
        // The shared identifier must be captured in some token.
        let has_id = sig
            .tokens
            .iter()
            .any(|t| contains_bytes(t.bytes(), b"f3a9c1d200b14e77"));
        assert!(has_id, "tokens: {:?}", sig.tokens);
        // And the signature matches all members plus a fresh same-module
        // packet.
        for p in [&a, &b, &c, &ad_packet("f3a9c1d200b14e77", "77")] {
            assert!(sig.matches(p));
        }
    }

    #[test]
    fn signature_rejects_different_module() {
        let a = ad_packet("f3a9c1d200b14e77", "1");
        let b = ad_packet("f3a9c1d200b14e77", "2");
        let sig =
            signature_from_cluster(0, &[&a, &b], &SignatureConfig::default()).expect("signature");
        let other = RequestBuilder::get("/api/v1/items")
            .query("page", "3")
            .destination(Ipv4Addr::new(198, 51, 100, 2), 80, "api.example.jp")
            .build();
        assert!(!sig.matches(&other));
    }

    #[test]
    fn boilerplate_only_clusters_are_dropped() {
        // Two packets sharing nothing beyond "GET /... HTTP/1.1".
        let a = RequestBuilder::get("/aaaaaaaaaaaa")
            .destination(Ipv4Addr::LOCALHOST, 80, "x.jp")
            .build();
        let b = RequestBuilder::get("/bbbbbbbbbbbb")
            .destination(Ipv4Addr::LOCALHOST, 80, "y.jp")
            .build();
        assert!(signature_from_cluster(0, &[&a, &b], &SignatureConfig::default()).is_none());
    }

    #[test]
    fn singleton_policy() {
        let a = ad_packet("f3a9c1d200b14e77", "1");
        let mut cfg = SignatureConfig::default();
        assert!(signature_from_cluster(0, &[&a], &cfg).is_some());
        cfg.include_singletons = false;
        assert!(signature_from_cluster(0, &[&a], &cfg).is_none());
        assert!(signature_from_cluster(0, &[], &cfg).is_none());
    }

    #[test]
    fn tokens_are_longest_first() {
        let a = ad_packet("f3a9c1d200b14e77", "1");
        let b = ad_packet("f3a9c1d200b14e77", "2");
        let sig =
            signature_from_cluster(0, &[&a, &b], &SignatureConfig::default()).expect("signature");
        for w in sig.tokens.windows(2) {
            assert!(w[0].bytes().len() >= w[1].bytes().len());
        }
    }

    #[test]
    fn cookie_and_body_fields_are_matched_separately() {
        let p1 = RequestBuilder::post("/track")
            .cookie("sid=abcdef0123456789")
            .form("imei", "355195000000017")
            .destination(Ipv4Addr::LOCALHOST, 80, "t.example")
            .build();
        let p2 = RequestBuilder::post("/track")
            .cookie("sid=abcdef0123456789")
            .form("imei", "355195000000017")
            .destination(Ipv4Addr::LOCALHOST, 80, "t.example")
            .build();
        let sig = signature_from_cluster(3, &[&p1, &p2], &SignatureConfig::default()).expect("sig");
        assert!(sig.tokens.iter().any(|t| t.field == Field::Cookie));
        assert!(sig.tokens.iter().any(|t| t.field == Field::Body));
        // A packet with the cookie value in the *body* must not satisfy a
        // cookie-anchored token.
        let wrong_field = RequestBuilder::post("/track")
            .body(&b"sid=abcdef0123456789&imei=355195000000017"[..])
            .destination(Ipv4Addr::LOCALHOST, 80, "t.example")
            .build();
        assert!(!sig.matches(&wrong_field));
    }

    #[test]
    fn ordered_matching_is_stronger_than_conjunction() {
        // Signature from two POSTs whose bodies share "alpha…beta" in
        // order; the volatile middle splits them into two body tokens.
        let mk = |body: &str| {
            RequestBuilder::post("/x")
                .body(body.as_bytes().to_vec())
                .destination(Ipv4Addr::LOCALHOST, 80, "h.jp")
                .build()
        };
        let (a, b) = (mk("alphaalpha123betabeta"), mk("alphaalpha456betabeta"));
        let sig = signature_from_cluster(0, &[&a, &b], &SignatureConfig::default()).unwrap();
        let body_tokens = sig.tokens.iter().filter(|t| t.field == Field::Body).count();
        assert!(body_tokens >= 2, "tokens: {:?}", sig.tokens);

        // In-order packet: both semantics match.
        let in_order = mk("alphaalpha999betabeta");
        assert!(sig.matches(&in_order));
        assert!(sig.matches_ordered(&in_order));

        // Reversed packet: conjunction still matches, ordered does not.
        let reversed = mk("betabeta999alphaalpha");
        assert!(sig.matches(&reversed));
        assert!(!sig.matches_ordered(&reversed));
    }

    #[test]
    fn match_fraction_bounds_and_agreement() {
        let a = ad_packet("f3a9c1d200b14e77", "1");
        let b = ad_packet("f3a9c1d200b14e77", "2");
        let sig = signature_from_cluster(0, &[&a, &b], &SignatureConfig::default()).expect("sig");
        // Full member: fraction 1.0 and matches() true.
        assert_eq!(sig.match_fraction(&a), 1.0);
        assert!(sig.matches(&a));
        // Unrelated packet: fraction 0 and matches() false.
        let other = RequestBuilder::get("/xyz")
            .destination(Ipv4Addr::LOCALHOST, 80, "other.example")
            .build();
        assert_eq!(sig.match_fraction(&other), 0.0);
        assert!(!sig.matches(&other));
        // matches() is exactly fraction == 1.0.
        let partial = RequestBuilder::get("/getad")
            .query("androidid", "f3a9c1d200b14e77")
            .destination(Ipv4Addr::new(203, 0, 113, 4), 80, "ad-maker.info")
            .build();
        let f = sig.match_fraction(&partial);
        assert_eq!(sig.matches(&partial), f == 1.0);
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn field_tags_round_trip() {
        for f in Field::ALL {
            assert_eq!(Field::from_tag(f.tag()), Some(f));
        }
        assert_eq!(Field::from_tag("nope"), None);
    }

    #[test]
    fn set_accessors() {
        let a = ad_packet("f3a9c1d200b14e77", "1");
        let b = ad_packet("f3a9c1d200b14e77", "2");
        let sig = signature_from_cluster(0, &[&a, &b], &SignatureConfig::default()).unwrap();
        let set = SignatureSet {
            signatures: vec![sig],
        };
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
        assert!(set.token_count() > 0);
        assert!(SignatureSet::default().is_empty());

        // Read accessors used by the linter: field, bytes, order hint,
        // iteration.
        assert_eq!(set.iter().count(), 1);
        assert_eq!((&set).into_iter().count(), 1);
        let sig = set.by_id(0).expect("id 0");
        assert!(set.by_id(99).is_none());
        assert_eq!(sig.tokens().len(), sig.tokens.len());
        for t in sig.tokens() {
            assert_eq!(t.field(), t.field);
            assert!(!t.bytes().is_empty());
            let _ = t.order_hint();
        }
        let per_field: usize = Field::ALL
            .iter()
            .map(|&f| sig.tokens_in(f).count())
            .sum();
        assert_eq!(per_field, sig.tokens().len());
    }
}
