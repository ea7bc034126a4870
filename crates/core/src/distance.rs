//! The paper's HTTP packet distance (§IV-B, §IV-C).
//!
//! `d_pkt(p_x, p_y) = d_dst(p_x, p_y) + d_header(p_x, p_y)` where
//!
//! * `d_dst = d_ip + d_port + d_host` over the destination triple, and
//! * `d_header = ncd(request-line) + ncd(cookie) + ncd(message-body)`.
//!
//! ## The convention problem
//!
//! As printed, the paper's component definitions do not agree on
//! direction: `d_ip = lmatch/32` and `d_port = match ∈ {0,1}` *grow with
//! similarity* (they are similarities), while `d_host` (normalised edit
//! distance) and the NCD terms *shrink with similarity*. Summing them as
//! printed produces a quantity that is neither. [`DistanceConvention`]
//! exposes both readings:
//!
//! * [`DistanceConvention::Corrected`] (default) — every component is a
//!   true distance in `[0, 1]`: `d_ip = 1 − lmatch/32`, `d_port = 0` iff
//!   the ports match. This is the only reading under which §IV's
//!   clustering narrative works, and is what the pipeline uses.
//! * [`DistanceConvention::PaperLiteral`] — the formulas exactly as
//!   printed, kept for the ablation benchmark, which shows the literal
//!   form degrades cluster purity.

use leaksig_compress::{Compressor, IndexedBytes, Lzss, PrefixState};
use leaksig_http::HttpPacket;
use leaksig_textdist::normalized_levenshtein;
use std::net::Ipv4Addr;

/// Which reading of the paper's distance formulas to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceConvention {
    /// All components are true distances (see module docs).
    #[default]
    Corrected,
    /// The formulas exactly as printed in §IV-B.
    PaperLiteral,
}

/// Weights applied to the two halves of the packet distance; the ablation
/// benchmark zeroes one half at a time.
#[derive(Debug, Clone, Copy)]
pub struct DistanceConfig {
    /// Distance-direction convention.
    pub convention: DistanceConvention,
    /// Multiplier on the destination half (`d_dst`).
    pub destination_weight: f64,
    /// Multiplier on the content half (`d_header`).
    pub content_weight: f64,
}

impl Default for DistanceConfig {
    fn default() -> Self {
        DistanceConfig {
            convention: DistanceConvention::Corrected,
            // The paper sums d_dst and d_header with equal weight. In
            // practice the destination half contributes a near-constant
            // ~1.85 offset to EVERY cross-destination pair, which drowns
            // the content signal that lets two destinations leaking the
            // same identifier cluster together (the mechanism §IV's
            // narrative depends on). Halving the destination weight
            // restores that mechanism; the ablation benchmark carries the
            // 1.0 and 0.0 variants.
            destination_weight: 0.5,
            content_weight: 1.0,
        }
    }
}

/// Number of common leading bits of two IPv4 addresses.
pub fn lmatch(a: Ipv4Addr, b: Ipv4Addr) -> u32 {
    let x = u32::from(a) ^ u32::from(b);
    x.leading_zeros()
}

/// Destination IP distance component.
pub fn d_ip(a: Ipv4Addr, b: Ipv4Addr, convention: DistanceConvention) -> f64 {
    let sim = lmatch(a, b) as f64 / 32.0;
    match convention {
        DistanceConvention::Corrected => 1.0 - sim,
        DistanceConvention::PaperLiteral => sim,
    }
}

/// Destination port distance component.
pub fn d_port(a: u16, b: u16, convention: DistanceConvention) -> f64 {
    let matched = a == b;
    match convention {
        DistanceConvention::Corrected => {
            if matched {
                0.0
            } else {
                1.0
            }
        }
        DistanceConvention::PaperLiteral => {
            if matched {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// HTTP host distance component: `ed(host_x, host_y) / max(len)`.
/// Identical under both conventions (the paper defines it as a distance).
pub fn d_host(a: &str, b: &str) -> f64 {
    normalized_levenshtein(a.as_bytes(), b.as_bytes())
}

/// Ownership oracle for the §VI refinement: "two HTTP packets may have
/// close IP addresses but be owned (by) different organizations ... a
/// registration information process such as WHOIS could be helpful for
/// the verification of IP addresses".
///
/// `same_org` returns `Some(true)`/`Some(false)` when ownership of both
/// addresses is known, `None` when either is unregistered (the distance
/// then falls back to the prefix heuristic, as the paper's base system
/// does). `leaksig-netsim`'s `OrgRegistry` implements this for the
/// synthetic allocation table.
pub trait OrgOracle {
    /// Whether `a` and `b` are allocated to the same organisation.
    fn same_org(&self, a: Ipv4Addr, b: Ipv4Addr) -> Option<bool>;
}

/// WHOIS-verified IP distance (§VI): when the oracle knows both owners,
/// same-organisation pairs score the minimum distance and
/// different-organisation pairs the maximum regardless of how close the
/// raw prefixes are — shared hosting no longer reads as proximity.
/// Unknown ownership falls back to [`d_ip`].
pub fn d_ip_verified<O: OrgOracle + ?Sized>(
    a: Ipv4Addr,
    b: Ipv4Addr,
    oracle: &O,
    convention: DistanceConvention,
) -> f64 {
    match oracle.same_org(a, b) {
        Some(same) => {
            let near = matches!(convention, DistanceConvention::PaperLiteral);
            if same == near {
                1.0
            } else {
                0.0
            }
        }
        None => d_ip(a, b, convention),
    }
}

/// The three content fields, indexed for the match finder, with their
/// cached compressed lengths: the unit the O(n²) distance matrix is
/// computed over. Building features once per packet means each pairwise
/// NCD only compresses the concatenation, through indexes that are built
/// once per field rather than once per pair.
#[derive(Debug, Clone)]
pub struct PacketFeatures {
    /// Destination IPv4 address.
    pub ip: Ipv4Addr,
    /// Destination TCP port.
    pub port: u16,
    /// Destination host (FQDN).
    pub host: String,
    /// Owning organisation, when a WHOIS-style lookup resolved one at
    /// feature-extraction time (see [`PacketFeatures::extract_with_org`]).
    /// Two features with `Some` owners compare by ownership instead of by
    /// prefix — the §VI refinement.
    pub org: Option<u32>,
    /// Request-line bytes.
    pub rline: IndexedBytes,
    /// Cookie header bytes.
    pub cookie: IndexedBytes,
    /// Message-body bytes.
    pub body: IndexedBytes,
    c_rline: usize,
    c_cookie: usize,
    c_body: usize,
}

impl PacketFeatures {
    /// Extract features from a packet under compressor `c`.
    pub fn extract<C: Compressor>(packet: &HttpPacket, c: &C) -> Self {
        Self::extract_with_org(packet, c, None)
    }

    /// [`PacketFeatures::extract`] with a resolved owner id (any stable
    /// numbering of organisations; `None` = unresolved, prefix heuristic
    /// applies).
    pub fn extract_with_org<C: Compressor>(packet: &HttpPacket, c: &C, org: Option<u32>) -> Self {
        let (rline, cookie, body) = packet.content_fields();
        let rline = IndexedBytes::new(rline);
        let cookie = IndexedBytes::new(cookie);
        let body = IndexedBytes::new(body);
        PacketFeatures {
            ip: packet.destination.ip,
            port: packet.destination.port,
            host: packet.destination.host.clone(),
            org,
            c_rline: c.compressed_len(&rline),
            c_cookie: c.compressed_len(&cookie),
            c_body: c.compressed_len(&body),
            rline,
            cookie,
            body,
        }
    }
}

/// Packet-distance computer: a compressor plus configuration.
#[derive(Debug, Clone, Default)]
pub struct PacketDistance<C: Compressor = Lzss> {
    compressor: C,
    /// Distance configuration in force.
    pub config: DistanceConfig,
}

impl<C: Compressor> PacketDistance<C> {
    /// Build with an explicit compressor (the ablation swaps in LZW).
    pub fn new(compressor: C, config: DistanceConfig) -> Self {
        PacketDistance { compressor, config }
    }

    /// Extract cacheable features for one packet.
    pub fn features(&self, packet: &HttpPacket) -> PacketFeatures {
        PacketFeatures::extract(packet, &self.compressor)
    }

    /// `d_dst` of §IV-B: when both features carry a resolved owner, the
    /// IP component is ownership-verified (§VI); otherwise the prefix
    /// heuristic applies.
    pub fn destination(&self, x: &PacketFeatures, y: &PacketFeatures) -> f64 {
        self.destination_sans_host(x, y) + d_host(&x.host, &y.host)
    }

    /// The IP and port terms of `d_dst` — the host edit-distance term is
    /// added by the caller ([`destination`], or [`RowDistance`], which can
    /// cache it per host). Split out so both paths share one
    /// definition and, summing in the same order, stay bit-identical.
    ///
    /// [`destination`]: PacketDistance::destination
    fn destination_sans_host(&self, x: &PacketFeatures, y: &PacketFeatures) -> f64 {
        let conv = self.config.convention;
        let ip_term = match (x.org, y.org) {
            (Some(a), Some(b)) => {
                let near = matches!(conv, DistanceConvention::PaperLiteral);
                if (a == b) == near {
                    1.0
                } else {
                    0.0
                }
            }
            _ => d_ip(x.ip, y.ip, conv),
        };
        ip_term + d_port(x.port, y.port, conv)
    }

    /// `d_header` of §IV-C: summed NCD over the three content fields.
    pub fn content(&self, x: &PacketFeatures, y: &PacketFeatures) -> f64 {
        let ncd = |a: &[u8], ca: usize, b: &[u8], cb: usize| {
            leaksig_compress::ncd_with_lens(&self.compressor, a, ca, b, cb)
        };
        ncd(&x.rline, x.c_rline, &y.rline, y.c_rline)
            + ncd(&x.cookie, x.c_cookie, &y.cookie, y.c_cookie)
            + ncd(&x.body, x.c_body, &y.body, y.c_body)
    }

    /// `d_pkt = w_dst · d_dst + w_content · d_header`.
    pub fn packet(&self, x: &PacketFeatures, y: &PacketFeatures) -> f64 {
        self.config.destination_weight * self.destination(x, y)
            + self.config.content_weight * self.content(x, y)
    }

    /// Row-major distance computer: captures `x`'s three content fields as
    /// resumable compressor prefixes ([`Compressor::begin_prefix`]) so each
    /// subsequent [`RowDistance::packet`] call only compresses the `y`-side
    /// continuation instead of the full concatenation. Equal to
    /// [`PacketDistance::packet`] bit-for-bit (the prefix contract demands
    /// exact concatenation counts); the matrix builder computes each row
    /// of the O(n²) matrix through one of these.
    pub fn row<'a>(&'a self, x: &'a PacketFeatures) -> RowDistance<'a, C> {
        let c = &self.compressor;
        RowDistance {
            dist: self,
            x,
            rline: c.begin_prefix(&x.rline),
            cookie: c.begin_prefix(&x.cookie),
            body: c.begin_prefix(&x.body),
            host_d: Vec::new(),
        }
    }
}

/// A dense id per distinct destination host of `features` (first
/// appearance first), for [`RowDistance::packet_with_host`].
pub(crate) fn host_ids(features: &[PacketFeatures]) -> Vec<usize> {
    let mut ids = std::collections::HashMap::new();
    features
        .iter()
        .map(|f| {
            let next = ids.len();
            *ids.entry(f.host.as_str()).or_insert(next)
        })
        .collect()
}

/// One row of the pairwise distance computation: see
/// [`PacketDistance::row`].
pub struct RowDistance<'a, C: Compressor> {
    dist: &'a PacketDistance<C>,
    x: &'a PacketFeatures,
    rline: Box<dyn PrefixState + 'a>,
    cookie: Box<dyn PrefixState + 'a>,
    body: Box<dyn PrefixState + 'a>,
    /// `d_host(x.host, ·)` by host id ([`host_ids`]), NaN until first
    /// needed. Market traffic concentrates on a small destination set, so
    /// the O(|a|·|b|) edit distance would otherwise be the largest non-NCD
    /// cost in every one of the row's n−1 cells. `d_host` is a pure
    /// function of the two strings, so caching cannot change a single bit
    /// of the result.
    host_d: Vec<f64>,
}

impl<C: Compressor> RowDistance<'_, C> {
    /// `d_header` against the captured row packet — the same three-field
    /// NCD sum as [`PacketDistance::content`], with `C(x ⊕ y)` measured by
    /// resuming the row's encoder snapshots. Term order and arithmetic
    /// mirror `content` exactly so the results are bit-identical.
    pub fn content(&mut self, y: &PacketFeatures) -> f64 {
        let x = self.x;
        let term = |p: &mut Box<dyn PrefixState + '_>,
                    xb: &IndexedBytes,
                    cx: usize,
                    yb: &IndexedBytes,
                    cy: usize| {
            // Mirrors `ncd_with_lens`'s two-empty-strings convention.
            if xb.is_empty() && yb.is_empty() {
                return 0.0;
            }
            // One-sided-empty shortcut: the concatenation *is* the other
            // string, whose count is already cached — `concat_len` would
            // return exactly `cy` (resp. `cx`), so skipping it cannot
            // change a bit. Cookie and body are empty for most GET
            // traffic, which makes this the common case.
            let cxy = if xb.is_empty() {
                cy
            } else if yb.is_empty() {
                cx
            } else {
                p.concat_len(yb)
            };
            leaksig_compress::ncd_from_lens(cx, cy, cxy)
        };
        term(&mut self.rline, &x.rline, x.c_rline, &y.rline, y.c_rline)
            + term(
                &mut self.cookie,
                &x.cookie,
                x.c_cookie,
                &y.cookie,
                y.c_cookie,
            )
            + term(&mut self.body, &x.body, x.c_body, &y.body, y.c_body)
    }

    /// `d_pkt(x, y)` — bit-identical to [`PacketDistance::packet`].
    pub fn packet(&mut self, y: &PacketFeatures) -> f64 {
        let host = d_host(&self.x.host, &y.host);
        self.packet_given_host(y, host)
    }

    /// [`RowDistance::packet`] with `d_host` cached by `y`'s host id from
    /// [`host_ids`] over the features this row is compared against.
    pub(crate) fn packet_with_host(&mut self, y: &PacketFeatures, host_id: usize) -> f64 {
        if host_id >= self.host_d.len() {
            self.host_d.resize(host_id + 1, f64::NAN);
        }
        if self.host_d[host_id].is_nan() {
            self.host_d[host_id] = d_host(&self.x.host, &y.host);
        }
        let host = self.host_d[host_id];
        self.packet_given_host(y, host)
    }

    fn packet_given_host(&mut self, y: &PacketFeatures, host: f64) -> f64 {
        let content = self.content(y);
        let destination = self.dist.destination_sans_host(self.x, y) + host;
        self.dist.config.destination_weight * destination
            + self.dist.config.content_weight * content
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_http::RequestBuilder;

    fn pkt(host: &str, ip: [u8; 4], path: &str, q: &[(&str, &str)]) -> HttpPacket {
        let mut b = RequestBuilder::get(path);
        for (k, v) in q {
            b = b.query(k, v);
        }
        b.destination(Ipv4Addr::from(ip), 80, host).build()
    }

    fn dist() -> PacketDistance {
        PacketDistance::default()
    }

    #[test]
    fn lmatch_counts_common_prefix_bits() {
        let a = Ipv4Addr::new(203, 0, 113, 1);
        assert_eq!(lmatch(a, a), 32);
        assert_eq!(lmatch(a, Ipv4Addr::new(203, 0, 113, 0)), 31);
        assert_eq!(lmatch(a, Ipv4Addr::new(203, 0, 0, 0)), 17);
        assert_eq!(
            lmatch(Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(128, 0, 0, 0)),
            0
        );
    }

    #[test]
    fn d_ip_conventions_are_mirror_images() {
        let a = Ipv4Addr::new(203, 0, 113, 1);
        let b = Ipv4Addr::new(203, 0, 113, 9);
        let c = d_ip(a, b, DistanceConvention::Corrected);
        let l = d_ip(a, b, DistanceConvention::PaperLiteral);
        assert!((c + l - 1.0).abs() < 1e-12);
        assert_eq!(d_ip(a, a, DistanceConvention::Corrected), 0.0);
        assert_eq!(d_ip(a, a, DistanceConvention::PaperLiteral), 1.0);
    }

    #[test]
    fn d_port_conventions() {
        assert_eq!(d_port(80, 80, DistanceConvention::Corrected), 0.0);
        assert_eq!(d_port(80, 8080, DistanceConvention::Corrected), 1.0);
        assert_eq!(d_port(80, 80, DistanceConvention::PaperLiteral), 1.0);
        assert_eq!(d_port(80, 8080, DistanceConvention::PaperLiteral), 0.0);
    }

    #[test]
    fn identical_packets_have_near_zero_distance() {
        let p = pkt(
            "ad-maker.info",
            [203, 0, 113, 10],
            "/getad",
            &[("imei", "355195000000017"), ("carrier", "NTT DOCOMO")],
        );
        let d = dist();
        let f = d.features(&p);
        assert_eq!(d.destination(&f, &f), 0.0);
        assert!(d.content(&f, &f) < 0.6, "content self-distance too high");
        assert!(d.packet(&f, &f) < 0.6);
    }

    #[test]
    fn same_module_closer_than_cross_module() {
        let d = dist();
        // Two ad requests to the same network with different volatile bits.
        let a = pkt(
            "ad-maker.info",
            [203, 0, 113, 10],
            "/getad",
            &[("imei", "355195000000017"), ("slot", "3"), ("seq", "10113")],
        );
        let b = pkt(
            "ad-maker.info",
            [203, 0, 113, 10],
            "/getad",
            &[("imei", "355195000000017"), ("slot", "7"), ("seq", "99241")],
        );
        // A content fetch elsewhere.
        let z = pkt(
            "img.yahoo.co.jp",
            [198, 51, 100, 20],
            "/static/0a1b2c3d4e5f.png",
            &[],
        );
        let (fa, fb, fz) = (d.features(&a), d.features(&b), d.features(&z));
        let near = d.packet(&fa, &fb);
        let far = d.packet(&fa, &fz);
        assert!(near < far, "near {near} !< far {far}");
        assert!(near < 1.0, "same-module distance {near}");
        assert!(far > 1.4, "cross-module distance {far}");
    }

    #[test]
    fn destination_weight_zero_ignores_destination() {
        let cfg = DistanceConfig {
            destination_weight: 0.0,
            ..Default::default()
        };
        let d = PacketDistance::new(Lzss::default(), cfg);
        let a = pkt("a.example.jp", [10, 0, 0, 1], "/x", &[("k", "v")]);
        let b = pkt("b.example.com", [198, 51, 100, 7], "/x", &[("k", "v")]);
        let (fa, fb) = (d.features(&a), d.features(&b));
        assert_eq!(d.packet(&fa, &fb), d.content(&fa, &fb));
    }

    #[test]
    fn paper_literal_is_incoherent_for_identical_destinations() {
        // Documenting the §IV-B inconsistency: under the literal reading,
        // two packets to the same destination score d_dst = 2.0 (maximum
        // similarity reads as large "distance").
        let cfg = DistanceConfig {
            convention: DistanceConvention::PaperLiteral,
            ..Default::default()
        };
        let d = PacketDistance::new(Lzss::default(), cfg);
        let p = pkt("nend.net", [203, 0, 113, 5], "/ad", &[]);
        let f = d.features(&p);
        assert_eq!(d.destination(&f, &f), 2.0);
    }

    struct MapOracle(std::collections::HashMap<Ipv4Addr, &'static str>);

    impl OrgOracle for MapOracle {
        fn same_org(&self, a: Ipv4Addr, b: Ipv4Addr) -> Option<bool> {
            Some(self.0.get(&a)? == self.0.get(&b)?)
        }
    }

    #[test]
    fn org_tagged_features_use_ownership_not_prefix() {
        let d = dist();
        // Adjacent shared-hosting addresses, different owners.
        let p1 = pkt("tinyads.example", [203, 0, 113, 10], "/a", &[("k", "v")]);
        let p2 = pkt("othernet.example", [203, 0, 113, 11], "/a", &[("k", "v")]);
        let z = leaksig_compress::Lzss::default();
        let f_prefix_1 = d.features(&p1);
        let f_prefix_2 = d.features(&p2);
        let f_org_1 = PacketFeatures::extract_with_org(&p1, &z, Some(1));
        let f_org_2 = PacketFeatures::extract_with_org(&p2, &z, Some(2));
        // Under the prefix heuristic the pair looks close; under resolved
        // ownership the IP term jumps to its maximum.
        let dd_prefix = d.destination(&f_prefix_1, &f_prefix_2);
        let dd_org = d.destination(&f_org_1, &f_org_2);
        assert!(dd_org > dd_prefix + 0.8, "{dd_org} vs {dd_prefix}");
        // Same owner, distant prefixes: verified distance collapses.
        let p3 = pkt("tinyads.example", [61, 9, 1, 1], "/a", &[("k", "v")]);
        let f_org_3 = PacketFeatures::extract_with_org(&p3, &z, Some(1));
        let same_owner = d.destination(&f_org_1, &f_org_3);
        assert!(same_owner < d.destination(&f_prefix_1, &d.features(&p3)));
    }

    #[test]
    fn verified_ip_distance_overrides_prefix() {
        let close_a = Ipv4Addr::new(203, 0, 113, 10);
        let close_b = Ipv4Addr::new(203, 0, 113, 11); // adjacent, other org
        let far_c = Ipv4Addr::new(61, 200, 1, 1); // distant, same org as a
        let unknown = Ipv4Addr::new(8, 8, 8, 8);
        let oracle = MapOracle(
            [(close_a, "alpha"), (close_b, "beta"), (far_c, "alpha")]
                .into_iter()
                .collect(),
        );
        let conv = DistanceConvention::Corrected;
        // Prefix heuristic alone: adjacent looks near, distant looks far.
        assert!(d_ip(close_a, close_b, conv) < 0.1);
        assert!(d_ip(close_a, far_c, conv) > 0.5);
        // WHOIS verification flips both.
        assert_eq!(d_ip_verified(close_a, close_b, &oracle, conv), 1.0);
        assert_eq!(d_ip_verified(close_a, far_c, &oracle, conv), 0.0);
        // Unknown ownership falls back to the heuristic.
        assert_eq!(
            d_ip_verified(close_a, unknown, &oracle, conv),
            d_ip(close_a, unknown, conv)
        );
        // Literal convention mirrors the poles.
        let lit = DistanceConvention::PaperLiteral;
        assert_eq!(d_ip_verified(close_a, close_b, &oracle, lit), 0.0);
        assert_eq!(d_ip_verified(close_a, far_c, &oracle, lit), 1.0);
    }

    #[test]
    fn row_distance_is_bit_identical_to_packet() {
        let d = dist();
        let mut packets = vec![
            pkt(
                "ad-maker.info",
                [203, 0, 113, 10],
                "/getad",
                &[("imei", "355195000000017"), ("slot", "3")],
            ),
            pkt("img.yahoo.co.jp", [198, 51, 100, 20], "/static/a.png", &[]),
            pkt("x.jp", [10, 1, 2, 3], "/a", &[("q", "1")]),
        ];
        // Cookie/body fields exercised too (empty-field convention).
        packets.push(
            RequestBuilder::post("/imp")
                .form("udid", "dd72cbaeab8d2e442d92e90c2e829e4b")
                .cookie("session=42")
                .destination(Ipv4Addr::new(198, 51, 100, 7), 80, "imp.zeikato.net")
                .build(),
        );
        let feats: Vec<_> = packets.iter().map(|p| d.features(p)).collect();
        let ids = host_ids(&feats);
        for x in &feats {
            let mut row = d.row(x);
            for (y, &id) in feats.iter().zip(&ids) {
                assert_eq!(row.content(y), d.content(x, y));
                assert_eq!(row.packet(y), d.packet(x, y));
                assert_eq!(row.packet_with_host(y, id), d.packet(x, y));
            }
        }
    }

    #[test]
    fn symmetry() {
        let d = dist();
        let a = pkt("x.jp", [10, 1, 2, 3], "/a", &[("q", "1")]);
        let b = pkt("y.com", [172, 16, 0, 9], "/b", &[("r", "2")]);
        let (fa, fb) = (d.features(&a), d.features(&b));
        assert_eq!(d.destination(&fa, &fb), d.destination(&fb, &fa));
        let c_ab = d.content(&fa, &fb);
        let c_ba = d.content(&fb, &fa);
        assert!((c_ab - c_ba).abs() < 0.2, "{c_ab} vs {c_ba}");
    }
}
