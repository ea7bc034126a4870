//! Differential oracle for the request grammar.
//!
//! `reference/` holds the owned parser the view grammar replaced,
//! verbatim: it lossy-decodes the whole request line before splitting it
//! and decodes the whole `Host` value before cutting its `:port`. The
//! view grammar splits the raw bytes first and decodes each span after,
//! so for every input and every limit set both must agree exactly: the
//! same packet on an accept (from [`PacketView::to_packet`] and from
//! [`parse_request_limited`]), the same [`ParseError`] on a reject. Every
//! accept must also rebuild its wire image with
//! [`PacketView::write_wire`] byte for byte, and a reject must leave the
//! arena as it found it.
//!
//! Inputs are arbitrary bytes and structured requests whose method,
//! target, version, `Host` and `Cookie` carry bytes that are not UTF-8 —
//! including separators next to truncated multi-byte sequences, where a
//! decode-then-split and a split-then-decode could differ if the identity
//! did not hold.

mod reference;

use leaksig_http::{
    parse_request_limited, parse_request_view, HttpPacket, Method, ParseArena, ParseError,
    ParseLimits, RequestBuilder,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

fn tight() -> ParseLimits {
    ParseLimits {
        max_request_line: 24,
        max_header_count: 2,
        max_header_line: 24,
        max_body: 16,
    }
}

fn limit_sets() -> [ParseLimits; 3] {
    [ParseLimits::UNLIMITED, ParseLimits::intake(), tight()]
}

/// Run one input through the reference, the view grammar and the owned
/// entry point under `limits`, and check they agree. The arena already
/// holds another packet's headers, so header ranges do not start at 0.
fn check(raw: &[u8], limits: &ParseLimits) -> Result<Result<HttpPacket, ParseError>, String> {
    let want = reference::parse_request_limited(raw, IP, 80, limits);
    let mut arena = ParseArena::new();
    parse_request_view(
        b"GET /pre HTTP/1.1\r\nHost: pre.example\r\nX-Pre: 1\r\n\r\n",
        IP,
        80,
        &ParseLimits::UNLIMITED,
        &mut arena,
    )
    .map_err(|e| format!("preload rejected: {e}"))?;
    let before = arena.len();
    let got = parse_request_view(raw, IP, 80, limits, &mut arena);
    let materialised = match &got {
        Ok(view) => {
            let packet = view.to_packet(&arena);
            let mut wire = b"stale bytes from an earlier, longer image".repeat(4);
            view.write_wire(&arena, &mut wire);
            if wire != packet.to_bytes() {
                return Err(format!(
                    "write_wire {:?} != to_packet().to_bytes() {:?} for {raw:?}",
                    String::from_utf8_lossy(&wire),
                    String::from_utf8_lossy(&packet.to_bytes()),
                ));
            }
            Ok(packet)
        }
        Err(e) => {
            if arena.len() != before {
                return Err(format!("reject {e:?} left spans in the arena for {raw:?}"));
            }
            Err(e.clone())
        }
    };
    if materialised != want {
        return Err(format!(
            "view {materialised:?} != reference {want:?} for {raw:?} under {limits:?}"
        ));
    }
    let owned = parse_request_limited(raw, IP, 80, limits);
    if owned != want {
        return Err(format!(
            "parse_request_limited {owned:?} != reference {want:?} for {raw:?} under {limits:?}"
        ));
    }
    Ok(want)
}

/// [`check`] under every limit set.
fn check_all(raw: &[u8]) -> Result<(), TestCaseError> {
    for limits in limit_sets() {
        if let Err(msg) = check(raw, &limits) {
            return Err(TestCaseError::fail(msg));
        }
    }
    Ok(())
}

/// Bytes spliced into structured fields: lone continuation bytes, bytes
/// that never occur in UTF-8, truncated multi-byte leads, a surrogate
/// lead, and the two separators the grammar splits on.
const SPLICE: &[&[u8]] = &[
    b"\xff",
    b"\xfe",
    b"\x80",
    b"\xbf",
    b"\xc3",
    b"\xe2\x82",
    b"\xf0\x9f\x98",
    b"\xed\xa0\x80",
    b"\xc3\xa9",
    b" ",
    b":",
];

/// `base` with up to three [`SPLICE`] entries inserted at random offsets.
fn spliced(base: impl Strategy<Value = String>) -> impl Strategy<Value = Vec<u8>> {
    (
        base,
        proptest::collection::vec((any::<usize>(), 0..SPLICE.len()), 0..4),
    )
        .prop_map(|(base, inserts)| {
            let mut bytes = base.into_bytes();
            for (at, which) in inserts {
                let at = at % (bytes.len() + 1);
                bytes.splice(at..at, SPLICE[which].iter().copied());
            }
            bytes
        })
}

fn method() -> impl Strategy<Value = Vec<u8>> {
    spliced(prop_oneof![
        Just("GET".to_string()),
        Just("POST".to_string()),
        "[A-Z]{0,6}",
    ])
}

fn target() -> impl Strategy<Value = Vec<u8>> {
    spliced("/[a-z0-9/?=&.]{0,18}")
}

fn version() -> impl Strategy<Value = Vec<u8>> {
    spliced(prop_oneof![
        Just("HTTP/1.1".to_string()),
        Just("HTTP/1.0".to_string()),
        "HT[A-Z/]{0,3}[0-9.]{0,3}",
    ])
}

fn host() -> impl Strategy<Value = Vec<u8>> {
    spliced("[a-z0-9.-]{0,14}(:[0-9]{1,5})?")
}

fn cookie() -> impl Strategy<Value = Vec<u8>> {
    spliced("[a-zA-Z0-9=;_ -]{0,16}")
}

/// A request assembled from (possibly non-UTF-8) parts.
#[derive(Debug)]
struct Parts {
    method: Vec<u8>,
    target: Vec<u8>,
    version: Vec<u8>,
    host: Option<Vec<u8>>,
    cookie: Option<Vec<u8>>,
    body: Option<(Vec<u8>, bool)>,
    crlf: bool,
}

impl Parts {
    fn to_raw(&self) -> Vec<u8> {
        let eol: &[u8] = if self.crlf { b"\r\n" } else { b"\n" };
        let mut raw = Vec::new();
        raw.extend_from_slice(&self.method);
        raw.push(b' ');
        raw.extend_from_slice(&self.target);
        raw.push(b' ');
        raw.extend_from_slice(&self.version);
        raw.extend_from_slice(eol);
        if let Some(host) = &self.host {
            raw.extend_from_slice(b"Host: ");
            raw.extend_from_slice(host);
            raw.extend_from_slice(eol);
        }
        if let Some(cookie) = &self.cookie {
            raw.extend_from_slice(b"Cookie: ");
            raw.extend_from_slice(cookie);
            raw.extend_from_slice(eol);
        }
        if let Some((body, true)) = &self.body {
            raw.extend_from_slice(format!("Content-Length: {}", body.len()).as_bytes());
            raw.extend_from_slice(eol);
        }
        raw.extend_from_slice(eol);
        if let Some((body, _)) = &self.body {
            raw.extend_from_slice(body);
        }
        raw
    }
}

fn parts() -> impl Strategy<Value = Parts> {
    (
        (method(), target(), version()),
        proptest::option::of(host()),
        proptest::option::of(cookie()),
        proptest::option::of((proptest::collection::vec(any::<u8>(), 0..24), any::<bool>())),
        any::<bool>(),
    )
        .prop_map(
            |((method, target, version), host, cookie, body, crlf)| Parts {
                method,
                target,
                version,
                host,
                cookie,
                body,
                crlf,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// Arbitrary bytes: accept/reject and every value agree with the
    /// reference under all three limit sets.
    #[test]
    fn grammar_matches_reference_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..192),
    ) {
        check_all(&raw)?;
    }

    /// Arbitrary bytes behind a well-formed request line prefix, so the
    /// header and body grammar see garbage too.
    #[test]
    fn grammar_matches_reference_after_a_request_line(
        tail in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut raw = b"GET /\xff?a=1 HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(&tail);
        check_all(&raw)?;
    }

    /// Structured requests with non-UTF-8 bytes in method, target,
    /// version, `Host` and `Cookie`.
    #[test]
    fn grammar_matches_reference_on_non_utf8_fields(p in parts()) {
        check_all(&p.to_raw())?;
    }
}

/// The structured strategy must reach the cases it exists for: accepted
/// requests whose request line is not UTF-8, with and without a lossy
/// host.
#[test]
fn structured_inputs_reach_lossy_accepts() {
    let mut rng = proptest::TestRng::for_test("structured_inputs_reach_lossy_accepts");
    let (mut lossy_lines, mut lossy_hosts) = (0, 0);
    for _ in 0..2000 {
        let raw = parts().generate(&mut rng).to_raw();
        if let Ok(Ok(p)) = check(&raw, &ParseLimits::UNLIMITED) {
            let line = p.request_line.as_line();
            lossy_lines += usize::from(line.contains('\u{fffd}'));
            lossy_hosts += usize::from(p.destination.host.contains('\u{fffd}'));
        }
    }
    assert!(
        lossy_lines > 50 && lossy_hosts > 20,
        "{lossy_lines} lossy lines, {lossy_hosts} lossy hosts"
    );
}

#[test]
fn materialisation_matches_reference() {
    let pkt = RequestBuilder::post("/x")
        .query("a", "1")
        .cookie("sid=9")
        .header("User-Agent", "Dalvik/1.4.0")
        .body(&b"imei=355195"[..])
        .destination(IP, 80, "h.example.jp")
        .build();
    let raw = pkt.to_bytes();
    assert_eq!(check(&raw, &ParseLimits::UNLIMITED), Ok(Ok(pkt)));
}

#[test]
fn errors_match_reference() {
    let cases: &[&[u8]] = &[
        b"",
        b"\r\n\r\n",
        b"GET /\r\n\r\n",
        b"GET / index HTTP/1.1\r\n\r\n",
        b"GET / FTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
        b"GET / HTTP/1.1\r\nbad name: 2\r\n\r\n",
        b"GET / HTTP/1.1\r\nHost: x",
        b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
        // The same shapes with a request line that is not UTF-8.
        b"GET /\xff\r\n\r\n",
        b"G\xffT / index HTTP/1.1\r\n\r\n",
        b"GET /\xe2\x82 FTP\xff/1.1\r\n\r\n",
        b"GET /\xff HTTP/1.1\r\nno-colon\r\n\r\n",
    ];
    for raw in cases {
        let got = check(raw, &ParseLimits::UNLIMITED).unwrap();
        assert!(got.is_err(), "expected a reject for {raw:?}, got {got:?}");
    }
}

#[test]
fn limits_enforced_like_reference() {
    let tight = ParseLimits {
        max_request_line: 16,
        max_header_count: 2,
        max_header_line: 24,
        max_body: 8,
    };
    let cases: &[&[u8]] = &[
        b"GET /aaaaaaaaaaaaaaaaaaaaaaaaaa HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n",
        b"GET / HTTP/1.1\r\nbig: aaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n",
        b"POST / HTTP/1.1\r\n\r\n123456789",
    ];
    for raw in cases {
        let got = check(raw, &tight).unwrap();
        assert!(got.is_err(), "expected a reject for {raw:?}, got {got:?}");
    }
}

/// A `\xff` in the target materialises as U+FFFD, and the view's wire
/// image carries the decoded line.
#[test]
fn invalid_utf8_request_line_materialises_lossy() {
    let raw = b"G\xffT /\xff\xfe?q=1 HTTP/1.\xe2\x82\r\nHost: h\xc3:8080\r\n\r\n";
    let packet = check(raw, &ParseLimits::UNLIMITED).unwrap().unwrap();
    assert_eq!(
        packet.request_line.method,
        Method::Other("G\u{fffd}T".into())
    );
    assert_eq!(packet.request_line.target, "/\u{fffd}\u{fffd}?q=1");
    assert_eq!(packet.request_line.version, "HTTP/1.\u{fffd}");
    assert_eq!(packet.destination.host, "h\u{fffd}");
    // Header values are opaque bytes: only the request line is decoded.
    assert_eq!(
        packet.to_bytes(),
        b"G\xef\xbf\xbdT /\xef\xbf\xbd\xef\xbf\xbd?q=1 HTTP/1.\xef\xbf\xbd\r\nHost: h\xc3:8080\r\n\r\n"
    );
}
