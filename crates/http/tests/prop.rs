//! Property tests: parse/serialize round trips, codec inverses, and
//! mutation robustness of the parser under the fault crate's manglers.

mod reference;

use leaksig_faults::{flip_bytes, truncate_bytes};
use leaksig_http::{
    parse_request, parse_request_limited, parse_request_view, query, Destination, HeaderName,
    HttpPacket, Method, ParseArena, ParseLimits, RequestBuilder, RequestLine,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn token() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_.*-]{1,20}"
}

/// Header names the round-trip can use freely: anything except `Host`
/// and `Content-Length`, whose values the parser interprets (the packet
/// model carries them with dedicated semantics).
fn free_header_name() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9-]{0,12}".prop_map(|n| {
        if n.eq_ignore_ascii_case("host") || n.eq_ignore_ascii_case("content-length") {
            format!("x-{n}")
        } else {
            n
        }
    })
}

/// Printable header values with no surrounding whitespace (the parser
/// normalises that away) and no line terminators.
fn header_value() -> impl Strategy<Value = Vec<u8>> {
    "[!-~]([ -~]{0,18}[!-~])?".prop_map(String::into_bytes)
}

proptest! {
    /// query codec: decode(encode(x)) == x for arbitrary bytes.
    #[test]
    fn component_round_trip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let encoded = query::encode_component(&data);
        prop_assert_eq!(query::decode_component(&encoded), data);
    }

    #[test]
    fn pairs_round_trip(pairs in proptest::collection::vec((token(), token()), 0..8)) {
        let encoded = query::encode_pairs(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        let decoded = query::decode_pairs(&encoded);
        let want: Vec<(Vec<u8>, Vec<u8>)> = pairs
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.as_bytes().to_vec()))
            .collect();
        prop_assert_eq!(decoded, want);
    }

    /// Build → serialize → parse is the identity on the packet model.
    #[test]
    fn packet_round_trip(
        path_seg in "[a-z0-9/]{0,20}",
        qs in proptest::collection::vec((token(), token()), 0..5),
        host in "[a-z0-9.-]{1,30}",
        // Interior spaces survive; leading/trailing whitespace is trimmed
        // by the parser (normalisation, not a bug), so anchor the ends.
        cookie in proptest::option::of("[a-zA-Z0-9=;_-]([a-zA-Z0-9=;_ -]{0,38}[a-zA-Z0-9=;_-])?"),
        body in proptest::option::of(proptest::collection::vec(any::<u8>(), 1..128)),
        post in any::<bool>(),
        ip in any::<u32>(),
        port in 1u16..,
    ) {
        let path = format!("/{path_seg}");
        let mut b = if post {
            RequestBuilder::post(&path)
        } else {
            RequestBuilder::get(&path)
        };
        for (k, v) in &qs {
            b = b.query(k, v);
        }
        if let Some(c) = &cookie {
            b = b.cookie(c);
        }
        if let Some(body) = &body {
            b = b.body(body.clone());
        }
        let ip = Ipv4Addr::from(ip);
        let pkt = b.destination(ip, port, &host).build();
        let reparsed = parse_request(&pkt.to_bytes(), ip, port).unwrap();
        prop_assert_eq!(reparsed, pkt);
    }

    /// Serialize → parse is the identity on directly-constructed packets
    /// too, including repeated header names (transmission order and every
    /// duplicate value must survive), the cookie, and a binary body.
    #[test]
    fn duplicate_headers_round_trip(
        host in "[a-z0-9.-]{1,24}",
        names in proptest::collection::vec(free_header_name(), 1..5),
        values in proptest::collection::vec(header_value(), 8),
        cookie in proptest::option::of("[a-zA-Z0-9=;_-]{1,24}"),
        body in proptest::collection::vec(any::<u8>(), 0..64),
        dup_rounds in 1usize..3,
        post in any::<bool>(),
    ) {
        let mut headers: Vec<(HeaderName, Vec<u8>)> = vec![("Host".into(), host.clone().into_bytes())];
        // Each name appears `dup_rounds + 1` times with distinct values:
        // the round trip must keep every copy, in order.
        let mut vi = values.iter().cycle();
        for round in 0..=dup_rounds {
            for name in &names {
                let mut v = vi.next().unwrap().clone();
                v.extend_from_slice(round.to_string().as_bytes());
                headers.push((name.as_str().into(), v));
            }
        }
        if let Some(c) = &cookie {
            headers.push(("Cookie".into(), c.clone().into_bytes()));
        }
        let pkt = HttpPacket {
            destination: Destination::new(Ipv4Addr::new(198, 51, 100, 20), 8080, host),
            request_line: RequestLine {
                method: if post { Method::Post } else { Method::Get },
                target: "/t?x=1".to_string(),
                version: "HTTP/1.1".to_string(),
            },
            headers,
            body,
        };
        let reparsed = parse_request(&pkt.to_bytes(), pkt.destination.ip, pkt.destination.port).unwrap();
        prop_assert_eq!(&reparsed, &pkt);
        if let Some(c) = &cookie {
            prop_assert_eq!(reparsed.cookie(), c.as_bytes());
        }
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_request(&raw, Ipv4Addr::LOCALHOST, 80);
    }

    /// Mangling a well-formed wire image with the fault crate's mutators
    /// (bit flips, truncation) never panics either parser entry point,
    /// and whatever classification comes out is deterministic: the same
    /// mangled bytes always produce the same `ParseError` variant (or the
    /// same packet, when the damage landed somewhere harmless).
    #[test]
    fn mangled_wire_images_fail_closed(
        qs in proptest::collection::vec((token(), token()), 0..4),
        body in proptest::option::of(proptest::collection::vec(any::<u8>(), 1..64)),
        seed in any::<u64>(),
        flips in 1usize..12,
        keep_permille in 0u16..1000,
        truncate_first in any::<bool>(),
    ) {
        let mut b = RequestBuilder::post("/report");
        for (k, v) in &qs {
            b = b.query(k, v);
        }
        if let Some(body) = &body {
            b = b.body(body.clone());
        }
        let pkt = b
            .destination(Ipv4Addr::new(203, 0, 113, 40), 80, "intake.example")
            .build();
        let mut raw = pkt.to_bytes();
        if truncate_first {
            truncate_bytes(&mut raw, keep_permille);
        }
        flip_bytes(&mut raw, seed, flips);

        let limits = ParseLimits::intake();
        let a = parse_request_limited(&raw, Ipv4Addr::LOCALHOST, 80, &limits);
        let b = parse_request_limited(&raw, Ipv4Addr::LOCALHOST, 80, &limits);
        prop_assert_eq!(&a, &b, "classification must be deterministic");
        let _ = parse_request(&raw, Ipv4Addr::LOCALHOST, 80); // unlimited: no panic either
        if let Err(e) = a {
            // Every reject carries a stable reason tag for the ledger.
            prop_assert!(!e.tag().is_empty());
        }
    }

    /// Structured garbage (line-shaped) also never panics and errors are
    /// classified, not bogus successes with invented bodies.
    #[test]
    fn parser_linewise_garbage(lines in proptest::collection::vec("[ -~]{0,40}", 0..8)) {
        let raw = lines.join("\r\n").into_bytes();
        let _ = parse_request(&raw, Ipv4Addr::LOCALHOST, 80);
    }

    /// The view grammar is equivalent to the verbatim owned reference
    /// parser on arbitrary bytes: accepted views materialise to the
    /// identical packet (lossy-decoded when the request line is not
    /// UTF-8) and rebuild its wire image, and rejects carry the
    /// identical error.
    #[test]
    fn view_parser_matches_owned_on_garbage(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let limits = ParseLimits::intake();
        let mut arena = ParseArena::new();
        let owned = reference::parse_request_limited(&raw, Ipv4Addr::LOCALHOST, 80, &limits);
        match parse_request_view(&raw, Ipv4Addr::LOCALHOST, 80, &limits, &mut arena) {
            Ok(v) => {
                let mut wire = Vec::new();
                v.write_wire(&arena, &mut wire);
                prop_assert_eq!(Ok(v.to_packet(&arena)), owned);
                prop_assert_eq!(wire, v.to_packet(&arena).to_bytes());
            }
            Err(e) => prop_assert_eq!(Err(e), owned),
        }
    }

    /// On well-formed wire images the view parser accepts, sees a UTF-8
    /// request line, and the borrowed fields agree with the owned
    /// packet's accessors.
    #[test]
    fn view_parser_matches_owned_on_wellformed(
        qs in proptest::collection::vec((token(), token()), 0..4),
        host in "[a-z0-9.-]{1,24}",
        cookie in proptest::option::of("[a-zA-Z0-9=;_-]{1,24}"),
        body in proptest::option::of(proptest::collection::vec(any::<u8>(), 1..64)),
        post in any::<bool>(),
    ) {
        let path = "/collect";
        let mut b = if post {
            RequestBuilder::post(path)
        } else {
            RequestBuilder::get(path)
        };
        for (k, v) in &qs {
            b = b.query(k, v);
        }
        if let Some(c) = &cookie {
            b = b.cookie(c);
        }
        if let Some(body) = &body {
            b = b.body(body.clone());
        }
        let ip = Ipv4Addr::new(198, 51, 100, 9);
        let pkt = b.destination(ip, 443, &host).build();
        let raw = pkt.to_bytes();
        let mut arena = ParseArena::new();
        let limits = ParseLimits::UNLIMITED;
        match parse_request_view(&raw, ip, 443, &limits, &mut arena) {
            Ok(v) => {
                prop_assert!(v.is_utf8_line());
                prop_assert_eq!(v.to_packet(&arena), pkt.clone());
                prop_assert_eq!(v.cookie(), pkt.cookie());
                prop_assert_eq!(v.body(), pkt.body.as_slice());
                prop_assert_eq!(v.host_bytes(), pkt.destination.host.as_bytes());
            }
            other => prop_assert!(false, "well-formed image must view-parse, got {:?}", other),
        }
    }

    /// `write_wire` rebuilds the materialised packet's wire image byte
    /// for byte over every input the view parser accepts: well-formed
    /// images with free-form headers (padded values, duplicates, odd
    /// methods and versions), then mangled by the fault crate's bit
    /// flips. One output buffer serves every case, so a stale tail from
    /// a longer earlier image would show.
    #[test]
    fn write_wire_matches_materialised_bytes(
        method in "[A-Z]{1,7}",
        version in "HTTP/[0-9]\\.[0-9]",
        headers in proptest::collection::vec((free_header_name(), header_value()), 0..6),
        padded in any::<bool>(),
        body in proptest::option::of(proptest::collection::vec(any::<u8>(), 1..96)),
        seed in any::<u64>(),
        flips in 0usize..6,
    ) {
        let mut raw = format!("{method} /w?x=1 {version}\r\nHost: wire.example\r\n").into_bytes();
        for (name, value) in &headers {
            raw.extend_from_slice(name.as_bytes());
            raw.extend_from_slice(if padded { b":  \t" } else { b":" });
            raw.extend_from_slice(value);
            raw.extend_from_slice(if padded { b" \r\n" } else { b"\r\n" });
        }
        if let Some(body) = &body {
            raw.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        if let Some(body) = &body {
            raw.extend_from_slice(body);
        }
        flip_bytes(&mut raw, seed, flips);

        let mut arena = ParseArena::new();
        let mut wire = b"stale bytes from an earlier, longer image".repeat(8);
        if let Ok(v) =
            parse_request_view(&raw, Ipv4Addr::LOCALHOST, 80, &ParseLimits::intake(), &mut arena)
        {
            v.write_wire(&arena, &mut wire);
            prop_assert_eq!(wire, v.to_packet(&arena).to_bytes());
        }
    }
}
