//! Zero-copy request parsing: borrowed packet views over the raw receive
//! buffer, backed by a reusable span arena.
//!
//! [`parse_request_view`] is the allocation-free twin of
//! [`parse_request_limited`](crate::parse_request_limited): instead of
//! materialising owned `String`s and `Vec`s per header, it records byte
//! *spans* into the caller's buffer. The content fields detection scans —
//! request line, `Cookie`, body — live inline in the [`PacketView`];
//! header spans go into a [`ParseArena`] that a batch-processing loop
//! resets between batches, so steady-state parsing performs no per-packet
//! allocation at all.
//!
//! The owned parser remains the semantic oracle: for every input the view
//! parser either produces a view whose [`PacketView::to_packet`]
//! materialisation is byte-identical to the owned parse (including the
//! exact `ParseError` on rejects), or returns [`ViewOutcome::Opaque`] for
//! the one case a borrowed view cannot represent — a request line that is
//! not valid UTF-8, where the owned path's lossy decode rewrites bytes.
//! Callers fall back to the owned parser there; a property test pins the
//! equivalence.
//!
//! # Arena reset discipline
//!
//! A view's header list is a span range into the arena it was parsed
//! with. Resetting the arena (between batches) recycles that storage:
//! header access through earlier views is then invalid (the accessors
//! will panic on out-of-range), while the inline fields — request line,
//! cookie, body, host — remain usable for as long as the underlying raw
//! buffer lives. The scan path only touches inline fields, so a batch
//! loop may parse, scan, and reset freely.

use crate::model::{Destination, HeaderName, HttpPacket, Method, RequestLine};
use crate::parse::{is_token_byte, parse_content_length, take_line_within, ParseError};
use crate::ParseLimits;
use std::net::Ipv4Addr;
use std::ops::Range;

/// A `(start, len)` byte span into the raw buffer. `u32` offsets keep the
/// arena entries small; buffers past 4 GiB fall back to the owned parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn of(raw: &[u8], slice: &[u8]) -> Span {
        let start = slice.as_ptr() as usize - raw.as_ptr() as usize;
        Span {
            start: start as u32,
            len: slice.len() as u32,
        }
    }

    fn get<'a>(&self, raw: &'a [u8]) -> &'a [u8] {
        &raw[self.start as usize..(self.start + self.len) as usize]
    }
}

/// One header field as spans into the raw buffer.
#[derive(Debug, Clone, Copy)]
struct HeaderSpan {
    name: Span,
    value: Span,
}

/// Reusable span storage for view parsing. One arena per worker thread;
/// [`ParseArena::reset`] between batches keeps capacity and frees nothing,
/// so steady-state parsing allocates only while the arena is still
/// growing toward the largest batch seen.
#[derive(Debug, Default)]
pub struct ParseArena {
    headers: Vec<HeaderSpan>,
}

impl ParseArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        ParseArena::default()
    }

    /// Recycle the arena for the next batch. Invalidates header access on
    /// views parsed since the previous reset (see the module docs); their
    /// inline fields stay valid.
    pub fn reset(&mut self) {
        self.headers.clear();
    }

    /// Header spans currently stored (all views since the last reset).
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the arena holds no spans.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }
}

/// A parsed request borrowed from its raw receive buffer: no owned
/// strings, no copied bytes. Produced by [`parse_request_view`].
#[derive(Debug, Clone)]
pub struct PacketView<'a> {
    raw: &'a [u8],
    ip: Ipv4Addr,
    port: u16,
    method: Span,
    target: Span,
    version: Span,
    /// `METHOD SP target` — contiguous in the raw buffer because the
    /// request line is single-space separated. This is exactly the
    /// request-line text the token layer matches against (the version
    /// suffix never enters the token universe).
    rline: Span,
    host: Span,
    cookie: Option<Span>,
    body: Span,
    /// Range into the arena's header list.
    headers: Range<u32>,
}

impl<'a> PacketView<'a> {
    /// Destination IPv4 address this capture was headed to.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Destination TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The method token as written.
    pub fn method(&self) -> &'a str {
        std::str::from_utf8(self.method.get(self.raw)).expect("request line was UTF-8 checked")
    }

    /// The origin-form target (path plus optional `?query`).
    pub fn target(&self) -> &'a str {
        std::str::from_utf8(self.target.get(self.raw)).expect("request line was UTF-8 checked")
    }

    /// The version token as written (e.g. `HTTP/1.1`).
    pub fn version(&self) -> &'a str {
        std::str::from_utf8(self.version.get(self.raw)).expect("request line was UTF-8 checked")
    }

    /// The matchable request-line bytes: `METHOD SP target`, borrowed
    /// straight from the buffer (no per-packet formatting).
    pub fn rline(&self) -> &'a [u8] {
        self.rline.get(self.raw)
    }

    /// First `Cookie` header value, or empty — the §IV-C convention.
    pub fn cookie(&self) -> &'a [u8] {
        match self.cookie {
            Some(s) => s.get(self.raw),
            None => b"",
        }
    }

    /// The message body (already truncated to `Content-Length`).
    pub fn body(&self) -> &'a [u8] {
        self.body.get(self.raw)
    }

    /// The `Host` FQDN bytes with any `:port` suffix stripped (empty when
    /// the header is absent).
    pub fn host_bytes(&self) -> &'a [u8] {
        self.host.get(self.raw)
    }

    /// Number of header fields.
    pub fn header_count(&self) -> usize {
        self.headers.len()
    }

    /// Header `(name, value)` byte pairs, in transmission order. Requires
    /// the arena the view was parsed with, un-reset since.
    pub fn headers<'s>(
        &'s self,
        arena: &'s ParseArena,
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 's {
        arena.headers[self.headers.start as usize..self.headers.end as usize]
            .iter()
            .map(|h| (h.name.get(self.raw), h.value.get(self.raw)))
    }

    /// Materialise an owned [`HttpPacket`] — byte-identical to what
    /// [`parse_request_limited`](crate::parse_request_limited) returns for
    /// the same input. Requires the parse-time arena, un-reset since.
    pub fn to_packet(&self, arena: &ParseArena) -> HttpPacket {
        let headers = self
            .headers(arena)
            .map(|(name, value)| {
                let name = std::str::from_utf8(name).expect("token bytes are ASCII");
                (HeaderName::new(name), value.to_vec())
            })
            .collect();
        HttpPacket {
            destination: Destination::new(
                self.ip,
                self.port,
                String::from_utf8_lossy(self.host_bytes()).into_owned(),
            ),
            request_line: RequestLine {
                method: Method::from_token(self.method()),
                target: self.target().to_string(),
                version: self.version().to_string(),
            },
            headers,
            body: self.body().to_vec(),
        }
    }

    /// Write the wire image of [`PacketView::to_packet`] into `out`
    /// (cleared first): byte-identical to `to_packet(arena).to_bytes()`,
    /// without materialising the packet. Allocates nothing once `out`
    /// has grown to the largest image seen. Requires the parse-time
    /// arena, un-reset since.
    pub fn write_wire(&self, arena: &ParseArena, out: &mut Vec<u8>) {
        out.clear();
        // The method token round-trips through `Method::from_token`
        // unchanged, so the request line is the raw bytes up to the CRLF.
        out.extend_from_slice(self.rline());
        out.push(b' ');
        out.extend_from_slice(self.version.get(self.raw));
        out.extend_from_slice(b"\r\n");
        for (name, value) in self.headers(arena) {
            out.extend_from_slice(name);
            out.extend_from_slice(b": ");
            out.extend_from_slice(value);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body());
    }
}

/// Result of a view parse that did not reject the input.
#[derive(Debug)]
pub enum ViewOutcome<'a> {
    /// A borrowed view over the buffer.
    View(PacketView<'a>),
    /// The request line is not valid UTF-8 (or the buffer exceeds span
    /// range): the owned parser's lossy decode rewrites bytes a borrowed
    /// view cannot represent. Parse this input with
    /// [`parse_request_limited`](crate::parse_request_limited) instead.
    Opaque,
}

/// Zero-copy variant of
/// [`parse_request_limited`](crate::parse_request_limited): identical
/// accept/reject behaviour (including the exact [`ParseError`]), but the
/// accepted form is a borrowed [`PacketView`] whose header spans land in
/// `arena`. Performs no allocation on the accept path once the arena has
/// warmed up.
pub fn parse_request_view<'a>(
    raw: &'a [u8],
    ip: Ipv4Addr,
    port: u16,
    limits: &ParseLimits,
    arena: &mut ParseArena,
) -> Result<ViewOutcome<'a>, ParseError> {
    if raw.len() > u32::MAX as usize {
        return Ok(ViewOutcome::Opaque);
    }
    let (first, mut rest) = take_line_within(raw, limits.max_request_line)
        .map_err(|()| ParseError::RequestLineTooLong {
            limit: limits.max_request_line,
        })?
        .ok_or(ParseError::Empty)?;
    if first.is_empty() {
        return Err(ParseError::Empty);
    }
    let Ok(first_str) = std::str::from_utf8(first) else {
        // The owned path lossy-decodes here; delegate to it.
        return Ok(ViewOutcome::Opaque);
    };
    // `METHOD SP target SP version`, exactly three single-space-separated
    // parts with non-empty method and target — byte-for-byte the owned
    // parser's `split(' ')` contract.
    let malformed = || ParseError::MalformedRequestLine(first_str.to_string());
    let sp1 = first.iter().position(|&b| b == b' ').ok_or_else(malformed)?;
    let sp2 = first[sp1 + 1..]
        .iter()
        .position(|&b| b == b' ')
        .map(|i| sp1 + 1 + i)
        .ok_or_else(malformed)?;
    if sp1 == 0 || sp2 == sp1 + 1 || first[sp2 + 1..].contains(&b' ') {
        return Err(malformed());
    }
    let method = &first[..sp1];
    let target = &first[sp1 + 1..sp2];
    let version = &first[sp2 + 1..];
    if !version.starts_with(b"HTTP/") {
        return Err(ParseError::BadVersion(
            String::from_utf8_lossy(version).into_owned(),
        ));
    }

    let header_base = arena.headers.len();
    let mut line_no = 0usize;
    let mut cookie: Option<Span> = None;
    let mut content_length: Option<Span> = None;
    let mut host: Option<Span> = None;
    let body_all;
    loop {
        let (line, next) = take_line_within(rest, limits.max_header_line)
            .map_err(|()| ParseError::HeaderTooLong {
                line: line_no,
                limit: limits.max_header_line,
            })?
            .ok_or(ParseError::UnterminatedHeaders)
            .inspect_err(|_| arena.headers.truncate(header_base))?;
        rest = next;
        if line.is_empty() {
            body_all = rest;
            break;
        }
        if arena.headers.len() - header_base >= limits.max_header_count {
            arena.headers.truncate(header_base);
            return Err(ParseError::TooManyHeaders {
                limit: limits.max_header_count,
            });
        }
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            arena.headers.truncate(header_base);
            return Err(ParseError::MalformedHeader(line_no));
        };
        let name = &line[..colon];
        if name.is_empty() || !name.iter().all(|&b| is_token_byte(b)) {
            arena.headers.truncate(header_base);
            return Err(ParseError::BadHeaderName(line_no));
        }
        let mut value = &line[colon + 1..];
        while value.first() == Some(&b' ') || value.first() == Some(&b'\t') {
            value = &value[1..];
        }
        while value.last() == Some(&b' ') || value.last() == Some(&b'\t') {
            value = &value[..value.len() - 1];
        }
        let value_span = Span::of(raw, value);
        if cookie.is_none() && name.eq_ignore_ascii_case(b"Cookie") {
            cookie = Some(value_span);
        }
        if content_length.is_none() && name.eq_ignore_ascii_case(b"Content-Length") {
            content_length = Some(value_span);
        }
        if host.is_none() && name.eq_ignore_ascii_case(b"Host") {
            // Strip any `:port` suffix; ASCII bytes survive the owned
            // path's lossy decode unchanged, so the first `:` byte is the
            // first `:` char there too.
            let stripped = match value.iter().position(|&b| b == b':') {
                Some(c) => &value[..c],
                None => value,
            };
            host = Some(Span::of(raw, stripped));
        }
        arena.headers.push(HeaderSpan {
            name: Span::of(raw, name),
            value: value_span,
        });
        line_no += 1;
    }

    let reject = |arena: &mut ParseArena, e: ParseError| {
        arena.headers.truncate(header_base);
        Err(e)
    };
    let body = match content_length {
        Some(v) => {
            let expected = match parse_content_length(v.get(raw)) {
                Ok(n) => n,
                Err(e) => return reject(arena, e),
            };
            if expected > limits.max_body {
                return reject(
                    arena,
                    ParseError::BodyTooLarge {
                        limit: limits.max_body,
                        got: expected,
                    },
                );
            }
            if body_all.len() < expected {
                return reject(
                    arena,
                    ParseError::TruncatedBody {
                        expected,
                        got: body_all.len(),
                    },
                );
            }
            &body_all[..expected]
        }
        None => {
            if body_all.len() > limits.max_body {
                return reject(
                    arena,
                    ParseError::BodyTooLarge {
                        limit: limits.max_body,
                        got: body_all.len(),
                    },
                );
            }
            body_all
        }
    };

    Ok(ViewOutcome::View(PacketView {
        raw,
        ip,
        port,
        method: Span::of(raw, method),
        target: Span::of(raw, target),
        version: Span::of(raw, version),
        rline: Span::of(raw, &first[..sp2]),
        host: host.unwrap_or_default(),
        cookie,
        body: Span::of(raw, body),
        headers: header_base as u32..arena.headers.len() as u32,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_request_limited, RequestBuilder};

    const IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

    fn view<'a>(raw: &'a [u8], arena: &mut ParseArena) -> PacketView<'a> {
        match parse_request_view(raw, IP, 80, &ParseLimits::UNLIMITED, arena).unwrap() {
            ViewOutcome::View(v) => v,
            ViewOutcome::Opaque => panic!("expected a view"),
        }
    }

    #[test]
    fn view_fields_borrow_the_buffer() {
        let raw: &[u8] =
            b"POST /track?imei=355195 HTTP/1.1\r\nHost: flurry.com:8080\r\nCookie: s=1\r\nContent-Length: 4\r\n\r\nbodyEXTRA";
        let mut arena = ParseArena::new();
        let v = view(raw, &mut arena);
        assert_eq!(v.method(), "POST");
        assert_eq!(v.target(), "/track?imei=355195");
        assert_eq!(v.version(), "HTTP/1.1");
        assert_eq!(v.rline(), b"POST /track?imei=355195");
        assert_eq!(v.cookie(), b"s=1");
        assert_eq!(v.body(), b"body");
        assert_eq!(v.host_bytes(), b"flurry.com");
        assert_eq!(v.header_count(), 3);
        // Every accessor's slice points into `raw` — zero copy.
        let range = raw.as_ptr_range();
        for s in [v.rline(), v.cookie(), v.body(), v.host_bytes()] {
            assert!(range.contains(&s.as_ptr()));
        }
    }

    #[test]
    fn materialisation_matches_owned_parser() {
        let pkt = RequestBuilder::post("/x")
            .query("a", "1")
            .cookie("sid=9")
            .header("User-Agent", "Dalvik/1.4.0")
            .body(&b"imei=355195"[..])
            .destination(IP, 80, "h.example.jp")
            .build();
        let raw = pkt.to_bytes();
        let mut arena = ParseArena::new();
        let v = view(&raw, &mut arena);
        let owned = parse_request_limited(&raw, IP, 80, &ParseLimits::UNLIMITED).unwrap();
        assert_eq!(v.to_packet(&arena), owned);
        assert_eq!(v.to_packet(&arena), pkt);
    }

    #[test]
    fn errors_match_owned_parser() {
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
        ];
        let mut arena = ParseArena::new();
        for raw in cases {
            let owned = parse_request_limited(raw, IP, 80, &ParseLimits::UNLIMITED).unwrap_err();
            match parse_request_view(raw, IP, 80, &ParseLimits::UNLIMITED, &mut arena) {
                Err(e) => assert_eq!(e, owned, "input {raw:?}"),
                other => panic!("expected error for {raw:?}, got {other:?}"),
            }
            // Rejects must not leak spans into the arena.
            assert!(arena.is_empty(), "arena dirty after reject of {raw:?}");
        }
    }

    #[test]
    fn invalid_utf8_request_line_is_opaque() {
        let raw = b"GET /\xff\xfe HTTP/1.1\r\n\r\n";
        let mut arena = ParseArena::new();
        match parse_request_view(raw, IP, 80, &ParseLimits::UNLIMITED, &mut arena).unwrap() {
            ViewOutcome::Opaque => {}
            ViewOutcome::View(_) => panic!("lossy request line must fall back"),
        }
        // The owned parser still handles it.
        assert!(parse_request_limited(raw, IP, 80, &ParseLimits::UNLIMITED).is_ok());
    }

    #[test]
    fn arena_reuse_across_packets_and_batches() {
        let a: &[u8] = b"GET /a HTTP/1.1\r\nHost: one.example\r\nX-N: 1\r\n\r\n";
        let b: &[u8] = b"GET /b HTTP/1.1\r\nHost: two.example\r\n\r\n";
        let mut arena = ParseArena::new();
        let va = view(a, &mut arena);
        let vb = view(b, &mut arena);
        // Both views' headers coexist in one arena.
        assert_eq!(va.headers(&arena).count(), 2);
        assert_eq!(vb.headers(&arena).count(), 1);
        assert_eq!(arena.len(), 3);
        assert_eq!(va.host_bytes(), b"one.example");
        assert_eq!(vb.host_bytes(), b"two.example");
        // Reset recycles storage; inline fields survive.
        arena.reset();
        assert!(arena.is_empty());
        assert_eq!(va.rline(), b"GET /a");
        let vc = view(b, &mut arena);
        assert_eq!(vc.headers(&arena).count(), 1);
    }

    #[test]
    fn limits_enforced_like_owned() {
        let tight = ParseLimits {
            max_request_line: 16,
            max_header_count: 2,
            max_header_line: 24,
            max_body: 8,
        };
        let mut arena = ParseArena::new();
        let cases: &[&[u8]] = &[
            b"GET /aaaaaaaaaaaaaaaaaaaaaaaaaa HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n",
            b"GET / HTTP/1.1\r\nbig: aaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n",
            b"POST / HTTP/1.1\r\n\r\n123456789",
        ];
        for raw in cases {
            let owned = parse_request_limited(raw, IP, 80, &tight).unwrap_err();
            match parse_request_view(raw, IP, 80, &tight, &mut arena) {
                Err(e) => assert_eq!(e, owned, "input {raw:?}"),
                other => panic!("expected error for {raw:?}, got {other:?}"),
            }
        }
        assert!(arena.is_empty());
    }
}
