//! The request grammar: zero-copy packet views over the raw receive
//! buffer, backed by a reusable span arena.
//!
//! [`parse_request_view`] is the crate's one request grammar. Instead of
//! materialising owned `String`s and `Vec`s per header, it records byte
//! *spans* into the caller's buffer. The content fields detection scans —
//! request line, `Cookie`, body — live inline in the [`PacketView`];
//! header spans go into a [`ParseArena`] that a batch-processing loop
//! resets between batches, so steady-state parsing performs no per-packet
//! allocation at all. The owned entry points
//! ([`parse_request_limited`](crate::parse_request_limited)) are a view
//! parse followed by [`PacketView::to_packet`].
//!
//! # Request lines that are not UTF-8
//!
//! The packet model holds the method, target and version as text, so a
//! request line that is not valid UTF-8 materialises lossy-decoded
//! (invalid sequences become U+FFFD). The grammar splits the raw line on
//! `' '` and the `Host` value on `':'` *before* any decoding. Both
//! separators are ASCII, and `String::from_utf8_lossy` never folds an ASCII byte
//! into a replaced sequence, so splitting the bytes and then decoding each
//! span gives exactly what decoding the whole line and then splitting the
//! text gives. A view therefore keeps its spans for every line and only
//! records whether the line was UTF-8 ([`PacketView::is_utf8_line`]):
//! [`PacketView::to_packet`] and [`PacketView::write_wire`] decode the
//! spans of a line that is not, and borrow the raw bytes otherwise.
//! [`PacketView::rline`] always returns the raw bytes.
//!
//! # Arena reset discipline
//!
//! A view's header list is a span range into the arena it was parsed
//! with. Resetting the arena (between batches) recycles that storage, so
//! header access through an earlier view — [`PacketView::headers`],
//! [`PacketView::to_packet`], [`PacketView::write_wire`] — is then a
//! logic error. It is not reliably caught: once later parses have refilled
//! the arena, the old range can fall in bounds and yield spans recorded
//! for another packet, read against the old view's buffer (wrong bytes, or
//! a panic when a span runs past that buffer). The inline fields —
//! request line, cookie, body, host — stay valid for as long as the
//! underlying raw buffer lives. The scan path only touches inline fields,
//! so a batch loop may parse, scan, and reset freely.

use crate::model::{Destination, HeaderName, HttpPacket, Method, RequestLine};
use crate::{ParseError, ParseLimits};
use std::borrow::Cow;
use std::net::Ipv4Addr;
use std::ops::Range;

/// A `(start, len)` byte span into the raw buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Span {
    start: usize,
    len: usize,
}

impl Span {
    fn of(raw: &[u8], slice: &[u8]) -> Span {
        Span {
            start: slice.as_ptr() as usize - raw.as_ptr() as usize,
            len: slice.len(),
        }
    }

    fn end(&self) -> usize {
        self.start + self.len
    }

    fn get<'a>(&self, raw: &'a [u8]) -> &'a [u8] {
        &raw[self.start..self.end()]
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

    /// Recycle the arena for the next batch. Header access through views
    /// parsed before the reset is a logic error from then on (see the
    /// module docs); their inline fields stay valid.
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
    /// Whether the request line is valid UTF-8; when it is not, the
    /// materialised line is the lossy decode of its spans.
    utf8_line: bool,
    host: Span,
    cookie: Option<Span>,
    body: Span,
    /// Range into the arena's header list.
    headers: Range<usize>,
}

impl<'a> PacketView<'a> {
    /// The matchable request-line bytes: `METHOD SP target`, borrowed
    /// straight from the buffer (no per-packet formatting) — contiguous
    /// because the request line is single-space separated. This is
    /// exactly the request-line text the token layer matches against
    /// (the version suffix never enters the token universe). Raw bytes
    /// even when the line is not UTF-8, where the materialised packet
    /// holds their lossy decode (see [`PacketView::is_utf8_line`]).
    pub fn rline(&self) -> &'a [u8] {
        &self.raw[self.method.start..self.target.end()]
    }

    /// Whether the request line is valid UTF-8. When it is not, the
    /// packet [`PacketView::to_packet`] builds holds the lossy decode of
    /// the method, target and version, so its request line differs from
    /// the raw [`PacketView::rline`] bytes.
    pub fn is_utf8_line(&self) -> bool {
        self.utf8_line
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

    /// Header `(name, value)` byte pairs, in transmission order. Requires
    /// the arena the view was parsed with, un-reset since.
    pub fn headers<'s>(
        &'s self,
        arena: &'s ParseArena,
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 's {
        arena.headers[self.headers.clone()]
            .iter()
            .map(|h| (h.name.get(self.raw), h.value.get(self.raw)))
    }

    /// A span as text: borrowed when valid UTF-8, lossy-decoded otherwise.
    /// `str::from_utf8` runs first because its validation has an ASCII
    /// fast path that the lossy decoder's chunk walk lacks.
    fn text(&self, span: Span) -> Cow<'a, str> {
        let bytes = span.get(self.raw);
        match std::str::from_utf8(bytes) {
            Ok(text) => Cow::Borrowed(text),
            Err(_) => String::from_utf8_lossy(bytes),
        }
    }

    /// Materialise an owned [`HttpPacket`]. A request line that is not
    /// UTF-8 is lossy-decoded span by span, as is the host. Requires the
    /// parse-time arena, un-reset since.
    pub fn to_packet(&self, arena: &ParseArena) -> HttpPacket {
        let headers = self
            .headers(arena)
            .map(|(name, value)| {
                let name = std::str::from_utf8(name).expect("token bytes are ASCII");
                (HeaderName::new(name), value.to_vec())
            })
            .collect();
        HttpPacket {
            destination: Destination::new(self.ip, self.port, self.text(self.host)),
            request_line: RequestLine {
                method: Method::from_token(&self.text(self.method)),
                target: self.text(self.target).into_owned(),
                version: self.text(self.version).into_owned(),
            },
            headers,
            body: self.body().to_vec(),
        }
    }

    /// Write the wire image of [`PacketView::to_packet`] into `out`
    /// (cleared first): byte-identical to `to_packet(arena).to_bytes()`,
    /// without materialising the packet. Allocates nothing once `out`
    /// has grown to the largest image seen, unless the request line is
    /// not UTF-8. Requires the parse-time arena, un-reset since.
    pub fn write_wire(&self, arena: &ParseArena, out: &mut Vec<u8>) {
        out.clear();
        // The method token round-trips through `Method::from_token`
        // unchanged, so the request line is the line's bytes up to the
        // CRLF — lossy-decoded as a whole when it is not UTF-8, which
        // equals decoding each span (see the module docs).
        let line = &self.raw[self.method.start..self.version.end()];
        if self.utf8_line {
            out.extend_from_slice(line);
        } else {
            out.extend_from_slice(String::from_utf8_lossy(line).as_bytes());
        }
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

/// One line and the input after its terminator.
type LineAndRest<'a> = Option<(&'a [u8], &'a [u8])>;

/// Split off one line (supporting `\r\n` and `\n`), searching for the
/// terminator only within the first `max_len + 2` bytes so a giant
/// newline-less blob costs at most `max_len` of scanning.
///
/// Returns `Ok(Some((line, rest)))` on success, `Ok(None)` when the input
/// ends before any terminator, and `Err(())` when the line would exceed
/// `max_len` bytes.
fn take_line_within(input: &[u8], max_len: usize) -> Result<LineAndRest<'_>, ()> {
    let window = max_len.saturating_add(2).min(input.len());
    match input[..window].iter().position(|&b| b == b'\n') {
        Some(nl) => {
            let line = if nl > 0 && input[nl - 1] == b'\r' {
                &input[..nl - 1]
            } else {
                &input[..nl]
            };
            if line.len() > max_len {
                return Err(());
            }
            Ok(Some((line, &input[nl + 1..])))
        }
        None if input.len() > window => Err(()),
        None => Ok(None),
    }
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Parse a `Content-Length` value: lossy-decode, `str::trim`, `parse`.
/// For valid UTF-8 values (the only kind real traffic carries) the `Cow`
/// stays borrowed and nothing allocates until the error path.
fn parse_content_length(value: &[u8]) -> Result<usize, ParseError> {
    let text = String::from_utf8_lossy(value);
    text.trim()
        .parse()
        .map_err(|_| ParseError::BadContentLength(text.into_owned()))
}

/// What the header block and body yield besides the header spans.
struct Fields {
    host: Span,
    cookie: Option<Span>,
    body: Span,
}

/// Parse the header lines after the request line, pushing one span pair
/// per header onto `headers`, then cut the body. On a reject the caller
/// truncates `headers` back to where it started.
fn parse_fields(
    raw: &[u8],
    mut rest: &[u8],
    limits: &ParseLimits,
    headers: &mut Vec<HeaderSpan>,
) -> Result<Fields, ParseError> {
    let base = headers.len();
    let mut cookie: Option<Span> = None;
    let mut content_length: Option<Span> = None;
    let mut host: Option<Span> = None;
    let body = loop {
        let line_no = headers.len() - base;
        let (line, next) = take_line_within(rest, limits.max_header_line)
            .map_err(|()| ParseError::HeaderTooLong {
                line: line_no,
                limit: limits.max_header_line,
            })?
            .ok_or(ParseError::UnterminatedHeaders)?;
        rest = next;
        if line.is_empty() {
            break rest;
        }
        if line_no >= limits.max_header_count {
            return Err(ParseError::TooManyHeaders {
                limit: limits.max_header_count,
            });
        }
        let colon = line
            .iter()
            .position(|&b| b == b':')
            .ok_or(ParseError::MalformedHeader(line_no))?;
        let name = &line[..colon];
        if name.is_empty() || !name.iter().all(|&b| is_token_byte(b)) {
            return Err(ParseError::BadHeaderName(line_no));
        }
        let mut value = &line[colon + 1..];
        // Trim optional whitespace around the value.
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
            // Strip any `:port` suffix at the first `:` byte; the host is
            // decoded after the split, like the request line.
            let stripped = match value.iter().position(|&b| b == b':') {
                Some(c) => &value[..c],
                None => value,
            };
            host = Some(Span::of(raw, stripped));
        }
        headers.push(HeaderSpan {
            name: Span::of(raw, name),
            value: value_span,
        });
    };

    let body = match content_length {
        Some(v) => {
            let expected = parse_content_length(v.get(raw))?;
            // The declaration alone is enough to reject: a dishonest
            // multi-gigabyte Content-Length must not survive to a copy.
            if expected > limits.max_body {
                return Err(ParseError::BodyTooLarge {
                    limit: limits.max_body,
                    got: expected,
                });
            }
            if body.len() < expected {
                return Err(ParseError::TruncatedBody {
                    expected,
                    got: body.len(),
                });
            }
            &body[..expected]
        }
        None => {
            if body.len() > limits.max_body {
                return Err(ParseError::BodyTooLarge {
                    limit: limits.max_body,
                    got: body.len(),
                });
            }
            body
        }
    };
    Ok(Fields {
        host: host.unwrap_or_default(),
        cookie,
        body: Span::of(raw, body),
    })
}

/// Parse raw request bytes captured toward `ip:port` under hard
/// [`ParseLimits`] into a borrowed [`PacketView`] whose header spans land
/// in `arena`. Every limit is checked before the corresponding work, and
/// a reject leaves the arena as it was. Performs no allocation on the
/// accept path once the arena has warmed up.
pub fn parse_request_view<'a>(
    raw: &'a [u8],
    ip: Ipv4Addr,
    port: u16,
    limits: &ParseLimits,
    arena: &mut ParseArena,
) -> Result<PacketView<'a>, ParseError> {
    let (first, rest) = take_line_within(raw, limits.max_request_line)
        .map_err(|()| ParseError::RequestLineTooLong {
            limit: limits.max_request_line,
        })?
        .ok_or(ParseError::Empty)?;
    if first.is_empty() {
        return Err(ParseError::Empty);
    }
    // `METHOD SP target SP version`: exactly three single-space-separated
    // parts with non-empty method and target. Split on the raw bytes;
    // decoding comes later, span by span (see the module docs).
    let malformed =
        || ParseError::MalformedRequestLine(String::from_utf8_lossy(first).into_owned());
    let sp1 = first
        .iter()
        .position(|&b| b == b' ')
        .ok_or_else(malformed)?;
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

    // A reject leaves the arena as it found it.
    let header_base = arena.headers.len();
    let fields = parse_fields(raw, rest, limits, &mut arena.headers);
    if fields.is_err() {
        arena.headers.truncate(header_base);
    }
    let Fields { host, cookie, body } = fields?;

    Ok(PacketView {
        raw,
        ip,
        port,
        method: Span::of(raw, method),
        target: Span::of(raw, target),
        version: Span::of(raw, version),
        utf8_line: std::str::from_utf8(first).is_ok(),
        host,
        cookie,
        body,
        headers: header_base..arena.headers.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

    fn view<'a>(raw: &'a [u8], arena: &mut ParseArena) -> PacketView<'a> {
        parse_request_view(raw, IP, 80, &ParseLimits::UNLIMITED, arena).unwrap()
    }

    #[test]
    fn view_fields_borrow_the_buffer() {
        let raw: &[u8] =
            b"POST /track?imei=355195 HTTP/1.1\r\nHost: flurry.com:8080\r\nCookie: s=1\r\nContent-Length: 4\r\n\r\nbodyEXTRA";
        let mut arena = ParseArena::new();
        let v = view(raw, &mut arena);
        assert!(v.is_utf8_line());
        assert_eq!(v.rline(), b"POST /track?imei=355195");
        assert_eq!(v.cookie(), b"s=1");
        assert_eq!(v.body(), b"body");
        assert_eq!(v.host_bytes(), b"flurry.com");
        assert_eq!(v.headers(&arena).count(), 3);
        // Every accessor's slice points into `raw` — zero copy.
        let range = raw.as_ptr_range();
        for s in [v.rline(), v.cookie(), v.body(), v.host_bytes()] {
            assert!(range.contains(&s.as_ptr()));
        }
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
    fn non_utf8_line_keeps_raw_spans() {
        // The packet it materialises to is pinned against the reference
        // parser in `tests/differential.rs`.
        let raw: &[u8] = b"GET /\xff\xfe?a=1 HTTP/1.1\r\nHost: h\xc3.example:81\r\n\r\n";
        let mut arena = ParseArena::new();
        let v = view(raw, &mut arena);
        assert!(!v.is_utf8_line());
        assert_eq!(v.rline(), b"GET /\xff\xfe?a=1");
        assert_eq!(v.host_bytes(), b"h\xc3.example");
    }
}
