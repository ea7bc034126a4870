//! The owned parse entry points, their resource limits and errors
//! (RFC 7230 subset).
//!
//! Accepts: a request line (`METHOD SP target SP HTTP/x.y`), any number of
//! `name: value` header fields, a blank line, and a body delimited by
//! `Content-Length` (or by end-of-input when absent — capture files often
//! lack the header for GETs). Both CRLF and bare LF line endings are
//! accepted; traffic dumps are sloppy.
//!
//! Two entry points: [`parse_request`] trusts its input (in-process
//! captures, tests), while [`parse_request_limited`] enforces
//! [`ParseLimits`] and is what a collection server exposed to raw mobile
//! traffic must use — a header bomb or a multi-gigabyte `Content-Length`
//! is rejected with a classified error before any proportional work or
//! allocation happens. Both run the crate's one grammar,
//! [`parse_request_view`], and materialise its view with
//! [`PacketView::to_packet`](crate::PacketView::to_packet).

use crate::model::HttpPacket;
use crate::view::{parse_request_view, ParseArena};
use std::net::Ipv4Addr;

/// Hard resource limits for parsing untrusted request bytes.
///
/// Every limit is enforced *before* the corresponding work: the header
/// count before pushing the header, the body size before copying the
/// body, the line lengths before materialising the line as a `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum request-line length in bytes (terminator excluded).
    pub max_request_line: usize,
    /// Maximum number of header fields.
    pub max_header_count: usize,
    /// Maximum length of one header line in bytes (terminator excluded).
    pub max_header_line: usize,
    /// Maximum body size in bytes — enforced against the *declared*
    /// `Content-Length` as well as the actual trailing bytes, so a
    /// dishonest declaration is rejected without allocation.
    pub max_body: usize,
}

impl ParseLimits {
    /// No limits: the trusting [`parse_request`] behaviour.
    pub const UNLIMITED: ParseLimits = ParseLimits {
        max_request_line: usize::MAX,
        max_header_count: usize::MAX,
        max_header_line: usize::MAX,
        max_body: usize::MAX,
    };

    /// Defaults for an internet-facing intake path: 8 KiB request line
    /// and header lines, 128 headers, 1 MiB body. Generous for mobile
    /// ad/analytics traffic (the paper's dataset averages well under
    /// 2 KiB per request), tight enough that a flood of maximal packets
    /// stays bounded.
    pub fn intake() -> ParseLimits {
        ParseLimits {
            max_request_line: 8 * 1024,
            max_header_count: 128,
            max_header_line: 8 * 1024,
            max_body: 1024 * 1024,
        }
    }
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits::intake()
    }
}

/// Parse failure, with enough position information to debug a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Input had no request line.
    Empty,
    /// Request line did not have the three space-separated parts.
    MalformedRequestLine(String),
    /// The version token did not start with `HTTP/`.
    BadVersion(String),
    /// A header line had no `:` separator (line number, 0-based from the
    /// first header line).
    MalformedHeader(usize),
    /// A header name contained forbidden bytes.
    BadHeaderName(usize),
    /// Headers were not terminated by a blank line.
    UnterminatedHeaders,
    /// `Content-Length` was present but not a valid number.
    BadContentLength(String),
    /// The body was shorter than `Content-Length` promised.
    TruncatedBody {
        /// Bytes promised by `Content-Length`.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The request line exceeded [`ParseLimits::max_request_line`].
    RequestLineTooLong {
        /// The configured limit.
        limit: usize,
    },
    /// More header fields than [`ParseLimits::max_header_count`].
    TooManyHeaders {
        /// The configured limit.
        limit: usize,
    },
    /// A header line exceeded [`ParseLimits::max_header_line`]
    /// (0-based line number, limit).
    HeaderTooLong {
        /// 0-based header line number.
        line: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The body (declared via `Content-Length` or actually present)
    /// exceeded [`ParseLimits::max_body`].
    BodyTooLarge {
        /// The configured limit.
        limit: usize,
        /// Declared or actual body size.
        got: usize,
    },
}

impl ParseError {
    /// Stable lower-case label naming the reject class — what quarantine
    /// ledgers and event logs key on. One label per variant; labels never
    /// change even if the variant payloads do.
    pub fn tag(&self) -> &'static str {
        match self {
            ParseError::Empty => "empty",
            ParseError::MalformedRequestLine(_) => "bad-request-line",
            ParseError::BadVersion(_) => "bad-version",
            ParseError::MalformedHeader(_) => "bad-header",
            ParseError::BadHeaderName(_) => "bad-header-name",
            ParseError::UnterminatedHeaders => "unterminated-headers",
            ParseError::BadContentLength(_) => "bad-content-length",
            ParseError::TruncatedBody { .. } => "truncated-body",
            ParseError::RequestLineTooLong { .. } => "request-line-too-long",
            ParseError::TooManyHeaders { .. } => "header-bomb",
            ParseError::HeaderTooLong { .. } => "header-too-long",
            ParseError::BodyTooLarge { .. } => "body-too-large",
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty request"),
            ParseError::MalformedRequestLine(l) => write!(f, "malformed request line: {l:?}"),
            ParseError::BadVersion(v) => write!(f, "bad HTTP version token: {v:?}"),
            ParseError::MalformedHeader(n) => write!(f, "header line {n} has no colon"),
            ParseError::BadHeaderName(n) => write!(f, "header line {n} has an invalid name"),
            ParseError::UnterminatedHeaders => write!(f, "headers not terminated by blank line"),
            ParseError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            ParseError::TruncatedBody { expected, got } => {
                write!(f, "body truncated: expected {expected} bytes, got {got}")
            }
            ParseError::RequestLineTooLong { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
            ParseError::TooManyHeaders { limit } => {
                write!(f, "more than {limit} header fields")
            }
            ParseError::HeaderTooLong { line, limit } => {
                write!(f, "header line {line} exceeds {limit} bytes")
            }
            ParseError::BodyTooLarge { limit, got } => {
                write!(f, "body of {got} bytes exceeds {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse raw request bytes captured toward `ip:port` into an
/// [`HttpPacket`]. The packet's host is taken from the `Host` header
/// (empty string when absent, as in HTTP/1.0 captures).
///
/// This entry point applies **no resource limits** and is only
/// appropriate for trusted in-process input; an intake path fed raw
/// network bytes must use [`parse_request_limited`].
pub fn parse_request(raw: &[u8], ip: Ipv4Addr, port: u16) -> Result<HttpPacket, ParseError> {
    parse_request_limited(raw, ip, port, &ParseLimits::UNLIMITED)
}

/// [`parse_request`] under hard resource limits: every limit is checked
/// before the corresponding allocation or copy, so the cost of rejecting
/// an adversarial input is bounded by the limits, not by the input.
pub fn parse_request_limited(
    raw: &[u8],
    ip: Ipv4Addr,
    port: u16,
    limits: &ParseLimits,
) -> Result<HttpPacket, ParseError> {
    let mut arena = ParseArena::new();
    parse_request_view(raw, ip, port, limits, &mut arena).map(|view| view.to_packet(&arena))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Method;

    const IP: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

    fn parse(raw: &[u8]) -> Result<HttpPacket, ParseError> {
        parse_request(raw, IP, 80)
    }

    #[test]
    fn minimal_get() {
        let pkt = parse(b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n").unwrap();
        assert_eq!(pkt.request_line.method, Method::Get);
        assert_eq!(pkt.request_line.target, "/");
        assert_eq!(pkt.destination.host, "example.com");
        assert!(pkt.body.is_empty());
    }

    #[test]
    fn post_with_content_length() {
        let pkt = parse(
            b"POST /track HTTP/1.1\r\nHost: flurry.com\r\nContent-Length: 11\r\n\r\nimei=355195",
        )
        .unwrap();
        assert_eq!(pkt.request_line.method, Method::Post);
        assert_eq!(pkt.body, b"imei=355195");
    }

    #[test]
    fn content_length_truncates_trailing_garbage() {
        let pkt =
            parse(b"POST /x HTTP/1.1\r\nHost: h.jp\r\nContent-Length: 3\r\n\r\nabcEXTRA").unwrap();
        assert_eq!(pkt.body, b"abc");
    }

    #[test]
    fn truncated_body_is_an_error() {
        let err =
            parse(b"POST /x HTTP/1.1\r\nHost: h.jp\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(
            err,
            ParseError::TruncatedBody {
                expected: 10,
                got: 3
            }
        );
    }

    #[test]
    fn bare_lf_line_endings() {
        let pkt = parse(b"GET /a?b=c HTTP/1.0\nHost: nend.net\nCookie: s=1\n\n").unwrap();
        assert_eq!(pkt.destination.host, "nend.net");
        assert_eq!(pkt.cookie(), b"s=1");
    }

    #[test]
    fn host_port_suffix_dropped() {
        let pkt = parse(b"GET / HTTP/1.1\r\nHost: proxy.example.jp:8080\r\n\r\n").unwrap();
        assert_eq!(pkt.destination.host, "proxy.example.jp");
    }

    #[test]
    fn missing_host_is_empty() {
        let pkt = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(pkt.destination.host, "");
    }

    #[test]
    fn malformed_request_lines() {
        assert_eq!(parse(b""), Err(ParseError::Empty));
        assert_eq!(parse(b"\r\n\r\n"), Err(ParseError::Empty));
        assert!(matches!(
            parse(b"GET /\r\n\r\n"),
            Err(ParseError::MalformedRequestLine(_))
        ));
        assert!(matches!(
            parse(b"GET / index HTTP/1.1\r\n\r\n"),
            Err(ParseError::MalformedRequestLine(_))
        ));
        assert!(matches!(
            parse(b"GET / FTP/1.1\r\n\r\n"),
            Err(ParseError::BadVersion(_))
        ));
    }

    #[test]
    fn malformed_headers() {
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(ParseError::MalformedHeader(0))
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nOk: 1\r\nbad name: 2\r\n\r\n"),
            Err(ParseError::BadHeaderName(1))
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nHost: x"),
            Err(ParseError::UnterminatedHeaders)
        );
    }

    #[test]
    fn bad_content_length() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(ParseError::BadContentLength(_))
        ));
    }

    #[test]
    fn header_value_whitespace_trimmed() {
        let pkt = parse(b"GET / HTTP/1.1\r\nHost:   spaced.example.jp  \r\n\r\n").unwrap();
        assert_eq!(pkt.destination.host, "spaced.example.jp");
    }

    #[test]
    fn binary_body_preserved() {
        let mut raw = b"POST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\n".to_vec();
        raw.extend_from_slice(&[0x00, 0xff, 0x80, 0x7f]);
        let pkt = parse(&raw).unwrap();
        assert_eq!(pkt.body, vec![0x00, 0xff, 0x80, 0x7f]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ParseError::TruncatedBody {
            expected: 5,
            got: 2,
        };
        assert!(e.to_string().contains("expected 5"));
        assert!(ParseError::Empty.to_string().contains("empty"));
    }

    fn tight() -> ParseLimits {
        ParseLimits {
            max_request_line: 64,
            max_header_count: 4,
            max_header_line: 48,
            max_body: 128,
        }
    }

    fn parse_tight(raw: &[u8]) -> Result<HttpPacket, ParseError> {
        parse_request_limited(raw, IP, 80, &tight())
    }

    #[test]
    fn limited_accepts_conforming_requests() {
        let pkt = parse_tight(
            b"POST /track HTTP/1.1\r\nHost: flurry.com\r\nContent-Length: 11\r\n\r\nimei=355195",
        )
        .unwrap();
        assert_eq!(pkt.body, b"imei=355195");
        // And the unlimited entry point is the limited one with no limits.
        let raw = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        assert_eq!(
            parse(raw).unwrap(),
            parse_request_limited(raw, IP, 80, &ParseLimits::UNLIMITED).unwrap()
        );
    }

    #[test]
    fn request_line_limit() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 100));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(
            parse_tight(&raw),
            Err(ParseError::RequestLineTooLong { limit: 64 })
        );
        // A newline-less blob larger than the limit is the same reject,
        // not UnterminatedHeaders/Empty.
        let blob = vec![b'x'; 500];
        assert_eq!(
            parse_tight(&blob),
            Err(ParseError::RequestLineTooLong { limit: 64 })
        );
    }

    #[test]
    fn header_count_limit() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..10 {
            raw.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(
            parse_tight(&raw),
            Err(ParseError::TooManyHeaders { limit: 4 })
        );
    }

    #[test]
    fn header_line_limit() {
        let mut raw = b"GET / HTTP/1.1\r\nx-big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'v', 100));
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(
            parse_tight(&raw),
            Err(ParseError::HeaderTooLong { line: 0, limit: 48 })
        );
    }

    #[test]
    fn body_limits_declared_and_actual() {
        // Dishonest declaration: rejected on the declared size even
        // though no body bytes follow.
        assert_eq!(
            parse_tight(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"),
            Err(ParseError::BodyTooLarge {
                limit: 128,
                got: 999999
            })
        );
        // Undeclared body: rejected on the actual trailing bytes.
        let mut raw = b"POST / HTTP/1.1\r\nHost: h\r\n\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'b', 200));
        assert_eq!(
            parse_tight(&raw),
            Err(ParseError::BodyTooLarge {
                limit: 128,
                got: 200
            })
        );
        // At the limit: fine.
        let mut ok = b"POST / HTTP/1.1\r\nContent-Length: 128\r\n\r\n".to_vec();
        ok.extend(std::iter::repeat_n(b'b', 128));
        assert_eq!(parse_tight(&ok).unwrap().body.len(), 128);
    }

    #[test]
    fn tags_are_stable_and_unique() {
        let samples = [
            ParseError::Empty,
            ParseError::MalformedRequestLine(String::new()),
            ParseError::BadVersion(String::new()),
            ParseError::MalformedHeader(0),
            ParseError::BadHeaderName(0),
            ParseError::UnterminatedHeaders,
            ParseError::BadContentLength(String::new()),
            ParseError::TruncatedBody {
                expected: 0,
                got: 0,
            },
            ParseError::RequestLineTooLong { limit: 0 },
            ParseError::TooManyHeaders { limit: 0 },
            ParseError::HeaderTooLong { line: 0, limit: 0 },
            ParseError::BodyTooLarge { limit: 0, got: 0 },
        ];
        let tags: std::collections::HashSet<&str> = samples.iter().map(|e| e.tag()).collect();
        assert_eq!(tags.len(), samples.len(), "tags must be distinct");
        assert_eq!(ParseError::TooManyHeaders { limit: 1 }.tag(), "header-bomb");
    }
}
