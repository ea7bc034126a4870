//! The HTTP packet model.

use std::fmt;
use std::net::Ipv4Addr;

/// Common header-name spellings interned as `&'static str`, so parsing a
/// typical mobile request allocates nothing for its header names. Exact
/// (case-sensitive) spellings only: interning must never canonicalize,
/// because [`HttpPacket::to_bytes`] has to reproduce the wire bytes.
fn interned_name(s: &str) -> Option<&'static str> {
    Some(match s {
        "Host" => "Host",
        "Cookie" => "Cookie",
        "Content-Length" => "Content-Length",
        "Content-Type" => "Content-Type",
        "User-Agent" => "User-Agent",
        "Accept" => "Accept",
        "Accept-Encoding" => "Accept-Encoding",
        "Accept-Language" => "Accept-Language",
        "Connection" => "Connection",
        "Referer" => "Referer",
        "Cache-Control" => "Cache-Control",
        "Pragma" => "Pragma",
        "Authorization" => "Authorization",
        "Origin" => "Origin",
        "Range" => "Range",
        "If-Modified-Since" => "If-Modified-Since",
        "If-None-Match" => "If-None-Match",
        "X-Requested-With" => "X-Requested-With",
        // Lowercase spellings show up in sloppy capture files.
        "host" => "host",
        "cookie" => "cookie",
        "content-length" => "content-length",
        "content-type" => "content-type",
        "user-agent" => "user-agent",
        "accept" => "accept",
        "connection" => "connection",
        _ => return None,
    })
}

/// A header field name: a static reference for the common set (interned,
/// allocation-free) or an owned string for everything else. Compares,
/// hashes, and displays as its string value regardless of representation,
/// and always preserves the exact spelling as written on the wire.
#[derive(Debug, Clone)]
pub struct HeaderName(NameRepr);

#[derive(Debug, Clone)]
enum NameRepr {
    Static(&'static str),
    Owned(Box<str>),
}

impl HeaderName {
    /// Intern `name` if it is a common spelling, else copy it.
    pub fn new(name: &str) -> Self {
        match interned_name(name) {
            Some(s) => HeaderName(NameRepr::Static(s)),
            None => HeaderName(NameRepr::Owned(name.into())),
        }
    }

    /// The name as written.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Static(s) => s,
            NameRepr::Owned(s) => s,
        }
    }
}

impl std::ops::Deref for HeaderName {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for HeaderName {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for HeaderName {}

impl std::hash::Hash for HeaderName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialEq<str> for HeaderName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for HeaderName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&str> for HeaderName {
    fn from(s: &str) -> Self {
        HeaderName::new(s)
    }
}

impl From<String> for HeaderName {
    fn from(s: String) -> Self {
        match interned_name(&s) {
            Some(st) => HeaderName(NameRepr::Static(st)),
            None => HeaderName(NameRepr::Owned(s.into_boxed_str())),
        }
    }
}

impl fmt::Display for HeaderName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Request method. The paper's dataset is GET/POST only; other methods are
/// preserved verbatim so the parser does not lose information.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Method {
    /// HTTP GET.
    Get,
    /// HTTP POST.
    Post,
    /// Any other token (HEAD, PUT, ...), kept as written.
    Other(String),
}

impl Method {
    /// The canonical token for the request line.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Other(s) => s,
        }
    }

    /// Parse a method token.
    pub fn from_token(tok: &str) -> Method {
        match tok {
            "GET" => Method::Get,
            "POST" => Method::Post,
            other => Method::Other(other.to_string()),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a packet is going: the triple the destination distance (§IV-B) is
/// defined over.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Destination {
    /// Destination IPv4 address.
    pub ip: Ipv4Addr,
    /// Destination TCP port.
    pub port: u16,
    /// HTTP `Host` FQDN (no port suffix).
    pub host: String,
}

impl Destination {
    /// Construct from parts.
    pub fn new(ip: Ipv4Addr, port: u16, host: impl Into<String>) -> Self {
        Destination {
            ip,
            port,
            host: host.into(),
        }
    }

    /// The registrable domain: the last two labels of the host
    /// ("a.b.ad-maker.info" → "ad-maker.info"), or three when the final
    /// two are a second-level public suffix ("m.yahoo.co.jp" →
    /// "yahoo.co.jp"). Used for per-domain aggregation in the Table II
    /// reproduction.
    ///
    /// Hosts with no registrable domain are returned whole: IPv4
    /// literals (slicing "10.0.0.1" to its last two labels would invent
    /// a bogus "0.1" aggregate), single-label hosts ("localhost"), and
    /// the empty string. A trailing root-label dot ("example.com.") is
    /// stripped before slicing, so the fully-qualified spelling
    /// aggregates with the plain one.
    pub fn base_domain(&self) -> &str {
        const SECOND_LEVEL: &[&str] = &["co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp"];
        let host = self.host.strip_suffix('.').unwrap_or(&self.host);
        if host.parse::<Ipv4Addr>().is_ok() {
            return host;
        }
        let dots: Vec<usize> = host.rmatch_indices('.').map(|(i, _)| i).collect();
        if dots.len() < 2 {
            return host;
        }
        let two_labels = &host[dots[1] + 1..];
        if SECOND_LEVEL.contains(&two_labels) {
            match dots.get(2) {
                Some(&third) => &host[third + 1..],
                None => host,
            }
        } else {
            two_labels
        }
    }
}

/// The request line: `METHOD target HTTP/version`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestLine {
    /// Request method token.
    pub method: Method,
    /// Origin-form target: path plus optional `?query`.
    pub target: String,
    /// Version suffix as written, e.g. `"HTTP/1.1"`.
    pub version: String,
}

impl RequestLine {
    /// The full request line as transmitted (no trailing CRLF).
    pub fn as_line(&self) -> String {
        format!("{} {} {}", self.method.as_str(), self.target, self.version)
    }

    /// Path component of the target (before `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// Raw query string (after `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }
}

/// One captured outgoing HTTP request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HttpPacket {
    /// Where the packet goes.
    pub destination: Destination,
    /// The request line.
    pub request_line: RequestLine,
    /// Header fields in transmission order, excluding none: `Host` and
    /// `Cookie` appear here like any other field.
    pub headers: Vec<(HeaderName, Vec<u8>)>,
    /// Message body (empty for bodiless requests).
    pub body: Vec<u8>,
}

impl HttpPacket {
    /// First header value with the given case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&[u8]> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_slice())
    }

    /// The `Cookie` header value, or empty. The paper's content distance
    /// treats a missing cookie as the empty string.
    pub fn cookie(&self) -> &[u8] {
        self.header("Cookie").unwrap_or(b"")
    }

    /// The three content fields of §IV-C as byte strings:
    /// `(request-line, cookie, message-body)`.
    pub fn content_fields(&self) -> (Vec<u8>, &[u8], &[u8]) {
        (
            self.request_line.as_line().into_bytes(),
            self.cookie(),
            &self.body,
        )
    }

    /// Serialize to raw request bytes (CRLF line endings, headers in
    /// stored order, body appended verbatim).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(self.request_line.as_line().as_bytes());
        out.extend_from_slice(b"\r\n");
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Total wire size in bytes.
    pub fn wire_len(&self) -> usize {
        self.to_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dest(host: &str) -> Destination {
        Destination::new(Ipv4Addr::new(192, 0, 2, 1), 80, host)
    }

    #[test]
    fn method_tokens() {
        assert_eq!(Method::from_token("GET"), Method::Get);
        assert_eq!(Method::from_token("POST"), Method::Post);
        assert_eq!(
            Method::from_token("HEAD"),
            Method::Other("HEAD".to_string())
        );
        assert_eq!(Method::Get.to_string(), "GET");
        assert_eq!(Method::Other("PUT".into()).as_str(), "PUT");
    }

    #[test]
    fn base_domain_extraction() {
        assert_eq!(dest("ad-maker.info").base_domain(), "ad-maker.info");
        assert_eq!(dest("a.b.ad-maker.info").base_domain(), "ad-maker.info");
        assert_eq!(dest("localhost").base_domain(), "localhost");
        assert_eq!(dest("api.nend.net").base_domain(), "nend.net");
        assert_eq!(dest("m.yahoo.co.jp").base_domain(), "yahoo.co.jp");
        assert_eq!(dest("yahoo.co.jp").base_domain(), "yahoo.co.jp");
        assert_eq!(dest("a.b.i-mobile.co.jp").base_domain(), "i-mobile.co.jp");
    }

    #[test]
    fn base_domain_degenerate_hosts() {
        // IPv4 literals have no registrable domain — the address is the
        // identity, never a sliced "0.1".
        assert_eq!(dest("10.0.0.1").base_domain(), "10.0.0.1");
        assert_eq!(dest("203.0.113.254").base_domain(), "203.0.113.254");
        // Single-label hosts come back whole.
        assert_eq!(dest("localhost").base_domain(), "localhost");
        assert_eq!(dest("intranet").base_domain(), "intranet");
        // Trailing root-label dot is stripped, so FQDN spellings
        // aggregate with the plain ones.
        assert_eq!(dest("example.com.").base_domain(), "example.com");
        assert_eq!(dest("a.b.example.com.").base_domain(), "example.com");
        assert_eq!(dest("m.yahoo.co.jp.").base_domain(), "yahoo.co.jp");
        assert_eq!(dest("localhost.").base_domain(), "localhost");
        // Empty and bare-dot hosts do not panic.
        assert_eq!(dest("").base_domain(), "");
        assert_eq!(dest(".").base_domain(), "");
    }

    #[test]
    fn request_line_parts() {
        let rl = RequestLine {
            method: Method::Get,
            target: "/getad?aid=1&c=x".to_string(),
            version: "HTTP/1.1".to_string(),
        };
        assert_eq!(rl.path(), "/getad");
        assert_eq!(rl.query(), Some("aid=1&c=x"));
        assert_eq!(rl.as_line(), "GET /getad?aid=1&c=x HTTP/1.1");

        let bare = RequestLine {
            method: Method::Post,
            target: "/submit".to_string(),
            version: "HTTP/1.0".to_string(),
        };
        assert_eq!(bare.path(), "/submit");
        assert_eq!(bare.query(), None);
    }

    #[test]
    fn header_lookup_case_insensitive() {
        let pkt = HttpPacket {
            destination: dest("example.com"),
            request_line: RequestLine {
                method: Method::Get,
                target: "/".into(),
                version: "HTTP/1.1".into(),
            },
            headers: vec![
                ("Host".into(), b"example.com".to_vec()),
                ("COOKIE".into(), b"k=v".to_vec()),
            ],
            body: Vec::new(),
        };
        assert_eq!(pkt.header("host"), Some(&b"example.com"[..]));
        assert_eq!(pkt.cookie(), b"k=v");
        assert_eq!(pkt.header("user-agent"), None);
    }

    #[test]
    fn cookie_defaults_empty() {
        let pkt = HttpPacket {
            destination: dest("example.com"),
            request_line: RequestLine {
                method: Method::Get,
                target: "/".into(),
                version: "HTTP/1.1".into(),
            },
            headers: vec![],
            body: Vec::new(),
        };
        assert_eq!(pkt.cookie(), b"");
        let (rline, cookie, body) = pkt.content_fields();
        assert_eq!(rline, b"GET / HTTP/1.1");
        assert!(cookie.is_empty() && body.is_empty());
    }
}
