//! Fluent construction of [`HttpPacket`]s.

use crate::model::{Destination, HeaderName, HttpPacket, Method, RequestLine};
use crate::query;
use std::net::Ipv4Addr;

/// Builder for [`HttpPacket`], used by the traffic generator and tests.
///
/// ```
/// use leaksig_http::RequestBuilder;
/// use std::net::Ipv4Addr;
///
/// let pkt = RequestBuilder::get("/getad")
///     .query("aid", "f3a9c1d2")
///     .destination(Ipv4Addr::new(203, 0, 113, 9), 80, "ad-maker.info")
///     .build();
/// assert_eq!(pkt.request_line.target, "/getad?aid=f3a9c1d2");
/// assert_eq!(pkt.destination.host, "ad-maker.info");
/// ```
#[derive(Debug, Clone)]
pub struct RequestBuilder {
    method: Method,
    path: String,
    query_pairs: Vec<(String, String)>,
    version: String,
    headers: Vec<(HeaderName, Vec<u8>)>,
    body: Vec<u8>,
    form_pairs: Vec<(String, String)>,
    destination: Option<Destination>,
}

impl RequestBuilder {
    fn new(method: Method, path: &str) -> Self {
        RequestBuilder {
            method,
            path: path.to_string(),
            query_pairs: Vec::new(),
            version: "HTTP/1.1".to_string(),
            headers: Vec::new(),
            body: Vec::new(),
            form_pairs: Vec::new(),
            destination: None,
        }
    }

    /// Start a GET request for `path` (no query yet).
    pub fn get(path: &str) -> Self {
        Self::new(Method::Get, path)
    }

    /// Start a POST request for `path`.
    pub fn post(path: &str) -> Self {
        Self::new(Method::Post, path)
    }

    /// Append a query-string parameter (form-urlencoded on build).
    pub fn query(mut self, key: &str, value: &str) -> Self {
        self.query_pairs.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a form parameter to the body (POST); sets
    /// `Content-Type: application/x-www-form-urlencoded` on build.
    pub fn form(mut self, key: &str, value: &str) -> Self {
        self.form_pairs.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a raw header field.
    pub fn header(mut self, name: &str, value: impl AsRef<[u8]>) -> Self {
        self.headers
            .push((HeaderName::new(name), value.as_ref().to_vec()));
        self
    }

    /// Set the `Cookie` header.
    pub fn cookie(self, value: &str) -> Self {
        self.header("Cookie", value.as_bytes())
    }

    /// Replace the body with raw bytes (overrides [`RequestBuilder::form`]).
    pub fn body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = body.into();
        self
    }

    /// Set the HTTP version token (default `HTTP/1.1`).
    pub fn version(mut self, version: &str) -> Self {
        self.version = version.to_string();
        self
    }

    /// Set the destination triple; the `Host` header is derived from it.
    pub fn destination(mut self, ip: Ipv4Addr, port: u16, host: &str) -> Self {
        self.destination = Some(Destination::new(ip, port, host));
        self
    }

    /// Finalize. Panics if no destination was provided — generator code
    /// always knows where a packet goes, so a missing destination is a
    /// construction bug, not a runtime condition.
    pub fn build(self) -> HttpPacket {
        let destination = self
            .destination
            .expect("RequestBuilder: destination not set");

        let target = if self.query_pairs.is_empty() {
            self.path
        } else {
            let q = query::encode_pairs(
                self.query_pairs
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str())),
            );
            format!("{}?{}", self.path, q)
        };

        let mut headers = Vec::with_capacity(self.headers.len() + 3);
        headers.push(("Host".into(), destination.host.clone().into_bytes()));
        headers.extend(self.headers);

        let body = if !self.form_pairs.is_empty() && self.body.is_empty() {
            headers.push((
                "Content-Type".into(),
                b"application/x-www-form-urlencoded".to_vec(),
            ));
            query::encode_pairs(
                self.form_pairs
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str())),
            )
            .into_bytes()
        } else {
            self.body
        };
        if !body.is_empty() {
            headers.push(("Content-Length".into(), body.len().to_string().into_bytes()));
        }

        HttpPacket {
            destination,
            request_line: RequestLine {
                method: self.method,
                target,
                version: self.version,
            },
            headers,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 4);

    #[test]
    fn get_with_query_builds_target() {
        let pkt = RequestBuilder::get("/ad")
            .query("a", "1")
            .query("b", "two words")
            .destination(IP, 80, "nend.net")
            .build();
        assert_eq!(pkt.request_line.target, "/ad?a=1&b=two+words");
        assert_eq!(pkt.header("Host"), Some(&b"nend.net"[..]));
        assert!(pkt.body.is_empty());
    }

    #[test]
    fn post_form_sets_content_headers() {
        let pkt = RequestBuilder::post("/track")
            .form("imei", "355195000000017")
            .form("net", "docomo")
            .destination(IP, 80, "flurry.com")
            .build();
        assert_eq!(pkt.body, b"imei=355195000000017&net=docomo");
        assert_eq!(
            pkt.header("Content-Type"),
            Some(&b"application/x-www-form-urlencoded"[..])
        );
        assert_eq!(pkt.header("Content-Length"), Some(&b"31"[..]));
    }

    #[test]
    fn raw_body_wins_over_form() {
        let pkt = RequestBuilder::post("/raw")
            .body(&b"\x00\x01binary"[..])
            .destination(IP, 443, "api.example.jp")
            .build();
        assert_eq!(pkt.body, b"\x00\x01binary");
        assert_eq!(pkt.header("Content-Type"), None);
        assert_eq!(pkt.destination.port, 443);
    }

    #[test]
    #[should_panic(expected = "destination not set")]
    fn missing_destination_panics() {
        let _ = RequestBuilder::get("/").build();
    }

    #[test]
    fn cookie_and_custom_headers() {
        let pkt = RequestBuilder::get("/")
            .cookie("sid=99")
            .header("User-Agent", "Dalvik/1.4.0 (Linux; Android 2.3.4)")
            .destination(IP, 80, "mbga.jp")
            .build();
        assert_eq!(pkt.cookie(), b"sid=99");
        assert!(pkt.header("User-Agent").is_some());
    }
}
