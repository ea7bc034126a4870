#![warn(missing_docs)]
//! HTTP request model for `leaksig`.
//!
//! The paper's unit of analysis is the outgoing HTTP GET/POST request
//! ("HTTP packet"): a destination `{ip, port, host}` plus the content
//! fields the content distance is defined over — request-line, `Cookie`
//! header, and message body (§IV-B/C). This crate provides:
//!
//! * [`HttpPacket`] — the packet model, with the field accessors the
//!   distance and signature layers consume;
//! * [`parse_request_view`] — the one request grammar, an RFC 7230-subset
//!   parser from raw request bytes (request line, header fields,
//!   `Content-Length`-delimited body) behind hard [`ParseLimits`]. It
//!   yields zero-copy [`PacketView`]s whose header spans live in a
//!   reusable [`ParseArena`] (hot scan and intake paths);
//! * [`parse_request_limited`] — that grammar materialised into an owned
//!   [`HttpPacket`] ([`PacketView::to_packet`]) for untrusted input, and
//!   [`parse_request`] — the same with no limits for trusted captures;
//! * [`HttpPacket::to_bytes`] — the inverse serializer;
//! * [`RequestBuilder`] — ergonomic construction for generators and tests;
//! * [`query`] — `application/x-www-form-urlencoded` encode/decode.
//!
//! The parser is deliberately strict about structure (malformed packets
//! are data-quality signals in a traffic pipeline, not something to guess
//! around) but tolerant about bytes: header values and bodies are treated
//! as opaque octets, and a request line or `Host` value that is not UTF-8
//! materialises lossy-decoded.

mod builder;
mod model;
mod parse;
pub mod query;
mod view;

pub use builder::RequestBuilder;
pub use model::{Destination, HeaderName, HttpPacket, Method, RequestLine};
pub use parse::{parse_request, parse_request_limited, ParseError, ParseLimits};
pub use view::{parse_request_view, PacketView, ParseArena};

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn build_serialize_parse_round_trip() {
        let pkt = RequestBuilder::get("/getad")
            .query("androidid", "f3a9c1d200b14e77")
            .query("carrier", "NTTDOCOMO")
            .header("User-Agent", "Dalvik/1.4.0")
            .cookie("session=abc123")
            .destination(Ipv4Addr::new(203, 0, 113, 7), 80, "ad-maker.info")
            .build();
        let bytes = pkt.to_bytes();
        let reparsed = parse_request(&bytes, pkt.destination.ip, pkt.destination.port).unwrap();
        assert_eq!(reparsed, pkt);
    }
}
