//! The owned request parser as it stood before the view grammar became
//! the only one, kept verbatim as the differential reference: it
//! lossy-decodes the whole request line and then splits the text on
//! `' '`, copies every header into an owned `(HeaderName, Vec<u8>)`
//! pair, and takes the host from the lossy-decoded `Host` value up to its
//! first `':'`. Only the `ParseLimits` and `ParseError` definitions are
//! left out (the crate's are used); the line splitter and the token and
//! `Content-Length` helpers come along.

use leaksig_http::{
    Destination, HeaderName, HttpPacket, Method, ParseError, ParseLimits, RequestLine,
};
use std::net::Ipv4Addr;

/// Split off one line (supporting `\r\n` and `\n`), searching for the
/// terminator only within the first `max_len + 2` bytes so a giant
/// newline-less blob costs at most `max_len` of scanning.
///
/// Returns `Ok(Some((line, rest)))` on success, `Ok(None)` when the input
/// ends before any terminator, and `Err(())` when the line would exceed
/// `max_len` bytes.
pub(crate) type LineAndRest<'a> = Option<(&'a [u8], &'a [u8])>;

pub(crate) fn take_line_within(input: &[u8], max_len: usize) -> Result<LineAndRest<'_>, ()> {
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

pub(crate) fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Parse a `Content-Length` value exactly the way the owned parser always
/// has: lossy-decode, `str::trim`, `parse`. Shared with the zero-copy view
/// parser so the two paths cannot drift — for valid UTF-8 values (the only
/// kind real traffic carries) the `Cow` stays borrowed and nothing
/// allocates until the error path.
pub(crate) fn parse_content_length(value: &[u8]) -> Result<usize, ParseError> {
    let text = String::from_utf8_lossy(value);
    text.trim()
        .parse()
        .map_err(|_| ParseError::BadContentLength(text.into_owned()))
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
    let (first, mut rest) = take_line_within(raw, limits.max_request_line)
        .map_err(|()| ParseError::RequestLineTooLong {
            limit: limits.max_request_line,
        })?
        .ok_or(ParseError::Empty)?;
    if first.is_empty() {
        return Err(ParseError::Empty);
    }
    let first_str = String::from_utf8_lossy(first);
    let mut parts = first_str.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::MalformedRequestLine(first_str.into_owned())),
    };
    if !version.starts_with("HTTP/") {
        return Err(ParseError::BadVersion(version.to_string()));
    }
    let request_line = RequestLine {
        method: Method::from_token(method),
        target: target.to_string(),
        version: version.to_string(),
    };

    let mut headers: Vec<(HeaderName, Vec<u8>)> = Vec::new();
    let mut line_no = 0usize;
    let body;
    loop {
        let (line, next) = take_line_within(rest, limits.max_header_line)
            .map_err(|()| ParseError::HeaderTooLong {
                line: line_no,
                limit: limits.max_header_line,
            })?
            .ok_or(ParseError::UnterminatedHeaders)?;
        rest = next;
        if line.is_empty() {
            body = rest;
            break;
        }
        if headers.len() >= limits.max_header_count {
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
        // Names passed `is_token_byte`, so they are ASCII — the lossless
        // str view is free, and common spellings intern without allocating.
        let name = std::str::from_utf8(name).expect("token bytes are ASCII");
        headers.push((HeaderName::new(name), value.to_vec()));
        line_no += 1;
    }

    let body = match headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("Content-Length"))
    {
        Some((_, v)) => {
            let expected = parse_content_length(v)?;
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
            body[..expected].to_vec()
        }
        None => {
            if body.len() > limits.max_body {
                return Err(ParseError::BodyTooLarge {
                    limit: limits.max_body,
                    got: body.len(),
                });
            }
            body.to_vec()
        }
    };

    let host = parse_host(&headers);
    Ok(HttpPacket {
        destination: Destination::new(ip, port, host),
        request_line,
        headers,
        body,
    })
}

/// Extract the FQDN from the `Host` header, dropping any `:port` suffix.
fn parse_host(headers: &[(HeaderName, Vec<u8>)]) -> String {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("Host"))
        .map(|(_, v)| {
            let s = String::from_utf8_lossy(v);
            match s.split_once(':') {
                Some((h, _)) => h.to_string(),
                None => s.into_owned(),
            }
        })
        .unwrap_or_default()
}
