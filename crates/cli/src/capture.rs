//! The `.lsc` capture-file format: a length-framed sequence of raw HTTP
//! requests with their destination metadata.
//!
//! ```text
//! LEAKCAP/1
//! pkt <ipv4> <port> <app-or-dash> <byte-length>
//! <exactly byte-length raw request bytes>
//! (newline)
//! ...repeat...
//! ```
//!
//! Raw bytes are length-prefixed, so CR/LF inside requests is unambiguous.

use leaksig_http::{parse_request, HttpPacket};
use std::io::{BufRead, Write};
use std::net::Ipv4Addr;

/// One capture record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Originating app package, when known (`-` on the wire otherwise).
    pub app: Option<String>,
    pub packet: HttpPacket,
}

const MAGIC: &str = "LEAKCAP/1";

/// Write records to `w`.
pub fn write<W: Write>(w: &mut W, records: &[CaptureRecord]) -> std::io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    for rec in records {
        let bytes = rec.packet.to_bytes();
        writeln!(
            w,
            "pkt {} {} {} {}",
            rec.packet.destination.ip,
            rec.packet.destination.port,
            rec.app.as_deref().unwrap_or("-"),
            bytes.len()
        )?;
        w.write_all(&bytes)?;
        writeln!(w)?;
    }
    Ok(())
}

/// Read a whole capture from `r`.
pub fn read<R: BufRead>(r: &mut R) -> Result<Vec<CaptureRecord>, String> {
    let io = |e: std::io::Error| format!("i/o error: {e}");
    let mut line = String::new();
    r.read_line(&mut line).map_err(io)?;
    if line.trim_end() != MAGIC {
        return Err(format!("not a capture file (expected {MAGIC} header)"));
    }

    let mut records = Vec::new();
    loop {
        line.clear();
        if r.read_line(&mut line).map_err(io)? == 0 {
            break;
        }
        let header = line.trim_end();
        if header.is_empty() {
            continue;
        }
        let mut parts = header.split(' ');
        let (tag, ip, port, app, len) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        );
        let (Some("pkt"), Some(ip), Some(port), Some(app), Some(len), None) =
            (tag, ip, port, app, len, parts.next())
        else {
            return Err(format!("malformed record header: {header:?}"));
        };
        let ip: Ipv4Addr = ip.parse().map_err(|_| format!("bad ip {ip:?}"))?;
        let port: u16 = port.parse().map_err(|_| format!("bad port {port:?}"))?;
        let len: usize = len.parse().map_err(|_| format!("bad length {len:?}"))?;
        if len > 16 * 1024 * 1024 {
            return Err(format!("record length {len} too large"));
        }

        let mut raw = vec![0u8; len];
        r.read_exact(&mut raw)
            .map_err(|_| "truncated packet body".to_string())?;
        // Trailing newline after the raw bytes.
        let mut nl = [0u8; 1];
        if r.read_exact(&mut nl).is_ok() && nl[0] != b'\n' {
            return Err("missing record terminator".to_string());
        }

        let packet =
            parse_request(&raw, ip, port).map_err(|e| format!("unparsable packet: {e}"))?;
        records.push(CaptureRecord {
            app: (app != "-").then(|| app.to_string()),
            packet,
        });
    }
    Ok(records)
}

/// Convenience file wrappers.
pub fn write_file(path: &str, records: &[CaptureRecord]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    write(&mut w, records)
        .and_then(|()| w.flush())
        .map_err(|e| format!("i/o error: {e}"))
}

pub fn read_file(path: &str) -> Result<Vec<CaptureRecord>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read(&mut std::io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_http::RequestBuilder;

    fn sample() -> Vec<CaptureRecord> {
        let p1 = RequestBuilder::get("/ad")
            .query("imei", "355195000000017")
            .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
            .build();
        let p2 = RequestBuilder::post("/track")
            .form("ev", "launch")
            .cookie("sid=1")
            .destination(Ipv4Addr::new(198, 51, 100, 9), 8080, "flurry.com")
            .build();
        vec![
            CaptureRecord {
                app: Some("jp.co.mobika.puzzle".to_string()),
                packet: p1,
            },
            CaptureRecord {
                app: None,
                packet: p2,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let records = sample();
        let mut buf = Vec::new();
        write(&mut buf, &records).unwrap();
        let back = read(&mut std::io::Cursor::new(&buf)).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn rejects_bad_magic_and_headers() {
        assert!(read(&mut std::io::Cursor::new(b"NOPE\n")).is_err());
        let bad = b"LEAKCAP/1\npkt not-an-ip 80 - 5\nhello\n";
        assert!(read(&mut std::io::Cursor::new(&bad[..])).is_err());
        let short = b"LEAKCAP/1\npkt 1.2.3.4 80 - 9999\nhi\n";
        assert!(read(&mut std::io::Cursor::new(&short[..])).is_err());
    }

    #[test]
    fn reader_never_panics_on_garbage() {
        // Deterministic pseudo-random byte soup, including inputs that
        // start with the real magic.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for round in 0..200 {
            let len = (round * 7) % 300;
            let mut data: Vec<u8> = (0..len).map(|_| next()).collect();
            if round % 3 == 0 {
                let mut prefixed = b"LEAKCAP/1\n".to_vec();
                prefixed.extend_from_slice(&data);
                data = prefixed;
            }
            let _ = read(&mut std::io::Cursor::new(&data));
        }
    }

    #[test]
    fn empty_capture_is_fine() {
        let mut buf = Vec::new();
        write(&mut buf, &[]).unwrap();
        assert!(read(&mut std::io::Cursor::new(&buf)).unwrap().is_empty());
    }
}
