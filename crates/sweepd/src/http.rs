//! Minimal HTTP/1.1 plumbing for the daemon: request parsing hardened
//! against malformed input (a public-ish port must never panic on a bad
//! byte stream) and response/SSE framing shared by every route.
//!
//! Deliberately tiny: methods and paths the daemon serves, plus
//! `Content-Length` bodies. Anything else is rejected with a JSON error
//! body, never a panic.

use std::io::{BufRead, Write};

/// Upper bound on request bodies. Matrix DSL strings are tens of bytes;
/// a megabyte means a confused or hostile client.
pub const MAX_BODY: usize = 1 << 20;

/// One parsed request: method, path, and (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request path (`/sweep`, `/jobs/3/events`, ...).
    pub path: String,
    /// Decoded UTF-8 body (empty when no `Content-Length`).
    pub body: String,
}

/// Reads and validates one request from `r`.
///
/// # Errors
///
/// A description of the first malformed element — request line, header,
/// oversized or non-UTF-8 body, truncated stream. The daemon maps every
/// one to a 400 response.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, String> {
    let mut line = String::new();
    r.read_line(&mut line)
        .map_err(|e| format!("reading request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/") {
        return Err(format!("malformed request line {:?}", line.trim_end()));
    }
    if !path.starts_with('/') {
        return Err(format!("malformed request path {path:?}"));
    }
    let mut content_len = 0usize;
    loop {
        let mut header = String::new();
        let n = r
            .read_line(&mut header)
            .map_err(|e| format!("reading header: {e}"))?;
        if n == 0 {
            return Err("connection closed inside headers".into());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((k, v)) = header.split_once(':') else {
            return Err(format!("malformed header {header:?}"));
        };
        if k.trim().eq_ignore_ascii_case("content-length") {
            content_len = v
                .trim()
                .parse()
                .map_err(|_| format!("bad content-length {:?}", v.trim()))?;
        }
    }
    if content_len > MAX_BODY {
        return Err(format!(
            "request body too large ({content_len} bytes, max {MAX_BODY})"
        ));
    }
    let mut body = vec![0u8; content_len];
    r.read_exact(&mut body)
        .map_err(|e| format!("reading body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    Ok(Request { method, path, body })
}

/// Writes one complete HTTP/1.1 response (connection: close). Write
/// errors are swallowed — the client is gone either way.
pub fn respond<W: Write>(stream: &mut W, status: &str, ctype: &str, body: &str) {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Writes a JSON response body.
pub fn respond_json<W: Write>(stream: &mut W, status: &str, json: &str) {
    respond(stream, status, "application/json", json);
}

/// Writes a JSON error object, `{"error":"..."}`.
pub fn respond_error<W: Write>(stream: &mut W, status: &str, msg: &str) {
    respond_json(
        stream,
        status,
        &format!("{{\"error\":{}}}", ccnuma_sim::json::quote(msg)),
    );
}

/// Formats one SSE frame (`event: kind` + one `data:` line).
pub fn sse_frame(kind: &str, data: &str) -> String {
    format!("event: {kind}\ndata: {data}\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, String> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_and_post_with_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");

        let req =
            parse("POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 14\r\n\r\napps=fft extra")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "apps=fft extra");
    }

    #[test]
    fn content_length_is_case_insensitive() {
        let req = parse("POST /sweep HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc").unwrap();
        assert_eq!(req.body, "abc");
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        // Garbage request line.
        assert!(parse("ello\r\n\r\n").is_err());
        // Empty stream.
        assert!(parse("").is_err());
        // Missing HTTP version.
        assert!(parse("GET /x\r\n\r\n").is_err());
        // Path that does not start with '/'.
        assert!(parse("GET x HTTP/1.1\r\n\r\n").is_err());
        // Header without a colon.
        assert!(parse("GET / HTTP/1.1\r\nbogus header\r\n\r\n").is_err());
        // Unparsable content length.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").is_err());
        // Body shorter than advertised (stream truncated).
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").is_err());
        // Stream that ends inside the headers.
        assert!(parse("GET / HTTP/1.1\r\nHost: x\r\n").is_err());
    }

    #[test]
    fn oversized_bodies_are_rejected_without_allocating() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(&raw).unwrap_err();
        assert!(err.contains("too large"), "{err}");
    }

    #[test]
    fn non_utf8_bodies_are_rejected() {
        let mut raw = b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n".to_vec();
        raw.extend_from_slice(&[0xff, 0xfe]);
        let err = read_request(&mut BufReader::new(raw.as_slice())).unwrap_err();
        assert!(err.contains("UTF-8"), "{err}");
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        respond_error(&mut out, "400 Bad Request", "bad \"dsl\"");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        assert!(text.ends_with("{\"error\":\"bad \\\"dsl\\\"\"}"), "{text}");
        let clen: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(clen, "{\"error\":\"bad \\\"dsl\\\"\"}".len());
    }

    #[test]
    fn sse_frames_are_event_then_data() {
        assert_eq!(
            sse_frame("cell", "{\"kind\":\"started\"}"),
            "event: cell\ndata: {\"kind\":\"started\"}\n\n"
        );
    }
}
