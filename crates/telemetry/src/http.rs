//! Minimal HTTP/1.1 plumbing shared by the telemetry hub and the sweep
//! daemon: the one server both run on ([`Stop`], [`serve`],
//! [`Subscribers`], [`stream_events`]), request parsing hardened against
//! malformed input (a public-ish port must never panic on a bad byte
//! stream), response/SSE framing, and the one blocking client.
//!
//! Deliberately tiny: a method, a path and a `Content-Length` body, each
//! bounded. Anything else is rejected with a JSON error body, never a
//! panic.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::Registry;

/// Upper bound on request bodies. Matrix DSL strings are tens of bytes;
/// a megabyte means a confused or hostile client.
pub const MAX_BODY: usize = 1 << 20;

/// Upper bound on the request line and on each header line, CRLF
/// included.
pub const MAX_LINE: usize = 8 << 10;

/// Upper bound on the number of headers in one request.
pub const MAX_HEADERS: usize = 64;

/// How long [`serve`] waits on any one read of a request before
/// answering `400`: a client that connects and sends nothing cannot
/// hold its thread.
pub const READ_TIMEOUT: Duration = Duration::from_secs(2);

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

/// Reads one line of at most [`MAX_LINE`] bytes.
fn read_line<R: BufRead>(r: &mut R, what: &str) -> Result<String, String> {
    let mut line = String::new();
    r.take(MAX_LINE as u64)
        .read_line(&mut line)
        .map_err(|e| format!("reading {what}: {e}"))?;
    if line.len() == MAX_LINE && !line.ends_with('\n') {
        return Err(format!("{what} longer than {MAX_LINE} bytes"));
    }
    Ok(line)
}

/// Reads and validates one request from `r`.
///
/// # Errors
///
/// A description of the first malformed element — request line, header,
/// oversized line, too many headers, oversized or non-UTF-8 body,
/// truncated stream. Servers map every one to a 400 response.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, String> {
    let line = read_line(r, "request line")?;
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
    for headers in 0.. {
        let header = read_line(r, "header")?;
        if header.is_empty() {
            return Err("connection closed inside headers".into());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if headers == MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} headers"));
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

/// A shutdown latch: set once by [`Stop::stop`], waited on by any number
/// of threads. Clones share the one latch; the default wakes no listener.
#[derive(Debug, Clone, Default)]
pub struct Stop(Arc<Latch>);

#[derive(Debug, Default)]
struct Latch {
    set: Mutex<bool>,
    cv: Condvar,
    /// The listener whose blocked `accept` a stop must wake.
    wake: Option<SocketAddr>,
}

impl Stop {
    /// Sets the latch and wakes every waiter; for a latch from [`bind`],
    /// also unblocks the accept loop with one throwaway connection.
    /// Idempotent.
    pub fn stop(&self) {
        if !std::mem::replace(&mut *self.lock(), true) {
            self.0.cv.notify_all();
            if let Some(addr) = self.0.wake {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
            }
        }
    }

    /// Whether the latch is set.
    pub fn is_set(&self) -> bool {
        *self.lock()
    }

    /// Blocks until the latch is set or `deadline` passes (`None`: no
    /// deadline). Returns whether the latch is set.
    pub fn wait_until(&self, deadline: Option<Instant>) -> bool {
        let (set, unset) = (self.lock(), |set: &mut bool| !*set);
        match deadline {
            None => *self
                .0
                .cv
                .wait_while(set, unset)
                .expect("stop latch poisoned"),
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                let waited = self.0.cv.wait_timeout_while(set, left, unset);
                *waited.expect("stop latch poisoned").0
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, bool> {
        self.0.set.lock().expect("stop latch poisoned")
    }
}

/// Binds `addr` and returns the listener with the latch that stops
/// [`serve`]ing it. Separate from [`serve`] so a handler can hold the
/// latch it stops.
///
/// # Errors
///
/// Any I/O error binding the address.
pub fn bind(addr: &str) -> std::io::Result<(TcpListener, Stop)> {
    let listener = TcpListener::bind(addr)?;
    let stop = Stop(Arc::new(Latch {
        wake: Some(listener.local_addr()?),
        ..Latch::default()
    }));
    Ok((listener, stop))
}

/// Spawns the accept loop, thread `name`, until `stop` is set. Each
/// connection gets a `{name}-conn` thread, a [`READ_TIMEOUT`], and one
/// `handle` call with its parsed request (or the parse error, which the
/// handler answers with a 400) and the stream.
///
/// # Errors
///
/// Any I/O error spawning the accept thread.
pub fn serve<F>(
    listener: TcpListener,
    stop: Stop,
    name: &str,
    handle: F,
) -> std::io::Result<JoinHandle<()>>
where
    F: Fn(Result<Request, String>, TcpStream) + Send + Sync + 'static,
{
    let handle = Arc::new(handle);
    let conn_name = format!("{name}-conn");
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || loop {
            let conn = listener.accept();
            if stop.is_set() {
                return;
            }
            let Ok((stream, _)) = conn else { continue };
            let handle = Arc::clone(&handle);
            let _ = std::thread::Builder::new()
                .name(conn_name.clone())
                .spawn(move || {
                    let req = stream
                        .set_read_timeout(Some(READ_TIMEOUT))
                        .map_err(|e| format!("setting read timeout: {e}"))
                        .and_then(|()| read_request(&mut BufReader::new(&stream)));
                    handle(req, stream);
                });
        })
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

/// Writes the Prometheus text exposition of `registry` (`/metrics`).
pub fn respond_metrics<W: Write>(stream: &mut W, registry: &Registry) {
    let body = crate::expo::prometheus(&registry.snapshot());
    let ctype = "text/plain; version=0.0.4; charset=utf-8";
    respond(stream, "200 OK", ctype, &body);
}

/// Writes a JSON error object, `{"error":"..."}`.
pub fn respond_error<W: Write>(stream: &mut W, status: &str, msg: &str) {
    respond_json(
        stream,
        status,
        &format!("{{\"error\":\"{}\"}}", crate::expo::esc_json(msg)),
    );
}

/// The head of a `text/event-stream` response (connection: close); the
/// body is [`sse_frame`]s.
pub const SSE_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";

/// Formats one SSE frame (`event: kind` + one `data:` line).
pub fn sse_frame(kind: &str, data: &str) -> String {
    format!("event: {kind}\ndata: {data}\n\n")
}

/// The open SSE streams of one event source: each subscriber is a
/// channel its connection thread forwards from ([`stream_events`]).
#[derive(Debug, Default)]
pub struct Subscribers(Mutex<Vec<Sender<String>>>);

impl Subscribers {
    /// Opens one subscription.
    pub fn subscribe(&self) -> Receiver<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.lock().push(tx);
        rx
    }

    /// Sends one pre-formatted SSE frame to every subscriber, dropping
    /// the ones whose connection has gone away.
    pub fn publish(&self, frame: &str) {
        self.lock().retain(|tx| tx.send(frame.to_string()).is_ok());
    }

    /// Drops every subscription, ending each stream once it has
    /// forwarded the frames already published.
    pub fn close(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Sender<String>>> {
        self.0.lock().expect("subscriber lock poisoned")
    }
}

/// One SSE response: the head and `first` (one or more frames), then
/// every frame `rx` delivers until its senders are gone or the client
/// leaves.
pub fn stream_events<W: Write>(stream: &mut W, first: &str, rx: Option<Receiver<String>>) {
    let mut send = |text: &str| {
        stream
            .write_all(text.as_bytes())
            .and_then(|()| stream.flush())
            .is_ok()
    };
    if !send(&format!("{SSE_HEAD}{first}")) {
        return;
    }
    let Some(rx) = rx else { return };
    for frame in rx {
        if !send(&frame) {
            return;
        }
    }
}

/// One blocking HTTP round trip with the given read timeout. Returns
/// `(status code, body)`.
///
/// # Errors
///
/// Connection or read failures, or an unparsable response head.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("sending request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("reading response: {e}"))?;
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("unparsable response head: {:?}", raw.lines().next()))?;
    let body = match raw.find("\r\n\r\n") {
        Some(i) => raw[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
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
    fn oversized_lines_and_too_many_headers_are_rejected() {
        // A header line of exactly MAX_LINE bytes, CRLF included, passes.
        let fits = format!("X: {}\r\n", "a".repeat(MAX_LINE - 5));
        assert_eq!(fits.len(), MAX_LINE);
        assert!(parse(&format!("GET / HTTP/1.1\r\n{fits}\r\n")).is_ok());
        let big = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(MAX_LINE));
        let err = parse(&big).unwrap_err();
        assert!(err.contains("header longer than"), "{err}");
        let err = parse(&format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE))).unwrap_err();
        assert!(err.contains("request line longer than"), "{err}");

        let headers = |n: usize| "H: v\r\n".repeat(n);
        assert!(parse(&format!("GET / HTTP/1.1\r\n{}\r\n", headers(MAX_HEADERS))).is_ok());
        let err = parse(&format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            headers(MAX_HEADERS + 1)
        ))
        .unwrap_err();
        assert!(err.contains("more than"), "{err}");
    }

    #[test]
    fn subscribers_drop_dead_receivers_and_close_ends_streams() {
        let subs = Subscribers::default();
        let live = subs.subscribe();
        drop(subs.subscribe());
        subs.publish("event: cell\ndata: {}\n\n");
        assert_eq!(subs.lock().len(), 1, "dead channel pruned");
        assert_eq!(live.recv().unwrap(), "event: cell\ndata: {}\n\n");

        subs.publish("event: end\ndata: {}\n\n");
        subs.close();
        let mut out = Vec::new();
        stream_events(&mut out, "first\n", Some(live));
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, format!("{SSE_HEAD}first\nevent: end\ndata: {{}}\n\n"));
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
