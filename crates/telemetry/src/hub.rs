//! The observer: an epoch sampler that snapshots a [`Registry`] on a
//! host-time cadence, appends each sample to a crash-safe JSONL log, and
//! serves live state on the shared [`http::serve`] server:
//!
//! * `GET /metrics` — Prometheus text exposition (fresh snapshot).
//! * `GET /snapshot` — one JSON epoch record (fresh snapshot).
//! * `GET /events` — `text/event-stream`: every epoch sample as an
//!   `epoch` event plus any application-published `cell` lifecycle
//!   events; a final `end` event announces clean shutdown.
//! * `GET /healthz` — liveness probe: `200 ok` while the hub serves.
//!
//! Epoch records are flat JSON objects,
//! `{"seq":N,"t_ms":T,"metrics":{"name{label=v}":value,...}}`, written
//! with the same single-flushed-write discipline as the sweep store so a
//! crash can tear at most the final line.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::expo;
use crate::http::{self, Request, Stop, Subscribers};
use crate::registry::Registry;

/// How the hub observes and publishes.
#[derive(Debug, Clone, Default)]
pub struct HubConfig {
    /// Sampling period; zero selects the 250 ms default.
    pub epoch: Duration,
    /// Listen address (e.g. `127.0.0.1:0`) for the HTTP server; `None`
    /// disables serving.
    pub addr: Option<String>,
    /// Path of the JSONL epoch log; `None` disables logging.
    pub log_path: Option<PathBuf>,
}

struct Shared {
    registry: Registry,
    seq: AtomicU64,
    started: Instant,
    subscribers: Subscribers,
}

impl Shared {
    /// One epoch record from a fresh registry snapshot.
    fn epoch_record(&self, seq: u64) -> String {
        expo::epoch_record(seq, self.started, &self.registry)
    }
}

/// A cheap clonable handle for publishing application events (per-cell
/// lifecycle) onto the `/events` stream.
#[derive(Clone)]
pub struct HubHandle(Arc<Shared>);

impl std::fmt::Debug for HubHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HubHandle")
    }
}

impl HubHandle {
    /// Publishes one application event: `data` must be a complete JSON
    /// value; it is framed as an SSE event of the given `kind`.
    pub fn publish(&self, kind: &str, data: &str) {
        self.0.subscribers.publish(&http::sse_frame(kind, data));
    }
}

/// The running observer; dropping it without [`Hub::shutdown`] aborts
/// the threads un-joined (fine for tests, not for clean logs).
pub struct Hub {
    shared: Arc<Shared>,
    addr: Option<SocketAddr>,
    stop: Stop,
    sampler: JoinHandle<()>,
    server: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Hub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hub(addr: {:?})", self.addr)
    }
}

impl Hub {
    /// Starts the sampler (and, when configured, the log writer and the
    /// HTTP server) observing `registry`. The sampler is the process's
    /// epoch loop: once per epoch, and once more at shutdown, it calls
    /// `refresh` (which brings the registry up to date) and then samples.
    pub fn start<F>(registry: Registry, cfg: HubConfig, mut refresh: F) -> std::io::Result<Hub>
    where
        F: FnMut() + Send + 'static,
    {
        let epoch = if cfg.epoch.is_zero() {
            Duration::from_millis(250)
        } else {
            cfg.epoch
        };
        let shared = Arc::new(Shared {
            registry,
            seq: AtomicU64::new(0),
            started: Instant::now(),
            subscribers: Subscribers::default(),
        });

        let mut log = match &cfg.log_path {
            None => None,
            Some(p) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)?,
            ),
        };

        let (stop, addr, server) = match &cfg.addr {
            None => (Stop::default(), None, None),
            Some(a) => {
                let (listener, stop) = http::bind(a)?;
                let local = listener.local_addr()?;
                let sh = Arc::clone(&shared);
                let h = http::serve(listener, stop.clone(), "telemetry-http", move |req, s| {
                    handle_conn(req, s, &sh)
                })?;
                (stop, Some(local), Some(h))
            }
        };

        let sampler = {
            let sh = Arc::clone(&shared);
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("telemetry-sampler".into())
                .spawn(move || {
                    let mut next = Instant::now() + epoch;
                    loop {
                        let stopping = stop.wait_until(Some(next));
                        next += epoch;
                        refresh();
                        let seq = sh.seq.fetch_add(1, Ordering::SeqCst) + 1;
                        let rec = sh.epoch_record(seq);
                        if let Some(f) = log.as_mut() {
                            // Crash-safe JSONL: one buffered line, one
                            // write, one flush — a crash tears at most
                            // the final line.
                            let line = format!("{rec}\n");
                            let _ = f.write_all(line.as_bytes());
                            let _ = f.flush();
                        }
                        sh.subscribers.publish(&http::sse_frame("epoch", &rec));
                        if stopping {
                            // Final sample taken; announce the end and
                            // release every subscriber.
                            sh.subscribers.publish(&http::sse_frame("end", "{}"));
                            sh.subscribers.close();
                            return;
                        }
                    }
                })?
        };

        Ok(Hub {
            shared,
            addr,
            stop,
            sampler,
            server,
        })
    }

    /// The HTTP server's bound address (useful with port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// The registry the hub samples.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// A clonable handle for publishing application events.
    pub fn handle(&self) -> HubHandle {
        HubHandle(Arc::clone(&self.shared))
    }

    /// Stops the sampler and server, taking one final epoch sample (so
    /// the log ends with the terminal state) and closing every SSE
    /// stream with an `end` event.
    pub fn shutdown(self) {
        self.stop.stop();
        let _ = self.sampler.join();
        if let Some(h) = self.server {
            let _ = h.join();
        }
    }
}

/// Routes one request.
fn handle_conn(req: Result<Request, String>, mut stream: TcpStream, shared: &Shared) {
    let req = match req {
        Ok(req) => req,
        Err(e) => return http::respond_error(&mut stream, "400 Bad Request", &e),
    };
    if req.method != "GET" {
        let body = "GET only\n";
        return http::respond(&mut stream, "405 Method Not Allowed", "text/plain", body);
    }
    match req.path.as_str() {
        "/metrics" => http::respond_metrics(&mut stream, &shared.registry),
        "/snapshot" => {
            let seq = shared.seq.load(Ordering::SeqCst);
            let body = format!("{}\n", shared.epoch_record(seq));
            http::respond_json(&mut stream, "200 OK", &body);
        }
        // Subscribe before the first frame, so no epoch falls between.
        "/events" => {
            let rx = shared.subscribers.subscribe();
            let seq = shared.seq.load(Ordering::SeqCst);
            let first = http::sse_frame("epoch", &shared.epoch_record(seq));
            http::stream_events(&mut stream, &first, Some(rx));
        }
        // Liveness probe: scrapers and CI can check the hub is up
        // without parsing a snapshot.
        "/healthz" => http::respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        _ => http::respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "try /metrics, /snapshot, /events, /healthz\n",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// A hub serving `reg` on an ephemeral port, sampling every `epoch_ms`.
    fn serving(reg: Registry, epoch_ms: u64) -> (Hub, SocketAddr) {
        let mut cfg = HubConfig::default();
        (cfg.epoch, cfg.addr) = (Duration::from_millis(epoch_ms), Some("127.0.0.1:0".into()));
        let hub = Hub::start(reg, cfg, || {}).expect("hub start");
        let bound = hub.local_addr().expect("bound");
        (hub, bound)
    }

    fn send(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(raw.as_bytes()).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).expect("read");
        buf
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        send(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    #[test]
    fn metrics_and_snapshot_serve_fresh_state() {
        let reg = Registry::new();
        let c = reg.counter("t_total", "a test counter");
        let (hub, addr) = serving(reg, 20);
        c.add(17);
        let m = get(addr, "/metrics");
        assert!(m.starts_with("HTTP/1.1 200 OK"), "{m}");
        assert!(m.contains("t_total 17"), "{m}");
        let s = get(addr, "/snapshot");
        assert!(s.contains("application/json"), "{s}");
        assert!(s.contains("\"t_total\":17"), "{s}");
        assert!(s.contains("\"seq\":"), "{s}");
        let hz = get(addr, "/healthz");
        assert!(hz.starts_with("HTTP/1.1 200 OK"), "{hz}");
        assert!(hz.ends_with("ok\n"), "{hz}");
        let nf = get(addr, "/unknown");
        assert!(nf.starts_with("HTTP/1.1 404"), "{nf}");
        assert!(nf.contains("/healthz"), "hint lists the probe: {nf}");
        hub.shutdown();
    }

    #[test]
    fn garbage_request_line_is_a_400_with_a_json_error() {
        let (hub, addr) = serving(Registry::new(), 20);
        let bad = send(addr, "ello\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.1 400 Bad Request"), "{bad}");
        assert!(bad.contains("application/json"), "{bad}");
        assert!(
            bad.ends_with("{\"error\":\"malformed request line \\\"ello\\\"\"}"),
            "{bad}"
        );
        hub.shutdown();
    }

    #[test]
    fn silent_connection_is_answered_400_and_closed() {
        let (hub, addr) = serving(Registry::new(), 20);
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(http::READ_TIMEOUT * 5)).unwrap();
        let t0 = Instant::now();
        let mut resp = String::new();
        s.read_to_string(&mut resp)
            .expect("server closes the connection");
        assert!(t0.elapsed() < http::READ_TIMEOUT * 2, "{:?}", t0.elapsed());
        assert!(resp.starts_with("HTTP/1.1 400 Bad Request"), "{resp}");
        assert!(
            resp.contains("{\"error\":\"reading request line: "),
            "{resp}"
        );
        hub.shutdown();
    }

    #[test]
    fn events_stream_epochs_and_ends_cleanly() {
        let reg = Registry::new();
        let c = reg.counter("e_total", "events test");
        let (hub, addr) = serving(reg, 10);
        c.add(3);

        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET /events HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let handle = hub.handle();
        // Give the subscription a moment to register, then publish an
        // application event and shut down.
        std::thread::sleep(Duration::from_millis(60));
        handle.publish("cell", "{\"label\":\"fft/orig/4p\",\"kind\":\"started\"}");
        std::thread::sleep(Duration::from_millis(30));
        hub.shutdown();

        let mut body = String::new();
        s.read_to_string(&mut body).expect("stream closes at end");
        assert!(body.contains("event: epoch"), "{body}");
        assert!(body.contains("\"e_total\":3"), "{body}");
        assert!(body.contains("event: cell"), "{body}");
        assert!(body.contains("fft/orig/4p"), "{body}");
        assert!(
            body.trim_end().ends_with("data: {}"),
            "ends with end frame: {body}"
        );
        assert!(body.contains("event: end"), "{body}");
    }

    #[test]
    fn jsonl_log_is_appended_one_line_per_epoch() {
        let dir = std::env::temp_dir().join(format!("telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epochs.jsonl");
        let _ = std::fs::remove_file(&path);
        let reg = Registry::new();
        reg.counter("l_total", "log test").add(9);
        let hub = Hub::start(
            reg,
            HubConfig {
                epoch: Duration::from_millis(10),
                addr: None,
                log_path: Some(path.clone()),
            },
            || {},
        )
        .expect("hub start");
        std::thread::sleep(Duration::from_millis(80));
        hub.shutdown();
        let text = std::fs::read_to_string(&path).expect("log exists");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "several epochs: {}", lines.len());
        let mut last_seq = 0u64;
        for l in &lines {
            assert!(l.starts_with("{\"seq\":"), "record shape: {l}");
            assert!(l.ends_with('}'), "complete line: {l}");
            assert!(l.contains("\"l_total\":9"), "{l}");
            let seq: u64 = l["{\"seq\":".len()..]
                .split(',')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(seq > last_seq, "seq strictly increases");
            last_seq = seq;
        }
        let _ = std::fs::remove_file(&path);
    }
}
