//! Failure path: `bench serve` killed with SIGKILL in the middle of a
//! matrix loses only the cells in flight. Restarted on the same store,
//! the daemon answers every finished cell from it, simulates the rest,
//! and leaves a store with no torn or missing record.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccnuma_sweep::matrix::MatrixSpec;
use ccnuma_sweep::store::{CellStatus, Store};
use ccnuma_sweepd::client;

/// Eight full-scale cells, each a few hundred milliseconds in a release
/// build: long enough that the kill lands between two of them.
const MATRIX: &str = "apps=ocean,radix versions=orig scale=full";

/// A running `bench serve`, killed and reaped on drop so a failed
/// assertion cannot leave a daemon behind.
struct Serve {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Serve {
    fn start(store: &Path) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(["serve", "--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            // Exits on its own should the test process die first.
            .args(["--jobs", "1", "--idle-timeout-s", "120"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn bench serve");
        let mut lines = BufReader::new(child.stderr.take().expect("piped stderr")).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("bench serve exited before announcing its address")
                .expect("read bench serve stderr");
            if let Some(rest) = line.strip_prefix("[serve] sweepd at http://") {
                break rest.split('/').next().expect("address").to_string();
            }
        };
        // Keep draining stderr: a daemon writing into a closed pipe dies.
        let stderr = Some(std::thread::spawn(move || lines.for_each(drop)));
        Serve {
            child,
            addr,
            stderr,
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Complete (newline-terminated) lines in the store file.
fn store_lines(path: &Path) -> usize {
    std::fs::read(path)
        .map(|b| b.iter().filter(|&&c| c == b'\n').count())
        .unwrap_or(0)
}

#[test]
fn killed_daemon_resumes_the_matrix_from_its_store() {
    let dir = std::env::temp_dir().join(format!("bench-serve-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store.jsonl");
    let _ = std::fs::remove_file(&store);

    let mut first = Serve::start(&store);
    let resp = client::submit(&first.addr, MATRIX).expect("submit");
    assert_eq!((resp.cells, resp.enqueued), (8, 8), "{resp:?}");
    let deadline = Instant::now() + Duration::from_secs(300);
    while store_lines(&store) == 0 {
        assert!(Instant::now() < deadline, "no cell finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    first.child.kill().expect("SIGKILL bench serve");
    first.child.wait().expect("reap bench serve");
    let finished = store_lines(&store);
    assert!(
        (1..8).contains(&finished),
        "killed mid-matrix: {finished} of 8 cells stored"
    );

    let mut second = Serve::start(&store);
    let resp = client::submit(&second.addr, MATRIX).expect("resubmit");
    assert_eq!(
        resp.cached, finished,
        "every stored cell is a hit: {resp:?}"
    );
    assert_eq!(resp.cached + resp.enqueued, 8, "{resp:?}");
    let status = client::wait(&second.addr, resp.job, Duration::from_millis(50)).expect("wait");
    assert!(status.complete, "{status:?}");
    assert!(status.quarantined.is_empty(), "{:?}", status.quarantined);
    client::shutdown(&second.addr).expect("shutdown");
    let exit = second.child.wait().expect("reap bench serve");
    assert!(exit.success(), "bench serve exited with {exit}");

    let reopened = Store::open(&store, true).expect("reopen store");
    assert_eq!(reopened.dropped_lines, 0, "no torn record");
    assert_eq!(reopened.len(), 8);
    for cell in MatrixSpec::parse(MATRIX).unwrap().cells() {
        let rec = reopened.get(&cell.key().hash_hex()).expect("stored");
        assert_eq!(rec.status, CellStatus::Ok, "{}", rec.label);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
