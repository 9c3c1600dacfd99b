//! A std-only thread pool for coarse-grained tasks: workers sharing one
//! first-in, first-out queue.
//!
//! Tasks here are whole simulations (milliseconds to minutes), so one
//! shared queue costs nothing measurable, and a worker that finishes a
//! task takes the next unstarted one at once: no worker idles while a
//! task waits. A caller that wants the longest tasks first orders its
//! items that way ([`crate::sweep`] does).
//!
//! [`run`] fans out one fixed batch and joins; [`TaskQueue`] serves a
//! daemon whose tasks arrive continuously. [`run`] returns its results
//! in item order regardless of execution interleaving, so parallel
//! sweeps are deterministic end to end.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Runs `f` over every item on `jobs` scoped worker threads (clamped to
/// `1..=items.len()`) and returns the results in item order. Each worker
/// takes the next unstarted item from one shared counter. A panicking
/// task reaches the caller once the other workers have drained the
/// batch.
pub fn run<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Relaxed: the counter only hands out indices; results reach the
    // caller through the slot mutexes and the scope's join.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return;
                };
                let r = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every item ran")
        })
        .collect()
}

/// A unit of work for the persistent [`TaskQueue`].
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// The queue proper: the backlog and the stop flag, under one lock.
#[derive(Default)]
struct Backlog {
    tasks: VecDeque<Task>,
    stop: bool,
}

struct QueueInner {
    backlog: Mutex<Backlog>,
    /// Signalled once per push and to every worker on shutdown.
    wake: Condvar,
    running: AtomicUsize,
    panics: AtomicU64,
}

/// A long-lived pool for a server: unlike [`run`], which fans out one
/// fixed batch and joins, tasks arrive continuously
/// ([`TaskQueue::push`]) and workers live until [`TaskQueue::shutdown`].
/// Workers take tasks in push order from one shared queue and wait on
/// a condition variable while it is empty; a panicking task is isolated
/// (counted, worker survives).
pub struct TaskQueue {
    inner: Arc<QueueInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TaskQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TaskQueue(queued: {}, running: {})",
            self.queued(),
            self.running()
        )
    }
}

impl TaskQueue {
    /// Spawns `workers` (at least one) idle worker threads.
    pub fn start(workers: usize) -> TaskQueue {
        let inner = Arc::new(QueueInner {
            backlog: Mutex::default(),
            wake: Condvar::new(),
            running: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("taskq-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn task-queue worker")
            })
            .collect();
        TaskQueue {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues one task and wakes one idle worker. A task pushed after
    /// [`TaskQueue::shutdown`] began is dropped at once.
    pub fn push(&self, task: Task) {
        let mut backlog = self.inner.backlog.lock().expect("task queue poisoned");
        if backlog.stop {
            return;
        }
        backlog.tasks.push_back(task);
        drop(backlog);
        self.inner.wake.notify_one();
    }

    /// Tasks enqueued but not yet picked up.
    pub fn queued(&self) -> usize {
        self.inner
            .backlog
            .lock()
            .expect("task queue poisoned")
            .tasks
            .len()
    }

    /// Tasks currently executing on a worker.
    pub fn running(&self) -> usize {
        self.inner.running.load(Ordering::SeqCst)
    }

    /// Tasks that panicked (isolated; their worker kept serving).
    pub fn task_panics(&self) -> u64 {
        self.inner.panics.load(Ordering::SeqCst)
    }

    /// Stops the workers and joins them: tasks already *running* finish
    /// normally, tasks still queued are dropped. Returns how many were
    /// dropped. Idempotent — a second call returns 0.
    pub fn shutdown(&self) -> usize {
        let dropped = {
            let mut backlog = self.inner.backlog.lock().expect("task queue poisoned");
            backlog.stop = true;
            std::mem::take(&mut backlog.tasks)
        };
        self.inner.wake.notify_all();
        let workers = std::mem::take(
            &mut *self
                .workers
                .lock()
                .expect("task queue worker list poisoned"),
        );
        for h in workers {
            let _ = h.join();
        }
        dropped.len()
    }
}

fn worker_loop(inner: &QueueInner) {
    loop {
        let task = {
            let backlog = inner.backlog.lock().expect("task queue poisoned");
            let mut backlog = inner
                .wake
                .wait_while(backlog, |b| b.tasks.is_empty() && !b.stop)
                .expect("task queue poisoned");
            // Shutdown empties the backlog as it sets `stop`.
            let Some(task) = backlog.tasks.pop_front() else {
                return;
            };
            // Counted running before the lock drops, so `queued() +
            // running()` never reads 0 while a task changes hands.
            inner.running.fetch_add(1, Ordering::SeqCst);
            task
        };
        // Isolate panics: one poisoned cell must not take the worker
        // (and eventually the whole queue) down with it.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err() {
            inner.panics.fetch_add(1, Ordering::SeqCst);
        }
        inner.running.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = run(&items, 4, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_degenerate_cases() {
        let items = [1, 2, 3];
        let out = run(&items, 1, |&i| i + 1);
        assert_eq!(out, [2, 3, 4]);
        let out = run(&items, 0, |&i| i);
        assert_eq!(out, [1, 2, 3]);
        let empty: [u32; 0] = [];
        let out = run(&empty, 8, |&i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_clamp_to_item_count() {
        let items = [5];
        let out = run(&items, 16, |&i| i);
        assert_eq!(out, [5]);
    }

    #[test]
    fn idle_workers_run_the_queue_while_one_item_runs_long() {
        // Two workers share the queue. Item 0 holds one of them until
        // items 1-3 have finished (or 5 s pass), so those must run on
        // the other worker meanwhile, not wait behind item 0.
        let items = [true, false, false, false];
        let (done, finished) = mpsc::channel();
        let finished = Mutex::new(finished);
        let out = run(&items, 2, |&slow| {
            if slow {
                let finished = finished.lock().unwrap();
                (0..3).all(|_| finished.recv_timeout(Duration::from_secs(5)).is_ok())
            } else {
                done.send(()).unwrap();
                true
            }
        });
        assert_eq!(
            out, [true; 4],
            "the three quick items finished while item 0 ran"
        );
    }

    #[test]
    fn task_panic_propagates_instead_of_hanging() {
        let items: Vec<usize> = (0..16).collect();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(&items, 4, |&i| {
                if i == 5 {
                    panic!("injected task panic");
                }
                i
            })
        }));
        assert!(res.is_err(), "the task panic must reach the caller");
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        run(&items, 8, |&i| counters[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    use std::time::{Duration, Instant};

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(deadline_ms) {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn task_queue_runs_every_pushed_task_exactly_once() {
        let q = TaskQueue::start(4);
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..64).map(|_| AtomicUsize::new(0)).collect());
        for i in 0..64 {
            let counters = Arc::clone(&counters);
            q.push(Box::new(move || {
                counters[i].fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(
            wait_until(5000, || counters
                .iter()
                .all(|c| c.load(Ordering::SeqCst) == 1)),
            "all 64 tasks ran exactly once: {:?}",
            counters
                .iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect::<Vec<_>>()
        );
        assert_eq!(q.queued(), 0);
        assert_eq!(q.shutdown(), 0, "nothing left to drop");
    }

    #[test]
    fn task_queue_isolates_panicking_tasks() {
        let q = TaskQueue::start(2);
        let done = Arc::new(AtomicUsize::new(0));
        q.push(Box::new(|| panic!("injected task panic")));
        let d = Arc::clone(&done);
        q.push(Box::new(move || {
            d.fetch_add(1, Ordering::SeqCst);
        }));
        assert!(
            wait_until(5000, || done.load(Ordering::SeqCst) == 1),
            "the worker survived the panic and ran the next task"
        );
        assert!(wait_until(5000, || q.task_panics() == 1));
        q.shutdown();
    }

    #[test]
    fn task_queue_shutdown_finishes_running_and_drops_queued() {
        // One worker: a slow task occupies it while the backlog piles
        // up behind; shutdown must finish the running task and report
        // the rest dropped.
        let q = TaskQueue::start(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(AtomicUsize::new(0));
        {
            let ran = Arc::clone(&ran);
            let gate = Arc::clone(&gate);
            q.push(Box::new(move || {
                gate.store(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(100));
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(
            wait_until(5000, || gate.load(Ordering::SeqCst) == 1),
            "slow task started"
        );
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            q.push(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        let dropped = q.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "in-flight task finished");
        assert_eq!(dropped, 8, "backlog dropped, not run");
        assert_eq!(q.queued(), 0);
        assert_eq!(q.running(), 0);
        assert_eq!(q.shutdown(), 0, "shutdown is idempotent");
    }

    #[test]
    fn task_queue_drops_a_task_pushed_after_shutdown() {
        let q = TaskQueue::start(1);
        assert_eq!(q.shutdown(), 0);
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        q.push(Box::new(move || r.store(true, Ordering::SeqCst)));
        assert_eq!(Arc::strong_count(&ran), 1, "the late task was dropped");
        assert_eq!(q.queued(), 0, "a late task does not count as queued");
        assert_eq!(q.shutdown(), 0, "a second shutdown still returns 0");
        assert!(!ran.load(Ordering::SeqCst));
    }

    #[test]
    fn task_queue_workers_share_a_backlog() {
        // Two workers. Task 0 holds one of them until the 31 quick tasks
        // have finished (or 5 s pass), so the other must drain them.
        let q = TaskQueue::start(2);
        let done = Arc::new(AtomicUsize::new(0));
        let quick_first = Arc::new(AtomicBool::new(false));
        let (quick_done, finished) = mpsc::channel();
        {
            let done = Arc::clone(&done);
            let quick_first = Arc::clone(&quick_first);
            q.push(Box::new(move || {
                let all = (0..31).all(|_| finished.recv_timeout(Duration::from_secs(5)).is_ok());
                quick_first.store(all, Ordering::SeqCst);
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        for _ in 0..31 {
            let done = Arc::clone(&done);
            let quick_done = quick_done.clone();
            q.push(Box::new(move || {
                quick_done.send(()).unwrap();
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        assert!(
            wait_until(10_000, || done.load(Ordering::SeqCst) == 32),
            "all tasks completed: {}",
            done.load(Ordering::SeqCst)
        );
        assert!(
            quick_first.load(Ordering::SeqCst),
            "the 31 quick tasks finished before task 0"
        );
        q.shutdown();
    }
}
