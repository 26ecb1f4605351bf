//! # ngl-runtime
//!
//! A dependency-free parallel executor for the Globalizer pipeline's
//! embarrassingly parallel stages (per-tweet encoding, the CTrie scan +
//! phrase embedding, per-surface clustering and classification), built
//! on a **persistent work-stealing worker pool** ([`pool`]).
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism** — results are assembled in input order no matter
//!    how the OS schedules workers, and with one worker the execution
//!    is *exactly* the sequential loop (same call order, same thread).
//!    Combined with per-item purity this makes parallel output bitwise
//!    identical to sequential output at any thread count.
//! 2. **Zero dependencies** — built on [`std::thread`], atomics and
//!    mutexes only, so every crate in the workspace can use it without
//!    pulling in a thread-pool ecosystem.
//! 3. **No per-call spawn cost** — workers are spawned once per
//!    [`Executor`] and parked when idle; each `par_map` submits
//!    *tickets* against the pool instead of spawning threads, so small
//!    batches no longer pay thread-creation latency.
//! 4. **Dynamic load balance** — workers pull the next item index from
//!    a shared atomic counter, so skewed per-item costs (one surface
//!    form with thousands of mentions next to hundreds of singletons)
//!    don't serialize on the slowest static shard; idle workers also
//!    steal queued tickets from busy siblings' deques.
//!
//! Worker count comes from [`Executor::from_env`] (the `NGL_THREADS`
//! environment variable, defaulting to the machine's available
//! parallelism); `NGL_THREADS=1` is the exact sequential fallback and
//! spawns no pool at all.
//!
//! A panic in any task propagates to the caller once the call's items
//! drain — without killing any pool worker, so the executor stays
//! usable afterwards. For pipelines that must *survive* poison inputs
//! instead, [`Executor::try_par_map`] isolates each task with
//! [`std::panic::catch_unwind`] and turns a panicking task into a typed
//! [`TaskError`] while every other task completes normally.
//!
//! The [`faults`] module provides a deterministic, seedable fault plan
//! for stress-testing pipelines built on this executor, and [`rng`]
//! holds the one seeded generator every random draw in the workspace
//! comes from.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod faults;
pub mod pool;
pub mod rng;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use pool::Pool;

/// A task that panicked inside [`Executor::try_par_map`], captured as a
/// value instead of tearing down the executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Input-order index of the failed task.
    pub index: usize,
    /// Caller-provided summary of the input payload (empty when the
    /// caller supplied none) — keeps diagnostics useful without
    /// requiring `T: Debug` or holding the (possibly huge) payload.
    pub payload: String,
    /// The panic message, when the payload was a `&str` or `String`.
    pub message: String,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task #{} panicked: {}", self.index, self.message)?;
        if !self.payload.is_empty() {
            write!(f, " (payload: {})", self.payload)?;
        }
        Ok(())
    }
}

impl std::error::Error for TaskError {}

/// Best-effort extraction of a human-readable message from a panic
/// payload (`&str` and `String` cover `panic!`, `assert!`, `expect` and
/// friends).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Environment variable controlling the default worker count.
pub const THREADS_ENV: &str = "NGL_THREADS";

/// A parallel executor with a fixed worker count backed by a persistent
/// work-stealing pool (clones share the same pool).
///
/// ```
/// use ngl_runtime::Executor;
///
/// let exec = Executor::new(4);
/// let squares = exec.par_map((0..8usize).collect(), |_, x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // One worker is the exact sequential loop.
/// assert_eq!(squares, Executor::sequential().par_map((0..8usize).collect(), |_, x| x * x));
/// ```
#[derive(Clone)]
pub struct Executor {
    threads: usize,
    /// `None` for the sequential executor (`threads <= 1`): no threads
    /// are spawned and every call runs inline on the caller.
    pool: Option<Arc<Pool>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    /// `threads - 1` pool workers are spawned once, here; the caller of
    /// every map participates as the final worker.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let pool = if threads > 1 { Some(Arc::new(Pool::new(threads - 1))) } else { None };
        Self { threads, pool }
    }

    /// The exact sequential fallback (one worker, no threads spawned).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Worker count from the `NGL_THREADS` environment variable;
    /// unset, empty, `0` or unparsable values fall back to
    /// [`available_parallelism`].
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Self::new(n),
                _ => Self::new(available_parallelism()),
            },
            Err(_) => Self::new(available_parallelism()),
        }
    }

    /// The process-wide shared executor: one pool, sized by
    /// [`Self::from_env`] on first use, handed out as clones (which all
    /// share that pool — see `clones_share_one_pool`). Components that
    /// may coexist in one process (a serving ingest loop and its query
    /// handlers, several pipelines in one test) use this instead of
    /// each spawning a private pool and oversubscribing the cores.
    ///
    /// The pool lives for the rest of the process: the registry keeps
    /// one clone forever, so workers are never joined. That is the
    /// point — a shared pool must outlive any individual user.
    pub fn shared() -> Self {
        static SHARED: std::sync::OnceLock<Executor> = std::sync::OnceLock::new();
        SHARED.get_or_init(Self::from_env).clone()
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over owned `items`, returning results **in input
    /// order**. `f` receives `(index, item)`.
    ///
    /// With one worker (or ≤ 1 item) this runs inline on the calling
    /// thread with no synchronization — the exact sequential loop.
    /// Otherwise items are pulled dynamically by up to
    /// `min(threads, len)` workers of the persistent pool (caller
    /// included); a panicking `f` propagates to the caller after the
    /// call drains, leaving the pool fully reusable.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        let pool = match &self.pool {
            Some(p) if workers > 1 => p,
            _ => return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect(),
        };
        // Item slots are taken exactly once (dynamic scheduling via the
        // shared counter); result slots are written exactly once and
        // drained in input order after the pool call returns.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // First panic wins; the counter is then exhausted so the call
        // stops scheduling further items instead of wasting work.
        let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let pull = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item =
                slots[i].lock().expect("item slot poisoned").take().expect("item taken once");
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(r) => *results[i].lock().expect("result slot poisoned") = Some(r),
                Err(p) => {
                    let mut g = panicked.lock().expect("panic slot poisoned");
                    if g.is_none() {
                        *g = Some(p);
                    }
                    drop(g);
                    next.store(n, Ordering::Relaxed);
                }
            }
        };
        pool.run(workers - 1, &pull);
        if let Some(p) = panicked.into_inner().expect("panic slot poisoned") {
            resume_unwind(p);
        }
        results
            .into_iter()
            .map(|m| m.into_inner().expect("result slot poisoned").expect("result written"))
            .collect()
    }

    /// Panic-isolated variant of [`Self::par_map`]: each task runs
    /// under [`std::panic::catch_unwind`], so a panicking `f` yields
    /// `Err(TaskError)` for that slot while every other task completes
    /// normally. Results are still assembled **in input order**, and
    /// with one worker the execution is still the exact sequential
    /// loop, so the determinism contract of `par_map` carries over
    /// unchanged (including for which tasks fail).
    ///
    /// ```
    /// use ngl_runtime::Executor;
    ///
    /// let out = Executor::new(4).try_par_map((0..4usize).collect(), |_, x| {
    ///     if x == 2 { panic!("poison"); }
    ///     x * 10
    /// });
    /// assert_eq!(out[0], Ok(0));
    /// assert_eq!(out[3], Ok(30));
    /// assert_eq!(out[2].as_ref().unwrap_err().message, "poison");
    /// ```
    pub fn try_par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<Result<R, TaskError>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.try_par_map_described(items, |_| String::new(), f)
    }

    /// [`Self::try_par_map`] with a payload summarizer: `describe` runs
    /// on each item *before* the task body, and its output is attached
    /// to the [`TaskError`] if that task panics. `describe` itself is
    /// also panic-isolated (a panicking summarizer degrades to a
    /// placeholder summary, never a lost task).
    pub fn try_par_map_described<T, R, D, F>(
        &self,
        items: Vec<T>,
        describe: D,
        f: F,
    ) -> Vec<Result<R, TaskError>>
    where
        T: Send,
        R: Send,
        D: Fn(&T) -> String + Sync,
        F: Fn(usize, T) -> R + Sync,
    {
        let run = |i: usize, item: T| -> Result<R, TaskError> {
            let payload = catch_unwind(AssertUnwindSafe(|| describe(&item)))
                .unwrap_or_else(|_| "<payload summary unavailable>".to_string());
            catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(|p| TaskError {
                index: i,
                payload,
                message: panic_message(p),
            })
        };
        let n = items.len();
        let workers = self.threads.min(n);
        let pool = match &self.pool {
            Some(p) if workers > 1 => p,
            _ => return items.into_iter().enumerate().map(|(i, t)| run(i, t)).collect(),
        };
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<Result<R, TaskError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let run = &run;
        // `run` never unwinds (panics are caught inside), so the pull
        // loop survives poison items and every result slot is written.
        let pull = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item =
                slots[i].lock().expect("item slot poisoned").take().expect("item taken once");
            let r = run(i, item);
            *results[i].lock().expect("result slot poisoned") = Some(r);
        };
        pool.run(workers - 1, &pull);
        results
            .into_iter()
            .map(|m| m.into_inner().expect("result slot poisoned").expect("result written"))
            .collect()
    }

    /// Borrowing convenience over [`Self::par_map`]: maps `f` over
    /// `&items[i]` without taking ownership.
    pub fn par_map_ref<'a, T, R, F>(&self, items: &'a [T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &'a T) -> R + Sync,
    {
        self.par_map(items.iter().collect(), f)
    }
}

/// The machine's available parallelism, defaulting to 1 when the query
/// fails (e.g. restricted containers).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_map_preserves_input_order() {
        for threads in [1, 2, 3, 8, 64] {
            let exec = Executor::new(threads);
            let out = exec.par_map((0..100usize).collect(), |i, x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100usize).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_matches_sequential_exactly() {
        let items: Vec<String> = (0..57).map(|i| format!("tok{i}")).collect();
        let f = |_: usize, s: &String| format!("{s}!");
        let seq = Executor::sequential().par_map_ref(&items, f);
        let par = Executor::new(4).par_map_ref(&items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = Executor::new(7).par_map((0..500usize).collect(), |_, x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let exec = Executor::new(8);
        let empty: Vec<usize> = exec.par_map(Vec::new(), |_, x: usize| x);
        assert!(empty.is_empty());
        assert_eq!(exec.par_map(vec![41usize], |_, x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_moves_non_clone_items() {
        struct NoClone(usize);
        let items: Vec<NoClone> = (0..20).map(NoClone).collect();
        let out = Executor::new(3).par_map(items, |_, NoClone(x)| x);
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Executor::new(4).par_map((0..64usize).collect(), |_, x| {
                if x == 33 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn executor_is_reusable_after_par_map_panic() {
        // A panicking task must not kill pool workers: the same
        // executor keeps producing correct, ordered results afterwards.
        let exec = Executor::new(4);
        for round in 0..3 {
            let bad = std::panic::catch_unwind(AssertUnwindSafe(|| {
                exec.par_map((0..32usize).collect(), |_, x| {
                    if x == 5 {
                        panic!("round {round} poison");
                    }
                    x
                })
            }));
            assert!(bad.is_err());
            let ok = exec.par_map((0..32usize).collect(), |_, x| x + round);
            assert_eq!(ok, (0..32usize).map(|x| x + round).collect::<Vec<_>>());
        }
        assert_eq!(exec.pool.as_ref().expect("pooled").stats().workers, 3);
    }

    #[test]
    fn clones_share_one_pool() {
        let a = Executor::new(3);
        let b = a.clone();
        assert!(Arc::ptr_eq(a.pool.as_ref().unwrap(), b.pool.as_ref().unwrap()));
        let out_a = a.par_map((0..40usize).collect(), |_, x| x * 2);
        let out_b = b.par_map((0..40usize).collect(), |_, x| x * 2);
        assert_eq!(out_a, out_b);
        // The sequential executor spawns no pool at all.
        assert!(Executor::sequential().pool.is_none());
    }

    #[test]
    fn shared_executor_hands_out_one_pool() {
        let a = Executor::shared();
        let b = Executor::shared();
        assert_eq!(a.threads(), b.threads());
        match (&a.pool, &b.pool) {
            // Multi-core host (or NGL_THREADS > 1): both handles must
            // point at the same pool.
            (Some(pa), Some(pb)) => assert!(Arc::ptr_eq(pa, pb)),
            // NGL_THREADS=1: the shared executor is the sequential one.
            (None, None) => {}
            _ => panic!("shared executor clones disagree on pooling"),
        }
        let out = a.par_map((0..16usize).collect(), |_, x| x + 1);
        assert_eq!(out, (1..17usize).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_workloads_do_not_serialize_items_behind_one_ticket() {
        // One slow item next to many fast ones: the atomic-counter
        // schedule still runs every item exactly once with results in
        // order, whichever workers show up.
        let exec = Executor::new(4);
        let count = AtomicUsize::new(0);
        let out = exec.par_map((0..64usize).collect(), |_, x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
        assert_eq!(out, (0..64usize).collect::<Vec<_>>());
    }

    #[test]
    fn try_par_map_isolates_panics_per_task() {
        for threads in [1, 4] {
            let out = Executor::new(threads).try_par_map((0..64usize).collect(), |_, x| {
                if x % 13 == 0 {
                    panic!("poison {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), 64);
            for (i, r) in out.iter().enumerate() {
                if i % 13 == 0 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, i);
                    assert_eq!(e.message, format!("poison {i}"));
                } else {
                    assert_eq!(*r, Ok(i * 2));
                }
            }
        }
    }

    #[test]
    fn try_par_map_matches_sequential_exactly() {
        let f = |_: usize, x: usize| {
            if x == 7 || x == 21 {
                panic!("bad item");
            }
            x + 1
        };
        let seq = Executor::sequential().try_par_map((0..40usize).collect(), f);
        let par = Executor::new(4).try_par_map((0..40usize).collect(), f);
        assert_eq!(seq, par);
    }

    #[test]
    fn try_par_map_described_attaches_payload_summary() {
        let items: Vec<String> = vec!["ok".into(), "explode".into(), "fine".into()];
        let out = Executor::new(2).try_par_map_described(
            items,
            |s: &String| format!("tweet[{s}]"),
            |_, s| {
                if s == "explode" {
                    panic!("kaboom");
                }
                s.len()
            },
        );
        assert_eq!(out[0], Ok(2));
        assert_eq!(out[2], Ok(4));
        let e = out[1].as_ref().unwrap_err();
        assert_eq!(e.payload, "tweet[explode]");
        assert_eq!(e.message, "kaboom");
        assert!(e.to_string().contains("task #1"));
        assert!(e.to_string().contains("tweet[explode]"));
    }

    #[test]
    fn try_par_map_survives_panicking_describe() {
        let out = Executor::new(2).try_par_map_described(
            vec![1usize, 2, 3],
            |x: &usize| {
                if *x == 2 {
                    panic!("describe bad");
                }
                x.to_string()
            },
            |_, x| {
                if x == 2 {
                    panic!("task bad");
                }
                x
            },
        );
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[2], Ok(3));
        let e = out[1].as_ref().unwrap_err();
        assert_eq!(e.payload, "<payload summary unavailable>");
        assert_eq!(e.message, "task bad");
    }

    #[test]
    fn try_par_map_all_ok_round_trips() {
        let out = Executor::new(3).try_par_map((0..50usize).collect(), |_, x| x * x);
        let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..50usize).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn from_env_parses_thread_count() {
        // Touching the process environment is inherently racy between
        // tests; this is the only test in the crate that does so.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Executor::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(Executor::from_env().threads(), available_parallelism());
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(Executor::from_env().threads(), available_parallelism());
        std::env::remove_var(THREADS_ENV);
        assert_eq!(Executor::from_env().threads(), available_parallelism());
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let exec = Executor::new(2);
        let inner = Executor::new(2);
        let out = exec.par_map((0..8usize).collect(), |_, x| {
            inner.par_map((0..4usize).collect(), |_, y| x * y).iter().sum::<usize>()
        });
        assert_eq!(out, (0..8usize).map(|x| x * 6).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_map_on_shared_pool_does_not_deadlock() {
        // Inner calls submit against the *same* saturated pool; caller
        // participation keeps them draining even if no worker is free.
        let exec = Executor::new(2);
        let inner = exec.clone();
        let out = exec.par_map((0..8usize).collect(), |_, x| {
            inner.par_map((0..4usize).collect(), |_, y| x * y).iter().sum::<usize>()
        });
        assert_eq!(out, (0..8usize).map(|x| x * 6).collect::<Vec<_>>());
    }
}
