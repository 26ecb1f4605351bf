//! Persistent work-stealing worker pool backing [`crate::Executor`].
//!
//! ## Lifecycle
//!
//! ```text
//!   Executor::new(T)                        par_map(items, f)
//!        │                                        │
//!        ├─ spawns T-1 workers (once) ──┐         ├─ issues min(T, n)-1 tickets → injector
//!        │                              ▼         ├─ runs the pull-loop itself
//!        │                      ┌── parked ──┐    ├─ cancels still-queued tickets
//!        │                      │  (condvar) │    └─ waits: done == issued
//!        │   notify on submit ─►│            │
//!        │                      └── working ─┘── own deque → injector → steal → park
//!        ▼
//!   drop(last Executor clone) → shutdown flag + notify_all → join workers
//! ```
//!
//! Workers are OS threads spawned once when the owning [`crate::Executor`]
//! is created — `threads - 1` of them, because the caller of every
//! `par_map` participates as the final worker. Idle workers park on a
//! condvar; ticket submission unparks them. The pool dies when the last
//! `Executor` clone drops.
//!
//! ## Scheduling
//!
//! A `par_map` call packages its pull-loop as a lifetime-erased job and
//! issues one *ticket* per invited worker into the shared injector
//! queue. A worker that drains its own deque pops the injector — taking
//! one ticket to run and moving a small batch of follow-ups into its
//! local deque so siblings have something to steal — and otherwise
//! steals from a sibling deque (owners pop the front, thieves pop the
//! back). Items *inside* a job are scheduled dynamically off a shared
//! atomic counter, so tickets are pure "help requests": any subset of
//! the invited workers may show up, late or never, without affecting
//! which items run or the order results assemble in. That is the whole
//! determinism argument: item → result-slot assignment is fixed by
//! input index, and ticket scheduling only decides who computes it.
//!
//! ## Soundness of the lifetime erasure
//!
//! The job closure borrows the caller's stack frame (item slots, result
//! slots, the shared counter), so [`Pool::run`] must prove the borrow
//! outlives every access:
//!
//! 1. the caller participates in the job itself, so it cannot return
//!    before the item counter is exhausted;
//! 2. after its own pull-loop exits it **cancels** every still-queued
//!    ticket of this call, removing them from the injector and from all
//!    local deques (a popped-but-unstarted ticket is fine: the job's
//!    first counter fetch sees the range exhausted and returns);
//! 3. it then blocks until every picked-up ticket has finished — a
//!    worker drops its clone of the erased job **before** signalling
//!    completion, so when the wait returns the caller holds the last
//!    reference and the erased closure never outlives the frame it
//!    borrows.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// How many follow-up tickets a worker moves from the injector into its
/// own deque per pop, seeding the steal path.
const INJECTOR_GRAB: usize = 2;

/// A job body with its borrow lifetime erased; see the module docs for
/// why this is sound. Only [`Pool::run`] constructs these.
type Job = Box<dyn Fn() + Send + Sync + 'static>;

struct JobBody {
    f: Job,
}

/// Per-call completion accounting shared by every ticket of one
/// [`Pool::run`]. Fully `'static` (no borrows), so it may outlive the
/// call without hazard.
struct CallSync {
    /// Tickets issued for this call (set once, before submission).
    issued: usize,
    /// Tickets finished (ran to completion) or cancelled.
    done: Mutex<usize>,
    cv: Condvar,
}

/// Locks ignoring poison, like the `Drop` path always has. Job bodies
/// never unwind out of a ticket (`Ticket::run` catches), so poison can
/// only arise from a panic in pool bookkeeping itself; the protected
/// data (counters, deques, the shutdown flag) is consistent at every
/// lock boundary, and continuing beats deadlocking every caller.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl CallSync {
    fn new(issued: usize) -> Self {
        Self { issued, done: Mutex::new(0), cv: Condvar::new() }
    }

    /// Marks `k` tickets of this call finished, waking the caller when
    /// the last one lands.
    fn finish(&self, k: usize) {
        let mut d = lock_ignore_poison(&self.done);
        *d += k;
        if *d >= self.issued {
            self.cv.notify_all();
        }
    }

    /// Blocks until every issued ticket has finished or been cancelled.
    fn wait(&self) {
        let mut d = lock_ignore_poison(&self.done);
        while *d < self.issued {
            d = self.cv.wait(d).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// One invitation for one worker to join a call's pull-loop.
struct Ticket {
    body: Arc<JobBody>,
    sync: Arc<CallSync>,
}

impl Ticket {
    /// Runs the job body, releases the erased closure, then signals.
    /// The drop-before-finish order is load-bearing: it guarantees the
    /// caller's `Arc<JobBody>` is the last one standing when its wait
    /// returns (module docs, point 3).
    fn run(self) {
        let Ticket { body, sync } = self;
        // Job bodies never unwind (the Executor catches item panics
        // inside the pull-loop), but a worker must survive even a
        // broken invariant rather than deadlock the pool.
        let _ = catch_unwind(AssertUnwindSafe(|| (body.f)()));
        drop(body);
        sync.finish(1);
    }
}

struct State {
    injector: VecDeque<Ticket>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
    /// Per-worker deques. Lock order: `state` before any local, never a
    /// local before `state`, never two locals at once.
    locals: Vec<Mutex<VecDeque<Ticket>>>,
    // Scheduler counters for `Pool::stats`; only tests read them.
    #[cfg(test)]
    steals: AtomicUsize,
    #[cfg(test)]
    parks: AtomicUsize,
    #[cfg(test)]
    tickets_run: AtomicUsize,
}

impl Shared {
    fn local(&self, i: usize) -> MutexGuard<'_, VecDeque<Ticket>> {
        lock_ignore_poison(&self.locals[i])
    }

    /// True when any worker deque holds a ticket. Called with the state
    /// lock held (the park condition), which is also the lock every
    /// deque *depositor* holds — so a parking worker either sees the
    /// deposit or is already in `wait` when the depositor notifies.
    fn any_local_pending(&self) -> bool {
        self.locals.iter().any(|q| !lock_ignore_poison(q).is_empty())
    }
}

/// Point-in-time scheduler counters, read by the pool's tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// OS worker threads owned by the pool (callers are extra).
    pub workers: usize,
    /// Tickets taken from a sibling's deque instead of own/injector.
    pub steals: usize,
    /// Times a worker went to sleep on the condvar.
    pub parks: usize,
    /// Tickets a pool worker actually ran (cancelled ones excluded).
    pub tickets_run: usize,
}

/// The persistent pool. Created by [`crate::Executor::new`] and shared
/// between clones through an `Arc`; see the module docs for the
/// scheduling and soundness story.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns `workers` parked OS threads. Spawn failures degrade to a
    /// smaller pool rather than an error: callers always participate in
    /// their own jobs, so even zero workers still makes progress.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { injector: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            #[cfg(test)]
            steals: AtomicUsize::new(0),
            #[cfg(test)]
            parks: AtomicUsize::new(0),
            #[cfg(test)]
            tickets_run: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .filter_map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ngl-worker-{i}"))
                    .spawn(move || worker_loop(sh, i))
                    .ok()
            })
            .collect();
        Self { shared, handles }
    }

    /// Runs `job` on the calling thread plus up to `invite` pool
    /// workers, returning once the job is complete on every thread that
    /// picked it up. `job` must be a pull-loop over shared state: safe
    /// to execute concurrently from several threads and idempotent once
    /// its work source is exhausted.
    pub fn run(&self, invite: usize, job: &(dyn Fn() + Send + Sync)) {
        let invite = invite.min(self.handles.len().max(self.shared.locals.len()));
        if invite == 0 {
            job();
            return;
        }
        let sync = Arc::new(CallSync::new(invite));
        let boxed: Box<dyn Fn() + Send + Sync + '_> = Box::new(job);
        // SAFETY: only the borrow lifetime is erased (`Send + Sync` are
        // proven on the un-erased type above), and the cancel + wait
        // protocol below keeps every access and the final drop of the
        // closure inside the current stack frame — see the module docs.
        let body = Arc::new(JobBody { f: unsafe { erase_job(boxed) } });
        {
            let mut st = lock_ignore_poison(&self.shared.state);
            for _ in 0..invite {
                st.injector.push_back(Ticket { body: Arc::clone(&body), sync: Arc::clone(&sync) });
            }
            self.shared.cv.notify_all();
        }
        // The caller is always a worker for its own call; with the
        // atomic-counter pull-loop this also makes nested `par_map`
        // deadlock-free (a saturated pool degrades to caller-only).
        // Catching here keeps the cancel + wait protocol below running
        // even if the job body unwinds on the calling thread, so the
        // erased closure can never leak out of this frame.
        let caller_panic = catch_unwind(AssertUnwindSafe(job)).err();
        // Invitations nobody honored must not outlive this frame.
        let mut cancelled = 0usize;
        {
            let mut st = lock_ignore_poison(&self.shared.state);
            let before = st.injector.len();
            st.injector.retain(|t| !Arc::ptr_eq(&t.body, &body));
            cancelled += before - st.injector.len();
        }
        for i in 0..self.shared.locals.len() {
            let mut q = self.shared.local(i);
            let before = q.len();
            q.retain(|t| !Arc::ptr_eq(&t.body, &body));
            cancelled += before - q.len();
        }
        if cancelled > 0 {
            sync.finish(cancelled);
        }
        sync.wait();
        debug_assert_eq!(Arc::strong_count(&body), 1, "erased job escaped its call");
        if let Some(p) = caller_panic {
            std::panic::resume_unwind(p);
        }
    }

    /// Snapshot of the scheduler counters.
    #[cfg(test)]
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.handles.len(),
            steals: self.shared.steals.load(Ordering::Relaxed),
            parks: self.shared.parks.load(Ordering::Relaxed),
            tickets_run: self.shared.tickets_run.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.handles.len()).finish()
    }
}

/// # Safety
///
/// The returned `'static` closure is a lie: the borrow is only erased,
/// not extended. The caller must keep the original closure alive — and
/// drop every clone of the erased one — before its own frame returns.
/// [`Pool::run`]'s cancel + wait protocol is the proof obligation.
unsafe fn erase_job(f: Box<dyn Fn() + Send + Sync + '_>) -> Job {
    // SAFETY: only the borrow lifetime differs between the source and
    // target types; wide-pointer layout is identical. Liveness is the
    // caller's contract (see above).
    unsafe { std::mem::transmute(f) }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        if let Some(t) = find_work(&shared, me) {
            #[cfg(test)]
            shared.tickets_run.fetch_add(1, Ordering::Relaxed);
            t.run();
            continue;
        }
        let st = lock_ignore_poison(&shared.state);
        if st.shutdown {
            return;
        }
        if st.injector.is_empty() && !shared.any_local_pending() {
            // Full park condition checked under the state lock — every
            // deposit (submit or injector-grab) happens under the same
            // lock and notifies, so a wakeup cannot be lost.
            #[cfg(test)]
            shared.parks.fetch_add(1, Ordering::Relaxed);
            drop(shared.cv.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner));
        }
    }
}

fn find_work(shared: &Shared, me: usize) -> Option<Ticket> {
    if let Some(t) = shared.local(me).pop_front() {
        return Some(t);
    }
    {
        let mut st = lock_ignore_poison(&shared.state);
        if let Some(t) = st.injector.pop_front() {
            // Move a small batch of follow-ups into our deque so parked
            // siblings have something to steal, and wake them for it.
            let grab = st.injector.len().min(INJECTOR_GRAB);
            if grab > 0 {
                let mut mine = shared.local(me);
                // `grab` is bounded by the injector length above, but
                // degrade to a short batch rather than panic if that
                // bookkeeping ever drifts.
                let mut moved = 0usize;
                while moved < grab {
                    match st.injector.pop_front() {
                        Some(t) => {
                            mine.push_back(t);
                            moved += 1;
                        }
                        None => break,
                    }
                }
                drop(mine);
                shared.cv.notify_all();
            }
            return Some(t);
        }
    }
    let w = shared.locals.len();
    for k in 1..w {
        let victim = (me + k) % w;
        if let Some(t) = shared.local(victim).pop_back() {
            #[cfg(test)]
            shared.steals.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    fn spin_until(deadline: Duration, cond: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    #[test]
    fn workers_park_when_idle_and_unpark_on_submit() {
        let pool = Pool::new(2);
        // Freshly spawned workers find nothing and park.
        assert!(
            spin_until(Duration::from_secs(5), || pool.stats().parks >= 2),
            "workers never parked: {:?}",
            pool.stats()
        );
        let before = pool.stats().parks;
        let hits = AtomicUsize::new(0);
        pool.run(2, &|| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.load(Ordering::Relaxed) >= 1);
        // Woken workers go back to sleep once the call drains.
        assert!(
            spin_until(Duration::from_secs(5), || pool.stats().parks > before),
            "workers never re-parked: {:?}",
            pool.stats()
        );
    }

    #[test]
    fn sibling_deque_is_stolen_from_under_uneven_load() {
        let pool = Pool::new(2);
        // Deposit both tickets into worker 0's deque under the state
        // lock (the depositor protocol), so worker 1 can only get its
        // ticket by stealing. The barrier forces both workers to hold a
        // ticket at the same time, making the steal mandatory.
        let barrier = Arc::new(Barrier::new(2));
        let sync = Arc::new(CallSync::new(2));
        let job: Job = {
            let barrier = Arc::clone(&barrier);
            Box::new(move || {
                barrier.wait();
            })
        };
        let body = Arc::new(JobBody { f: job });
        {
            let st = pool.shared.state.lock().unwrap();
            let mut q = pool.shared.local(0);
            for _ in 0..2 {
                q.push_back(Ticket { body: Arc::clone(&body), sync: Arc::clone(&sync) });
            }
            drop(q);
            pool.shared.cv.notify_all();
            drop(st);
        }
        sync.wait();
        assert!(pool.stats().steals >= 1, "no steal recorded: {:?}", pool.stats());
        assert_eq!(pool.stats().tickets_run, 2);
    }

    #[test]
    fn cancelled_tickets_do_not_run() {
        let pool = Pool::new(1);
        // Saturate the single worker so a second call's tickets stay
        // queued, then observe the caller finishing the whole range
        // itself with the leftover invitation cancelled.
        let ran = AtomicUsize::new(0);
        pool.run(1, &|| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ran.load(Ordering::Relaxed) >= 1);
        // After the call returns no ticket of it may remain anywhere.
        assert!(pool.shared.state.lock().unwrap().injector.is_empty());
        assert!(!pool.shared.any_local_pending());
    }

    #[test]
    fn pool_survives_panicking_job_body() {
        let pool = Pool::new(2);
        // The caller participates, so its copy of the panicking job
        // unwinds back out of `run` — but only after the cancel + wait
        // protocol has completed, and without killing any worker.
        let unwound = catch_unwind(AssertUnwindSafe(|| pool.run(2, &|| panic!("invariant broke"))));
        assert!(unwound.is_err());
        // Workers are still alive and serviceable.
        let hits = AtomicUsize::new(0);
        pool.run(2, &|| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.load(Ordering::Relaxed) >= 1);
        assert_eq!(pool.stats().workers, 2);
    }
}
