//! The executor's persistent helper pool.
//!
//! [`Pool::run`] runs one job on the calling thread and on up to `helpers`
//! pool threads at once, and returns once every thread that ran it is
//! done. The job is a claim loop (the executor's endpoint cursor), so the
//! caller works instead of waiting: helpers only add hands. Threads are
//! spawned lazily, only when a posted batch finds too few helpers free, so
//! the pool grows to peak demand and then spawns nothing. A failed spawn
//! just leaves a slot unclaimed; the caller retracts it and does that work
//! itself.
//!
//! Jobs borrow the caller's stack (and transports may borrow too), so a
//! job cannot be `'static`. Handing it to long-lived threads takes the one
//! lifetime-erasing `unsafe` block below, sound under the invariant
//! `std::thread::scope` relies on: the borrowing frame neither returns nor
//! unwinds until every helper that took the job has released it.

use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Thread};

/// Work every participant of one batch runs.
type Job<'a> = dyn Fn() + Sync + 'a;

pub(super) struct Pool {
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a batch posts helper slots, and on shutdown.
    work: Condvar,
}

#[derive(Default)]
struct State {
    batches: Vec<Batch>,
    helpers: Vec<JoinHandle<()>>,
    /// Helpers running a job right now.
    busy: usize,
    next_ticket: u64,
    shutdown: bool,
}

/// One `run` call's entry, owned by the pool state from post to release.
struct Batch {
    ticket: u64,
    /// Lifetime-erased; valid while this entry is posted (see `post`).
    job: &'static Job<'static>,
    /// Helper slots posted and not yet taken.
    unclaimed: usize,
    /// Helpers that took a slot and have not yet released it.
    running: usize,
    panicked: bool,
    /// The posting thread, unparked when its last helper releases.
    caller: Thread,
}

impl Shared {
    /// The pool state, recovering from poisoning: no code path panics
    /// while holding the lock, and every update leaves it consistent.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper's life: take a slot of the oldest batch that has one, run
    /// its job, release, repeat; wait when there is nothing to take.
    fn serve(&self) {
        let mut st = self.lock();
        loop {
            if let Some(b) = st.batches.iter_mut().find(|b| b.unclaimed > 0) {
                b.unclaimed -= 1;
                b.running += 1;
                let (ticket, job) = (b.ticket, b.job);
                st.busy += 1;
                drop(st);
                let ok = catch_unwind(AssertUnwindSafe(job)).is_ok();
                st = self.lock();
                st.busy -= 1;
                let done = st
                    .batches
                    .iter_mut()
                    .find(|b| b.ticket == ticket)
                    .and_then(|b| {
                        b.running -= 1;
                        b.panicked |= !ok;
                        (b.running == 0).then(|| b.caller.clone())
                    });
                if let Some(caller) = done {
                    // After this unlock the batch (and the job it points
                    // to) may be gone: wake the caller through the owned
                    // handle only.
                    drop(st);
                    caller.unpark();
                    st = self.lock();
                }
            } else if st.shutdown {
                return;
            } else {
                st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// A posted batch. Dropping it — on return or unwind alike — releases it.
struct Posted<'p> {
    pool: &'p Pool,
    ticket: u64,
}

impl Posted<'_> {
    /// Retract the unclaimed slots, block until every helper that took
    /// one is done, and unpost the batch. Returns whether a helper's call
    /// panicked; a no-op returning `false` once the batch is released.
    fn release(&self) -> bool {
        let shared = &self.pool.shared;
        let mut st = shared.lock();
        loop {
            let Some(i) = st.batches.iter().position(|b| b.ticket == self.ticket) else {
                return false;
            };
            let b = &mut st.batches[i];
            b.unclaimed = 0;
            if b.running == 0 {
                return st.batches.remove(i).panicked;
            }
            drop(st);
            // Spurious wakeups (and stale tokens) just re-check.
            thread::park();
            st = shared.lock();
        }
    }
}

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

impl Pool {
    pub(super) fn new() -> Pool {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                work: Condvar::new(),
            }),
        }
    }

    /// Helper threads spawned so far (the pool never shrinks before drop).
    pub(super) fn threads(&self) -> usize {
        self.shared.lock().helpers.len()
    }

    /// Run `job` on the calling thread and on up to `helpers` pool threads
    /// concurrently; return once every one of those calls has returned.
    /// A helper's panic is re-raised here after all of them are done.
    pub(super) fn run(&self, helpers: usize, job: &Job<'_>) {
        let posted = (helpers > 0).then(|| self.post(helpers, job));
        job();
        if posted.is_some_and(|p| p.release()) {
            panic!("a federated executor helper panicked");
        }
    }

    fn post<'p>(&'p self, helpers: usize, job: &Job<'_>) -> Posted<'p> {
        // SAFETY: the erased reference is reachable only through this
        // batch's entry in `State::batches`. A helper copies it out only
        // when it claims a slot, counting itself in `running` under the
        // lock, and uncounts itself under the lock after its call returns,
        // never touching the entry or the job afterwards. The `Posted`
        // guard returned below is created before the lock is released (so
        // before any helper can claim), and the caller's frame holds it
        // until `job`'s borrow ends; its release runs on return and (from
        // its drop) on unwind alike, retracts every unclaimed slot under
        // the lock, and blocks until `running` is zero before removing the
        // entry. So no call through the erased reference can start or
        // still be running once the real lifetime ends — the invariant
        // `std::thread::scope` relies on. Completion is signalled by
        // unparking an owned `Thread` handle, never through memory the
        // caller owns. `post` is private and only `run` calls it.
        let job = unsafe { mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        let mut st = self.shared.lock();
        let pending: usize = st.batches.iter().map(|b| b.unclaimed).sum();
        let free = st.helpers.len() - st.busy;
        let wake = free.saturating_sub(pending).min(helpers);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.batches.push(Batch {
            ticket,
            job,
            unclaimed: helpers,
            running: 0,
            panicked: false,
            caller: thread::current(),
        });
        let posted = Posted { pool: self, ticket };
        for _ in wake..helpers {
            let shared = Arc::clone(&self.shared);
            let spawned = thread::Builder::new()
                .name("federate-helper".into())
                .spawn(move || shared.serve());
            // On failure the slot stays unclaimed: `posted` retracts it and
            // the caller's own claim loop covers that work.
            if let Ok(handle) = spawned {
                st.helpers.push(handle);
            }
        }
        drop(st);
        for _ in 0..wake {
            self.shared.work.notify_one();
        }
        posted
    }
}

impl Drop for Pool {
    /// Stops and joins every helper. No batch can be posted any more
    /// (`run` borrows the pool), so each helper finds none and exits.
    fn drop(&mut self) {
        let helpers = {
            let mut st = self.shared.lock();
            st.shutdown = true;
            mem::take(&mut st.helpers)
        };
        self.shared.work.notify_all();
        for handle in helpers {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs a claim loop over `n` items with `helpers` extra hands and
    /// returns how many items were processed.
    fn claim_all(pool: &Pool, helpers: usize, n: usize) -> usize {
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        pool.run(helpers, &|| {
            while next.fetch_add(1, Ordering::Relaxed) < n {
                thread::yield_now();
                done.fetch_add(1, Ordering::Relaxed);
            }
        });
        done.into_inner()
    }

    #[test]
    fn drop_joins_every_helper() {
        let pool = Pool::new();
        claim_all(&pool, 3, 32);
        assert_eq!(pool.threads(), 3);
        let shared = Arc::downgrade(&pool.shared);
        drop(pool);
        // Each helper owns a strong handle until its thread returns; drop
        // joined them all, so none is left.
        assert_eq!(shared.strong_count(), 0);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_after_every_helper_is_done() {
        let pool = Pool::new();
        let caller = thread::current().id();
        let (helped, running) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|| {
                running.fetch_add(1, Ordering::SeqCst);
                if thread::current().id() == caller {
                    // Keep the caller busy until a helper has joined in.
                    while helped.load(Ordering::SeqCst) == 0 {
                        thread::yield_now();
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                } else {
                    helped.fetch_add(1, Ordering::SeqCst);
                    running.fetch_sub(1, Ordering::SeqCst);
                    panic!("helper bug");
                }
            })
        }));
        assert!(outcome.is_err(), "the helper's panic must surface");
        assert_eq!(running.load(Ordering::SeqCst), 0);
        // The pool survives: the helper caught its panic and still serves.
        assert_eq!(claim_all(&pool, 2, 16), 16);
    }
}
