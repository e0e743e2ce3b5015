//! Concurrent federated execution with deadlines, retries, and breakers.
//!
//! [`FederatedExecutor::execute`] dispatches one [`EndpointPlan`] per
//! endpoint without spawning a thread per request (and without an async
//! runtime). The calling thread and helpers from the executor's
//! persistent pool claim endpoints off one atomic cursor, so at most
//! [`ExecutorConfig::n_threads`] subqueries are in flight per call, the
//! caller included. Helpers are spawned only when a call finds too few free,
//! so the pool grows to peak demand and then creates no threads; dropping
//! the executor joins them. Transports may borrow (no `'static` bound):
//! `execute` neither returns nor unwinds before every helper that took
//! part has let go of its borrows — see the `pool` module's SAFETY
//! argument.
//!
//! Each endpoint call runs the full resilience ladder on a **virtual
//! clock** (see the module docs on [`super`]): the breaker is consulted,
//! then attempts alternate with seeded jittered backoff until the reply is
//! served, the deadline budget runs out, retries exhaust, or the breaker
//! trips mid-retry. The remaining budget is propagated into every
//! [`TransportRequest`] so well-behaved transports can give up early. The
//! virtual clock makes the deadline contract exact: an execution's
//! recorded elapsed time never exceeds [`ExecutorConfig::deadline_nanos`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use super::pool::Pool;
use super::{
    mix_chain, BackoffPolicy, BreakerConfig, BreakerState, CircuitBreaker, EndpointOutcome,
    EndpointPlan, EndpointReport, EndpointTransport, FederatedResult, TransportError,
    TransportReply, TransportRequest,
};

/// Executor tuning knobs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ExecutorConfig {
    /// At most this many subqueries in flight per
    /// [`FederatedExecutor::execute`], the calling thread included
    /// (clamped to the number of endpoints in the plan, min 1). The caller
    /// dispatches too; the other `n_threads - 1` come from the executor's
    /// persistent helper pool.
    pub n_threads: usize,
    /// Overall per-endpoint deadline for one execution, in virtual
    /// nanoseconds; attempts and backoff must fit inside it.
    pub deadline_nanos: u64,
    /// Virtual time that passes on an endpoint between successive
    /// executions (request inter-arrival). This is what lets an *open*
    /// breaker's cooldown elapse — fast-failed calls consume no attempt
    /// time, but the stream of arrivals still moves the clock.
    pub inter_request_nanos: u64,
    pub backoff: BackoffPolicy,
    pub breaker: BreakerConfig,
    /// Seed for backoff jitter. Identical seeds (with an identical
    /// transport schedule) replay executions bit-identically.
    pub seed: u64,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            n_threads: 4,
            deadline_nanos: 200_000_000,
            inter_request_nanos: 5_000_000,
            backoff: BackoffPolicy::default(),
            breaker: BreakerConfig::default(),
            seed: 0x5eed,
        }
    }
}

/// Per-endpoint mutable state, persistent across executions so breakers
/// and fault history carry over a whole query stream.
struct EndpointRuntime {
    breaker: CircuitBreaker,
    /// The endpoint's virtual clock, in nanoseconds.
    clock: u64,
    /// Executions issued to this endpoint (indexes the jitter stream).
    calls: u64,
}

/// Dispatches planned subqueries concurrently and degrades gracefully.
/// `&self`-only on the hot path: endpoint runtimes sit behind per-endpoint
/// locks, and distinct endpoints never contend.
pub struct FederatedExecutor<T> {
    transport: T,
    config: ExecutorConfig,
    runtimes: Vec<Mutex<EndpointRuntime>>,
    /// Transport panics contained at the pool boundary (see
    /// [`FederatedExecutor::caught_panics`]).
    panics: AtomicU64,
    pool: Pool,
}

impl<T: EndpointTransport> FederatedExecutor<T> {
    /// `n_endpoints` must cover every [`EndpointId`](super::EndpointId)
    /// the planner can emit (ids are dense registration indexes).
    pub fn new(transport: T, n_endpoints: usize, config: ExecutorConfig) -> FederatedExecutor<T> {
        let runtimes = (0..n_endpoints)
            .map(|_| {
                Mutex::new(EndpointRuntime {
                    breaker: CircuitBreaker::new(config.breaker),
                    clock: 0,
                    calls: 0,
                })
            })
            .collect();
        FederatedExecutor {
            transport,
            config,
            runtimes,
            panics: AtomicU64::new(0),
            pool: Pool::new(),
        }
    }

    pub fn transport(&self) -> &T {
        &self.transport
    }

    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Helper threads the executor's pool has spawned. Flat in steady
    /// state: it grows only to the peak number of helpers concurrent
    /// `execute` calls have needed at once.
    pub fn helper_threads(&self) -> usize {
        self.pool.threads()
    }

    /// Transport panics caught at the pool boundary and degraded to
    /// structured outcomes instead of poisoning the endpoint's runtime
    /// lock. A real transport should never panic, so the chaos soak gates
    /// this at zero.
    pub fn caught_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// An endpoint's runtime lock, recovering from poisoning: the state a
    /// worker could have left mid-flight (clock, breaker window) is always
    /// internally consistent, so a panic elsewhere in a lock holder must
    /// not condemn every later request to this endpoint.
    fn lock_runtime(&self, e: usize) -> MutexGuard<'_, EndpointRuntime> {
        self.runtimes[e]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Current breaker state per endpoint — the soak gate's convergence
    /// signal.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        (0..self.runtimes.len())
            .map(|e| self.lock_runtime(e).breaker.state())
            .collect()
    }

    /// Soonest half-open ETA across all *open* breakers, in virtual
    /// nanoseconds from each endpoint's own clock: how long until at least
    /// one tripped endpoint would admit a probe again. `None` when no
    /// breaker is open. This is what an HTTP front end converts into a
    /// `Retry-After` when a whole execution degrades to breaker fast-fails.
    pub fn soonest_half_open_nanos(&self) -> Option<u64> {
        (0..self.runtimes.len())
            .filter_map(|e| {
                let rt = self.lock_runtime(e);
                rt.breaker.cooldown_remaining(rt.clock)
            })
            .min()
    }

    /// Execute every planned subquery, concurrently, and return one report
    /// per endpoint in plan order. Never panics on endpoint failure — every
    /// fault degrades to a structured [`EndpointOutcome`].
    pub fn execute(&self, plans: &[EndpointPlan]) -> FederatedResult {
        let slots: Vec<Mutex<Option<EndpointReport>>> =
            plans.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let in_flight = self.config.n_threads.clamp(1, plans.len().max(1));
        self.pool.run(in_flight - 1, &|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(plan) = plans.get(i) else { break };
            *slots[i].lock().unwrap() = Some(self.run_endpoint(plan));
        });
        FederatedResult {
            reports: slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .unwrap()
                        .expect("every claimed slot is filled before the pool returns")
                })
                .collect(),
        }
    }

    /// One endpoint's full resilience ladder. Holds the endpoint's runtime
    /// lock for the duration — calls to the *same* endpoint serialize,
    /// which is exactly what keeps its breaker window, virtual clock, and
    /// fault stream deterministic.
    fn run_endpoint(&self, plan: &EndpointPlan) -> EndpointReport {
        let e = plan.endpoint.0 as usize;
        let mut rt = self.lock_runtime(e);
        rt.clock = rt.clock.saturating_add(self.config.inter_request_nanos);
        let call = rt.calls;
        rt.calls += 1;
        let start = rt.clock;
        let deadline = start.saturating_add(self.config.deadline_nanos);
        let mut attempts = 0u32;
        let mut rows = None;
        let outcome = if !rt.breaker.allow(start) {
            EndpointOutcome::CircuitOpen { attempts: 0 }
        } else {
            loop {
                let budget = deadline.saturating_sub(rt.clock);
                if budget == 0 {
                    // Never dispatched: if `allow` above claimed a
                    // half-open probe slot, release it or the endpoint
                    // wedges in fast-fail forever.
                    rt.breaker.abandon_probe();
                    break EndpointOutcome::TimedOut {
                        attempts,
                        elapsed_nanos: rt.clock - start,
                    };
                }
                attempts += 1;
                // The pool boundary: a panicking transport must not poison
                // this endpoint's runtime lock and condemn every later
                // request. Contain it and degrade to a transient failure,
                // which the normal retry/breaker ladder absorbs.
                let reply = catch_unwind(AssertUnwindSafe(|| {
                    self.transport.execute(&TransportRequest {
                        endpoint: plan.endpoint,
                        query: &plan.subquery,
                        attempt: attempts,
                        budget_nanos: budget,
                    })
                }))
                .unwrap_or_else(|_| {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    TransportReply {
                        latency_nanos: 0,
                        payload: Err(TransportError::Transient),
                    }
                });
                if reply.latency_nanos >= budget {
                    // The attempt stalled past the deadline: the caller
                    // stops waiting at the deadline, not at the reply.
                    rt.clock = deadline;
                    rt.breaker.record(deadline, false);
                    break EndpointOutcome::TimedOut {
                        attempts,
                        elapsed_nanos: deadline - start,
                    };
                }
                rt.clock += reply.latency_nanos;
                let now = rt.clock;
                match reply.payload {
                    Ok(r) => {
                        rt.breaker.record(now, true);
                        rows = Some(r);
                        break EndpointOutcome::Served {
                            attempts,
                            latency_nanos: rt.clock - start,
                        };
                    }
                    Err(err) => {
                        rt.breaker.record(now, false);
                        let permanent = err.is_permanent();
                        if permanent || attempts > self.config.backoff.max_retries {
                            break EndpointOutcome::ExhaustedRetries {
                                attempts,
                                permanent,
                            };
                        }
                        let draw = mix_chain(self.config.seed, &[e as u64, call, attempts as u64]);
                        let delay = self.config.backoff.delay_nanos(attempts, draw);
                        if delay >= deadline.saturating_sub(rt.clock) {
                            rt.clock = deadline;
                            break EndpointOutcome::TimedOut {
                                attempts,
                                elapsed_nanos: deadline - start,
                            };
                        }
                        rt.clock += delay;
                        let resumed = rt.clock;
                        // The breaker may have tripped on this very
                        // failure: stop burning budget on a known-bad peer.
                        if !rt.breaker.allow(resumed) {
                            break EndpointOutcome::CircuitOpen { attempts };
                        }
                    }
                }
            }
        };
        EndpointReport {
            endpoint: plan.endpoint,
            outcome,
            rows,
            breaker: rt.breaker.state(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{EndpointId, FaultSpec, MockTransport};
    use super::*;
    use crate::term::Term;

    fn plan_for(e: u32) -> EndpointPlan {
        EndpointPlan {
            endpoint: EndpointId(e),
            endpoint_term: Term::iri(crate::term::Symbol(e)),
            subquery: format!("SELECT * WHERE {{ ?s <http://ep{e}/p> ?o . }}"),
            selectivity: 1,
            n_patterns: 1,
        }
    }

    fn executor(specs: Vec<FaultSpec>, config: ExecutorConfig) -> FederatedExecutor<MockTransport> {
        let n = specs.len();
        FederatedExecutor::new(MockTransport::new(config.seed, specs), n, config)
    }

    #[test]
    fn healthy_endpoints_all_serve_within_deadline() {
        let cfg = ExecutorConfig::default();
        let ex = executor(vec![FaultSpec::default(); 4], cfg);
        let plans: Vec<_> = (0..4).map(plan_for).collect();
        let result = ex.execute(&plans);
        assert!(result.is_complete());
        for r in &result.reports {
            match r.outcome {
                EndpointOutcome::Served {
                    attempts,
                    latency_nanos,
                } => {
                    assert_eq!(attempts, 1);
                    assert!(latency_nanos <= cfg.deadline_nanos);
                    assert!(r.rows.is_some());
                }
                other => panic!("expected Served, got {other:?}"),
            }
            assert_eq!(r.breaker, BreakerState::Closed);
        }
    }

    #[test]
    fn identical_seeds_replay_bit_identically() {
        let cfg = ExecutorConfig {
            seed: 1234,
            ..ExecutorConfig::default()
        };
        let specs = || {
            vec![
                FaultSpec::transient(30),
                FaultSpec::transient(60),
                FaultSpec {
                    timeout_pct: 20,
                    ..FaultSpec::transient(20)
                },
                FaultSpec {
                    flap_period: 7,
                    ..FaultSpec::default()
                },
            ]
        };
        let run = || {
            let ex = executor(specs(), cfg);
            let plans: Vec<_> = (0..4).map(plan_for).collect();
            let mut transcript = String::new();
            for _ in 0..50 {
                transcript.push_str(&ex.execute(&plans).canonical_text());
            }
            (transcript, ex.breaker_states())
        };
        let (ta, ba) = run();
        let (tb, bb) = run();
        assert_eq!(ta, tb, "fault replay diverged");
        assert_eq!(ba, bb, "breaker states diverged");
    }

    #[test]
    fn permanent_failure_degrades_to_partial_results() {
        let ex = executor(
            vec![
                FaultSpec::default(),
                FaultSpec {
                    permanent_pct: 100,
                    ..FaultSpec::default()
                },
            ],
            ExecutorConfig::default(),
        );
        let result = ex.execute(&[plan_for(0), plan_for(1)]);
        assert_eq!(result.served_count(), 1);
        assert!(result.reports[0].outcome.is_served());
        assert_eq!(
            result.reports[1].outcome,
            EndpointOutcome::ExhaustedRetries {
                attempts: 1,
                permanent: true
            },
            "permanent errors must not be retried"
        );
        assert_eq!(result.reports[1].rows, None);
    }

    #[test]
    fn stalled_endpoint_times_out_exactly_at_the_deadline() {
        let cfg = ExecutorConfig::default();
        let ex = executor(
            vec![FaultSpec {
                timeout_pct: 100,
                ..FaultSpec::default()
            }],
            cfg,
        );
        let result = ex.execute(&[plan_for(0)]);
        match result.reports[0].outcome {
            EndpointOutcome::TimedOut {
                attempts,
                elapsed_nanos,
            } => {
                assert_eq!(attempts, 1);
                assert_eq!(elapsed_nanos, cfg.deadline_nanos);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn transient_failures_retry_and_elapsed_never_exceeds_deadline() {
        let cfg = ExecutorConfig {
            seed: 77,
            ..ExecutorConfig::default()
        };
        let ex = executor(vec![FaultSpec::transient(50)], cfg);
        let mut retried = false;
        for _ in 0..100 {
            let result = ex.execute(&[plan_for(0)]);
            let r = &result.reports[0];
            match r.outcome {
                EndpointOutcome::Served {
                    attempts,
                    latency_nanos,
                } => {
                    retried |= attempts > 1;
                    assert!(latency_nanos <= cfg.deadline_nanos);
                }
                EndpointOutcome::TimedOut { elapsed_nanos, .. } => {
                    assert!(elapsed_nanos <= cfg.deadline_nanos);
                }
                EndpointOutcome::ExhaustedRetries { attempts, .. } => {
                    assert_eq!(attempts, cfg.backoff.max_retries + 1);
                }
                EndpointOutcome::CircuitOpen { .. } => {}
            }
        }
        assert!(
            retried,
            "50% transient faults should trigger at least one retry"
        );
    }

    #[test]
    fn breaker_opens_fails_fast_and_recovers_via_half_open() {
        // Flapping endpoint: up for 6 requests, down for 6, up for 6, ...
        // The cooldown (4ms) is shorter than the request inter-arrival
        // (5ms), so an open breaker probes on every subsequent execution
        // and can catch the next up-window.
        let cfg = ExecutorConfig {
            breaker: BreakerConfig {
                window: 4,
                min_samples: 2,
                failure_rate_pct: 50,
                cooldown_nanos: 4_000_000,
                half_open_successes: 1,
            },
            ..ExecutorConfig::default()
        };
        let ex = executor(
            vec![FaultSpec {
                flap_period: 6,
                ..FaultSpec::default()
            }],
            cfg,
        );
        let mut saw = (false, false, false); // (open fast-fail, recovery, served after recovery)
        let mut was_open = false;
        for _ in 0..60 {
            let result = ex.execute(&[plan_for(0)]);
            let r = &result.reports[0];
            if matches!(r.outcome, EndpointOutcome::CircuitOpen { .. }) {
                saw.0 = true;
                was_open = true;
            } else if was_open && r.outcome.is_served() {
                saw.2 = true;
            }
            if was_open && r.breaker == BreakerState::Closed {
                saw.1 = true;
            }
        }
        assert!(saw.0, "breaker never fast-failed");
        assert!(saw.1, "breaker never closed again after opening");
        assert!(saw.2, "no request served after recovery");
    }

    #[test]
    fn panicking_transport_degrades_without_poisoning_the_endpoint() {
        use std::sync::atomic::AtomicU64;

        /// Panics on the first `panic_for` calls, healthy afterwards.
        struct PanickingTransport {
            panic_for: u64,
            calls: AtomicU64,
        }
        impl EndpointTransport for PanickingTransport {
            fn execute(&self, req: &TransportRequest<'_>) -> TransportReply {
                if self.calls.fetch_add(1, Ordering::Relaxed) < self.panic_for {
                    panic!("transport bug");
                }
                TransportReply {
                    latency_nanos: 1_000_000,
                    payload: Ok(format!("rows for {}", req.query.len())),
                }
            }
        }

        let cfg = ExecutorConfig::default();
        // Enough panics to exhaust the first execution's retries entirely.
        let ex = FederatedExecutor::new(
            PanickingTransport {
                panic_for: (cfg.backoff.max_retries + 1) as u64,
                calls: AtomicU64::new(0),
            },
            1,
            cfg,
        );
        let result = ex.execute(&[plan_for(0)]);
        assert_eq!(
            result.reports[0].outcome,
            EndpointOutcome::ExhaustedRetries {
                attempts: cfg.backoff.max_retries + 1,
                permanent: false,
            },
            "panics must degrade to a structured transient outcome"
        );
        assert_eq!(ex.caught_panics(), (cfg.backoff.max_retries + 1) as u64);
        // The endpoint's mutex survived: the next execution over the
        // now-healthy transport serves normally.
        let result = ex.execute(&[plan_for(0)]);
        assert!(
            result.reports[0].outcome.is_served(),
            "endpoint unusable after contained panics: {:?}",
            result.reports[0].outcome
        );
    }

    /// Replies from data on the test's stack: the transport is not
    /// `'static`, which the executor must accept.
    struct BorrowingTransport<'a> {
        tag: &'a str,
    }

    impl EndpointTransport for BorrowingTransport<'_> {
        fn execute(&self, req: &TransportRequest<'_>) -> TransportReply {
            std::thread::yield_now();
            TransportReply {
                latency_nanos: 1_000_000,
                payload: Ok(format!(
                    "{}/ep{}/{}",
                    self.tag,
                    req.endpoint.0,
                    req.query.len()
                )),
            }
        }
    }

    #[test]
    fn borrowing_transport_serves_concurrent_callers_like_one_thread() {
        let tag = String::from("stack-owned");
        let plans: Vec<_> = (0..6).map(plan_for).collect();
        let solo = FederatedExecutor::new(
            BorrowingTransport { tag: &tag },
            6,
            ExecutorConfig::default(),
        );
        let expected = solo.execute(&plans).canonical_text();
        let shared = FederatedExecutor::new(
            BorrowingTransport { tag: &tag },
            6,
            ExecutorConfig::default(),
        );
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        assert_eq!(shared.execute(&plans).canonical_text(), expected);
                    }
                });
            }
        });
        let cap = 4 * (ExecutorConfig::default().n_threads - 1);
        assert!(
            shared.helper_threads() <= cap,
            "{} helpers",
            shared.helper_threads()
        );
    }

    #[test]
    fn steady_state_executes_spawn_no_threads() {
        let ex = executor(vec![FaultSpec::default(); 4], ExecutorConfig::default());
        let plans: Vec<_> = (0..4).map(plan_for).collect();
        ex.execute(&plans);
        let warmed = ex.helper_threads();
        assert!(warmed <= 3, "{warmed} helpers for 3 helper slots");
        for _ in 0..1000 {
            assert!(ex.execute(&plans).is_complete());
        }
        assert_eq!(
            ex.helper_threads(),
            warmed,
            "a steady-state execute spawned"
        );
    }

    #[test]
    fn one_thread_config_never_spawns() {
        let cfg = ExecutorConfig {
            n_threads: 1,
            ..ExecutorConfig::default()
        };
        let ex = executor(vec![FaultSpec::default(); 4], cfg);
        let plans: Vec<_> = (0..4).map(plan_for).collect();
        assert!(ex.execute(&plans).is_complete());
        assert_eq!(ex.helper_threads(), 0);
    }

    #[test]
    fn empty_plan_list_is_a_clean_noop() {
        let ex = executor(vec![], ExecutorConfig::default());
        let result = ex.execute(&[]);
        assert!(result.reports.is_empty());
        assert!(result.is_complete());
    }
}
