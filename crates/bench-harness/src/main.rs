//! Benchmark runner: measures indexed vs linear BGP rewriting over
//! synthetic workloads, the end-to-end parse → rewrite → render serve
//! pipeline, thread-scaling of both engines, and allocations per
//! rewrite/serve — then writes `BENCH_core.json`.
//!
//! ```text
//! cargo run --release -p bench-harness              # full grid -> BENCH_core.json
//! cargo run --release -p bench-harness -- --quick   # small grid, short budgets
//! cargo run --release -p bench-harness -- --out path.json
//! cargo run --release -p bench-harness -- --filter end_to_end/group
//! cargo run --release -p bench-harness -- --no-cache --filter cached    # cold-path A/B
//! ```
//!
//! Every config has a stable slash-separated name (`rewrite/flat/indexed/
//! 10k/8p`, `end_to_end/group/10k`, `end_to_end/cached/zipf/10k`,
//! `thread_scaling`, `end_to_end/threads`, `federation/soak`,
//! `federation/http_soak`, `server/chaos_soak`, `server/cached/zipf`);
//! `--filter <substring>` reruns just the matching sections without the
//! full grid.
//!
//! The `end_to_end/cached/*` configs serve a Zipfian(1.0) request stream —
//! each logical query re-sent under rotating whitespace / PREFIX-alias
//! re-spellings — through the cache-fronted engine and A/B it against a
//! cache-less engine on the identical stream (`--no-cache` forces the A/B
//! leg for every config).
//!
//! In both modes the run doubles as a regression gate: it exits nonzero if
//! steady-state rewriting or serving allocates, if indexed throughput falls
//! under a conservative floor at the median **or at p99** (a fat tail fails
//! the gate even when the median looks fine), if the indexed/linear speedup
//! collapses, if parallel output is nondeterministic, or if the cached
//! serve path loses its ≥10x (full) / ≥5x (quick) speedup, its ≥0.9 hit
//! rate, or its zero-allocation hit path — so CI's `--quick` smoke run
//! fails loudly on perf regressions in the serve path.
//!
//! The `federation/soak` leg streams Zipfian federated queries against four
//! fault-injected mock endpoints (30% transient failures, one flapping) —
//! twice, with identical seeds — and gates robustness instead of speed:
//! zero panics, byte-identical partial-result transcripts, converged
//! breaker states, and the deadline ceiling (deadline + one backoff
//! quantum) on every endpoint outcome.
//!
//! The `federation/http_soak` leg proves the same contract over real
//! sockets: four in-process chaos proxies inject byte-level protocol
//! faults (refused/reset connections, slow-loris trickle, truncated and
//! oversized bodies, malformed status lines and headers, lying
//! Content-Length) into the blocking HTTP transport, while each request is
//! re-planned through the planner's partition cache. Gated: zero panics,
//! byte-identical outcome-class transcripts and fault schedules across two
//! identical-seed runs, converged breakers, the deadline ceiling, every
//! enabled fault class observed, and partition-cache hits on the Zipfian
//! stream.
//!
//! The `server/chaos_soak` leg turns the chaos around: a seeded
//! *client-side* adversary (nine fault classes — half-open connects,
//! trickled headers, aborted bodies, lying Content-Length, oversized
//! frames) drives the live `sparql-rewrite-server` HTTP front end over
//! loopback, twice with identical seeds. Gated: zero worker panics,
//! byte-identical outcome transcripts and server counters, every fault
//! class fired, a bounded O(1) shed path under wedged workers, and drain
//! completion inside the documented bound. The companion
//! `server/cached/zipf` leg streams healthy keep-alive traffic through a
//! workload-tuned cache and gates zero steady-state allocations per
//! request across the whole process — socket path included.

mod bench;
mod chaos_client;
mod engine;
mod json;
mod parallel;
mod server_soak;
mod workload;

use std::sync::Arc;
use std::time::Duration;

use bench::{Bencher, Stats};
use engine::ServeEngine;
use json::{array, JsonObject};
use parallel::BatchEngine;
use sparql_rewrite_core::counting_alloc::{allocation_count, CountingAllocator};
use sparql_rewrite_core::{
    BackoffPolicy, BreakerConfig, CacheConfig, ChaosProxy, ChaosSpec, EndpointOutcome,
    ExecutorConfig, FaultSpec, FederatedExecutor, HttpConfig, HttpEndpoint, HttpLimits,
    HttpTransport, IndexedRewriter, Interner, LinearRewriter, MockTransport, RewriteLimits,
    RewriteScratch, Rewriter,
};
use workload::{
    alias_prefix, generate, generate_federation, perturb_whitespace, ComplexShape, FederationSpec,
    Rng, WorkloadSpec, ZipfSpec,
};

// Counting allocator (shared with the core crate's alloc_free test) so the
// harness can report — and gate on — allocations per steady-state rewrite.
#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `1000 → "1k"`, `100000 → "100k"` — the rule-count segment of config names.
fn fmt_rules(n: usize) -> String {
    if n >= 1000 && n.is_multiple_of(1000) {
        format!("{}k", n / 1000)
    } else {
        n.to_string()
    }
}

struct ConfigResult {
    /// Stable config name, e.g. `rewrite/flat/indexed/10k/8p`.
    name: String,
    n_rules: usize,
    patterns_per_query: usize,
    strategy: &'static str,
    /// "flat" for plain BGP batches, "group" for OPTIONAL/UNION/FILTER
    /// workloads driving the recursive rewrite path.
    shape: &'static str,
    ns_per_query: f64,
    ns_per_pattern: f64,
    patterns_per_sec: f64,
    /// Tail latency: p99 over samples, per pattern.
    ns_per_pattern_p99: f64,
    /// Heap allocations per `rewrite_query_into` call at steady state.
    allocs_per_rewrite: f64,
    stats: Stats,
    n_queries: usize,
}

/// The shared spec shape for the `rewrite/*` configs. A batch of
/// queries per iteration so one iteration is meaty even for the
/// indexed path on tiny queries.
fn rewrite_spec(
    n_rules: usize,
    patterns_per_query: usize,
    group_shapes: bool,
    complex: ComplexShape,
) -> WorkloadSpec {
    WorkloadSpec {
        n_rules,
        patterns_per_query,
        n_queries: 64,
        seed: 0x5eed_0000 + n_rules as u64,
        group_shapes,
        complex,
    }
}

fn run_config(
    bencher: &Bencher,
    name: String,
    spec: WorkloadSpec,
    strategy_linear: bool,
) -> ConfigResult {
    let mut w = generate(&spec);
    let mut store = std::mem::take(&mut w.store);
    // Freeze: build the dense dispatch tables before the timed loop.
    store.build_dense_index(w.interner.symbol_bound());
    let strategy: Box<dyn Rewriter> = if strategy_linear {
        Box::new(LinearRewriter::new(&store))
    } else {
        Box::new(IndexedRewriter::new(&store))
    };

    let queries = std::mem::take(&mut w.queries);
    let mut scratch = RewriteScratch::new();
    let stats = bencher.run(|| {
        for q in &queries {
            strategy.rewrite_query_into(q, &mut scratch);
            std::hint::black_box(scratch.patterns());
        }
    });

    // Steady state reached during the bench warm-up: count allocations over
    // one more full pass.
    let before = allocation_count();
    for q in &queries {
        strategy.rewrite_query_into(q, &mut scratch);
        std::hint::black_box(scratch.patterns());
    }
    let allocs_per_rewrite = (allocation_count() - before) as f64 / queries.len() as f64;

    // One bench iteration rewrites the whole batch.
    let ns_per_query = stats.median_ns / queries.len() as f64;
    let ns_per_pattern = stats.median_ns / w.total_patterns as f64;
    ConfigResult {
        name,
        n_rules: spec.n_rules,
        patterns_per_query: spec.patterns_per_query,
        strategy: if strategy_linear { "linear" } else { "indexed" },
        // Complex shapes get their own label: the flat-only speedup
        // geomean must not mix in workloads where rewrite cost is
        // dominated by template instantiation rather than lookup.
        shape: match spec.complex {
            ComplexShape::Guarded => "guarded",
            ComplexShape::Chain(_) => "chain",
            ComplexShape::None => {
                if spec.group_shapes {
                    "group"
                } else {
                    "flat"
                }
            }
        },
        ns_per_query,
        ns_per_pattern,
        patterns_per_sec: 1e9 / ns_per_pattern,
        ns_per_pattern_p99: stats.percentile(99.0) / w.total_patterns as f64,
        allocs_per_rewrite,
        stats,
        n_queries: queries.len(),
    }
}

struct E2eResult {
    /// Stable config name, e.g. `end_to_end/group/10k`.
    name: String,
    n_rules: usize,
    shape: &'static str,
    ns_per_query: f64,
    queries_per_sec: f64,
    /// Tail latency: p99 over samples, per query.
    ns_per_query_p99: f64,
    /// Heap allocations per `ServeEngine::serve` call at steady state —
    /// parse, rewrite, and render included.
    allocs_per_serve: f64,
    stats: Stats,
    n_requests: usize,
}

/// End-to-end config: parse → rewrite → render per request text through the
/// [`ServeEngine`], single worker.
fn run_e2e_config(
    bencher: &Bencher,
    name: String,
    n_rules: usize,
    group_shapes: bool,
) -> E2eResult {
    let spec = WorkloadSpec {
        n_rules,
        patterns_per_query: 8,
        n_queries: 64,
        seed: 0xe2e_0000 + n_rules as u64,
        group_shapes,
        complex: ComplexShape::None,
    };
    let mut w = generate(&spec);
    let requests = w.query_texts();
    // Cache off: the end_to_end/* configs measure the raw parse → rewrite
    // → render pipeline. The cache's effect is measured (and gated)
    // separately by the end_to_end/cached/* configs.
    let engine = ServeEngine::with_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        None,
    );
    let mut scratch = engine.scratch();

    let stats = bencher.run(|| {
        for req in &requests {
            let out = engine.serve(req, &mut scratch).expect("workload parses");
            std::hint::black_box(out);
        }
    });

    let before = allocation_count();
    for req in &requests {
        let out = engine.serve(req, &mut scratch).expect("workload parses");
        std::hint::black_box(out);
    }
    let allocs_per_serve = (allocation_count() - before) as f64 / requests.len() as f64;

    let ns_per_query = stats.median_ns / requests.len() as f64;
    E2eResult {
        name,
        n_rules,
        shape: if group_shapes { "group" } else { "flat" },
        ns_per_query,
        queries_per_sec: 1e9 / ns_per_query,
        ns_per_query_p99: stats.percentile(99.0) / requests.len() as f64,
        allocs_per_serve,
        stats,
        n_requests: requests.len(),
    }
}

struct CachedResult {
    /// Stable config name, e.g. `end_to_end/cached/zipf/10k`.
    name: String,
    n_rules: usize,
    shape: &'static str,
    zipf_s: f64,
    n_distinct: usize,
    n_requests: usize,
    /// Whether the engine actually had its cache on (`--no-cache` A/B runs
    /// record `false`, and the cache gates go vacuous).
    cache_on: bool,
    ns_per_request: f64,
    requests_per_sec: f64,
    ns_per_request_p99: f64,
    /// Median of the identical request stream served by a cache-less
    /// engine over the same rule set — the A/B baseline.
    cold_ns_per_request: f64,
    speedup_vs_cold: f64,
    /// Steady-state hit rate over one full pass of the stream.
    hit_rate: f64,
    /// Rewrites whose rendered text exceeded the per-value cap and skipped
    /// the cache entirely (should be 0 on this workload — a nonzero count
    /// means repeated queries silently lost caching).
    oversize_bypasses: u64,
    /// Heap allocations per serve at steady state (hit path dominated).
    allocs_per_serve: f64,
    /// End-of-run cache observability (zeros when the cache is off):
    /// occupied slots, total slots, probe-level evictions and hit ratio.
    cache_occupancy: u64,
    cache_capacity: u64,
    cache_evictions: u64,
    cache_hit_ratio: f64,
    stats: Stats,
}

/// Cached serve config: a Zipfian(s) request stream over `n_distinct`
/// logical queries — each re-sent under rotating whitespace/PREFIX-alias
/// re-spellings, the way real clients repeat queries — served through the
/// cache-fronted [`ServeEngine`], A/B'd against a cache-less engine over a
/// byte-identical workload (same seed).
fn run_cached_config(
    bencher: &Bencher,
    name: String,
    n_rules: usize,
    group_shapes: bool,
    quick: bool,
    cache_on: bool,
) -> CachedResult {
    let spec = WorkloadSpec {
        n_rules,
        patterns_per_query: 8,
        n_queries: 64,
        seed: 0xcac4_0000 + n_rules as u64 + group_shapes as u64,
        group_shapes,
        complex: ComplexShape::None,
    };
    let mut w = generate(&spec);
    let distinct = w.query_texts();
    let cached_engine = ServeEngine::with_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        cache_on.then(CacheConfig::default),
    );
    // Identical workload (same seed) for the cold baseline.
    let mut w2 = generate(&spec);
    let cold_engine = ServeEngine::with_cache(
        std::mem::take(&mut w2.store),
        std::mem::replace(&mut w2.interner, Interner::new()),
        None,
    );

    let n_requests = if quick { 256 } else { 512 };
    let ranks = workload::zipf_ranks(&ZipfSpec {
        s: 1.0,
        n_distinct: distinct.len(),
        n_requests,
        seed: spec.seed ^ 0x21bf_5eed,
    });
    // Three spellings per logical query: as-rendered, whitespace-mangled,
    // PREFIX-aliased. The normalizer must fold all three onto one entry.
    let mut rng = Rng::new(spec.seed ^ 0x77);
    let variants: Vec<[String; 3]> = distinct
        .iter()
        .map(|t| {
            [
                t.clone(),
                perturb_whitespace(t, &mut rng),
                alias_prefix(t, "s", "http://src.example.org/onto/"),
            ]
        })
        .collect();
    let requests: Vec<&str> = ranks
        .iter()
        .enumerate()
        .map(|(i, &r)| variants[r as usize][i % 3].as_str())
        .collect();

    let mut scratch = cached_engine.scratch();
    let stats = bencher.run(|| {
        for req in &requests {
            let out = cached_engine
                .serve(req, &mut scratch)
                .expect("workload parses");
            std::hint::black_box(out);
        }
    });
    let mut cold_scratch = cold_engine.scratch();
    let cold_stats = bencher.run(|| {
        for req in &requests {
            let out = cold_engine
                .serve(req, &mut cold_scratch)
                .expect("workload parses");
            std::hint::black_box(out);
        }
    });

    // Steady-state hit rate and allocations over one more full pass (the
    // bench warm-up already populated the cache).
    scratch.reset_cache_counters();
    let before = allocation_count();
    for req in &requests {
        let out = cached_engine
            .serve(req, &mut scratch)
            .expect("workload parses");
        std::hint::black_box(out);
    }
    let allocs_per_serve = (allocation_count() - before) as f64 / requests.len() as f64;
    let served = scratch.cache_hits() + scratch.cache_misses();
    let hit_rate = if served > 0 {
        scratch.cache_hits() as f64 / served as f64
    } else {
        0.0
    };

    let ns_per_request = stats.median_ns / requests.len() as f64;
    let cold_ns_per_request = cold_stats.median_ns / requests.len() as f64;
    let cache_stats = cached_engine.cache_stats();
    CachedResult {
        name,
        n_rules,
        shape: if group_shapes { "group" } else { "flat" },
        zipf_s: 1.0,
        n_distinct: distinct.len(),
        n_requests,
        cache_on,
        ns_per_request,
        requests_per_sec: 1e9 / ns_per_request,
        ns_per_request_p99: stats.percentile(99.0) / requests.len() as f64,
        cold_ns_per_request,
        speedup_vs_cold: cold_ns_per_request / ns_per_request,
        hit_rate,
        oversize_bypasses: cached_engine.cache_bypasses(),
        allocs_per_serve,
        cache_occupancy: cache_stats.as_ref().map_or(0, |c| c.occupancy() as u64),
        cache_capacity: cache_stats.as_ref().map_or(0, |c| c.capacity() as u64),
        cache_evictions: cache_stats.as_ref().map_or(0, |c| c.evictions()),
        cache_hit_ratio: cache_stats.as_ref().map_or(0.0, |c| c.hit_ratio()),
        stats,
    }
}

struct ThreadResult {
    threads: usize,
    per_sec: f64,
    speedup_vs_1: f64,
}

struct ScalingReport {
    results: Vec<ThreadResult>,
    /// Rewriting the workload on 1 thread and on max(thread_counts) threads
    /// produced identical queries AND identical rendered text.
    deterministic: bool,
}

/// Thread-scaling sweep of the batch engine: one shared `Arc` rule set and
/// frozen interner, N workers, contiguous chunks, warmed scratches.
fn run_thread_scaling(quick: bool, thread_counts: &[usize]) -> ScalingReport {
    let spec = WorkloadSpec {
        n_rules: if quick { 1_000 } else { 10_000 },
        patterns_per_query: 8,
        n_queries: 256,
        seed: 0x0007_4ead_5ca1_e000,
        group_shapes: false,
        complex: ComplexShape::None,
    };
    let mut w = generate(&spec);
    let mut store = std::mem::take(&mut w.store);
    store.build_dense_index(w.interner.symbol_bound());
    let store = Arc::new(store);
    let frozen = Arc::new(std::mem::replace(&mut w.interner, Interner::new()).freeze());
    let engine = BatchEngine::new(store, frozen);
    let queries = std::mem::take(&mut w.queries);

    // Calibrate reps so the 1-thread run lasts ~budget.
    let budget = if quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(400)
    };
    let probe = engine
        .timed_run(&queries, 1, 4)
        .max(Duration::from_micros(50));
    let per_pass = probe.as_secs_f64() / 5.0; // 4 reps + warm pass
    let reps = ((budget.as_secs_f64() / per_pass) as u32).clamp(4, 100_000);

    let mut results = Vec::new();
    let mut base = 0.0f64;
    for &threads in thread_counts {
        // Median of three runs; spawn/join noise dominates tails on small
        // budgets.
        let mut secs: Vec<f64> = (0..3)
            .map(|_| engine.timed_run(&queries, threads, reps).as_secs_f64())
            .collect();
        secs.sort_by(f64::total_cmp);
        let elapsed = secs[1];
        // The untimed-warm pass inside timed_run does the same work, so
        // count reps + 1 passes.
        let patterns = w.total_patterns as f64 * (reps as f64 + 1.0);
        let pps = patterns / elapsed;
        if threads == 1 {
            base = pps;
        }
        results.push(ThreadResult {
            threads,
            per_sec: pps,
            speedup_vs_1: if base > 0.0 { pps / base } else { 0.0 },
        });
    }

    // Determinism: the fresh-counter scheme is per-query, so the rewritten
    // batch (and its rendered text) must not depend on the thread count.
    let max_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let one = engine.rewrite_all(&queries, 1);
    let many = engine.rewrite_all(&queries, max_threads);
    let deterministic = one == many
        && one.iter().zip(&many).all(|(a, b)| {
            a.display(engine.interner()).to_string() == b.display(engine.interner()).to_string()
        });

    ScalingReport {
        results,
        deterministic,
    }
}

/// Thread-scaling sweep of the end-to-end serve pipeline: shared engine,
/// per-worker scratches (each with its own interner clone).
fn run_e2e_thread_scaling(quick: bool, thread_counts: &[usize]) -> Vec<ThreadResult> {
    let spec = WorkloadSpec {
        n_rules: if quick { 1_000 } else { 10_000 },
        patterns_per_query: 8,
        n_queries: 256,
        seed: 0x0e2e_4ead_5ca1_e000,
        group_shapes: false,
        complex: ComplexShape::None,
    };
    let mut w = generate(&spec);
    let requests = w.query_texts();
    let n_requests = requests.len() as f64;
    // Cache off — thread scaling of the cold pipeline (see run_e2e_config).
    let engine = ServeEngine::with_cache(
        std::mem::take(&mut w.store),
        std::mem::replace(&mut w.interner, Interner::new()),
        None,
    );

    let budget = if quick {
        Duration::from_millis(100)
    } else {
        Duration::from_millis(400)
    };
    let probe = engine
        .timed_serve_run(&requests, 1, 4)
        .max(Duration::from_micros(50));
    let per_pass = probe.as_secs_f64() / 5.0;
    let reps = ((budget.as_secs_f64() / per_pass) as u32).clamp(4, 100_000);

    let mut results = Vec::new();
    let mut base = 0.0f64;
    for &threads in thread_counts {
        let mut secs: Vec<f64> = (0..3)
            .map(|_| {
                engine
                    .timed_serve_run(&requests, threads, reps)
                    .as_secs_f64()
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        let qps = n_requests * (reps as f64 + 1.0) / secs[1];
        if threads == 1 {
            base = qps;
        }
        results.push(ThreadResult {
            threads,
            per_sec: qps,
            speedup_vs_1: if base > 0.0 { qps / base } else { 0.0 },
        });
    }
    results
}

/// Outcome of the fault-injection soak: a Zipfian stream of planned
/// federated queries dispatched twice against identically seeded mock
/// endpoints. The soak gates robustness properties (no panics, identical
/// transcripts, breaker convergence, the deadline ceiling) rather than
/// throughput — `dispatches_per_sec` is informational.
struct FederationSoak {
    name: String,
    n_endpoints: usize,
    n_distinct: usize,
    n_requests: usize,
    served: u64,
    timed_out: u64,
    circuit_open: u64,
    exhausted: u64,
    dispatches_per_sec: f64,
    deterministic: bool,
    breaker_converged: bool,
    deadline_respected: bool,
    panicked: bool,
}

/// Fault-injection soak: four mock endpoints at a 30% transient-failure
/// rate (the last one also flapping in windows, so circuit breakers trip
/// and probe during the stream), serving a Zipfian(1.0) mix of federated
/// query plans. The identical stream runs twice with fresh, identically
/// seeded executor + transport pairs; the concatenated canonical
/// transcripts must be byte-identical and the final per-endpoint breaker
/// states equal — the concurrency-determinism acceptance gate.
fn run_federation_soak(quick: bool) -> FederationSoak {
    const N_ENDPOINTS: usize = 4;
    let spec = FederationSpec {
        n_endpoints: N_ENDPOINTS,
        rules_per_endpoint: if quick { 64 } else { 256 },
        n_queries: 32,
        patterns_per_query: 8,
        seed: 0xfed5_0a4b,
    };
    let w = generate_federation(&spec);
    // One seeded chain feeds everything downstream: executor jitter, mock
    // fault schedules, and the request mix all trace back to the workload
    // seed, so the whole soak replays from a single number.
    let mut seeds = Rng::new(spec.seed);
    let exec_seed = seeds.next_u64();
    let fault_seed = seeds.next_u64();
    let zipf_seed = seeds.next_u64();

    let limits = RewriteLimits::with_union_branch_cap(1024);
    let plans: Vec<_> = w
        .queries
        .iter()
        .map(|q| {
            w.planner
                .plan(q.as_ref(), &w.interner, limits)
                .expect("soak workload stays under the UNION branch cap")
        })
        .collect();
    let n_requests = if quick { 400 } else { 2_000 };
    let ranks = workload::zipf_ranks(&ZipfSpec {
        s: 1.0,
        n_distinct: plans.len(),
        n_requests,
        seed: zipf_seed,
    });

    let config = ExecutorConfig {
        seed: exec_seed,
        ..ExecutorConfig::default()
    };
    let mut fault_specs = vec![FaultSpec::transient(30); N_ENDPOINTS];
    // The last endpoint also flaps in 40-request windows: whole-window
    // outages on top of the 30% transient floor drive its breaker through
    // open and half-open states during the stream.
    fault_specs[N_ENDPOINTS - 1].flap_period = 40;

    // Acceptance ceiling: elapsed virtual time never exceeds the deadline
    // by more than one backoff quantum. (The executor actually clamps at
    // the deadline exactly; the gate allows the documented slack.)
    let ceiling = config.deadline_nanos + config.backoff.max_nanos;

    let run_once = || {
        let executor = FederatedExecutor::new(
            MockTransport::new(fault_seed, fault_specs.clone()),
            N_ENDPOINTS,
            config,
        );
        let mut transcript = String::new();
        let mut tallies = [0u64; 4]; // served / timed out / circuit open / exhausted
        let mut within_ceiling = true;
        for &rank in &ranks {
            let result = executor.execute(&plans[rank as usize].endpoints);
            for report in &result.reports {
                match report.outcome {
                    EndpointOutcome::Served { latency_nanos, .. } => {
                        tallies[0] += 1;
                        within_ceiling &= latency_nanos <= ceiling;
                    }
                    EndpointOutcome::TimedOut { elapsed_nanos, .. } => {
                        tallies[1] += 1;
                        within_ceiling &= elapsed_nanos <= ceiling;
                    }
                    EndpointOutcome::CircuitOpen { .. } => tallies[2] += 1,
                    EndpointOutcome::ExhaustedRetries { .. } => tallies[3] += 1,
                }
            }
            transcript.push_str(&result.canonical_text());
        }
        (
            transcript,
            executor.breaker_states(),
            tallies,
            within_ceiling,
        )
    };

    let start = std::time::Instant::now();
    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&run_once));
    let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&run_once));
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let (panicked, deterministic, breaker_converged, deadline_respected, tallies) =
        match (&first, &second) {
            (Ok(a), Ok(b)) => (false, a.0 == b.0, a.1 == b.1, a.3 && b.3, a.2),
            _ => (true, false, false, false, [0u64; 4]),
        };
    let dispatches = tallies.iter().sum::<u64>();
    FederationSoak {
        name: "federation/soak/zipf/4ep/30pct".to_string(),
        n_endpoints: N_ENDPOINTS,
        n_distinct: plans.len(),
        n_requests,
        served: tallies[0],
        timed_out: tallies[1],
        circuit_open: tallies[2],
        exhausted: tallies[3],
        dispatches_per_sec: (2 * dispatches) as f64 / elapsed,
        deterministic,
        breaker_converged,
        deadline_respected,
        panicked,
    }
}

/// Outcome of the HTTP chaos soak: the same robustness contract as
/// [`FederationSoak`], but over the real socket transport — a Zipfian
/// stream re-planned per request (exercising the planner's partition
/// cache) and dispatched through [`HttpTransport`] against four in-process
/// [`ChaosProxy`] endpoints injecting byte-level protocol faults.
struct HttpSoak {
    name: String,
    n_endpoints: usize,
    n_requests: usize,
    served: u64,
    timed_out: u64,
    circuit_open: u64,
    exhausted: u64,
    exhausted_permanent: u64,
    /// Aggregate injections across all proxies, indexed like
    /// [`sparql_rewrite_core::FaultClass::ALL`].
    injected: [u64; 9],
    cache_hits: u64,
    cache_misses: u64,
    connections_reused: u64,
    dispatches_per_sec: f64,
    deterministic: bool,
    breaker_converged: bool,
    deadline_respected: bool,
    /// Every fault class the specs enable (all nine, Healthy included)
    /// was actually injected at least once.
    all_faults_injected: bool,
    panicked: bool,
}

/// HTTP chaos soak: four loopback chaos proxies — three lightly faulty,
/// one hostile enough to trip its breaker — serve a Zipfian(1.0) stream of
/// federated queries re-planned per request through the planner's
/// partition cache and dispatched over real TCP. The stream runs twice
/// with identical seeds and fresh proxies/transport/executor; transcripts
/// record outcome *classes* (never wall-clock nanos, which real sockets
/// make noisy), and must replay byte-identically, with converged breakers
/// and identical fault-injection schedules.
///
/// Timing margins are chosen so scheduling noise cannot flip a decision:
/// inter-request (50ms) and breaker cooldown (120ms) are *virtual* — free
/// to make enormous next to the sub-millisecond real latencies that leak
/// into the virtual clock — and the 250ms deadline gives loopback
/// round-trips (~0.1ms) three orders of magnitude of headroom.
fn run_http_soak(quick: bool) -> HttpSoak {
    const N_ENDPOINTS: usize = 4;
    let spec = FederationSpec {
        n_endpoints: N_ENDPOINTS,
        rules_per_endpoint: if quick { 64 } else { 256 },
        n_queries: 32,
        patterns_per_query: 8,
        seed: 0xc4a0_55ed,
    };
    let mut w = generate_federation(&spec);
    // Every soak query was parsed into `w.interner` up front and is
    // planned with it, so all of its symbols are shared.
    w.planner
        .enable_partition_cache(CacheConfig::default(), w.interner.symbol_bound());
    let mut seeds = Rng::new(spec.seed);
    let exec_seed = seeds.next_u64();
    let fault_seed = seeds.next_u64();
    let zipf_seed = seeds.next_u64();

    let n_requests = if quick { 120 } else { 400 };
    let ranks = workload::zipf_ranks(&ZipfSpec {
        s: 1.0,
        n_distinct: w.queries.len(),
        n_requests,
        seed: zipf_seed,
    });

    // Three lightly faulty endpoints covering every protocol fault class
    // between them, and one hostile enough (50% connection faults) that
    // its breaker trips and probes during the stream.
    let light = ChaosSpec {
        refuse_pct: 3,
        reset_pct: 3,
        truncate_pct: 3,
        wrong_len_pct: 4,
        ..ChaosSpec::default()
    };
    let exotic = ChaosSpec {
        trickle_pct: 2,
        malformed_status_pct: 3,
        oversized_pct: 3,
        ..ChaosSpec::default()
    };
    let header_faults = ChaosSpec {
        reset_pct: 3,
        malformed_header_pct: 3,
        wrong_len_pct: 4,
        ..ChaosSpec::default()
    };
    let hostile = ChaosSpec {
        refuse_pct: 18,
        reset_pct: 18,
        truncate_pct: 14,
        ..ChaosSpec::default()
    };
    let chaos_specs = [light, exotic, header_faults, hostile];

    let config = ExecutorConfig {
        n_threads: N_ENDPOINTS,
        deadline_nanos: 250_000_000,
        inter_request_nanos: 50_000_000,
        backoff: BackoffPolicy {
            base_nanos: 2_000_000,
            max_nanos: 10_000_000,
            max_retries: 2,
        },
        breaker: BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_rate_pct: 50,
            cooldown_nanos: 120_000_000,
            half_open_successes: 1,
        },
        seed: exec_seed,
    };
    let limits = RewriteLimits::with_union_branch_cap(1024);
    let ceiling = config.deadline_nanos + config.backoff.max_nanos;

    let run_once = || {
        let proxies: Vec<ChaosProxy> = chaos_specs
            .iter()
            .enumerate()
            .map(|(e, s)| {
                ChaosProxy::spawn(fault_seed.wrapping_add(e as u64), *s)
                    .expect("chaos proxy binds loopback")
            })
            .collect();
        let transport = HttpTransport::new(
            proxies
                .iter()
                .map(|p| HttpEndpoint::new(p.authority(), "/sparql"))
                .collect(),
            HttpConfig {
                limits: HttpLimits {
                    max_header_bytes: 16 * 1024,
                    // Below the proxies' 256 KiB oversized announcement.
                    max_body_bytes: 64 * 1024,
                },
                connect_cap_nanos: config.deadline_nanos,
            },
        );
        let executor = FederatedExecutor::new(transport, N_ENDPOINTS, config);
        let mut transcript = String::new();
        let mut tallies = [0u64; 5]; // served/timed_out/circuit_open/exhausted/exhausted_permanent
        let mut within_ceiling = true;
        for (i, &rank) in ranks.iter().enumerate() {
            let dp = w
                .planner
                .plan_for_dispatch(w.queries[rank as usize].as_ref(), &w.interner, limits)
                .expect("soak workload stays under the UNION branch cap");
            let result = executor.execute(&dp.endpoints);
            for report in &result.reports {
                use std::fmt::Write as _;
                // Classes and attempts only: real-socket latencies are
                // noise, and including them would make determinism
                // impossible to assert.
                let class = match report.outcome {
                    EndpointOutcome::Served { attempts, .. } => {
                        tallies[0] += 1;
                        format!("served a={attempts}")
                    }
                    EndpointOutcome::TimedOut { attempts, .. } => {
                        tallies[1] += 1;
                        format!("timed_out a={attempts}")
                    }
                    EndpointOutcome::CircuitOpen { attempts } => {
                        tallies[2] += 1;
                        format!("circuit_open a={attempts}")
                    }
                    EndpointOutcome::ExhaustedRetries {
                        attempts,
                        permanent,
                    } => {
                        tallies[if permanent { 4 } else { 3 }] += 1;
                        format!("exhausted a={attempts} perm={permanent}")
                    }
                };
                if let EndpointOutcome::Served { latency_nanos, .. } = report.outcome {
                    within_ceiling &= latency_nanos <= ceiling;
                }
                if let EndpointOutcome::TimedOut { elapsed_nanos, .. } = report.outcome {
                    within_ceiling &= elapsed_nanos <= ceiling;
                }
                let _ = writeln!(
                    transcript,
                    "q={i} ep={} {class} breaker={:?} rows={}",
                    report.endpoint.0,
                    report.breaker,
                    // Proxy bodies stamp a hash of the received subquery,
                    // so served rows are themselves deterministic.
                    report.rows.as_deref().unwrap_or("-"),
                );
            }
        }
        let mut injected = [0u64; 9];
        for p in &proxies {
            for (total, n) in injected.iter_mut().zip(p.injected_counts()) {
                *total += n;
            }
        }
        let panics = executor.caught_panics();
        let reused = executor.transport().reused_connections();
        (
            transcript,
            executor.breaker_states(),
            tallies,
            within_ceiling,
            injected,
            panics,
            reused,
        )
    };

    let start = std::time::Instant::now();
    let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&run_once));
    let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&run_once));
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let (panicked, deterministic, breaker_converged, deadline_respected, tallies, injected, reused) =
        match (&first, &second) {
            (Ok(a), Ok(b)) => (
                a.5 + b.5 > 0,
                a.0 == b.0 && a.4 == b.4,
                a.1 == b.1,
                a.3 && b.3,
                a.2,
                a.4,
                a.6 + b.6,
            ),
            _ => (true, false, false, false, [0u64; 5], [0u64; 9], 0),
        };
    // Every class some spec enables must have fired; with all-zero pcts
    // only Healthy is expected. The draw schedule is seeded, so this is a
    // deterministic property of the config above, not a statistical hope.
    let enabled = |f: fn(&ChaosSpec) -> u8| chaos_specs.iter().any(|s| f(s) > 0);
    let expected: [bool; 9] = [
        true, // Healthy
        enabled(|s| s.refuse_pct),
        enabled(|s| s.reset_pct),
        enabled(|s| s.trickle_pct),
        enabled(|s| s.truncate_pct),
        enabled(|s| s.malformed_status_pct),
        enabled(|s| s.malformed_header_pct),
        enabled(|s| s.oversized_pct),
        enabled(|s| s.wrong_len_pct),
    ];
    let all_faults_injected = expected
        .iter()
        .zip(injected)
        .all(|(&want, got)| !want || got > 0);
    let cache = w.planner.partition_cache_stats();
    let dispatches = tallies.iter().sum::<u64>();
    HttpSoak {
        name: "federation/http_soak/zipf/4ep/chaos".to_string(),
        n_endpoints: N_ENDPOINTS,
        n_requests,
        served: tallies[0],
        timed_out: tallies[1],
        circuit_open: tallies[2],
        exhausted: tallies[3],
        exhausted_permanent: tallies[4],
        injected,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        connections_reused: reused,
        dispatches_per_sec: (2 * dispatches) as f64 / elapsed,
        deterministic,
        breaker_converged,
        deadline_respected,
        all_faults_injected,
        panicked,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_core.json".to_string());
    let filter: Option<String> = args
        .iter()
        .position(|a| a == "--filter")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // --no-cache: run the end_to_end/cached/* configs with the cache
    // disabled — the A/B leg. Speedup/hit-rate gates go vacuous (there is
    // nothing to gate), and the output is marked partial.
    let cache_on = !args.iter().any(|a| a == "--no-cache");
    // A filtered (or cache-less) run produces a partial / non-standard
    // document; without an explicit --out it must not clobber the
    // committed full-grid BENCH_core.json.
    let explicit_out = args.iter().any(|a| a == "--out");
    let out_path = if !explicit_out && (filter.is_some() || !cache_on) {
        eprintln!("note: partial run (--filter/--no-cache); writing BENCH_partial.json (pass --out to override)");
        "BENCH_partial.json".to_string()
    } else {
        out_path
    };
    let selected = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (rule_counts, pattern_counts): (&[usize], &[usize]) = if quick {
        (&[1_000, 10_000], &[4, 16])
    } else {
        (&[1_000, 10_000, 100_000], &[1, 4, 8, 32])
    };
    let bencher = if quick {
        Bencher {
            warmup: Duration::from_millis(50),
            measure_budget: Duration::from_millis(200),
            target_samples: 15,
        }
    } else {
        Bencher::default()
    };

    let mut results: Vec<ConfigResult> = Vec::new();
    eprintln!(
        "{:>8} {:>9} {:>9} {:>6} {:>14} {:>14} {:>16} {:>8}",
        "rules",
        "patterns",
        "strategy",
        "shape",
        "ns/query",
        "ns/pattern",
        "patterns/sec",
        "allocs"
    );
    let print_row = |r: &ConfigResult| {
        eprintln!(
            "{:>8} {:>9} {:>9} {:>6} {:>14.0} {:>14.1} {:>16.0} {:>8.2}",
            r.n_rules,
            r.patterns_per_query,
            r.strategy,
            r.shape,
            r.ns_per_query,
            r.ns_per_pattern,
            r.patterns_per_sec,
            r.allocs_per_rewrite
        );
    };
    let run_one = |results: &mut Vec<ConfigResult>, n_rules, ppq, linear, group| {
        let shape = if group { "group" } else { "flat" };
        let strat = if linear { "linear" } else { "indexed" };
        let name = format!("rewrite/{shape}/{strat}/{}/{ppq}p", fmt_rules(n_rules));
        if !selected(&name) {
            return;
        }
        let r = run_config(
            &bencher,
            name,
            rewrite_spec(n_rules, ppq, group, ComplexShape::None),
            linear,
        );
        print_row(&r);
        results.push(r);
    };
    for &n_rules in rule_counts {
        for &ppq in pattern_counts {
            for linear in [false, true] {
                run_one(&mut results, n_rules, ppq, linear, false);
            }
        }
    }
    // Group-shaped workloads gate the recursive path (nested groups,
    // OPTIONAL, UNION — including multi-template UNION expansion — and
    // FILTER substitution) under the same alloc/throughput gates.
    let group_rule_counts: &[usize] = if quick {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &n_rules in group_rule_counts {
        for linear in [false, true] {
            run_one(&mut results, n_rules, 8, linear, true);
        }
    }
    // Complex-correspondence workloads: guarded templates (the full
    // three-valued guard mix against flat-batch traffic) and existential
    // chains of varying depth with transform FILTERs. They ride the shared
    // alloc==0 and 250k median/p99 throughput gates; their shape labels
    // keep them out of the flat-only indexed-vs-linear speedup geomean.
    let complex_grid: &[(&str, ComplexShape, usize)] = if quick {
        &[
            ("guarded", ComplexShape::Guarded, 1_000),
            ("chain/d3", ComplexShape::Chain(3), 1_000),
        ]
    } else {
        &[
            ("guarded", ComplexShape::Guarded, 1_000),
            ("guarded", ComplexShape::Guarded, 10_000),
            ("chain/d2", ComplexShape::Chain(2), 1_000),
            ("chain/d4", ComplexShape::Chain(4), 1_000),
            ("chain/d3", ComplexShape::Chain(3), 10_000),
        ]
    };
    for &(label, complex, n_rules) in complex_grid {
        for linear in [false, true] {
            let strat = if linear { "linear" } else { "indexed" };
            let name = format!("rewrite/complex/{label}/{strat}/{}/8p", fmt_rules(n_rules));
            if !selected(&name) {
                continue;
            }
            let r = run_config(
                &bencher,
                name,
                rewrite_spec(n_rules, 8, false, complex),
                linear,
            );
            print_row(&r);
            results.push(r);
        }
    }

    // End-to-end serve pipeline: parse → rewrite → render per request.
    let mut e2e_results: Vec<E2eResult> = Vec::new();
    eprintln!(
        "{:>24} {:>14} {:>16} {:>14} {:>8}",
        "end_to_end", "ns/query", "queries/sec", "p99 ns/q", "allocs"
    );
    for &n_rules in &[1_000usize, 10_000] {
        for group in [false, true] {
            let shape = if group { "group" } else { "flat" };
            let name = format!("end_to_end/{shape}/{}", fmt_rules(n_rules));
            if !selected(&name) {
                continue;
            }
            let r = run_e2e_config(&bencher, name, n_rules, group);
            eprintln!(
                "{:>24} {:>14.0} {:>16.0} {:>14.0} {:>8.2}",
                r.name, r.ns_per_query, r.queries_per_sec, r.ns_per_query_p99, r.allocs_per_serve
            );
            e2e_results.push(r);
        }
    }

    // Cached serve path: Zipfian(1.0) streams of re-spelled repeats
    // through the cache-fronted engine, A/B'd against the cold pipeline on
    // the identical stream.
    let mut cached_results: Vec<CachedResult> = Vec::new();
    eprintln!(
        "{:>28} {:>12} {:>14} {:>10} {:>9} {:>8}",
        "cached", "ns/request", "requests/sec", "speedup", "hit_rate", "allocs"
    );
    let cached_grid: &[(usize, bool)] = if quick {
        &[(1_000, false)]
    } else {
        &[(1_000, false), (10_000, false), (1_000, true)]
    };
    for &(n_rules, group) in cached_grid {
        let shape = if group { "zipf-group" } else { "zipf" };
        let name = format!("end_to_end/cached/{shape}/{}", fmt_rules(n_rules));
        if !selected(&name) {
            continue;
        }
        let r = run_cached_config(&bencher, name, n_rules, group, quick, cache_on);
        eprintln!(
            "{:>28} {:>12.0} {:>14.0} {:>9.1}x {:>9.3} {:>8.2}",
            r.name,
            r.ns_per_request,
            r.requests_per_sec,
            r.speedup_vs_cold,
            r.hit_rate,
            r.allocs_per_serve
        );
        cached_results.push(r);
    }

    // Speedup per rule-set size: geometric mean over query sizes of
    // (linear ns / indexed ns) for matched configs.
    let mut speedups = Vec::new();
    for &n_rules in rule_counts {
        let mut log_sum = 0.0;
        let mut n = 0u32;
        for &ppq in pattern_counts {
            let find = |s: &str| {
                results.iter().find(|r| {
                    r.n_rules == n_rules
                        && r.patterns_per_query == ppq
                        && r.strategy == s
                        && r.shape == "flat"
                })
            };
            if let (Some(idx), Some(lin)) = (find("indexed"), find("linear")) {
                log_sum += (lin.ns_per_pattern / idx.ns_per_pattern).ln();
                n += 1;
            }
        }
        if n > 0 {
            let geo = (log_sum / n as f64).exp();
            eprintln!("speedup @ {n_rules} rules (geomean): {geo:.1}x");
            speedups.push((n_rules, geo));
        }
    }
    let indexed = |r: &&ConfigResult| r.strategy == "indexed";
    let min_indexed_throughput = results
        .iter()
        .filter(indexed)
        .map(|r| r.patterns_per_sec)
        .fold(f64::INFINITY, f64::min);
    // The same floor, evaluated at the tail: throughput implied by the p99
    // sample instead of the median.
    let min_indexed_throughput_p99 = results
        .iter()
        .filter(indexed)
        .map(|r| 1e9 / r.ns_per_pattern_p99)
        .fold(f64::INFINITY, f64::min);
    if min_indexed_throughput.is_finite() {
        eprintln!(
            "indexed throughput floor: {min_indexed_throughput:.0} patterns/sec \
             (p99: {min_indexed_throughput_p99:.0})"
        );
    }

    // Thread-scaling sweeps of both engines.
    let thread_counts: &[usize] = &[1, 2, 4, 8];
    let scaling = if selected("thread_scaling") {
        eprintln!("thread scaling (batch engine, host has {host_cpus} cpu(s)):");
        let scaling = run_thread_scaling(quick, thread_counts);
        for t in &scaling.results {
            eprintln!(
                "  {:>2} thread(s): {:>14.0} patterns/sec  ({:.2}x vs 1 thread)",
                t.threads, t.per_sec, t.speedup_vs_1
            );
        }
        Some(scaling)
    } else {
        None
    };
    let e2e_scaling = if selected("end_to_end/threads") {
        eprintln!("thread scaling (serve engine, end-to-end):");
        let rs = run_e2e_thread_scaling(quick, thread_counts);
        for t in &rs {
            eprintln!(
                "  {:>2} thread(s): {:>14.0} queries/sec  ({:.2}x vs 1 thread)",
                t.threads, t.per_sec, t.speedup_vs_1
            );
        }
        Some(rs)
    } else {
        None
    };
    let federation = if selected("federation/soak") {
        eprintln!("federation soak (4 mock endpoints, 30% transient faults, one flapping, Zipfian stream x2 runs):");
        let f = run_federation_soak(quick);
        eprintln!(
            "  {:>4} requests -> served {:>5}  timed_out {:>4}  circuit_open {:>4}  \
             exhausted {:>4}  ({:.0} dispatches/sec)",
            f.n_requests, f.served, f.timed_out, f.circuit_open, f.exhausted, f.dispatches_per_sec
        );
        eprintln!(
            "  deterministic={} breaker_converged={} deadline_respected={} panicked={}",
            f.deterministic, f.breaker_converged, f.deadline_respected, f.panicked
        );
        Some(f)
    } else {
        None
    };
    let http_soak = if selected("federation/http_soak") {
        eprintln!(
            "http chaos soak (4 loopback chaos proxies, byte-level protocol faults, \
             Zipfian stream x2 runs):"
        );
        let h = run_http_soak(quick);
        eprintln!(
            "  {:>4} requests -> served {:>5}  timed_out {:>4}  circuit_open {:>4}  \
             exhausted {:>4}+{:<3} ({:.0} dispatches/sec, {} conns reused)",
            h.n_requests,
            h.served,
            h.timed_out,
            h.circuit_open,
            h.exhausted,
            h.exhausted_permanent,
            h.dispatches_per_sec,
            h.connections_reused,
        );
        eprintln!(
            "  deterministic={} breaker_converged={} deadline_respected={} \
             all_faults_injected={} panicked={} cache_hits={}",
            h.deterministic,
            h.breaker_converged,
            h.deadline_respected,
            h.all_faults_injected,
            h.panicked,
            h.cache_hits,
        );
        Some(h)
    } else {
        None
    };
    let server_soak = if selected("server/chaos_soak") {
        eprintln!(
            "server chaos soak (live loopback front end, 9 client fault classes, \
             x2 runs + shed/drain phase):"
        );
        let s = server_soak::run_server_chaos_soak(quick);
        eprintln!(
            "  {:>4} conns, {:>4} attempts -> served {:>4}  errors {:>4}  idle_closes {:>4}  \
             ({:.0} attempts/sec)",
            s.n_connections,
            s.requests_attempted,
            s.served,
            s.errors_total,
            s.idle_closes,
            s.attempts_per_sec,
        );
        eprintln!(
            "  deterministic={} all_faults_injected={} panics={} | shed {} (p99 {:.1}ms, \
             well_formed={}) dropped {} drain {:.0}ms within_bound={}",
            s.deterministic,
            s.all_faults_injected,
            s.panics,
            s.shed,
            s.shed_p99_ms,
            s.sheds_well_formed,
            s.dropped_from_queue,
            s.drain_elapsed_ms,
            s.drain_within_bound,
        );
        Some(s)
    } else {
        None
    };
    let server_cached = if selected("server/cached") {
        eprintln!("server cached hit path (1 worker, keep-alive socket, tuned cache):");
        let c = server_soak::run_server_cached_config(quick);
        eprintln!(
            "  {:>28} {:>12.0} ns/req {:>14.0} req/sec  allocs/req {:.2}  hit_rate {:.3}  \
             value_cap {}",
            c.name,
            c.ns_per_request,
            c.requests_per_sec,
            c.allocs_per_request,
            c.measured_hit_rate,
            c.value_cap,
        );
        Some(c)
    } else {
        None
    };
    let server_federated = if selected("server/federated_chaos") {
        eprintln!(
            "server federated chaos (chaos client in front, 4 chaos-proxy endpoints behind, \
             x2 runs):"
        );
        let f = server_soak::run_server_federated_chaos(quick);
        eprintln!(
            "  {:>4} conns, {:>4} attempts -> served {:>4}  errors {:>4}  complete {}  \
             partial {}  502 {}  504 {}  ({:.0} attempts/sec)",
            f.n_connections,
            f.requests_attempted,
            f.served,
            f.errors_total,
            f.complete_responses,
            f.partial_responses,
            f.gateway_unavailable,
            f.gateway_timeouts,
            f.attempts_per_sec,
        );
        eprintln!(
            "  deterministic={} partial_seen={} breakers_converged={} deadline_breaches={} \
             panics={} breakers={:?}",
            f.deterministic,
            f.partial_seen,
            f.breakers_converged,
            f.deadline_breaches,
            f.panics,
            f.breakers,
        );
        Some(f)
    } else {
        None
    };

    let max_allocs = results
        .iter()
        .map(|r| r.allocs_per_rewrite)
        .fold(0.0f64, f64::max);
    let max_e2e_allocs = e2e_results
        .iter()
        .map(|r| r.allocs_per_serve)
        .fold(0.0f64, f64::max);
    let min_e2e_qps = e2e_results
        .iter()
        .map(|r| r.queries_per_sec)
        .fold(f64::INFINITY, f64::min);
    let min_e2e_qps_p99 = e2e_results
        .iter()
        .map(|r| 1e9 / r.ns_per_query_p99)
        .fold(f64::INFINITY, f64::min);
    let scaling_4t = scaling
        .as_ref()
        .and_then(|s| s.results.iter().find(|t| t.threads == 4))
        .map(|t| t.speedup_vs_1);

    let configs = array(results.iter().map(|r| {
        let mut o = JsonObject::new();
        o.str("name", &r.name)
            .int("rules", r.n_rules as u64)
            .int("patterns_per_query", r.patterns_per_query as u64)
            .str("strategy", r.strategy)
            .str("shape", r.shape)
            .num("ns_per_query_median", r.ns_per_query)
            .num("ns_per_pattern_median", r.ns_per_pattern)
            .num(
                "ns_per_query_p50",
                r.stats.percentile(50.0) / r.n_queries as f64,
            )
            .num(
                "ns_per_query_p90",
                r.stats.percentile(90.0) / r.n_queries as f64,
            )
            .num(
                "ns_per_query_p99",
                r.stats.percentile(99.0) / r.n_queries as f64,
            )
            .num("ns_per_pattern_p99", r.ns_per_pattern_p99)
            .num("patterns_per_sec", r.patterns_per_sec)
            .num("allocs_per_rewrite", r.allocs_per_rewrite)
            .num("sample_mean_ns", r.stats.mean_ns)
            .num("sample_stddev_ns", r.stats.stddev_ns)
            .num("sample_min_ns", r.stats.min_ns)
            .num("sample_max_ns", r.stats.max_ns)
            .int("samples", r.stats.samples_ns.len() as u64)
            .int("iters_per_sample", r.stats.iters_per_sample);
        o.finish()
    }));
    let e2e_json = array(e2e_results.iter().map(|r| {
        let mut o = JsonObject::new();
        o.str("name", &r.name)
            .int("rules", r.n_rules as u64)
            .str("shape", r.shape)
            .num("ns_per_query_median", r.ns_per_query)
            .num(
                "ns_per_query_p50",
                r.stats.percentile(50.0) / r.n_requests as f64,
            )
            .num(
                "ns_per_query_p90",
                r.stats.percentile(90.0) / r.n_requests as f64,
            )
            .num("ns_per_query_p99", r.ns_per_query_p99)
            .num("queries_per_sec", r.queries_per_sec)
            .num("allocs_per_serve", r.allocs_per_serve)
            .num("sample_mean_ns", r.stats.mean_ns)
            .num("sample_stddev_ns", r.stats.stddev_ns)
            .int("samples", r.stats.samples_ns.len() as u64)
            .int("iters_per_sample", r.stats.iters_per_sample);
        o.finish()
    }));
    let cached_json = array(cached_results.iter().map(|r| {
        let mut o = JsonObject::new();
        o.str("name", &r.name)
            .int("rules", r.n_rules as u64)
            .str("shape", r.shape)
            .num("zipf_s", r.zipf_s)
            .int("n_distinct", r.n_distinct as u64)
            .int("n_requests", r.n_requests as u64)
            .str("cache", if r.cache_on { "on" } else { "off" })
            .num("ns_per_request_median", r.ns_per_request)
            .num(
                "ns_per_request_p50",
                r.stats.percentile(50.0) / r.n_requests as f64,
            )
            .num(
                "ns_per_request_p90",
                r.stats.percentile(90.0) / r.n_requests as f64,
            )
            .num("ns_per_request_p99", r.ns_per_request_p99)
            .num("requests_per_sec", r.requests_per_sec)
            .num("cold_ns_per_request_median", r.cold_ns_per_request)
            .num("speedup_vs_cold", r.speedup_vs_cold)
            .num("hit_rate", r.hit_rate)
            .int("oversize_bypasses", r.oversize_bypasses)
            .num("allocs_per_serve", r.allocs_per_serve)
            .int("cache_occupancy", r.cache_occupancy)
            .int("cache_capacity", r.cache_capacity)
            .int("cache_evictions", r.cache_evictions)
            .num("cache_hit_ratio", r.cache_hit_ratio)
            .num("sample_mean_ns", r.stats.mean_ns)
            .num("sample_stddev_ns", r.stats.stddev_ns)
            .int("samples", r.stats.samples_ns.len() as u64)
            .int("iters_per_sample", r.stats.iters_per_sample);
        o.finish()
    }));
    let speedup_json = array(speedups.iter().map(|(n_rules, geo)| {
        let mut o = JsonObject::new();
        o.int("rules", *n_rules as u64)
            .num("speedup_indexed_vs_linear_geomean", *geo);
        o.finish()
    }));
    let scaling_json = |rs: &[ThreadResult], unit: &str| {
        array(rs.iter().map(|t| {
            let mut o = JsonObject::new();
            o.int("threads", t.threads as u64)
                .num(unit, t.per_sec)
                .num("speedup_vs_1_thread", t.speedup_vs_1);
            o.finish()
        }))
    };
    // Cached-path aggregates (NANs when no cached config ran — serialized
    // as null, and the matching gates go vacuous).
    let cached_speedup_min = cached_results
        .iter()
        .map(|r| r.speedup_vs_cold)
        .fold(f64::INFINITY, f64::min);
    let cache_hit_rate_min = cached_results
        .iter()
        .map(|r| r.hit_rate)
        .fold(f64::INFINITY, f64::min);
    let max_cached_allocs = cached_results
        .iter()
        .map(|r| r.allocs_per_serve)
        .fold(0.0f64, f64::max);
    let min_cached_rps_p99 = cached_results
        .iter()
        .map(|r| 1e9 / r.ns_per_request_p99)
        .fold(f64::INFINITY, f64::min);

    let mut summary = JsonObject::new();
    summary
        .raw("speedup_by_rule_count", &speedup_json)
        .num("indexed_patterns_per_sec_min", min_indexed_throughput)
        .num(
            "indexed_patterns_per_sec_min_p99",
            min_indexed_throughput_p99,
        )
        .num("end_to_end_queries_per_sec_min", min_e2e_qps)
        .num("end_to_end_queries_per_sec_min_p99", min_e2e_qps_p99)
        .num(
            "cached_speedup_vs_cold_min",
            if cached_speedup_min.is_finite() {
                cached_speedup_min
            } else {
                f64::NAN
            },
        )
        .num(
            "cache_hit_rate_min",
            if cache_hit_rate_min.is_finite() {
                cache_hit_rate_min
            } else {
                f64::NAN
            },
        )
        .num(
            "cached_requests_per_sec_min_p99",
            if min_cached_rps_p99.is_finite() {
                min_cached_rps_p99
            } else {
                f64::NAN
            },
        )
        .num("allocs_per_rewrite_max", max_allocs)
        .num("allocs_per_serve_max", max_e2e_allocs)
        .num("allocs_per_cached_serve_max", max_cached_allocs)
        // NAN serializes as null via fmt_num: "not measured", never a
        // fake 0.0x that reads as a scaling collapse.
        .num(
            "thread_scaling_speedup_at_4",
            scaling_4t.unwrap_or(f64::NAN),
        );

    let mut root = JsonObject::new();
    root.str("benchmark", "bgp_rewriting_core")
        .str(
            "description",
            "indexed (dense symbol-id dispatch) vs linear alignment-rule lookup while \
             rewriting synthetic BGPs (Correndo et al. EDBT 2010 rewriting model), the \
             end-to-end parse -> rewrite -> render serve pipeline, and thread-scaling \
             of both shared-read-only engines",
        )
        .str(
            "unit",
            "ns per rewritten query / triple pattern; medians plus p50/p90/p99",
        )
        .str("mode", if quick { "quick" } else { "full" })
        .int("host_cpus", host_cpus as u64);
    if let Some(f) = &filter {
        root.str("filter", f);
    }
    root.raw("configs", &configs)
        .raw("end_to_end", &e2e_json)
        .raw("cached", &cached_json);
    if let Some(s) = &scaling {
        root.raw(
            "thread_scaling",
            &scaling_json(&s.results, "patterns_per_sec"),
        );
    }
    if let Some(rs) = &e2e_scaling {
        root.raw(
            "end_to_end_thread_scaling",
            &scaling_json(rs, "queries_per_sec"),
        );
    }
    if let Some(f) = &federation {
        let total = (f.served + f.timed_out + f.circuit_open + f.exhausted).max(1);
        let mut o = JsonObject::new();
        o.str("name", &f.name)
            .int("n_endpoints", f.n_endpoints as u64)
            .int("n_distinct_queries", f.n_distinct as u64)
            .int("n_requests_per_run", f.n_requests as u64)
            .int("served", f.served)
            .int("timed_out", f.timed_out)
            .int("circuit_open", f.circuit_open)
            .int("exhausted_retries", f.exhausted)
            .num("served_pct", 100.0 * f.served as f64 / total as f64)
            .num("dispatches_per_sec", f.dispatches_per_sec)
            .int("deterministic", u64::from(f.deterministic))
            .int("breaker_converged", u64::from(f.breaker_converged))
            .int("deadline_respected", u64::from(f.deadline_respected))
            .int("panicked", u64::from(f.panicked));
        root.raw("federation", &o.finish());
    }
    if let Some(h) = &http_soak {
        let total =
            (h.served + h.timed_out + h.circuit_open + h.exhausted + h.exhausted_permanent).max(1);
        let mut inj = JsonObject::new();
        for (class, n) in sparql_rewrite_core::FaultClass::ALL.iter().zip(h.injected) {
            inj.int(class.name(), n);
        }
        let mut o = JsonObject::new();
        o.str("name", &h.name)
            .int("n_endpoints", h.n_endpoints as u64)
            .int("n_requests_per_run", h.n_requests as u64)
            .int("served", h.served)
            .int("timed_out", h.timed_out)
            .int("circuit_open", h.circuit_open)
            .int("exhausted_retries", h.exhausted)
            .int("exhausted_permanent", h.exhausted_permanent)
            .num("served_pct", 100.0 * h.served as f64 / total as f64)
            .num("dispatches_per_sec", h.dispatches_per_sec)
            .raw("injected_faults", &inj.finish())
            .int("partition_cache_hits", h.cache_hits)
            .int("partition_cache_misses", h.cache_misses)
            .int("connections_reused", h.connections_reused)
            .int("deterministic", u64::from(h.deterministic))
            .int("breaker_converged", u64::from(h.breaker_converged))
            .int("deadline_respected", u64::from(h.deadline_respected))
            .int("all_faults_injected", u64::from(h.all_faults_injected))
            .int("panicked", u64::from(h.panicked));
        root.raw("federation_http", &o.finish());
    }
    if let Some(s) = &server_soak {
        let mut inj = JsonObject::new();
        for (class, n) in chaos_client::ClientFault::ALL.iter().zip(s.injected) {
            inj.int(class.name(), n);
        }
        let mut classes = JsonObject::new();
        for (label, n) in sparql_rewrite_server::request::RequestError::labels()
            .iter()
            .zip(s.error_classes)
        {
            classes.int(label, n);
        }
        let mut o = JsonObject::new();
        o.str("name", &s.name)
            .int("n_connections", s.n_connections as u64)
            .int("requests_attempted", s.requests_attempted)
            .int("served", s.served)
            .int("idle_closes", s.idle_closes)
            .int("errors_total", s.errors_total)
            .raw("error_classes", &classes.finish())
            .raw("injected_faults", &inj.finish())
            .num("attempts_per_sec", s.attempts_per_sec)
            .int("deterministic", u64::from(s.deterministic))
            .int("all_faults_injected", u64::from(s.all_faults_injected))
            .int("panics", s.panics)
            .int("shed", s.shed)
            .int("sheds_well_formed", u64::from(s.sheds_well_formed))
            .num("shed_p99_ms", s.shed_p99_ms)
            .int("dropped_from_queue", s.dropped_from_queue as u64)
            .num("drain_elapsed_ms", s.drain_elapsed_ms)
            .int("drain_within_bound", u64::from(s.drain_within_bound));
        root.raw("server_soak", &o.finish());
    }
    if let Some(c) = &server_cached {
        let mut o = JsonObject::new();
        o.str("name", &c.name)
            .int("rules", c.n_rules as u64)
            .int("n_distinct", c.n_distinct as u64)
            .int("n_requests", c.n_requests as u64)
            .num("ns_per_request", c.ns_per_request)
            .num("requests_per_sec", c.requests_per_sec)
            .num("allocs_per_request", c.allocs_per_request)
            .int("served_all", u64::from(c.served_all))
            .num("measured_hit_rate", c.measured_hit_rate)
            .int("cache_occupancy", c.cache_occupancy)
            .int("cache_capacity", c.cache_capacity)
            .int("cache_evictions", c.cache_evictions)
            .num("cache_hit_ratio", c.cache_hit_ratio)
            .int("oversize_bypasses", c.oversize_bypasses)
            .int("value_cap_bytes", c.value_cap);
        root.raw("server_cached", &o.finish());
    }
    if let Some(f) = &server_federated {
        let mut inj = JsonObject::new();
        for (class, n) in chaos_client::ClientFault::ALL.iter().zip(f.injected_client) {
            inj.int(class.name(), n);
        }
        let mut outcomes = JsonObject::new();
        for (label, n) in sparql_rewrite_server::OUTCOME_CLASSES
            .iter()
            .zip(f.outcomes)
        {
            outcomes.int(label, n);
        }
        let mut o = JsonObject::new();
        o.str("name", &f.name)
            .int("n_endpoints", f.n_endpoints as u64)
            .int("n_connections", f.n_connections as u64)
            .int("requests_attempted", f.requests_attempted)
            .int("served", f.served)
            .int("errors_total", f.errors_total)
            .raw("injected_client", &inj.finish())
            .raw(
                "injected_endpoints",
                &array(f.injected_endpoints.iter().map(|n| n.to_string())),
            )
            .raw("endpoint_outcomes", &outcomes.finish())
            .int("complete_responses", f.complete_responses)
            .int("partial_responses", f.partial_responses)
            .int("gateway_unavailable_502", f.gateway_unavailable)
            .int("gateway_timeout_504", f.gateway_timeouts)
            .int("deadline_breaches", f.deadline_breaches)
            .raw(
                "breakers",
                &array(f.breakers.iter().map(|b| format!("\"{b}\""))),
            )
            .raw(
                "latency_query_bin_lower_nanos",
                &array(
                    (0..sparql_rewrite_server::LATENCY_BINS)
                        .map(|i| sparql_rewrite_server::latency_bin_lower_nanos(i).to_string()),
                ),
            )
            .raw(
                "latency_query_counts",
                &array(f.latency_query.iter().map(|n| n.to_string())),
            )
            .num("attempts_per_sec", f.attempts_per_sec)
            .int("deterministic", u64::from(f.deterministic))
            .int("partial_seen", u64::from(f.partial_seen))
            .int("breakers_converged", u64::from(f.breakers_converged))
            .int("panics", f.panics);
        root.raw("server_federated", &o.finish());
    }
    root.raw("summary", &summary.finish());
    let doc = root.finish();

    if let Err(e) = std::fs::write(&out_path, format!("{doc}\n")) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    // ---- Regression gates (CI runs --quick; a failed gate fails the job) ----
    //
    // With --filter, only the sections that ran are gated: empty aggregates
    // (INFINITY mins, absent scaling) pass vacuously.
    let mut failures: Vec<String> = Vec::new();
    if max_allocs > 0.0 {
        failures.push(format!(
            "steady-state rewriting allocated ({max_allocs:.2} allocs/rewrite, expected 0)"
        ));
    }
    if max_e2e_allocs > 0.0 {
        failures.push(format!(
            "steady-state serve pipeline allocated ({max_e2e_allocs:.2} allocs/serve, \
             expected 0 — parser included)"
        ));
    }
    // Conservative absolute floor: the indexed path sustains ~30M
    // patterns/sec on a 2020s laptop core; 250k leaves >100x headroom for
    // slow CI machines while still catching accidental O(rules) work. The
    // p99 floor catches tail collapses the median hides.
    if min_indexed_throughput < 250_000.0 {
        failures.push(format!(
            "indexed throughput floor {min_indexed_throughput:.0} patterns/sec < 250000"
        ));
    }
    if min_indexed_throughput_p99 < 250_000.0 {
        failures.push(format!(
            "indexed p99 throughput floor {min_indexed_throughput_p99:.0} patterns/sec < 250000"
        ));
    }
    // End-to-end: the serve pipeline sustains >300k queries/sec per core on
    // this workload; 10k/sec still catches a parser or render regression
    // that makes requests allocation- or scan-bound.
    if min_e2e_qps < 10_000.0 {
        failures.push(format!(
            "end-to-end throughput floor {min_e2e_qps:.0} queries/sec < 10000"
        ));
    }
    if min_e2e_qps_p99 < 10_000.0 {
        failures.push(format!(
            "end-to-end p99 throughput floor {min_e2e_qps_p99:.0} queries/sec < 10000"
        ));
    }
    if let Some((n_rules, geo)) = speedups.last() {
        if *geo < 2.0 {
            failures.push(format!(
                "indexed vs linear speedup collapsed: {geo:.2}x at {n_rules} rules (< 2x)"
            ));
        }
    }
    // Cached serve path, gated only when the cache was actually on
    // (`--no-cache` runs are the A/B baseline; `--filter` runs without a
    // cached section pass vacuously via the empty-aggregate INFINITY/0.0
    // values). The full-mode speedup threshold matches the acceptance
    // target (≥10x over the identical Zipfian stream served cold); quick
    // mode — short budgets on shared CI runners — gates at ≥5x, which
    // still fails loudly if the hit path regresses toward the pipeline
    // cost. The hit-rate floor proves the normalizer actually folds the
    // stream's whitespace/alias re-spellings onto shared entries, and the
    // alloc gate keeps the hit path zero-alloc like the rest of the serve
    // path.
    if cache_on && !cached_results.is_empty() {
        let speedup_floor = if quick { 5.0 } else { 10.0 };
        if cached_speedup_min < speedup_floor {
            failures.push(format!(
                "cached serve speedup {cached_speedup_min:.2}x < {speedup_floor}x over the \
                 cold path on the identical Zipfian stream"
            ));
        }
        if cache_hit_rate_min < 0.9 {
            failures.push(format!(
                "cache hit rate {cache_hit_rate_min:.3} < 0.9 at steady state"
            ));
        }
        if max_cached_allocs > 0.0 {
            failures.push(format!(
                "cached serve path allocated ({max_cached_allocs:.2} allocs/serve, expected 0)"
            ));
        }
        // p99-aware tail floor: a cached config whose tail collapses to
        // worse than 20k requests/sec has lost the entire point of the
        // cache (the cold path alone sustains >100k/sec on real hardware).
        if min_cached_rps_p99 < 20_000.0 {
            failures.push(format!(
                "cached serve p99 throughput floor {min_cached_rps_p99:.0} requests/sec < 20000"
            ));
        }
    }
    // Thread scaling is only gated where the hardware can express it, and
    // the quick (CI) threshold is deliberately loose: shared CI runners
    // report 4 vCPUs but contend for physical cores, so 1.2x there still
    // catches a reintroduced global lock (~1.0x) without flaking on noisy
    // neighbors. The full-mode threshold matches the acceptance target.
    let scaling_floor = if quick { 1.2 } else { 2.0 };
    if let Some(s4) = scaling_4t {
        if host_cpus >= 4 && s4 < scaling_floor {
            failures.push(format!(
                "4-thread batch speedup {s4:.2}x < {scaling_floor}x on a {host_cpus}-cpu host"
            ));
        }
    }
    if let Some(s) = &scaling {
        if !s.deterministic {
            failures.push("parallel batch output diverged from the 1-thread rewrite".to_string());
        }
    }
    // Federation soak gates: robustness properties, not throughput. Each
    // failure below means fault tolerance regressed — a panic escaped the
    // executor, identically seeded runs diverged (scheduling leaked into
    // results), breakers ended in different states, an endpoint overshot
    // the deadline ceiling, or the fault injection silently stopped
    // exercising the degraded paths.
    if let Some(f) = &federation {
        if f.panicked {
            failures.push("federation soak panicked under fault injection".to_string());
        }
        if !f.deterministic {
            failures.push(
                "federated partial-result transcripts diverged across identical-seed runs"
                    .to_string(),
            );
        }
        if !f.breaker_converged {
            failures.push(
                "per-endpoint breaker states did not converge across identical-seed runs"
                    .to_string(),
            );
        }
        if !f.deadline_respected {
            failures.push(
                "a federated dispatch exceeded the deadline by more than one backoff quantum"
                    .to_string(),
            );
        }
        if f.served == 0 {
            failures.push(
                "federation soak served nothing — partial-result degradation is broken".to_string(),
            );
        }
        if f.timed_out + f.circuit_open + f.exhausted == 0 {
            failures.push(
                "federation soak saw no degraded outcomes — fault injection is not firing"
                    .to_string(),
            );
        }
    }
    // HTTP chaos soak gates: the same robustness contract as the mock soak,
    // but proven against real sockets — plus the transport-specific
    // properties (every injected protocol fault class observed, partition
    // cache serving repeat plans, no panic crossing the pool boundary).
    if let Some(h) = &http_soak {
        if h.panicked {
            failures.push("http chaos soak panicked (or a panic crossed the pool boundary)".into());
        }
        if !h.deterministic {
            failures.push(
                "http soak outcome transcripts or fault schedules diverged across \
                 identical-seed runs"
                    .to_string(),
            );
        }
        if !h.breaker_converged {
            failures.push(
                "http soak breaker states did not converge across identical-seed runs".to_string(),
            );
        }
        if !h.deadline_respected {
            failures.push(
                "an http dispatch exceeded the deadline by more than one backoff quantum"
                    .to_string(),
            );
        }
        if h.served == 0 {
            failures.push("http soak served nothing — the socket transport is broken".to_string());
        }
        if h.timed_out + h.circuit_open + h.exhausted + h.exhausted_permanent == 0 {
            failures.push(
                "http soak saw no degraded outcomes — chaos injection is not firing".to_string(),
            );
        }
        if !h.all_faults_injected {
            failures.push(
                "an enabled chaos fault class was never injected — coverage silently shrank"
                    .to_string(),
            );
        }
        if h.cache_hits == 0 {
            failures.push(
                "partition cache saw no hits on a Zipfian stream — per-endpoint caching is dead"
                    .to_string(),
            );
        }
    }
    // Server chaos soak gates: the front end's overload/degradation
    // contract, proven against a live loopback server. Each failure means
    // a robustness property regressed — a worker panic escaped isolation,
    // identically seeded adversaries produced different outcomes, a fault
    // class silently stopped firing, the shed path waited on workers, or
    // graceful shutdown overran its documented bound.
    if let Some(s) = &server_soak {
        if s.panics > 0 {
            failures.push(format!(
                "server chaos soak caught {} worker panic(s) — malformed input reached a panic",
                s.panics
            ));
        }
        if !s.deterministic {
            failures.push(
                "server soak transcripts or counters diverged across identical-seed runs"
                    .to_string(),
            );
        }
        if !s.all_faults_injected {
            failures.push(
                "a client chaos fault class was never injected — coverage silently shrank"
                    .to_string(),
            );
        }
        if s.served == 0 {
            failures.push("server soak served nothing — the front end is broken".to_string());
        }
        if s.errors_total == 0 {
            failures.push(
                "server soak saw no structured errors — chaos injection is not degrading"
                    .to_string(),
            );
        }
        if s.shed != 8 || !s.sheds_well_formed {
            failures.push(format!(
                "overload shed {} of 8 probes well_formed={} — admission control regressed",
                s.shed, s.sheds_well_formed
            ));
        }
        if s.shed_p99_ms > 250.0 {
            failures.push(format!(
                "shed-path p99 {:.1}ms > 250ms — the 503 path is waiting on workers",
                s.shed_p99_ms
            ));
        }
        if s.dropped_from_queue != 4 {
            failures.push(format!(
                "drain refused {} queued connections, expected exactly the 4 parked fillers",
                s.dropped_from_queue
            ));
        }
        if !s.drain_within_bound {
            failures.push(format!(
                "graceful drain took {:.0}ms — outside request_deadline + drain_deadline",
                s.drain_elapsed_ms
            ));
        }
    }
    // Server cached hit path: the whole-process zero-allocation gate (the
    // acceptance criterion: cached hits serve through the socket without a
    // single steady-state heap allocation), plus hit-rate sanity.
    if let Some(c) = &server_cached {
        if c.allocs_per_request > 0.0 {
            failures.push(format!(
                "server socket path allocated ({:.4} allocs/request, expected 0 across \
                 client write, server parse/serve/render, client read)",
                c.allocs_per_request
            ));
        }
        if !c.served_all {
            failures.push("a healthy cached request was not answered 200".to_string());
        }
        if c.measured_hit_rate < 0.9 {
            failures.push(format!(
                "server cached hit rate {:.3} < 0.9 over the measured window",
                c.measured_hit_rate
            ));
        }
        if c.oversize_bypasses > 0 {
            failures.push(format!(
                "{} oversize cache bypasses under a workload-tuned value cap",
                c.oversize_bypasses
            ));
        }
    }
    // Double-sided federated chaos: the server between a hostile client and
    // hostile endpoints must stay deterministic, panic-free, honest about
    // partial results, and inside its deadline ceiling.
    if let Some(f) = &server_federated {
        if f.panics > 0 {
            failures.push(format!(
                "federated chaos caught {} panic(s) between chaos client and chaos endpoints",
                f.panics
            ));
        }
        if !f.deterministic {
            failures.push(
                "federated chaos transcripts (client or server side) diverged across \
                 identical-seed runs"
                    .to_string(),
            );
        }
        if !f.breakers_converged {
            failures.push(
                "final breaker states diverged across identical-seed federated runs".to_string(),
            );
        }
        if !f.partial_seen {
            failures.push(
                "no mixed partial response observed — the degraded-endpoint path never ran"
                    .to_string(),
            );
        }
        if f.deadline_breaches > 0 {
            failures.push(format!(
                "{} federated response(s) exceeded deadline + max backoff",
                f.deadline_breaches
            ));
        }
        if f.complete_responses == 0 {
            failures.push(
                "federated chaos completed nothing — the dispatch path is broken".to_string(),
            );
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("PERF GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("perf gates passed");
}
