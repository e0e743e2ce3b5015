//! The traced run (`--trace 1`): per-layer metrics from outside the
//! program, by calling each layer's public functions on the workload's
//! request stream.
//!
//! * Single-store replay, one request at a time, in the order
//!   `ServeEngine::serve` composes the layers: `fingerprint_raw` → `lookup`
//!   → `fingerprint_query` → `lookup` → `parse_query_into` →
//!   `rewrite_ref_into` → `render_query_into` → `insert`, next to
//!   `engine.serve` on the same request (alternating which goes first).
//! * Federated replay: `parse_query_into` → `plan_for_dispatch` →
//!   `FederatedExecutor::execute` over a wrapper around `HttpTransport`, so
//!   every transport call is a child span of its execute span.
//! * A single-connection socket pass over the same request ids, against a
//!   fresh server of the workload's shape.
//! * Closed- and open-loop phases with and without per-request spans: the
//!   tracing overhead.
//!
//! On a single-store workload the federated replay runs a one-member
//! federation over the workload's rules; on `federated_fanout` the
//! single-store replay runs over all members' rules merged into one store.
//! Those layers are off the serving path of that workload (README:
//! "off-path layers").
//!
//! Spans ({request id, name, parent, start, end}) live in preallocated
//! memory and are written out as TSV when the run ends.

use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use sparql_rewrite_core::{
    fingerprint_query, fingerprint_raw, parse_query_into, render_query_into, CacheConfig,
    EndpointOutcome, EndpointTransport, ExecutorConfig, FederatedExecutor, HttpConfig,
    HttpEndpoint, HttpTransport, ParseScratch, QueryRef, RewriteCache, RewriteLimits,
    RewriteScratch, Rewriter, ServeScratch, TransportReply, TransportRequest,
};
use sparql_rewrite_server::request::{read_request, RequestScratch, Route};
use sparql_rewrite_server::{latency_bin_lower_nanos, Server, ServerConfig, LATENCY_BINS};

use crate::client::{self, Conn, Load};
use crate::gen::{member_path, Inputs};
use crate::report::sorted;
use crate::report::{metric, Metric};
use crate::setup::{build_engine, build_planner, member_echo};
use crate::verify::Expect;
use crate::{alloc, hash64, Args};

/// Span names, in the order the TSV and the README list them.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Name {
    /// The single-store stage chain of one request (root of the stages).
    Stages,
    FpRaw,
    Lookup,
    FpCanon,
    Parse,
    Rewrite,
    Render,
    Insert,
    EngineServe,
    ReadRequest,
    /// The federated chain of one request (root of parse, plan, execute).
    Federated,
    FedParse,
    Plan,
    Execute,
    TransportCall,
    /// One request over the socket, as the client saw it.
    Socket,
}

impl Name {
    const ALL: [Name; 16] = [
        Name::Stages,
        Name::FpRaw,
        Name::Lookup,
        Name::FpCanon,
        Name::Parse,
        Name::Rewrite,
        Name::Render,
        Name::Insert,
        Name::EngineServe,
        Name::ReadRequest,
        Name::Federated,
        Name::FedParse,
        Name::Plan,
        Name::Execute,
        Name::TransportCall,
        Name::Socket,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Stages => "stages",
            Name::FpRaw => "cache.fp_raw",
            Name::Lookup => "cache.lookup",
            Name::FpCanon => "cache.fp_canon",
            Name::Parse => "parser.parse",
            Name::Rewrite => "rewriter.rewrite",
            Name::Render => "render.render",
            Name::Insert => "cache.insert",
            Name::EngineServe => "engine.serve",
            Name::ReadRequest => "request.read",
            Name::Federated => "federated",
            Name::FedParse => "federated.parse",
            Name::Plan => "planner.plan",
            Name::Execute => "executor.execute",
            Name::TransportCall => "transport.call",
            Name::Socket => "socket.request",
        }
    }

    /// The stages whose sum is compared against `engine.serve`.
    pub const STAGES: [Name; 7] = [
        Name::FpRaw,
        Name::Lookup,
        Name::FpCanon,
        Name::Parse,
        Name::Rewrite,
        Name::Render,
        Name::Insert,
    ];
}

pub const NO_PARENT: u64 = u64::MAX;

/// One recorded span.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub req: u32,
    pub name: Name,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Preallocated, thread-safe span store: a slot is claimed with one
/// `fetch_add`, and its words are written only by the claiming thread.
/// Spans past capacity are counted and dropped.
pub struct SpanBuf {
    base: Instant,
    /// Per slot: `req << 8 | name`, parent, start, end.
    slots: Vec<[AtomicU64; 4]>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

impl SpanBuf {
    pub fn new(capacity: usize) -> SpanBuf {
        SpanBuf {
            base: Instant::now(),
            slots: (0..capacity).map(|_| Default::default()).collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its index (the id children name as parent).
    pub fn open(&self, req: u32, name: Name, parent: u64) -> u64 {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(i) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return NO_PARENT;
        };
        let code = Name::ALL.iter().position(|&n| n == name).expect("listed") as u64;
        slot[0].store((req as u64) << 8 | code, Ordering::Relaxed);
        slot[1].store(parent, Ordering::Relaxed);
        slot[3].store(0, Ordering::Relaxed);
        slot[2].store(self.now(), Ordering::Relaxed);
        i as u64
    }

    pub fn close(&self, span: u64) {
        if let Some(slot) = self.slots.get(span as usize) {
            slot[3].store(self.now(), Ordering::Relaxed);
        }
    }

    /// Every closed span, in opening order. Call once recording threads
    /// have been joined.
    pub fn spans(&self) -> Vec<Span> {
        let n = self.next.load(Ordering::Acquire).min(self.slots.len());
        self.slots[..n]
            .iter()
            .map(|s| {
                let w0 = s[0].load(Ordering::Acquire);
                Span {
                    req: (w0 >> 8) as u32,
                    name: Name::ALL[(w0 & 0xff) as usize],
                    parent: s[1].load(Ordering::Acquire),
                    start_ns: s[2].load(Ordering::Acquire),
                    end_ns: s[3].load(Ordering::Acquire),
                }
            })
            .collect()
    }
}

/// `HttpTransport` with a span around every call, parented to the execute
/// span the replay publishes in `current` (`req << 32 | span index`).
struct TracedTransport<'a> {
    inner: HttpTransport,
    spans: &'a SpanBuf,
    current: AtomicU64,
}

impl EndpointTransport for TracedTransport<'_> {
    fn execute(&self, req: &TransportRequest<'_>) -> TransportReply {
        let cur = self.current.load(Ordering::Acquire);
        if cur == NO_PARENT {
            return self.inner.execute(req);
        }
        let span = self
            .spans
            .open((cur >> 32) as u32, Name::TransportCall, cur & 0xffff_ffff);
        let reply = self.inner.execute(req);
        self.spans.close(span);
        reply
    }
}

/// Self time: duration minus the part of it its children's intervals
/// cover (the union, so overlapping parallel children count once).
pub fn self_time(parent: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut reach) = (0u64, parent.start_ns);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(parent.end_ns));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.dur().saturating_sub(covered)
}

/// Accepted range of `engine.stage_sum_ratio`: the replayed stages must
/// account for the engine's serve time within this band. The stages leave
/// out the engine's cache-slot lock and cap bookkeeping and add one clock
/// read per boundary, so the ratio sits a little off 1.
pub const STAGE_SUM_TOLERANCE: (f64, f64) = (0.85, 1.15);

/// Mean after dropping the slowest 1%: a host preemption (~4 ms) inside
/// one sub-microsecond call would otherwise move a mean over 16k calls by
/// hundreds of nanoseconds.
pub fn trimmed_mean(mut values: Vec<u64>) -> f64 {
    values.sort_unstable();
    let keep = values.len() - values.len().div_ceil(100);
    let kept = &values[..keep.max(values.len().min(1))];
    kept.iter().sum::<u64>() as f64 / kept.len().max(1) as f64
}

/// Σ stage time ÷ Σ `engine.serve` time over the replayed requests,
/// optionally with one stage left out (the self-test's broken variant).
/// Requests whose stage sum or serve time is in the slowest 1% are left
/// out of both sums, for the reason given at [`trimmed_mean`].
pub fn stage_sum_ratio(spans: &[Span], dropped: Option<Name>) -> f64 {
    let n = spans.iter().map(|s| s.req as usize + 1).max().unwrap_or(0);
    let (mut stages, mut serve) = (vec![0u64; n], vec![0u64; n]);
    for s in spans {
        if s.name == Name::EngineServe {
            serve[s.req as usize] += s.dur();
        } else if Name::STAGES.contains(&s.name) && Some(s.name) != dropped {
            stages[s.req as usize] += s.dur();
        }
    }
    let cut = |v: &[u64]| {
        let mut sorted: Vec<u64> = v.iter().copied().filter(|&x| x > 0).collect();
        sorted.sort_unstable();
        crate::report::quantile(&sorted, 0.99)
    };
    let (stage_cut, serve_cut) = (cut(&stages), cut(&serve));
    let (mut num, mut den) = (0u64, 0u64);
    for (&st, &sv) in stages.iter().zip(&serve) {
        if sv > 0 && st <= stage_cut && sv <= serve_cut {
            num += st;
            den += sv;
        }
    }
    num as f64 / den.max(1) as f64
}

pub fn stage_sum_ok(ratio: f64) -> bool {
    (STAGE_SUM_TOLERANCE.0..=STAGE_SUM_TOLERANCE.1).contains(&ratio)
}

/// Counters the single-store replay keeps beside its spans.
#[derive(Default, Debug)]
pub struct StoreCounts {
    pub requests: u64,
    pub raw_hits: u64,
    pub canon_lookups: u64,
    pub canon_hits: u64,
    pub cold: u64,
    pub parse_allocs: u64,
    pub rewrite_allocs: u64,
    pub interner_growth: u64,
    pub in_triples: u64,
    pub out_triples: u64,
    pub out_bytes: u64,
    pub evictions: u64,
    pub bypasses: u64,
    pub resizes: u64,
    pub mismatches: u64,
}

/// Replay `n` stream positions through the single-store layers. `expect`
/// (single-store workloads) also checks each rewrite against the expected
/// answers; in every case the replayed stages must agree with
/// `engine.serve`.
pub fn replay_store(
    inputs: &Inputs,
    expect: Option<&[u64]>,
    n: usize,
    spans: &SpanBuf,
) -> StoreCounts {
    let engine = build_engine(&inputs.rules, Some(CacheConfig::default()));
    let cache = RewriteCache::new(CacheConfig::default());
    let gen = 1;
    let rewriter = engine.rewriter();
    let mut interner = engine.base_interner().clone();
    let (mut parse, mut rw) = (ParseScratch::new(), RewriteScratch::new());
    let (mut fresh, mut out) = (String::new(), String::new());
    let mut hit_buf = Vec::with_capacity(cache.value_cap());
    let mut serve_scratch = engine.scratch();
    let mut c = StoreCounts::default();
    let symbols0 = interner.len();
    alloc::enable();
    for i in 0..n {
        let qid = inputs.stream[i % inputs.stream.len()] as usize;
        let q = inputs.queries[qid].as_str();
        let req = i as u32;
        let serve_first = i % 2 == 1;
        let serve_hash = |spans: &SpanBuf, scratch: &mut ServeScratch| {
            let s = spans.open(req, Name::EngineServe, NO_PARENT);
            let h = hash64(engine.serve(q, scratch).expect("query parses").as_bytes());
            spans.close(s);
            h
        };
        let early = serve_first.then(|| serve_hash(spans, &mut serve_scratch));

        let root = spans.open(req, Name::Stages, NO_PARENT);
        let s = spans.open(req, Name::FpRaw, root);
        let raw = fingerprint_raw(q);
        spans.close(s);
        let s = spans.open(req, Name::Lookup, root);
        let mut hit = copy_hit(cache.lookup(raw, gen, &mut hit_buf), &hit_buf, &mut out);
        spans.close(s);
        if hit {
            c.raw_hits += 1;
        } else {
            let s = spans.open(req, Name::FpCanon, root);
            let canon = fingerprint_query(q);
            spans.close(s);
            if let Some(fp) = canon {
                c.canon_lookups += 1;
                let s = spans.open(req, Name::Lookup, root);
                hit = copy_hit(cache.lookup(fp, gen, &mut hit_buf), &hit_buf, &mut out);
                spans.close(s);
                if hit {
                    c.canon_hits += 1;
                    let s = spans.open(req, Name::Insert, root);
                    cache.insert(raw, gen, out.as_bytes());
                    spans.close(s);
                }
            }
            if !hit {
                c.cold += 1;
                let a0 = alloc::count();
                let s = spans.open(req, Name::Parse, root);
                parse_query_into(q, &mut interner, &mut parse).expect("query parses");
                spans.close(s);
                let a1 = alloc::count();
                c.parse_allocs += a1 - a0;
                let s = spans.open(req, Name::Rewrite, root);
                rewriter.rewrite_ref_into(parse.query_ref(), &mut rw);
                spans.close(s);
                c.rewrite_allocs += alloc::count() - a1;
                let s = spans.open(req, Name::Render, root);
                let view = QueryRef {
                    select: rw.select(),
                    pattern: rw.pattern(),
                };
                render_query_into(view, &interner, &mut fresh, &mut out);
                spans.close(s);
                c.in_triples += parse.pattern().triples.len() as u64;
                c.out_triples += rw.pattern().triples.len() as u64;
                c.out_bytes += out.len() as u64;
                if let Some(fp) = canon {
                    let s = spans.open(req, Name::Insert, root);
                    cache.insert(fp, gen, out.as_bytes());
                    if fp != raw {
                        cache.insert(raw, gen, out.as_bytes());
                    }
                    spans.close(s);
                }
            }
        }
        spans.close(root);
        let served = early.unwrap_or_else(|| serve_hash(spans, &mut serve_scratch));
        let replayed = hash64(out.as_bytes());
        if replayed != served || expect.is_some_and(|e| e[qid] != replayed) {
            c.mismatches += 1;
        }
    }
    alloc::disable();
    let stats = cache.stats();
    let (grows, shrinks) = engine.cache_resizes();
    c.requests = n as u64;
    c.evictions = stats.evictions();
    c.bypasses = stats.oversize_bypasses();
    c.resizes = grows + shrinks;
    c.interner_growth = (interner.len() - symbols0) as u64;
    c
}

/// The engine's hit path: validate the copied bytes and move them into
/// the output buffer.
fn copy_hit(hit: bool, buf: &[u8], out: &mut String) -> bool {
    if !hit {
        return false;
    }
    match std::str::from_utf8(buf) {
        Ok(text) => {
            out.clear();
            out.push_str(text);
            true
        }
        Err(_) => false,
    }
}

#[derive(Default, Debug)]
pub struct FedCounts {
    pub requests: u64,
    pub endpoints: u64,
    pub residual: u64,
    pub calls: u64,
    pub attempts: u64,
    /// Allocations during each `execute` call, all threads.
    pub execute_allocs: Vec<u64>,
    pub reused: u64,
    pub reconnects: u64,
    pub mismatches: u64,
    pub partition_hits: u64,
    pub partition_lookups: u64,
}

/// Requests sent through the federated replay before counting starts, so
/// every member's pooled connection (and the responder thread behind it)
/// exists before allocations are counted.
const FED_WARMUP: usize = 16;

/// Replay `n` stream positions through parse → plan → execute, with the
/// members served by the responder at `members`.
pub fn replay_federated(
    inputs: &Inputs,
    n: usize,
    members: SocketAddr,
    spans: &SpanBuf,
) -> FedCounts {
    let (planner, base) = build_planner(&inputs.rules);
    let endpoints = (0..planner.n_endpoints())
        .map(|e| HttpEndpoint::new(members.to_string(), member_path(e)))
        .collect();
    let transport = TracedTransport {
        inner: HttpTransport::new(endpoints, HttpConfig::default()),
        spans,
        current: AtomicU64::new(NO_PARENT),
    };
    let executor =
        FederatedExecutor::new(transport, planner.n_endpoints(), ExecutorConfig::default());
    let mut interner = base.clone();
    let mut parse = ParseScratch::new();
    let mut c = FedCounts::default();
    // Warm-up requests record into a zero-capacity buffer (dropped).
    let scratch_spans = SpanBuf::new(0);
    let mut reused0 = 0;
    for i in 0..FED_WARMUP + n {
        let counting = i >= FED_WARMUP;
        if i == FED_WARMUP {
            reused0 = executor.transport().inner.reused_connections();
        }
        let spans = if counting { spans } else { &scratch_spans };
        let pos = i.saturating_sub(FED_WARMUP);
        let q = &inputs.queries[inputs.stream[pos % inputs.stream.len()] as usize];
        let req = pos as u32;
        let root = spans.open(req, Name::Federated, NO_PARENT);
        let s = spans.open(req, Name::FedParse, root);
        parse_query_into(q, &mut interner, &mut parse).expect("query parses");
        spans.close(s);
        let s = spans.open(req, Name::Plan, root);
        let plan = planner
            .plan_for_dispatch(parse.query_ref(), &interner, RewriteLimits::default())
            .expect("query plans");
        spans.close(s);
        let s = spans.open(req, Name::Execute, root);
        let current = if counting {
            (req as u64) << 32 | (s & 0xffff_ffff)
        } else {
            NO_PARENT
        };
        executor
            .transport()
            .current
            .store(current, Ordering::Release);
        if counting {
            alloc::enable();
        }
        let a0 = alloc::count();
        let result = executor.execute(&plan.endpoints);
        let allocs = alloc::count() - a0;
        alloc::disable();
        spans.close(s);
        spans.close(root);
        if !counting {
            continue;
        }
        c.execute_allocs.push(allocs);
        c.endpoints += plan.endpoints.len() as u64;
        c.residual += plan.n_residual_patterns as u64;
        for (report, ep) in result.reports.iter().zip(&plan.endpoints) {
            c.calls += 1;
            c.attempts += match report.outcome {
                EndpointOutcome::Served { attempts, .. }
                | EndpointOutcome::TimedOut { attempts, .. }
                | EndpointOutcome::CircuitOpen { attempts }
                | EndpointOutcome::ExhaustedRetries { attempts, .. } => attempts as u64,
            };
            let echo = member_echo(ep.endpoint.0 as usize, ep.subquery.as_bytes());
            if report.rows.as_deref() != Some(echo.as_str()) {
                c.mismatches += 1;
            }
        }
    }
    c.requests = n as u64;
    c.reused = executor.transport().inner.reused_connections() - reused0;
    c.reconnects = executor.transport().inner.transparent_reconnects();
    let pc = planner.partition_cache_stats();
    c.partition_hits = pc.hits;
    c.partition_lookups = pc.hits + pc.misses;
    c
}

/// `read_request` on the exact bytes of each of `n` stream positions.
fn replay_read(inputs: &Inputs, n: usize, spans: &SpanBuf) {
    let limits = ServerConfig::default().limits;
    let mut scratch = RequestScratch::new();
    for i in 0..n {
        let bytes = &inputs.requests[inputs.stream[i % inputs.stream.len()] as usize];
        let s = spans.open(i as u32, Name::ReadRequest, NO_PARENT);
        let mut r: &[u8] = bytes;
        read_request(&mut r, &limits, b"/sparql", &mut scratch).expect("request frames");
        spans.close(s);
    }
}

/// One connection, `n` stream positions in order, against `server`.
/// Returns (verified, failed).
fn socket_pass(
    inputs: &Inputs,
    expect: &Expect,
    server: &Server,
    n: usize,
    spans: &SpanBuf,
) -> (u64, u64) {
    let mut conn = Conn::new(server.local_addr());
    let (mut ok, mut bad) = (0, 0);
    for i in 0..n {
        let qid = inputs.stream[i % inputs.stream.len()] as usize;
        let s = spans.open(i as u32, Name::Socket, NO_PARENT);
        let good = matches!(conn.roundtrip(&inputs.requests[qid]), Ok((status, body)) if expect.check(qid, status, body));
        spans.close(s);
        if good {
            ok += 1;
        } else {
            bad += 1;
        }
    }
    (ok, bad)
}

/// Median of a server latency histogram, interpolated linearly inside the
/// log2 bin that holds it, in microseconds.
pub fn histogram_median_us(bins: &[u64; LATENCY_BINS]) -> f64 {
    let total: u64 = bins.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let half = total as f64 / 2.0;
    let mut below = 0.0;
    for (i, &count) in bins.iter().enumerate() {
        let c = count as f64;
        if below + c >= half && c > 0.0 {
            let lo = latency_bin_lower_nanos(i) as f64;
            let frac = (half - below) / c;
            return (lo + frac * lo) / 1e3;
        }
        below += c;
    }
    0.0
}

/// Replayed request positions per workload shape.
const STORE_REQUESTS: usize = 16_384;
const FED_REQUESTS: usize = 2_048;

/// Shares of `--seconds` for each closed-loop phase (warm-up, untraced,
/// traced) and for the open-loop phase.
const OVERHEAD_CLOSED_SHARE: f64 = 0.15;
const OPEN_SHARE: f64 = 0.25;

pub fn run(args: &Args, inputs: &Inputs, expect: &Expect, members: Option<SocketAddr>) -> bool {
    let members = members.expect("the traced run always has the responder");
    let fed = inputs.workload.federated();
    let store_n = if fed { FED_REQUESTS } else { STORE_REQUESTS };
    let spans = SpanBuf::new(1 << 20);

    // Overhead: the e2e phases without, then with, a span per request.
    let (server, _) = crate::setup::spawn(inputs, Some(members));
    let cursor = AtomicU64::new(0);
    let mut load = Load {
        requests: &inputs.requests,
        stream: &inputs.stream,
        expect,
        spans: None,
    };
    let mut conns = client::connections(server.local_addr());
    let phase = args.seconds * OVERHEAD_CLOSED_SHARE;
    let warm = client::closed_loop(&load, &mut conns, &cursor, phase);
    let closed_plain = client::closed_loop(&load, &mut conns, &cursor, phase);
    load.spans = Some(&spans);
    let closed_traced = client::closed_loop(&load, &mut conns, &cursor, phase);
    load.spans = None;
    let rate = inputs.workload.open_loop_rate();
    let open = client::open_loop(&load, &mut conns, &cursor, rate, args.seconds * OPEN_SHARE);
    drop(conns);
    server.shutdown();
    let mut e2e_failed = 0;
    let mut e2e_attempted = 0;
    for (v, f) in [
        (warm.verified, warm.failed),
        (closed_plain.verified, closed_plain.failed),
        (closed_traced.verified, closed_traced.failed),
        (open.verified, open.failed),
    ] {
        e2e_attempted += v + f;
        e2e_failed += f;
    }
    let rps = |c: &client::ClosedResult| c.median(|w| w.rps);
    let p50 = |c: &client::ClosedResult| c.median(|w| w.p50_us);
    let o = open.stats();
    let overhead_rps = (rps(&closed_plain) - rps(&closed_traced)) / rps(&closed_plain) * 100.0;
    let overhead_p50 = (p50(&closed_traced) - p50(&closed_plain)) / p50(&closed_plain) * 100.0;
    let first_replay_span = spans.next.load(Ordering::Acquire);

    // Layer replays, then the socket pass over the same request ids.
    let hashes = match expect {
        Expect::Rewrite(h) => Some(h.as_slice()),
        Expect::Envelope(_) => None,
    };
    let sc = replay_store(inputs, hashes, store_n, &spans);
    let fc = replay_federated(inputs, FED_REQUESTS.min(store_n), members, &spans);
    replay_read(inputs, store_n, &spans);
    let (server, _) = crate::setup::spawn(inputs, Some(members));
    let (sock_ok, sock_bad) = socket_pass(inputs, expect, &server, store_n, &spans);
    let stats = server.stats();
    server.shutdown();

    let all = spans.spans();
    let replay = &all[first_replay_span..];
    write_spans(args, &all);
    let per_name = |name: Name| -> (u64, u64) {
        replay
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.dur()))
    };
    let mean_ns = |name: Name| {
        trimmed_mean(
            replay
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur)
                .collect(),
        )
    };

    // Per request id: socket latency minus what the layers account for.
    let mut by_req = vec![[0u64; 5]; store_n];
    for s in replay {
        let slot = match s.name {
            Name::Socket => 0,
            Name::ReadRequest => 1,
            Name::EngineServe => 2,
            Name::Federated => 3,
            _ => continue,
        };
        if let Some(r) = by_req.get_mut(s.req as usize) {
            r[slot] += s.dur();
            r[4] |= 1 << slot;
        }
    }
    let on_path = if fed { 3 } else { 2 };
    let need = 1 | 2 | 1 << on_path;
    let mut unattributed: Vec<f64> = by_req
        .iter()
        .filter(|r| r[4] & need == need)
        .map(|r| (r[0] as f64 - r[1] as f64 - r[on_path] as f64) / 1e3)
        .collect();

    // Execute self time: its duration minus what its transport calls cover.
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in replay.iter().filter(|s| s.name == Name::TransportCall) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut self_times = Vec::new();
    for (i, s) in all.iter().enumerate().skip(first_replay_span) {
        if s.name == Name::Execute {
            let mut kids = children.remove(&(i as u64)).unwrap_or_default();
            self_times.push(self_time(s, &mut kids));
        }
    }

    let ratio = stage_sum_ratio(replay, None);
    let n = sc.requests.max(1) as f64;
    let fed_n = fc.requests.max(1) as f64;
    let metrics: Vec<Metric> = vec![
        metric("request.read_ns", "ns", mean_ns(Name::ReadRequest)),
        metric(
            "server.handle_us_p50",
            "us",
            histogram_median_us(&stats.latency[Route::Query.index()]),
        ),
        metric(
            "server.unattributed_us",
            "us",
            crate::report::median_f64(&mut unattributed),
        ),
        metric("server.shed", "count", stats.shed as f64),
        metric("server.errors", "count", stats.errors_total() as f64),
        metric("cache.fp_raw_ns", "ns", mean_ns(Name::FpRaw)),
        metric("cache.fp_canon_ns", "ns", mean_ns(Name::FpCanon)),
        metric("cache.lookup_ns", "ns", mean_ns(Name::Lookup)),
        metric("cache.insert_ns", "ns", mean_ns(Name::Insert)),
        metric("cache.raw_hit_ratio", "ratio", sc.raw_hits as f64 / n),
        metric(
            "cache.canon_hit_ratio",
            "ratio",
            sc.canon_hits as f64 / sc.canon_lookups.max(1) as f64,
        ),
        metric("cache.evictions_per_req", "count", sc.evictions as f64 / n),
        metric("cache.bypasses", "count", sc.bypasses as f64),
        metric("cache.resizes", "count", sc.resizes as f64),
        metric("parser.parse_ns", "ns", mean_ns(Name::Parse)),
        metric("parser.allocs_per_req", "count", sc.parse_allocs as f64 / n),
        metric(
            "parser.interner_growth",
            "count",
            sc.interner_growth as f64 / n,
        ),
        metric("rewriter.rewrite_ns", "ns", mean_ns(Name::Rewrite)),
        metric(
            "rewriter.fanout",
            "ratio",
            sc.out_triples as f64 / sc.in_triples.max(1) as f64,
        ),
        metric(
            "rewriter.allocs_per_req",
            "count",
            sc.rewrite_allocs as f64 / n,
        ),
        metric("render.render_ns", "ns", mean_ns(Name::Render)),
        metric(
            "render.out_bytes",
            "bytes",
            sc.out_bytes as f64 / sc.cold.max(1) as f64,
        ),
        metric("engine.serve_ns", "ns", mean_ns(Name::EngineServe)),
        metric("engine.stage_sum_ratio", "ratio", ratio),
        metric("planner.plan_ns", "ns", mean_ns(Name::Plan)),
        metric(
            "planner.endpoints_per_req",
            "count",
            fc.endpoints as f64 / fed_n,
        ),
        metric(
            "planner.residual_per_req",
            "count",
            fc.residual as f64 / fed_n,
        ),
        metric(
            "planner.partition_cache_hit_ratio",
            "ratio",
            fc.partition_hits as f64 / fc.partition_lookups.max(1) as f64,
        ),
        metric("executor.execute_ns", "ns", mean_ns(Name::Execute)),
        metric("executor.self_ns", "ns", trimmed_mean(self_times)),
        metric(
            "executor.attempts_per_call",
            "count",
            fc.attempts as f64 / fc.calls.max(1) as f64,
        ),
        metric(
            "executor.allocs_per_req",
            "count",
            crate::report::quantile(&sorted(&fc.execute_allocs), 0.5) as f64,
        ),
        metric("transport.call_ns", "ns", mean_ns(Name::TransportCall)),
        metric(
            "transport.reuse_ratio",
            "ratio",
            fc.reused as f64 / per_name(Name::TransportCall).0.max(1) as f64,
        ),
        metric("transport.reconnects", "count", fc.reconnects as f64),
        metric("openloop.p50_us", "us", o.p50_us),
        metric("openloop.p99_us", "us", o.p99_us),
        metric("generator.lateness_p50_us", "us", o.lateness_p50_us),
        metric("generator.lateness_p99_us", "us", o.lateness_p99_us),
        metric("trace.overhead_rps_pct", "%", overhead_rps),
        metric("trace.overhead_p50_pct", "%", overhead_p50),
    ];
    let stage_ok = stage_sum_ok(ratio);
    eprintln!(
        "{}: seed {} | engine.stage_sum_ratio {ratio:.3} (tolerance {:?}: {}) | replay mismatches: store {}, federated {} | spans dropped {}",
        args.workload.name(),
        args.seed,
        STAGE_SUM_TOLERANCE,
        if stage_ok { "ok" } else { "OUT OF TOLERANCE" },
        sc.mismatches,
        fc.mismatches,
        spans.dropped.load(Ordering::Relaxed),
    );
    eprintln!(
        "tracing overhead: closed loop {:.0} -> {:.0} req/s, p50 {:.1} -> {:.1} us | open loop {rate} req/s: {} samples, p50 {:.1} us, p99 {:.1} us from due time | syscalls/req: unmeasured",
        rps(&closed_plain),
        rps(&closed_traced),
        p50(&closed_plain),
        p50(&closed_traced),
        o.samples,
        o.p50_us,
        o.p99_us,
    );
    let failed = e2e_failed + sock_bad;
    let attempted = e2e_attempted + sock_ok + sock_bad;
    let correct = failed == 0
        && sc.mismatches == 0
        && fc.mismatches == 0
        && stage_ok
        && stats.panics == 0
        && sock_ok > 0;
    crate::report::emit(&metrics, attempted, failed, correct);
    correct
}

/// Write every span as TSV under the build directory
/// (`$CARGO_TARGET_DIR`, default `.bench_build`).
fn write_spans(args: &Args, spans: &[Span]) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("servebench-spans");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "span\treq\tname\tparent\tstart_ns\tend_ns")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.req,
                s.name.label(),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    };
    match write() {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: not written ({e})"),
    }
}
