//! Socket-to-socket serving benchmark for the SPARQL rewriting front end.
//!
//! ```text
//! servebench --workload <hot_zipf|cold_unique|federated_fanout>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives the real HTTP server over loopback and prints the
//! end-to-end metrics; `--trace 1` replays the same request stream through
//! each layer's public functions and prints the per-layer metrics. The
//! last stdout line is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`); the exit code is nonzero when any reply fails verification.
//! See `servebench/README.md` for the metric definitions.

mod alloc;
mod client;
mod gen;
mod report;
#[cfg(test)]
mod selftest;
mod setup;
mod sys;
mod trace;
mod verify;

use std::process::exit;
use std::sync::atomic::AtomicU64;

use client::Load;
use gen::{Inputs, Workload};
use report::{metric, Metric};
use verify::Expect;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// 64-bit word-at-a-time hash of a reply body: the unit of verification
/// (not adversarial; it only has to tell a wrong rewrite from the right
/// one).
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    h ^ (h >> 32)
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: servebench --workload <hot_zipf|cold_unique|federated_fanout> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    sys::pin(sys::CLIENT_CPU);
    let inputs = gen::generate(args.workload, args.seed);
    let expect = verify::expected(&inputs, args.seed);
    // The responder stands in for the federation members; the traced run
    // also uses it for the planner/executor/transport layers on the
    // single-store workloads.
    let responder = (args.workload.federated() || args.trace)
        .then(|| setup::Responder::spawn().expect("responder binds a loopback port"));
    let member_addr = responder.as_ref().map(setup::Responder::addr);
    let ok = if args.trace {
        trace::run(&args, &inputs, &expect, member_addr)
    } else {
        end_to_end(&args, &inputs, &expect, member_addr)
    };
    if let Some(r) = responder {
        r.shutdown();
    }
    if !ok {
        exit(1);
    }
}

/// Times `setup_s` is measured per run; the median is reported.
const SETUPS: usize = 9;

/// Share of `--seconds` spent warming the server before measuring; the
/// rest is the measured closed loop.
const WARMUP_SHARE: f64 = 0.1;

fn end_to_end(
    args: &Args,
    inputs: &Inputs,
    expect: &Expect,
    member_addr: Option<std::net::SocketAddr>,
) -> bool {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut server: Option<sparql_rewrite_server::Server> = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let (s, secs) = setup::spawn(inputs, member_addr);
        setup_s.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one setup");
    let load = Load {
        requests: &inputs.requests,
        stream: &inputs.stream,
        expect,
        spans: None,
    };
    let mut conns = client::connections(server.local_addr());
    let cursor = AtomicU64::new(0);
    let warm = client::closed_loop(&load, &mut conns, &cursor, args.seconds * WARMUP_SHARE);
    let secs = args.seconds * (1.0 - WARMUP_SHARE);
    let closed = client::closed_loop(&load, &mut conns, &cursor, secs);
    drop(conns);
    let stats = server.stats();
    if let Some(engine) = server.engine() {
        let (grows, shrinks) = engine.cache_resizes();
        let c = engine.cache_stats().unwrap_or_default();
        eprintln!(
            "cache: value cap {} | resizes {grows} grows, {shrinks} shrinks | oversize bypasses {} | evictions {} | occupancy {}/{}",
            engine.cache_value_cap().unwrap_or(0),
            engine.cache_bypasses(),
            c.evictions(),
            c.occupancy(),
            c.capacity()
        );
    }
    server.shutdown();

    let attempted = warm.verified + warm.failed + closed.verified + closed.failed;
    let failed = warm.failed + closed.failed;
    let min_samples = closed.windows.iter().map(|w| w.samples).min().unwrap_or(0);
    eprintln!(
        "{}: seed {} | closed loop, {} connections: {:.0} req/s over the whole phase | {} windows, >= {min_samples} latency samples each | per window: {:.0}..{:.0} req/s, p99 {:.1}..{:.1} us",
        args.workload.name(),
        args.seed,
        client::CONNECTIONS,
        closed.verified as f64 / closed.elapsed_s,
        closed.windows.len(),
        closed.min(|w| w.rps),
        closed.max(|w| w.rps),
        closed.min(|w| w.p99_us),
        closed.max(|w| w.p99_us),
    );
    eprintln!(
        "server: served {} shed {} errors {} panics {} | syscalls/req: unmeasured (no strace or perf on the host; /proc/self/io skips send/recv)",
        stats.served,
        stats.shed,
        stats.errors_total(),
        stats.panics
    );
    let metrics: Vec<Metric> = vec![
        metric("setup_s", "s", report::median_f64(&mut setup_s)),
        metric("throughput_rps", "req/s", closed.median(|w| w.rps)),
        metric("p50_us", "us", closed.median(|w| w.p50_us)),
        metric("p99_us", "us", closed.median(|w| w.p99_us)),
        metric("cpu_us_per_req", "us", closed.median(|w| w.cpu_us_per_req)),
        metric("peak_rss_mb", "MiB", report::peak_rss_mib()),
    ];
    // Every window's p99 needs 10 samples beyond it.
    let correct = failed == 0 && stats.panics == 0 && min_samples >= client::MIN_WINDOW_SAMPLES;
    report::emit(&metrics, attempted, failed, correct);
    correct
}
