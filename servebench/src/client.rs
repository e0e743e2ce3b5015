//! The load generator: keep-alive HTTP/1.1 connections over loopback, a
//! closed-loop phase, and an open-loop phase on a fixed arrival schedule.
//! Every reply is verified; a request that fails in any way is counted.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::report::{quantile, sorted, Hist};
use crate::setup::{find, header_value};
use crate::trace::{Name, SpanBuf, NO_PARENT};
use crate::verify::Expect;

/// Generator threads and keep-alive connections (one connection each).
pub const CONNECTIONS: usize = 2;
/// A reply slower than this counts as failed and the connection is redialed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(2);

/// One keep-alive client connection with a reusable read buffer.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: vec![0u8; 64 * 1024],
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// Send one request and read one `Content-Length`-framed reply.
    /// Returns the status and the body. Any error drops the connection so
    /// the next request redials.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<(u16, &[u8])> {
        match self.exchange(request) {
            Ok((status, start, end, close)) => {
                if close {
                    self.stream = None;
                }
                Ok((status, &self.buf[start..end]))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<(u16, usize, usize, bool)> {
        self.stream()?.write_all(request)?;
        let mut filled = 0usize;
        let (head_end, body_len, status, close) = loop {
            let n = {
                let Conn { stream, buf, .. } = self;
                stream
                    .as_mut()
                    .expect("connected")
                    .read(&mut buf[filled..])?
            };
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let from = filled.saturating_sub(3);
            filled += n;
            if let Some(p) = find(&self.buf[from..filled], b"\r\n\r\n") {
                let head = &self.buf[..from + p];
                let status = head
                    .get(9..12)
                    .and_then(|s| std::str::from_utf8(s).ok()?.parse().ok())
                    .ok_or(io::ErrorKind::InvalidData)?;
                let len: usize = header_value(head, b"content-length")
                    .and_then(|v| std::str::from_utf8(v).ok()?.trim().parse().ok())
                    .ok_or(io::ErrorKind::InvalidData)?;
                let close = header_value(head, b"connection")
                    .is_some_and(|v| v.trim_ascii().eq_ignore_ascii_case(b"close"));
                break (from + p + 4, len, status, close);
            }
            if filled == self.buf.len() {
                return Err(io::ErrorKind::InvalidData.into());
            }
        };
        let end = head_end + body_len;
        if end > self.buf.len() {
            self.buf.resize(end, 0);
        }
        while filled < end {
            let Conn { stream, buf, .. } = self;
            let n = stream
                .as_mut()
                .expect("connected")
                .read(&mut buf[filled..end])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            filled += n;
        }
        if filled > end {
            // The server never pipelines; stray bytes mean lost framing.
            return Err(io::ErrorKind::InvalidData.into());
        }
        Ok((status, head_end, end, close))
    }
}

/// What one request produced, from the caller's point of view.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    Verified,
    Failed,
}

/// Send stream position `pos` on `conn` and verify the reply.
pub fn send(conn: &mut Conn, pos: u64, load: &Load<'_>) -> Outcome {
    let qid = load.stream[(pos % load.stream.len() as u64) as usize] as usize;
    let span = load
        .spans
        .map(|s| s.open(pos as u32, Name::Socket, NO_PARENT));
    let reply = conn.roundtrip(&load.requests[qid]);
    if let (Some(s), Some(span)) = (load.spans, span) {
        s.close(span);
    }
    match reply {
        Ok((status, body)) if load.expect.check(qid, status, body) => Outcome::Verified,
        Ok((status, body)) => {
            log_failure(
                qid,
                &format!("status {status}: {}", String::from_utf8_lossy(body)),
            );
            Outcome::Failed
        }
        Err(e) => {
            log_failure(qid, &e.to_string());
            Outcome::Failed
        }
    }
}

/// Print the first few failures to stderr; the count is in the result.
fn log_failure(qid: usize, what: &str) {
    static LOGGED: AtomicU64 = AtomicU64::new(0);
    if LOGGED.fetch_add(1, Ordering::Relaxed) < 5 {
        eprintln!("failed reply to query {qid}: {what}");
    }
}

/// The generator's connections, kept open across phases so the same
/// server workers serve the whole run.
pub fn connections(addr: SocketAddr) -> Vec<Conn> {
    (0..CONNECTIONS).map(|_| Conn::new(addr)).collect()
}

/// Everything a phase needs to send and check requests.
pub struct Load<'a> {
    pub requests: &'a [Vec<u8>],
    pub stream: &'a [u32],
    pub expect: &'a Expect,
    /// When set, every request is recorded as a span (the traced variant
    /// of a phase, for the tracing-overhead figures).
    pub spans: Option<&'a SpanBuf>,
}

/// Sub-windows a phase is cut into. Closed-loop figures are medians over
/// them, so an episode of the shared host (a stall, a slow spell) moves a
/// few windows rather than the run's figure.
pub const WINDOWS: usize = 30;
/// Latency samples a window needs so its p99 has 10 beyond it.
pub const MIN_WINDOW_SAMPLES: u64 = 1000;

/// One closed-loop sub-window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Verified replies per second.
    pub rps: f64,
    /// Process CPU (user + system, all threads) per verified reply.
    pub cpu_us_per_req: f64,
    /// Send → reply latency quantiles of the requests that completed in
    /// the window.
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
}

#[derive(Default, Debug)]
pub struct ClosedResult {
    pub verified: u64,
    pub failed: u64,
    pub elapsed_s: f64,
    pub windows: Vec<Window>,
}

impl ClosedResult {
    /// Median over the windows of one per-window figure.
    pub fn median(&self, field: impl Fn(&Window) -> f64) -> f64 {
        let mut v: Vec<f64> = self.windows.iter().map(field).collect();
        crate::report::median_f64(&mut v)
    }

    pub fn min(&self, field: impl Fn(&Window) -> f64) -> f64 {
        self.windows.iter().map(field).fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self, field: impl Fn(&Window) -> f64) -> f64 {
        self.windows.iter().map(field).fold(0.0, f64::max)
    }
}

/// Closed loop: each connection sends its next request only after the
/// previous reply arrived. Stream positions come from `cursor`, so a phase
/// continues the stream where the last one stopped. The phase is cut into
/// [`WINDOWS`] equal windows; the calling thread sleeps to each boundary
/// and samples the process CPU and the verified count there.
pub fn closed_loop(
    load: &Load<'_>,
    conns: &mut [Conn],
    cursor: &AtomicU64,
    seconds: f64,
) -> ClosedResult {
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let done = AtomicU64::new(0);
    let start = Instant::now();
    let end = start + window * WINDOWS as u32;
    let mut marks = Vec::with_capacity(WINDOWS + 1);
    marks.push((start, crate::report::process_cpu_seconds(), 0u64));
    let per_thread: Vec<(u64, u64, Vec<Hist>)> = std::thread::scope(|s| {
        let (done, end) = (&done, end);
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let (mut ok, mut bad) = (0u64, 0u64);
                    let mut lat = vec![Hist::new(); WINDOWS];
                    loop {
                        let sent = Instant::now();
                        if sent >= end {
                            break;
                        }
                        let pos = cursor.fetch_add(1, Ordering::Relaxed);
                        let outcome = send(conn, pos, load);
                        let now = Instant::now();
                        let w = ((now - start).as_nanos() / window.as_nanos()) as usize;
                        lat[w.min(WINDOWS - 1)].record((now - sent).as_nanos() as u64);
                        match outcome {
                            Outcome::Verified => {
                                ok += 1;
                                done.fetch_add(1, Ordering::Relaxed);
                            }
                            Outcome::Failed => bad += 1,
                        }
                    }
                    (ok, bad, lat)
                })
            })
            .collect();
        for w in 1..=WINDOWS {
            let boundary = start + window * w as u32;
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            marks.push((
                Instant::now(),
                crate::report::process_cpu_seconds(),
                done.load(Ordering::Relaxed),
            ));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop generator thread"))
            .collect()
    });
    // Per-window latency, both connections merged.
    let hists: Vec<Hist> = (0..WINDOWS)
        .map(|w| {
            let mut h = Hist::new();
            for r in &per_thread {
                h.merge(&r.2[w]);
            }
            h
        })
        .collect();
    // The finest grouping of adjacent windows in which every group holds
    // enough samples for its p99: a slow workload on a slow host gets fewer,
    // longer windows rather than a thin p99.
    let group = [1, 2, 3, 5, 6, 10, 15, WINDOWS]
        .into_iter()
        .find(|&g| {
            hists
                .chunks(g)
                .all(|c| c.iter().map(Hist::len).sum::<u64>() >= MIN_WINDOW_SAMPLES)
        })
        .unwrap_or(WINDOWS);
    let windows = (0..WINDOWS)
        .step_by(group)
        .map(|w| {
            let ((t0, c0, n0), (t1, c1, n1)) = (marks[w], marks[w + group]);
            let mut lat = Hist::new();
            for h in &hists[w..w + group] {
                lat.merge(h);
            }
            let n = n1.saturating_sub(n0);
            Window {
                rps: n as f64 / (t1 - t0).as_secs_f64(),
                cpu_us_per_req: (c1 - c0) * 1e6 / n.max(1) as f64,
                p50_us: lat.quantile(0.50) / 1e3,
                p99_us: lat.quantile(0.99) / 1e3,
                samples: lat.len(),
            }
        })
        .collect();
    ClosedResult {
        verified: per_thread.iter().map(|r| r.0).sum(),
        failed: per_thread.iter().map(|r| r.1).sum(),
        elapsed_s: start.elapsed().as_secs_f64(),
        windows,
    }
}

#[derive(Default, Debug)]
pub struct OpenResult {
    /// Due time → reply, nanoseconds, for every request (failed ones too),
    /// in due-time order.
    pub latency_ns: Vec<u64>,
    /// Due time → actual send, nanoseconds, in due-time order.
    pub lateness_ns: Vec<u64>,
    pub verified: u64,
    pub failed: u64,
}

/// Open-loop figures of one phase.
pub struct OpenStats {
    pub p50_us: f64,
    /// Median over due-time sub-windows of each window's p99 (windows of
    /// at least 1000 samples, so each p99 has 10 beyond it).
    pub p99_us: f64,
    pub samples: usize,
    pub lateness_p50_us: f64,
    pub lateness_p99_us: f64,
}

impl OpenResult {
    pub fn stats(&self) -> OpenStats {
        let lat = sorted(&self.latency_ns);
        let late = sorted(&self.lateness_ns);
        let windows = (lat.len() / MIN_WINDOW_SAMPLES as usize).clamp(1, WINDOWS);
        let per = (self.latency_ns.len() / windows).max(1);
        let mut p99s: Vec<f64> = self
            .latency_ns
            .chunks(per)
            .take(windows)
            .map(|w| quantile(&sorted(w), 0.99) as f64 / 1e3)
            .collect();
        OpenStats {
            p50_us: quantile(&lat, 0.50) as f64 / 1e3,
            p99_us: crate::report::median_f64(&mut p99s),
            samples: lat.len(),
            lateness_p50_us: quantile(&late, 0.50) as f64 / 1e3,
            lateness_p99_us: quantile(&late, 0.99) as f64 / 1e3,
        }
    }
}

/// Sleep until shortly before `due`, then spin the last few microseconds.
/// A plain sleep overshoots by ~55 µs at the default timer slack, longer
/// than a cached reply takes; spinning the whole wait would keep both
/// vCPUs busy and invite the host to preempt them.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(15);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Open loop at `rate` requests/s: request `k` is due at `start + k/rate`
/// and goes out on connection `k mod conns.len()` as soon as it is due and
/// that connection is free. Latency is measured from the due time, so a
/// stall is charged to every request it delays.
pub fn open_loop(
    load: &Load<'_>,
    conns: &mut [Conn],
    cursor: &AtomicU64,
    rate: f64,
    seconds: f64,
) -> OpenResult {
    let n_total = (rate * seconds) as u64;
    let base = cursor.fetch_add(n_total, Ordering::Relaxed);
    let start = Instant::now() + Duration::from_millis(2);
    let n_conns = conns.len() as u64;
    let parts: Vec<OpenResult> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(0u64..)
            .map(|(conn, t)| {
                s.spawn(move || {
                    crate::sys::tighten_timer_slack();
                    let cap = (n_total / n_conns + 1) as usize;
                    let mut r = OpenResult {
                        latency_ns: Vec::with_capacity(cap),
                        lateness_ns: Vec::with_capacity(cap),
                        ..OpenResult::default()
                    };
                    let mut k = t;
                    while k < n_total {
                        let due = start + Duration::from_secs_f64(k as f64 / rate);
                        wait_until(due);
                        let sent = Instant::now();
                        match send(conn, base + k, load) {
                            Outcome::Verified => r.verified += 1,
                            Outcome::Failed => r.failed += 1,
                        }
                        r.latency_ns.push(due.elapsed().as_nanos() as u64);
                        r.lateness_ns.push((sent - due).as_nanos() as u64);
                        k += n_conns;
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop generator thread"))
            .collect()
    });
    // Interleave the per-connection samples back into due-time order.
    let mut out = OpenResult {
        latency_ns: Vec::with_capacity(n_total as usize),
        lateness_ns: Vec::with_capacity(n_total as usize),
        ..OpenResult::default()
    };
    for k in 0..n_total as usize {
        let (p, i) = (&parts[k % parts.len()], k / parts.len());
        out.latency_ns.push(p.latency_ns[i]);
        out.lateness_ns.push(p.lateness_ns[i]);
    }
    out.verified = parts.iter().map(|p| p.verified).sum();
    out.failed = parts.iter().map(|p| p.failed).sum();
    out
}
