//! From rule text to a serving front end: rule loading, engine and
//! federation construction, server spawn and the `/healthz` wait, plus the
//! benchmark-owned loopback responder that plays the federation members.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparql_rewrite_core::{
    parse_bgp, AlignmentStore, CacheConfig, CmpOp, ExecutorConfig, ExprNode, FederationPlanner,
    HttpConfig, Interner, RewriteLimits, RuleTemplate, ServeEngine, Term, TriplePattern,
};
use sparql_rewrite_server::{EndpointRoute, FederationConfig, Server, ServerConfig};

use crate::gen::{member_path, Inputs};
use crate::hash64;

/// One rule set: a federation member (`iri` set) or the single store.
pub struct RuleSet {
    pub iri: Option<String>,
    pub store: AlignmentStore,
}

fn cmp_op(op: &str) -> CmpOp {
    match op {
        "=" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        ">" => CmpOp::Gt,
        other => panic!("unknown comparison {other:?} in rule text"),
    }
}

fn one_triple(text: &str, interner: &mut Interner) -> TriplePattern {
    let bgp = parse_bgp(text, interner).expect("rule text triple parses");
    assert_eq!(bgp.patterns.len(), 1, "rule lhs must be one triple: {text}");
    bgp.patterns[0]
}

/// Load rule text, one rule per line:
///
/// ```text
/// M <member endpoint IRI, no brackets>      starts a federation member
/// E <from> <to>                             entity alignment
/// P <lhs triple> => <rhs triples>           predicate template
/// G <op> ?var <const> | <lhs> => <rhs>      template guarded by ?var op const
/// F <op> ?var <const> | <lhs> => <rhs>      template emitting FILTER(?var op const)
/// ```
///
/// With `merge`, member headers are ignored and every rule lands in one
/// store (the single-store view of a federation's rules).
pub fn load_rules(text: &str, interner: &mut Interner, merge: bool) -> Vec<RuleSet> {
    let mut sets = vec![RuleSet {
        iri: None,
        store: AlignmentStore::new(),
    }];
    for line in text.lines() {
        let (tag, rest) = line.split_once(' ').expect("rule line has a tag");
        if tag == "M" {
            if merge {
                continue;
            }
            let set = RuleSet {
                iri: Some(rest.to_string()),
                store: AlignmentStore::new(),
            };
            if sets.len() == 1 && sets[0].iri.is_none() && sets[0].store.is_empty() {
                sets[0] = set;
            } else {
                sets.push(set);
            }
            continue;
        }
        let store = &mut sets.last_mut().expect("one set at least").store;
        match tag {
            "E" => {
                let (from, to) = rest.split_once(' ').expect("entity rule has two IRIs");
                let iri = |s: &str, it: &mut Interner| {
                    Term::iri(it.intern(s.trim_start_matches('<').trim_end_matches('>')))
                };
                let (from, to) = (iri(from, interner), iri(to, interner));
                store.add_entity(from, to).expect("valid entity rule");
            }
            "P" => {
                let (lhs, rhs) = rest.split_once(" => ").expect("template has =>");
                let lhs = one_triple(lhs, interner);
                let rhs = parse_bgp(rhs, interner).expect("template body parses");
                store
                    .add_predicate(lhs, rhs.patterns)
                    .expect("valid predicate rule");
            }
            "G" | "F" => {
                let (cond, tmpl) = rest.split_once(" | ").expect("complex rule has |");
                let mut parts = cond.splitn(3, ' ');
                let op = cmp_op(parts.next().expect("op"));
                let var = parts.next().expect("var");
                let konst = parts.next().expect("const");
                let leaves = one_triple(&format!("{var} ?condp {konst} ."), interner);
                let (lhs, rhs) = tmpl.split_once(" => ").expect("template has =>");
                let lhs = one_triple(lhs, interner);
                let rhs = parse_bgp(rhs, interner).expect("template body parses");
                let mut t = RuleTemplate::from_triples(rhs.patterns);
                let l = t.push_expr(ExprNode::Term(leaves.s));
                let r = t.push_expr(ExprNode::Term(leaves.o));
                let root = t.push_expr(ExprNode::Cmp(op, l, r));
                if tag == "G" {
                    t.set_guard(root);
                } else {
                    t.push_filter(root);
                }
                store
                    .add_complex_predicate(lhs, t)
                    .expect("valid complex rule");
            }
            other => panic!("unknown rule tag {other:?}"),
        }
    }
    sets
}

/// Build the single-store engine exactly as the shipped server binary
/// does: dense index and `CacheConfig::default()` (or no cache, for
/// computing expected answers).
pub fn build_engine(rules: &str, cache: Option<CacheConfig>) -> ServeEngine {
    let mut interner = Interner::new();
    let store = load_rules(rules, &mut interner, true)
        .pop()
        .expect("one rule set")
        .store;
    ServeEngine::with_cache(store, interner, cache)
}

/// Build the federation planner in its default shape (dense indexes, no
/// partition cache) and the interner its rules live in. A rule text
/// without member headers becomes a one-member federation.
pub fn build_planner(rules: &str) -> (FederationPlanner, Interner) {
    let mut interner = Interner::new();
    let sets = load_rules(rules, &mut interner, false);
    let terms: Vec<Term> = sets
        .iter()
        .enumerate()
        .map(|(e, s)| {
            let iri = s.iri.clone().unwrap_or_else(|| crate::gen::member_iri(e));
            Term::iri(interner.intern(&iri))
        })
        .collect();
    let bound = interner.symbol_bound();
    let mut planner = FederationPlanner::new();
    for (set, term) in sets.into_iter().zip(terms) {
        let mut store = set.store;
        store.build_dense_index(bound);
        planner.add_endpoint(term, Arc::new(store));
    }
    (planner, interner)
}

/// The IRIs the planner's members are registered under, in endpoint id
/// order.
pub fn member_iris(planner: &FederationPlanner, interner: &Interner) -> Vec<String> {
    (0..planner.n_endpoints())
        .map(|e| {
            let term = planner.endpoint_term(sparql_rewrite_core::EndpointId(e as u32));
            interner.resolve(term.symbol()).to_string()
        })
        .collect()
}

/// Everything `setup_s` covers, on the server vCPU (see
/// [`crate::sys::pin`]): rule text → stores → engine or planner → spawned
/// server → first `/healthz` 200. Returns the server and the elapsed
/// seconds.
pub fn spawn(inputs: &Inputs, responder: Option<SocketAddr>) -> (Server, f64) {
    let t0 = Instant::now();
    crate::sys::pin(crate::sys::SERVER_CPU);
    let server = spawn_here(inputs, responder);
    crate::sys::pin(crate::sys::CLIENT_CPU);
    wait_healthy(server.local_addr());
    (server, t0.elapsed().as_secs_f64())
}

fn spawn_here(inputs: &Inputs, responder: Option<SocketAddr>) -> Server {
    let config = ServerConfig::default();
    if inputs.workload.federated() {
        let responder = responder.expect("federated workloads need the responder");
        let (planner, interner) = build_planner(&inputs.rules);
        let routes = member_iris(&planner, &interner)
            .into_iter()
            .enumerate()
            .map(|(e, iri)| EndpointRoute {
                iri,
                authority: responder.to_string(),
                path: member_path(e),
            })
            .collect();
        let fed = FederationConfig {
            planner,
            interner,
            routes,
            executor: ExecutorConfig::default(),
            http: HttpConfig::default(),
            limits: RewriteLimits::default(),
            record_outcomes: false,
        };
        Server::spawn_federated(fed, config, "127.0.0.1:0").expect("federated server spawns")
    } else {
        let engine = build_engine(&inputs.rules, Some(CacheConfig::default()));
        Server::spawn(Arc::new(engine), config, "127.0.0.1:0").expect("server spawns")
    }
}

/// Poll `GET /healthz` until it answers 200.
fn wait_healthy(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut buf = [0u8; 256];
    loop {
        if let Ok(mut s) = TcpStream::connect(addr) {
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            if s.write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
                .is_ok()
            {
                if let Ok(n) = s.read(&mut buf) {
                    if buf[..n].starts_with(b"HTTP/1.1 200") {
                        return;
                    }
                }
            }
        }
        assert!(Instant::now() < deadline, "server never became healthy");
        std::thread::yield_now();
    }
}

/// A healthy, constant-time stand-in for every federation member on one
/// loopback port. Member `e` is served on path `/m{e}`; each `POST` is
/// answered `200` with `m{e}:<64-bit hash of the received body, hex>`, so
/// the front end's envelope proves which subquery reached which member.
/// Thread per connection, buffers reused, no allocation per request.
pub struct Responder {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Responder {
    pub fn spawn() -> io::Result<Responder> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (stop, conns) = (Arc::clone(&stop), Arc::clone(&conns));
            std::thread::Builder::new()
                .name("bench-responder".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        let Ok(stream) = stream else { continue };
                        let stop = Arc::clone(&stop);
                        let handle = std::thread::spawn(move || serve_member_conn(stream, &stop));
                        conns.lock().expect("responder registry").push(handle);
                    }
                })?
        };
        Ok(Responder {
            addr,
            stop,
            acceptor: Some(acceptor),
            conns,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let every connection thread notice, join them all.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            h.join().expect("responder acceptor exits cleanly");
        }
        let handles = std::mem::take(&mut *self.conns.lock().expect("responder registry"));
        for h in handles {
            h.join().expect("responder connection exits cleanly");
        }
    }
}

/// The member echo for `body` received on member `e`'s path.
pub fn member_echo(e: usize, body: &[u8]) -> String {
    format!("m{e}:{:016x}", hash64(body))
}

fn serve_member_conn(mut stream: TcpStream, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = vec![0u8; 64 * 1024];
    let mut filled = 0usize;
    let mut resp: Vec<u8> = Vec::with_capacity(256);
    let mut echo: Vec<u8> = Vec::with_capacity(64);
    loop {
        // Frame one request: head up to CRLFCRLF, then Content-Length bytes.
        let (head_end, body_len) = loop {
            if let Some(p) = find(&buf[..filled], b"\r\n\r\n") {
                let head = &buf[..p];
                let len = header_value(head, b"content-length")
                    .and_then(|v| std::str::from_utf8(v).ok()?.trim().parse().ok())
                    .unwrap_or(0usize);
                break (p + 4, len);
            }
            if !fill(&mut stream, &mut buf, &mut filled, stop) {
                return;
            }
        };
        let total = head_end + body_len;
        if total > buf.len() {
            buf.resize(total, 0);
        }
        while filled < total {
            if !fill(&mut stream, &mut buf, &mut filled, stop) {
                return;
            }
        }
        let member = buf[..head_end]
            .split(|&b| b == b' ')
            .nth(1)
            .and_then(|path| path.strip_prefix(b"/m"))
            .and_then(|d| std::str::from_utf8(d).ok()?.parse::<usize>().ok())
            .unwrap_or(usize::MAX);
        echo.clear();
        let _ = write!(echo, "m{member}:{:016x}", hash64(&buf[head_end..total]));
        resp.clear();
        let _ = write!(
            resp,
            "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\nContent-Length: {}\r\n\r\n",
            echo.len(),
        );
        resp.extend_from_slice(&echo);
        if stream.write_all(&resp).is_err() {
            return;
        }
        buf.copy_within(total..filled, 0);
        filled -= total;
    }
}

/// Read more bytes into `buf[filled..]`; false once the peer is gone or
/// the benchmark is stopping.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>, filled: &mut usize, stop: &AtomicBool) -> bool {
    if *filled == buf.len() {
        buf.resize(buf.len() * 2, 0);
    }
    loop {
        match stream.read(&mut buf[*filled..]) {
            Ok(0) => return false,
            Ok(n) => {
                *filled += n;
                return true;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Value of header `name` (lower-case) in a request or response head.
pub fn header_value<'a>(head: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
    head.split(|&b| b == b'\n').skip(1).find_map(|line| {
        let colon = line.iter().position(|&b| b == b':')?;
        line[..colon].eq_ignore_ascii_case(name).then(|| {
            line[colon + 1..]
                .strip_suffix(b"\r")
                .unwrap_or(&line[colon + 1..])
        })
    })
}
