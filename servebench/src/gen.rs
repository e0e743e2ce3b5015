//! Seeded input generation: rule text, query texts, the HTTP request bytes
//! of every query, and the order requests are sent in. Everything here is
//! a pure function of (workload, seed); nothing is timed.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, and owned by the benchmark so no other
/// crate's generator can change the inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eb0_57a7_e11a_b1e5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    HotZipf,
    ColdUnique,
    FederatedFanout,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotZipf,
        Workload::ColdUnique,
        Workload::FederatedFanout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotZipf => "hot_zipf",
            Workload::ColdUnique => "cold_unique",
            Workload::FederatedFanout => "federated_fanout",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn federated(self) -> bool {
        self == Workload::FederatedFanout
    }

    /// Fixed open-loop arrival rate in requests per second, recorded in
    /// `BENCHMARK.json` and never derived at run time, so a faster server
    /// sees the same offered load. The open loop runs in the traced run
    /// only (README: "Why latency comes from the closed loop").
    pub fn open_loop_rate(self) -> f64 {
        match self {
            Workload::HotZipf => 6_000.0,
            Workload::ColdUnique => 4_000.0,
            Workload::FederatedFanout => 1_500.0,
        }
    }
}

/// Logical queries in the `hot_zipf` working set (each has 3 spellings).
pub const HOT_WORKING_SET: usize = 512;
/// Length of the `hot_zipf` request stream before it repeats.
pub const HOT_STREAM: usize = 1 << 16;
/// Distinct `cold_unique` queries: 4x the default cache's 8192 slots.
pub const COLD_DISTINCT: usize = 32_768;
/// Distinct `federated_fanout` queries.
pub const FED_DISTINCT: usize = 4_096;
/// Federation members in `federated_fanout`.
pub const FED_MEMBERS: usize = 4;

const S: &str = "http://src.example.org/onto/";
const SE: &str = "http://src.example.org/ent/";
const T: &str = "http://tgt.example.org/onto/";
const TE: &str = "http://tgt.example.org/ent/";
const OTHER: &str = "http://other.example.org/onto/x";

/// The IRI a federation member is registered under.
pub fn member_iri(e: usize) -> String {
    format!("http://ep{e}.example.org/sparql")
}

/// Request path the benchmark's responder serves member `e` on.
pub fn member_path(e: usize) -> String {
    format!("/m{e}")
}

pub struct Inputs {
    pub workload: Workload,
    /// Alignment rules, one per line (format in `setup::load_rules`).
    pub rules: String,
    /// Distinct query texts, indexed by query id.
    pub queries: Vec<String>,
    /// Complete HTTP request bytes per query id.
    pub requests: Vec<Vec<u8>>,
    /// Send order, as query ids; the load generator cycles through it.
    pub stream: Vec<u32>,
}

pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ ((workload as u64) << 56));
    let (rules, queries, stream, post) = match workload {
        Workload::HotZipf => {
            let (rules, n_pred, n_ent) = flat_rules(&mut rng, 1000);
            let (queries, stream) = hot_queries(&mut rng, n_pred, n_ent);
            (rules, queries, stream, false)
        }
        Workload::ColdUnique => {
            let (rules, n_pred, n_ent) = complex_rules(&mut rng, 10_000);
            let queries = cold_queries(&mut rng, seed, n_pred, n_ent);
            let stream = (0..queries.len() as u32).collect();
            (rules, queries, stream, true)
        }
        Workload::FederatedFanout => {
            let rules = federated_rules(&mut rng, 500, 100);
            let queries = federated_queries(&mut rng, 500, 100);
            let stream = (0..queries.len() as u32).collect();
            (rules, queries, stream, true)
        }
    };
    let requests = queries
        .iter()
        .map(|q| {
            if post {
                post_request(q)
            } else {
                get_request(q)
            }
        })
        .collect();
    Inputs {
        workload,
        rules,
        queries,
        requests,
        stream,
    }
}

/// `GET /sparql?query=…` with the query percent-encoded.
pub fn get_request(query: &str) -> Vec<u8> {
    let mut out = b"GET /sparql?query=".to_vec();
    for &b in query.as_bytes() {
        match b {
            b' ' => out.push(b'+'),
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => out.push(b),
            _ => {
                const HEX: &[u8; 16] = b"0123456789ABCDEF";
                out.extend_from_slice(&[b'%', HEX[(b >> 4) as usize], HEX[(b & 15) as usize]]);
            }
        }
    }
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bench\r\n\r\n");
    out
}

/// `POST /sparql` with an `application/sparql-query` body.
pub fn post_request(query: &str) -> Vec<u8> {
    let mut out = format!(
        "POST /sparql HTTP/1.1\r\nHost: bench\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n",
        query.len()
    )
    .into_bytes();
    out.extend_from_slice(query.as_bytes());
    out
}

/// `n` flat rules: predicate templates (every eighth predicate gets a
/// second template, so matches expand to a UNION) and entity alignments.
/// Returns the text and the predicate and entity counts.
fn flat_rules(rng: &mut Rng, n: usize) -> (String, usize, usize) {
    let mut text = String::new();
    let mut lines = 0;
    let mut n_pred = 0;
    while lines < n * 45 / 100 {
        let i = n_pred;
        let _ = writeln!(text, "P ?s <{S}p{i}> ?o => ?s <{T}q{i}> ?o .");
        lines += 1;
        if i % 8 == 0 {
            let _ = writeln!(text, "P ?s <{S}p{i}> ?o => ?s <{T}r{i}> ?o .");
            lines += 1;
        }
        n_pred += 1;
    }
    let n_ent = n - lines;
    for j in 0..n_ent {
        let k = if rng.chance(5) { rng.below(n_ent) } else { j };
        let _ = writeln!(text, "E <{SE}e{j}> <{TE}e{k}>");
    }
    (text, n_pred, n_ent)
}

/// `n` rules with complex correspondences: a quarter of the predicates
/// are guarded (`?o = / != entity`), a quarter are three-hop chains
/// through existentials with an emitted FILTER, the rest flat (one in ten
/// with a second template).
fn complex_rules(rng: &mut Rng, n: usize) -> (String, usize, usize) {
    let mut text = String::new();
    let mut lines = 0;
    let mut n_pred = 0;
    let n_ent_target = n / 2;
    while lines < n - n_ent_target {
        let i = n_pred;
        match i % 4 {
            0 => {
                let op = if rng.chance(50) { "=" } else { "!=" };
                let e = rng.below(n_ent_target);
                let _ = writeln!(
                    text,
                    "G {op} ?o <{SE}e{e}> | ?s <{S}p{i}> ?o => ?s <{T}q{i}> ?o ."
                );
            }
            1 => {
                let _ = writeln!(
                    text,
                    "F != ?o \"raw\" | ?s <{S}p{i}> ?o => ?s <{T}q{i}> ?c0 . ?c0 <{T}l1p{i}> ?c1 . ?c1 <{T}l2p{i}> ?o ."
                );
            }
            _ => {
                let _ = writeln!(text, "P ?s <{S}p{i}> ?o => ?s <{T}q{i}> ?o .");
                if rng.chance(10) {
                    let _ = writeln!(text, "P ?s <{S}p{i}> ?o => ?s <{T}r{i}> ?o .");
                    lines += 1;
                }
            }
        }
        lines += 1;
        n_pred += 1;
    }
    let n_ent = n - lines;
    for j in 0..n_ent {
        let _ = writeln!(text, "E <{SE}e{j}> <{TE}e{j}>");
    }
    (text, n_pred, n_ent)
}

/// One `hot_zipf` logical query as its three spellings: canonical (full
/// IRIs), PREFIX-aliased QNames, and whitespace/keyword-case perturbed.
fn hot_spellings(rng: &mut Rng, n_pred: usize, n_ent: usize) -> [String; 3] {
    let k = 3 + rng.below(3);
    // (predicate, object) per pattern: predicate None = unaligned.
    let pats: Vec<(Option<usize>, Option<usize>, usize)> = (0..k)
        .map(|_| {
            let p = (!rng.chance(10)).then(|| rng.below(n_pred));
            let o = rng.chance(30).then(|| rng.below(n_ent));
            (p, o, rng.below(64))
        })
        .collect();
    let star = rng.chance(50);
    let alias = format!("a{}", rng.below(100));
    let mut out: [String; 3] = Default::default();
    for (style, text) in out.iter_mut().enumerate() {
        let sep = |rng: &mut Rng| -> &'static str {
            if style == 2 {
                [" ", "  ", "\n", "\t ", " \n  "][rng.below(5)]
            } else {
                " "
            }
        };
        if style == 1 {
            let _ = write!(text, "PREFIX {alias}: <{S}> PREFIX {alias}e: <{SE}> ");
        }
        text.push_str(if style == 2 { "select" } else { "SELECT" });
        text.push_str(sep(rng));
        text.push_str(if star { "*" } else { "?v0 ?v1" });
        text.push_str(sep(rng));
        text.push_str(if style == 2 { "where" } else { "WHERE" });
        text.push_str(sep(rng));
        text.push('{');
        for (j, &(p, o, x)) in pats.iter().enumerate() {
            text.push_str(sep(rng));
            let _ = write!(text, "?v{j}{}", sep(rng));
            match (p, style) {
                (Some(p), 1) => {
                    let _ = write!(text, "{alias}:p{p}");
                }
                (Some(p), _) => {
                    let _ = write!(text, "<{S}p{p}>");
                }
                (None, _) => {
                    let _ = write!(text, "<{OTHER}{x}>");
                }
            }
            text.push_str(sep(rng));
            match (o, style) {
                (Some(o), 1) => {
                    let _ = write!(text, "{alias}e:e{o}");
                }
                (Some(o), _) => {
                    let _ = write!(text, "<{SE}e{o}>");
                }
                (None, _) => {
                    let _ = write!(text, "?v{}", j + 1);
                }
            }
            text.push_str(sep(rng));
            text.push('.');
        }
        text.push_str(sep(rng));
        text.push('}');
    }
    out
}

/// The `hot_zipf` query set (query id = 3 × logical query + spelling) and a
/// Zipf(s = 1) stream over the logical queries in which about a quarter of
/// the requests use one of the two re-spellings.
fn hot_queries(rng: &mut Rng, n_pred: usize, n_ent: usize) -> (Vec<String>, Vec<u32>) {
    let mut queries = Vec::with_capacity(3 * HOT_WORKING_SET);
    for _ in 0..HOT_WORKING_SET {
        queries.extend(hot_spellings(rng, n_pred, n_ent));
    }
    let mut cdf = Vec::with_capacity(HOT_WORKING_SET);
    let mut acc = 0.0;
    for r in 0..HOT_WORKING_SET {
        acc += 1.0 / (r + 1) as f64;
        cdf.push(acc);
    }
    let stream = (0..HOT_STREAM)
        .map(|_| {
            let u = rng.unit() * acc;
            let rank = cdf.partition_point(|&c| c <= u).min(HOT_WORKING_SET - 1);
            let style = if rng.chance(25) { 1 + rng.below(2) } else { 0 };
            (3 * rank + style) as u32
        })
        .collect();
    (queries, stream)
}

/// Distinct group-shaped queries (OPTIONAL, UNION, FILTER), each with a
/// literal and an IRI no other query uses.
fn cold_queries(rng: &mut Rng, seed: u64, n_pred: usize, n_ent: usize) -> Vec<String> {
    (0..COLD_DISTINCT)
        .map(|i| {
            let mut p = || rng.below(n_pred);
            let (a, b, c, d, e, f) = (p(), p(), p(), p(), p(), p());
            let (g, h) = (rng.below(n_ent), rng.below(n_ent));
            format!(
                "SELECT * WHERE {{ ?v0 <{S}p{a}> ?v1 . ?v1 <{S}p{b}> \"n{seed:x}-{i}\" . \
                 ?v2 <{S}p{c}> <http://data.example.org/r{seed:x}-{i}> . \
                 OPTIONAL {{ ?v1 <{S}p{d}> ?v3 }} \
                 {{ ?v0 <{S}p{e}> ?v4 }} UNION {{ ?v0 <{S}p{f}> <{SE}e{g}> }} \
                 FILTER(?v3 != <{SE}e{h}> || ?v4 < {i}) }}"
            )
        })
        .collect()
}

fn member_vocab(e: usize) -> (String, String, String, String) {
    (
        format!("http://m{e}.example.org/onto/"),
        format!("http://m{e}.example.org/ent/"),
        format!("http://ep{e}.example.org/onto/"),
        format!("http://ep{e}.example.org/ent/"),
    )
}

/// Per-member sections (`M <iri>` then that member's rules): flat
/// templates with UNION splits, guarded rules, and two-hop chains.
fn federated_rules(rng: &mut Rng, n_pred: usize, n_ent: usize) -> String {
    let mut text = String::new();
    for e in 0..FED_MEMBERS {
        let (s, se, t, te) = member_vocab(e);
        let _ = writeln!(text, "M {}", member_iri(e));
        for i in 0..n_pred {
            match i % 10 {
                3 => {
                    let _ = writeln!(
                        text,
                        "F != ?o \"raw\" | ?s <{s}p{i}> ?o => ?s <{t}q{i}> ?c0 . ?c0 <{t}l{i}> ?o ."
                    );
                }
                7 => {
                    let k = rng.below(n_ent);
                    let _ = writeln!(
                        text,
                        "G != ?o <{se}e{k}> | ?s <{s}p{i}> ?o => ?s <{t}q{i}> ?o ."
                    );
                }
                _ => {
                    let _ = writeln!(text, "P ?s <{s}p{i}> ?o => ?s <{t}q{i}> ?o .");
                    if i % 8 == 0 {
                        let _ = writeln!(text, "P ?s <{s}p{i}> ?o => ?s <{t}r{i}> ?o .");
                    }
                }
            }
        }
        for j in 0..n_ent {
            let _ = writeln!(text, "E <{se}e{j}> <{te}e{j}>");
        }
    }
    text
}

/// Six-pattern conjunctions touching every member's vocabulary; about 15%
/// of patterns use a predicate no member aligns.
fn federated_queries(rng: &mut Rng, n_pred: usize, n_ent: usize) -> Vec<String> {
    (0..FED_DISTINCT)
        .map(|_| {
            let mut q = String::from("SELECT * WHERE {");
            for j in 0..6 {
                let e = if j < FED_MEMBERS {
                    j
                } else {
                    rng.below(FED_MEMBERS)
                };
                let (s, se, _, _) = member_vocab(e);
                let _ = write!(q, " ?v{j} ");
                if rng.chance(15) {
                    let _ = write!(q, "<{OTHER}{}>", rng.below(64));
                } else {
                    let _ = write!(q, "<{s}p{}>", rng.below(n_pred));
                }
                if rng.chance(25) {
                    let _ = write!(q, " <{se}e{}> .", rng.below(n_ent));
                } else {
                    let _ = write!(q, " ?v{} .", j + 1);
                }
            }
            q.push_str(" }");
            q
        })
        .collect()
}
