//! Expected answers, computed before any timing, and the reply checker.
//!
//! Single store: the expected reply to a query is its rewrite by a
//! cache-less `ServeEngine`, kept as a 64-bit hash. A seeded sample is
//! cross-checked against the `LinearRewriter` reference. Federated: the
//! expected reply is a complete envelope that carries, for every endpoint
//! `plan_for_dispatch` plans offline, that member's echo of the subquery.

use sparql_rewrite_core::{
    parse_query_into, render_query_into, EndpointPlan, Interner, LinearRewriter, ParseScratch,
    QueryRef, RewriteLimits, RewriteScratch, Rewriter,
};

use crate::gen::{Inputs, Rng};
use crate::hash64;
use crate::setup::{build_engine, build_planner, load_rules, member_echo};

/// What a federated reply must contain.
pub struct EnvelopeExpect {
    /// `"residual_patterns":N,`
    residual: String,
    /// `"rows":"m{e}:{hash}"`, one per planned endpoint, in plan order.
    rows: Vec<String>,
}

pub enum Expect {
    /// Hash of the expected rewrite, per query id.
    Rewrite(Vec<u64>),
    Envelope(Vec<EnvelopeExpect>),
}

impl Expect {
    /// Whether a reply to query `qid` is correct. Anything but a `200` fails.
    pub fn check(&self, qid: usize, status: u16, body: &[u8]) -> bool {
        if status != 200 {
            return false;
        }
        match self {
            Expect::Rewrite(hashes) => hash64(body) == hashes[qid],
            Expect::Envelope(envs) => check_envelope(&envs[qid], body),
        }
    }

    /// Digest of every expected answer (for the determinism self-test).
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        match self {
            Expect::Rewrite(hashes) => {
                let bytes: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
                hash64(&bytes)
            }
            Expect::Envelope(envs) => {
                let mut text = String::new();
                for e in envs {
                    text.push_str(&e.residual);
                    for r in &e.rows {
                        text.push_str(r);
                    }
                }
                hash64(text.as_bytes())
            }
        }
    }
}

/// A complete envelope: not partial, the planned residual count, and each
/// planned endpoint's echo in plan order with `served` as every outcome.
/// Fields the checker does not look for may be added around these.
pub fn check_envelope(exp: &EnvelopeExpect, body: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    if !text.contains("\"partial\":false") || !text.contains(&exp.residual) {
        return false;
    }
    let mut at = 0;
    for needle in &exp.rows {
        match text[at..].find(needle.as_str()) {
            Some(p) => at += p + needle.len(),
            None => return false,
        }
    }
    let n = exp.rows.len();
    text.matches("\"outcome\":\"").count() == n
        && text.matches("\"outcome\":\"served\"").count() == n
}

pub fn envelope_expect(residual: usize, plans: &[EndpointPlan]) -> EnvelopeExpect {
    EnvelopeExpect {
        residual: format!("\"residual_patterns\":{residual},"),
        rows: plans
            .iter()
            .map(|p| {
                format!(
                    "\"rows\":\"{}\"",
                    member_echo(p.endpoint.0 as usize, p.subquery.as_bytes())
                )
            })
            .collect(),
    }
}

/// Queries sampled for the `LinearRewriter` cross-check.
const REFERENCE_SAMPLE: usize = 24;

pub fn expected(inputs: &Inputs, seed: u64) -> Expect {
    if inputs.workload.federated() {
        let (planner, mut interner) = build_planner(&inputs.rules);
        let mut parse = ParseScratch::new();
        let envs = inputs
            .queries
            .iter()
            .map(|q| {
                parse_query_into(q, &mut interner, &mut parse).expect("federated query parses");
                let plan = planner
                    .plan_for_dispatch(parse.query_ref(), &interner, RewriteLimits::default())
                    .expect("federated query plans");
                envelope_expect(plan.n_residual_patterns, &plan.endpoints)
            })
            .collect();
        return Expect::Envelope(envs);
    }
    let engine = build_engine(&inputs.rules, None);
    let mut scratch = engine.scratch();
    let hashes: Vec<u64> = inputs
        .queries
        .iter()
        .map(|q| {
            hash64(
                engine
                    .serve(q, &mut scratch)
                    .expect("query parses")
                    .as_bytes(),
            )
        })
        .collect();
    cross_check_reference(inputs, &hashes, seed);
    Expect::Rewrite(hashes)
}

/// The cache-less engine (dense index) must agree with the O(rules)
/// `LinearRewriter` on a seeded sample of queries.
fn cross_check_reference(inputs: &Inputs, hashes: &[u64], seed: u64) {
    let mut interner = Interner::new();
    let store = load_rules(&inputs.rules, &mut interner, true)
        .pop()
        .expect("one rule set")
        .store;
    let linear = LinearRewriter::new(&store);
    let mut rng = Rng::new(seed ^ 0x11ea_c0de);
    let (mut parse, mut rewrite) = (ParseScratch::new(), RewriteScratch::new());
    let (mut fresh, mut out) = (String::new(), String::new());
    for _ in 0..REFERENCE_SAMPLE {
        let qid = rng.below(inputs.queries.len());
        parse_query_into(&inputs.queries[qid], &mut interner, &mut parse).expect("query parses");
        linear.rewrite_ref_into(parse.query_ref(), &mut rewrite);
        let q = QueryRef {
            select: rewrite.select(),
            pattern: rewrite.pattern(),
        };
        render_query_into(q, &interner, &mut fresh, &mut out);
        assert_eq!(
            hash64(out.as_bytes()),
            hashes[qid],
            "indexed and linear rewrites differ on query {qid}: {}",
            inputs.queries[qid]
        );
    }
}
