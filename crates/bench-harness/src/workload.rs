//! Deterministic synthetic workloads: alignment rule sets of configurable
//! size plus query batches that exercise them — flat BGP batches or
//! group-shaped batches (OPTIONAL / UNION / FILTER / nested groups) that
//! drive the recursive rewrite path — plus **skewed request streams**
//! ([`ZipfSpec`]) and textual perturbation helpers modeling how real
//! clients re-send the same logical query with different formatting.
//!
//! All randomness comes from a seeded xorshift64* generator so every run —
//! and both rewriting strategies within a run — see byte-identical
//! workloads.

use std::fmt::Write as _;
use std::sync::Arc;

use sparql_rewrite_core::{
    parse_query, AlignmentStore, Bgp, CmpOp, ExprNode, FederationPlanner, GroupPattern, Interner,
    Query, RuleTemplate, SelectList, Term, TriplePattern,
};

/// xorshift64* — tiny, fast, deterministic; no `rand` crate in the offline
/// container.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, bound)`.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// True with probability `num/den`.
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// Uniform in `[0, 1)` (53-bit mantissa precision).
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A Zipfian request-stream shape: `n_requests` draws over ranks
/// `0..n_distinct` where rank `i` has weight `1/(i+1)^s`. `s = 0.0` is
/// uniform; `s = 1.0` is the classic skew observed in public SPARQL
/// endpoint logs (a few head queries dominate, a long tail of one-offs).
#[derive(Copy, Clone, Debug)]
pub struct ZipfSpec {
    pub s: f64,
    pub n_distinct: usize,
    pub n_requests: usize,
    pub seed: u64,
}

/// Draw a seeded Zipfian rank stream: each element is a rank in
/// `0..n_distinct`, sampled by inverse-CDF binary search over the
/// cumulative weights (`O(log n)` per draw, exact for any `s`).
pub fn zipf_ranks(spec: &ZipfSpec) -> Vec<u32> {
    assert!(spec.n_distinct > 0, "zipf needs at least one distinct rank");
    let mut cumulative = Vec::with_capacity(spec.n_distinct);
    let mut total = 0.0f64;
    for i in 0..spec.n_distinct {
        total += 1.0 / ((i + 1) as f64).powf(spec.s);
        cumulative.push(total);
    }
    let mut rng = Rng::new(spec.seed);
    (0..spec.n_requests)
        .map(|_| {
            let u = rng.unit_f64() * total;
            cumulative
                .partition_point(|&c| c < u)
                .min(spec.n_distinct - 1) as u32
        })
        .collect()
}

/// Re-spell `text` with perturbed (but equivalent) whitespace: every
/// existing separator becomes a random run of spaces/tabs/newlines, and a
/// comment is occasionally injected. Parses to the same query; exercises
/// the cache normalizer's whitespace collapse.
///
/// Assumes `text` has no spaces *inside* string literals (true for every
/// generated workload and for rendered rewrites of them) — a literal
/// containing a space would be corrupted.
pub fn perturb_whitespace(text: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for c in text.chars() {
        if c == ' ' || c == '\n' {
            match rng.below(5) {
                0 => out.push_str("  "),
                1 => out.push_str("\n\t"),
                2 => out.push_str(" \n "),
                3 => out.push('\t'),
                _ => out.push(' '),
            }
            if rng.chance(1, 16) {
                out.push_str("# client comment\n");
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Re-spell `text` using a PREFIX alias: a `PREFIX {alias}: <{base}>`
/// prologue is prepended and every full-IRI occurrence `<{base}{local}>`
/// whose local part is a simple name becomes `{alias}:{local}`. Parses to
/// the same query (QNames expand right back); exercises the cache
/// normalizer's prefix resolution.
pub fn alias_prefix(text: &str, alias: &str, base: &str) -> String {
    let mut out = String::with_capacity(text.len() + alias.len() + base.len() + 16);
    out.push_str("PREFIX ");
    out.push_str(alias);
    out.push_str(": <");
    out.push_str(base);
    out.push_str(">\n");
    let needle = format!("<{base}");
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let local_start = at + needle.len();
        let Some(close) = rest[local_start..].find('>') else {
            break;
        };
        let local = &rest[local_start..local_start + close];
        out.push_str(&rest[..at]);
        if !local.is_empty()
            && local
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            out.push_str(alias);
            out.push(':');
            out.push_str(local);
        } else {
            out.push_str(&rest[at..local_start + close + 1]);
        }
        rest = &rest[local_start + close + 1..];
    }
    out.push_str(rest);
    out
}

pub struct Workload {
    pub interner: Interner,
    pub store: AlignmentStore,
    pub queries: Vec<Query>,
    /// Total triple patterns across `queries` — the unit of throughput.
    pub total_patterns: u64,
}

impl Workload {
    /// Render every query back to SPARQL text — the request form the
    /// end-to-end serve benchmarks feed the engine.
    pub fn query_texts(&self) -> Vec<String> {
        self.queries
            .iter()
            .map(|q| q.display(&self.interner).to_string())
            .collect()
    }
}

/// Which complex-correspondence shape the rule set carries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ComplexShape {
    /// Flat templates only — the original workloads, byte-identical per
    /// seed to the pre-complex generator.
    None,
    /// Every third predicate rule becomes a guarded 1:1 template whose
    /// guard compares the lhs object against a source entity. Against the
    /// generated traffic this yields the full three-valued mix: concrete
    /// objects decide the guard statically (fire or prune), variable
    /// objects leave it undecidable (fire + residual FILTER).
    Guarded,
    /// Every second predicate rule becomes an existential chain of this
    /// depth with a value-transform FILTER on the lhs object.
    Chain(usize),
}

pub struct WorkloadSpec {
    pub n_rules: usize,
    pub patterns_per_query: usize,
    pub n_queries: usize,
    pub seed: u64,
    /// When true, queries are group graph patterns — a base triples run
    /// plus OPTIONAL, an explicit UNION, and a FILTER — and every eighth
    /// predicate carries a *second* template so multi-template UNION
    /// expansion fires on real traffic. When false, queries are the flat
    /// BGP batches of the original benchmark (byte-identical to the
    /// pre-group-pattern workloads for a given seed).
    pub group_shapes: bool,
    /// Complex-correspondence mix of the rule set (see [`ComplexShape`]).
    /// [`ComplexShape::None`] leaves the rule set byte-identical per seed
    /// to the pre-complex generator.
    pub complex: ComplexShape,
}

/// Build a workload: `n_rules` alignments (half entity, half predicate —
/// 30% of predicate templates expand to a two-pattern chain introducing an
/// existential variable, with a [`ComplexShape`]-controlled share replaced
/// by guarded or chain complex correspondences) and `n_queries` queries
/// whose patterns hit the rule set ~80% of the time.
pub fn generate(spec: &WorkloadSpec) -> Workload {
    let mut rng = Rng::new(spec.seed);
    let mut interner = Interner::new();
    let mut store = AlignmentStore::new();

    let n_pred_rules = spec.n_rules / 2;
    let n_entity_rules = spec.n_rules - n_pred_rules;

    let mut src_preds = Vec::with_capacity(n_pred_rules);
    let mut src_entities = Vec::with_capacity(n_entity_rules);
    let mut name = String::with_capacity(64);
    let iri = |interner: &mut Interner, name: &mut String, base: &str, i: usize| -> Term {
        name.clear();
        name.push_str(base);
        name.push_str(&i.to_string());
        Term::iri(interner.intern(name))
    };

    let var_s = Term::var(interner.intern("s"));
    let var_o = Term::var(interner.intern("o"));
    let var_mid = Term::var(interner.intern("m"));

    // Existential chain links and the transform literal, interned only when
    // a complex shape asks for them so `ComplexShape::None` stores stay
    // byte-identical per seed.
    let (chain_vars, lit_raw) = if spec.complex == ComplexShape::None {
        (Vec::new(), var_o)
    } else {
        let links: Vec<Term> = (0..8)
            .map(|k| {
                name.clear();
                let _ = write!(name, "c{k}");
                Term::var(interner.intern(&name))
            })
            .collect();
        (links, Term::literal(interner.intern("\"raw\"")))
    };

    for i in 0..n_pred_rules {
        let src = iri(&mut interner, &mut name, "http://src.example.org/onto/p", i);
        let tgt = iri(&mut interner, &mut name, "http://tgt.example.org/onto/p", i);
        src_preds.push(src);
        let lhs = TriplePattern::new(var_s, src, var_o);
        match spec.complex {
            ComplexShape::Guarded if i % 3 == 0 => {
                let mut tmpl =
                    RuleTemplate::from_triples(vec![TriplePattern::new(var_s, tgt, var_o)]);
                let l = tmpl.push_expr(ExprNode::Term(var_o));
                let ent = iri(
                    &mut interner,
                    &mut name,
                    "http://src.example.org/ent/e",
                    rng.below(n_entity_rules.max(1)),
                );
                let r = tmpl.push_expr(ExprNode::Term(ent));
                let op = if rng.chance(1, 2) {
                    CmpOp::Eq
                } else {
                    CmpOp::Ne
                };
                let g = tmpl.push_expr(ExprNode::Cmp(op, l, r));
                tmpl.set_guard(g);
                store
                    .add_complex_predicate(lhs, tmpl)
                    .expect("valid guarded template");
                continue;
            }
            ComplexShape::Chain(depth) if i % 2 == 0 => {
                let depth = depth.clamp(1, chain_vars.len() + 1);
                let mut triples = Vec::with_capacity(depth);
                let mut prev = var_s;
                let hops = chain_vars[..depth - 1]
                    .iter()
                    .copied()
                    .chain(std::iter::once(var_o));
                for (d, next) in hops.enumerate() {
                    let p = if d == 0 {
                        tgt
                    } else {
                        name.clear();
                        let _ = write!(name, "http://tgt.example.org/link{d}/p{i}");
                        Term::iri(interner.intern(&name))
                    };
                    triples.push(TriplePattern::new(prev, p, next));
                    prev = next;
                }
                let mut tmpl = RuleTemplate::from_triples(triples);
                let l = tmpl.push_expr(ExprNode::Term(var_o));
                let r = tmpl.push_expr(ExprNode::Term(lit_raw));
                let f = tmpl.push_expr(ExprNode::Cmp(CmpOp::Ne, l, r));
                tmpl.push_filter(f);
                store
                    .add_complex_predicate(lhs, tmpl)
                    .expect("valid chain template");
                continue;
            }
            _ => {}
        }
        let rhs = if rng.chance(3, 10) {
            // Chain through an existential variable: ?s tgt ?m . ?m tgt' ?o
            let tgt2 = iri(&mut interner, &mut name, "http://tgt.example.org/onto/q", i);
            vec![
                TriplePattern::new(var_s, tgt, var_mid),
                TriplePattern::new(var_mid, tgt2, var_o),
            ]
        } else {
            vec![TriplePattern::new(var_s, tgt, var_o)]
        };
        store.add_predicate(lhs, rhs).expect("valid template");
    }
    for i in 0..n_entity_rules {
        let src = iri(&mut interner, &mut name, "http://src.example.org/ent/e", i);
        let tgt = iri(&mut interner, &mut name, "http://tgt.example.org/ent/e", i);
        src_entities.push(src);
        store.add_entity(src, tgt).expect("valid entity alignment");
    }
    if spec.group_shapes {
        // Second template on every eighth predicate: those patterns now
        // match two rules and must expand into a two-branch UNION.
        for i in (0..n_pred_rules).step_by(8) {
            let lhs = TriplePattern::new(var_s, src_preds[i], var_o);
            let alt = iri(&mut interner, &mut name, "http://tgt.example.org/alt/p", i);
            store
                .add_predicate(lhs, vec![TriplePattern::new(var_s, alt, var_o)])
                .expect("valid template");
        }
    }

    // Predicates/entities outside the rule set, for the ~20% miss traffic.
    let mut miss_preds = Vec::with_capacity(64);
    for i in 0..64 {
        miss_preds.push(iri(
            &mut interner,
            &mut name,
            "http://other.example.org/onto/p",
            i,
        ));
    }

    // Pre-intern query variables ?v0..?v63.
    let mut vars = Vec::with_capacity(64);
    for i in 0..64 {
        name.clear();
        name.push('v');
        name.push_str(&i.to_string());
        vars.push(Term::var(interner.intern(&name)));
    }

    let mut queries = Vec::with_capacity(spec.n_queries);
    let mut total_patterns = 0u64;
    if spec.group_shapes {
        let mut text = String::with_capacity(1024);
        for _ in 0..spec.n_queries {
            group_query_text(&mut rng, spec, n_pred_rules, n_entity_rules, &mut text);
            let q = parse_query(&text, &mut interner).expect("generated group query parses");
            total_patterns += q.pattern.triples.len() as u64;
            queries.push(q);
        }
    } else {
        for _ in 0..spec.n_queries {
            let mut patterns = Vec::with_capacity(spec.patterns_per_query);
            for k in 0..spec.patterns_per_query {
                let s = vars[k % vars.len()];
                let p = if !src_preds.is_empty() && rng.chance(8, 10) {
                    src_preds[rng.below(src_preds.len())]
                } else {
                    miss_preds[rng.below(miss_preds.len())]
                };
                // A third of objects are concrete entities (half of those hit an
                // entity alignment), the rest chain to the next variable.
                let o = if !src_entities.is_empty() && rng.chance(1, 3) {
                    if rng.chance(1, 2) {
                        src_entities[rng.below(src_entities.len())]
                    } else {
                        vars[(k + 7) % vars.len()]
                    }
                } else {
                    vars[(k + 1) % vars.len()]
                };
                patterns.push(TriplePattern::new(s, p, o));
            }
            total_patterns += patterns.len() as u64;
            queries.push(Query {
                select: SelectList::Star,
                pattern: GroupPattern::from_bgp(&Bgp::new(patterns)),
            });
        }
    }

    Workload {
        interner,
        store,
        queries,
        total_patterns,
    }
}

/// Write one group-shaped query into `text`: roughly `patterns_per_query`
/// triples split across a base run, an OPTIONAL body, a two-branch UNION,
/// a nested group, and a FILTER whose operands hit the entity alignments.
fn group_query_text(
    rng: &mut Rng,
    spec: &WorkloadSpec,
    n_pred_rules: usize,
    n_entity_rules: usize,
    text: &mut String,
) {
    let pred = |rng: &mut Rng, out: &mut String| {
        if n_pred_rules > 0 && rng.chance(8, 10) {
            let _ = write!(
                out,
                "<http://src.example.org/onto/p{}>",
                rng.below(n_pred_rules)
            );
        } else {
            let _ = write!(out, "<http://other.example.org/onto/p{}>", rng.below(64));
        }
    };
    let triple = |rng: &mut Rng, out: &mut String, k: usize| {
        let _ = write!(out, "?v{} ", k % 64);
        pred(rng, out);
        let _ = write!(out, " ?v{} . ", (k + 1) % 64);
    };
    text.clear();
    text.push_str("SELECT * WHERE { ");
    let base = spec.patterns_per_query.saturating_sub(4).max(1);
    for k in 0..base {
        triple(rng, text, k);
    }
    text.push_str("OPTIONAL { ");
    triple(rng, text, base);
    text.push_str("} { ");
    triple(rng, text, base + 1);
    text.push_str("} UNION { { ");
    triple(rng, text, base + 2);
    text.push_str("} } ");
    let ent = if n_entity_rules > 0 {
        format!(
            "<http://src.example.org/ent/e{}>",
            rng.below(n_entity_rules)
        )
    } else {
        "<http://other.example.org/ent/e0>".to_string()
    };
    let _ = write!(
        text,
        "FILTER(?v0 != {ent} || ?v1 < {} && !(?v2 = \"x\"@en)) }}",
        rng.below(100)
    );
}

/// Shape of a federated workload: `n_endpoints` members, each with its own
/// vocabulary (`http://ep{e}.example.org/onto/p{i}`) and rule set, plus
/// queries whose patterns mix predicates from every member (and some no
/// member knows) so the planner's partitioning has real work to do.
pub struct FederationSpec {
    pub n_endpoints: usize,
    pub rules_per_endpoint: usize,
    pub n_queries: usize,
    pub patterns_per_query: usize,
    pub seed: u64,
}

pub struct FederationWorkload {
    pub interner: Interner,
    /// Planner with every endpoint's store registered, dense indexes built.
    pub planner: FederationPlanner,
    pub queries: Vec<Query>,
}

/// Build a federated workload from a seed. Every eighth predicate per
/// endpoint carries a second template, so partition rewrites grow UNION
/// branches; on the first endpoint every eighth predicate (offset by 4) is
/// a complex correspondence — alternating guarded templates and
/// existential chains with transform FILTERs — so complex rewriting runs
/// through the full federated pipeline; ~15% of query patterns use
/// predicates no endpoint aligns, exercising the residual (local)
/// partition.
pub fn generate_federation(spec: &FederationSpec) -> FederationWorkload {
    assert!(
        spec.n_endpoints > 0,
        "federation needs at least one endpoint"
    );
    let mut rng = Rng::new(spec.seed);
    let mut interner = Interner::new();
    let mut name = String::with_capacity(64);
    let iri = |interner: &mut Interner, name: &mut String, base: &str, i: usize| -> Term {
        name.clear();
        name.push_str(base);
        name.push_str(&i.to_string());
        Term::iri(interner.intern(name))
    };
    let var_s = Term::var(interner.intern("s"));
    let var_o = Term::var(interner.intern("o"));
    let var_mid = Term::var(interner.intern("m"));
    let lit_raw = Term::literal(interner.intern("\"raw\""));

    let mut stores = Vec::with_capacity(spec.n_endpoints);
    let mut endpoint_terms = Vec::with_capacity(spec.n_endpoints);
    let mut pred_pools: Vec<Vec<Term>> = Vec::with_capacity(spec.n_endpoints);
    for e in 0..spec.n_endpoints {
        let mut store = AlignmentStore::new();
        let onto = format!("http://ep{e}.example.org/onto/p");
        let tgt_base = format!("http://ep{e}.example.org/tgt/p");
        let mut preds = Vec::with_capacity(spec.rules_per_endpoint);
        for i in 0..spec.rules_per_endpoint {
            let src = iri(&mut interner, &mut name, &onto, i);
            let tgt = iri(&mut interner, &mut name, &tgt_base, i);
            preds.push(src);
            let lhs = TriplePattern::new(var_s, src, var_o);
            if e == 0 && i % 8 == 4 {
                // The first endpoint serves complex correspondences too:
                // alternating guarded 1:1 templates (the guard is
                // undecidable against variable-object traffic, so it rides
                // into the SERVICE subquery as a residual FILTER) and
                // existential chains with a value-transform FILTER.
                let tmpl = if i % 16 == 4 {
                    let mut t =
                        RuleTemplate::from_triples(vec![TriplePattern::new(var_s, tgt, var_o)]);
                    let l = t.push_expr(ExprNode::Term(var_o));
                    let gate = iri(&mut interner, &mut name, "http://ep0.example.org/gate/g", i);
                    let r = t.push_expr(ExprNode::Term(gate));
                    let g = t.push_expr(ExprNode::Cmp(CmpOp::Ne, l, r));
                    t.set_guard(g);
                    t
                } else {
                    let link = iri(&mut interner, &mut name, "http://ep0.example.org/link/p", i);
                    let mut t = RuleTemplate::from_triples(vec![
                        TriplePattern::new(var_s, tgt, var_mid),
                        TriplePattern::new(var_mid, link, var_o),
                    ]);
                    let l = t.push_expr(ExprNode::Term(var_o));
                    let r = t.push_expr(ExprNode::Term(lit_raw));
                    let f = t.push_expr(ExprNode::Cmp(CmpOp::Ne, l, r));
                    t.push_filter(f);
                    t
                };
                store
                    .add_complex_predicate(lhs, tmpl)
                    .expect("valid complex template");
                continue;
            }
            store
                .add_predicate(lhs, vec![TriplePattern::new(var_s, tgt, var_o)])
                .expect("valid template");
            if i % 8 == 0 {
                let alt = iri(
                    &mut interner,
                    &mut name,
                    &format!("http://ep{e}.example.org/alt/p"),
                    i,
                );
                store
                    .add_predicate(
                        TriplePattern::new(var_s, src, var_o),
                        vec![TriplePattern::new(var_s, alt, var_o)],
                    )
                    .expect("valid template");
            }
        }
        endpoint_terms.push(Term::iri(
            interner.intern(&format!("http://ep{e}.example.org/sparql")),
        ));
        stores.push(store);
        pred_pools.push(preds);
    }

    let mut miss_preds = Vec::with_capacity(32);
    for i in 0..32 {
        miss_preds.push(iri(
            &mut interner,
            &mut name,
            "http://nobody.example.org/onto/p",
            i,
        ));
    }
    let mut vars = Vec::with_capacity(32);
    for i in 0..32 {
        name.clear();
        name.push('v');
        name.push_str(&i.to_string());
        vars.push(Term::var(interner.intern(&name)));
    }

    let mut queries = Vec::with_capacity(spec.n_queries);
    for _ in 0..spec.n_queries {
        let mut patterns = Vec::with_capacity(spec.patterns_per_query);
        for k in 0..spec.patterns_per_query {
            let p = if rng.chance(85, 100) {
                let pool = &pred_pools[rng.below(spec.n_endpoints)];
                pool[rng.below(pool.len())]
            } else {
                miss_preds[rng.below(miss_preds.len())]
            };
            patterns.push(TriplePattern::new(
                vars[k % vars.len()],
                p,
                vars[(k + 1) % vars.len()],
            ));
        }
        queries.push(Query {
            select: SelectList::Star,
            pattern: GroupPattern::from_bgp(&Bgp::new(patterns)),
        });
    }

    // Dense indexes last, sized by the final symbol bound, so every
    // endpoint's candidate lookups take the O(1) path the planner reads.
    let mut planner = FederationPlanner::new();
    for (mut store, term) in stores.into_iter().zip(endpoint_terms) {
        store.build_dense_index(interner.symbol_bound());
        planner.add_endpoint(term, Arc::new(store));
    }
    FederationWorkload {
        interner,
        planner,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparql_rewrite_core::{IndexedRewriter, LinearRewriter, Rewriter};

    #[test]
    fn deterministic_for_a_seed() {
        let spec = WorkloadSpec {
            n_rules: 200,
            patterns_per_query: 8,
            n_queries: 10,
            seed: 42,
            group_shapes: false,
            complex: ComplexShape::None,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.store.len(), b.store.len());
        assert_eq!(a.total_patterns, 80);
    }

    #[test]
    fn group_workload_is_deterministic_and_group_shaped() {
        let spec = WorkloadSpec {
            n_rules: 200,
            patterns_per_query: 8,
            n_queries: 10,
            seed: 42,
            group_shapes: true,
            complex: ComplexShape::None,
        };
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.queries, b.queries);
        assert!(a.total_patterns > 0);
        // Every query carries the full shape mix: none is a flat BGP.
        assert!(a.queries.iter().all(|q| !q.pattern.is_flat()));
        // Multi-template rules exist (second template per eighth predicate).
        assert!(a.store.len() > 200);
    }

    #[test]
    fn zipf_stream_is_deterministic_and_skewed() {
        let spec = ZipfSpec {
            s: 1.0,
            n_distinct: 64,
            n_requests: 4096,
            seed: 99,
        };
        let a = zipf_ranks(&spec);
        let b = zipf_ranks(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4096);
        assert!(a.iter().all(|&r| (r as usize) < 64));
        // Rank 0 must dominate rank 63 by roughly its 64x weight ratio.
        let count = |r: u32| a.iter().filter(|&&x| x == r).count();
        let (head, tail) = (count(0), count(63));
        assert!(head > 10 * tail.max(1), "no skew: head {head}, tail {tail}");
        // s = 0 is uniform-ish: the head must NOT dominate.
        let uniform = zipf_ranks(&ZipfSpec { s: 0.0, ..spec });
        let uhead = uniform.iter().filter(|&&x| x == 0).count();
        assert!(uhead < 4096 / 16, "s=0 stream is skewed: {uhead}");
    }

    #[test]
    fn perturbations_preserve_the_parsed_query() {
        let spec = WorkloadSpec {
            n_rules: 100,
            patterns_per_query: 8,
            n_queries: 8,
            seed: 11,
            group_shapes: true,
            complex: ComplexShape::None,
        };
        let mut w = generate(&spec);
        let texts = w.query_texts();
        let mut rng = Rng::new(5);
        for (text, parsed) in texts.iter().zip(&w.queries) {
            let ws = perturb_whitespace(text, &mut rng);
            assert_eq!(
                &parse_query(&ws, &mut w.interner).expect("whitespace perturbation parses"),
                parsed,
                "whitespace perturbation changed the parse of {text:?}"
            );
            let aliased = alias_prefix(text, "zq", "http://src.example.org/onto/");
            assert_eq!(
                &parse_query(&aliased, &mut w.interner).expect("aliased variant parses"),
                parsed,
                "prefix aliasing changed the parse of {text:?}"
            );
        }
    }

    #[test]
    fn federation_workload_is_deterministic_and_partitions() {
        let spec = FederationSpec {
            n_endpoints: 4,
            rules_per_endpoint: 64,
            n_queries: 24,
            patterns_per_query: 8,
            seed: 21,
        };
        let a = generate_federation(&spec);
        let b = generate_federation(&spec);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.planner.n_endpoints(), 4);
        // Plans are deterministic and the query mix reaches multiple
        // endpoints plus the residual partition across the set.
        let mut multi_endpoint = false;
        let mut any_residual = false;
        let mut ep0_complex = false;
        for q in &a.queries {
            let plan = a
                .planner
                .plan(
                    q.as_ref(),
                    &a.interner,
                    sparql_rewrite_core::RewriteLimits::unbounded(),
                )
                .unwrap();
            let plan_b = b
                .planner
                .plan(
                    q.as_ref(),
                    &b.interner,
                    sparql_rewrite_core::RewriteLimits::unbounded(),
                )
                .unwrap();
            assert_eq!(plan.annotated, plan_b.annotated);
            multi_endpoint |= plan.endpoints.len() >= 2;
            any_residual |= plan.n_residual_patterns > 0;
            // Endpoint 0 serves complex correspondences: when one fires,
            // its SERVICE subquery carries a residual-guard or transform
            // FILTER.
            for ep in &plan.endpoints {
                if ep.endpoint == sparql_rewrite_core::EndpointId(0) {
                    ep0_complex |= ep.subquery.contains("FILTER(");
                }
            }
        }
        assert!(multi_endpoint, "no query spanned two endpoints");
        assert!(any_residual, "no query kept a residual pattern");
        assert!(ep0_complex, "no complex rule fired on endpoint 0");
    }

    #[test]
    fn indexed_and_linear_agree_on_generated_workload() {
        for group_shapes in [false, true] {
            for complex in [
                ComplexShape::None,
                ComplexShape::Guarded,
                ComplexShape::Chain(3),
            ] {
                let spec = WorkloadSpec {
                    n_rules: 500,
                    patterns_per_query: 16,
                    n_queries: 20,
                    seed: 7,
                    group_shapes,
                    complex,
                };
                let w = generate(&spec);
                let indexed = IndexedRewriter::new(&w.store);
                let linear = LinearRewriter::new(&w.store);
                for q in &w.queries {
                    let a = indexed.rewrite_query(q);
                    let b = linear.rewrite_query(q);
                    assert_eq!(a, b, "{group_shapes} {complex:?}");
                }
            }
        }
    }

    #[test]
    fn complex_workloads_emit_residual_filters_and_chains() {
        // Guarded flat-batch traffic mixes concrete and variable objects,
        // so across the batch some guards decide statically and some ride
        // along as residual FILTERs.
        let guarded = generate(&WorkloadSpec {
            n_rules: 200,
            patterns_per_query: 8,
            n_queries: 32,
            seed: 13,
            group_shapes: false,
            complex: ComplexShape::Guarded,
        });
        let indexed = IndexedRewriter::new(&guarded.store);
        let filters = |q: &Query| {
            q.pattern
                .nodes
                .iter()
                .filter(|n| matches!(n, sparql_rewrite_core::PatternNode::Filter { .. }))
                .count()
        };
        let residuals: usize = guarded
            .queries
            .iter()
            .map(|q| filters(&indexed.rewrite_query(q)))
            .sum();
        assert!(residuals > 0, "no guard became a residual FILTER");

        // Chain workloads mint fresh existentials beyond the flat 30%
        // two-pattern chains: depth-4 bodies add three per firing, plus a
        // transform FILTER.
        let chain = generate(&WorkloadSpec {
            n_rules: 200,
            patterns_per_query: 8,
            n_queries: 32,
            seed: 13,
            group_shapes: false,
            complex: ComplexShape::Chain(4),
        });
        let indexed = IndexedRewriter::new(&chain.store);
        let mut grew = false;
        let mut any_filter = false;
        for q in &chain.queries {
            let out = indexed.rewrite_query(q);
            grew |= out.pattern.triples.len() >= q.pattern.triples.len() + 3;
            any_filter |= filters(&out) > 0;
        }
        assert!(grew, "no depth-4 chain fired");
        assert!(any_filter, "no transform FILTER was emitted");

        // Both shapes are deterministic per seed.
        let again = generate(&WorkloadSpec {
            n_rules: 200,
            patterns_per_query: 8,
            n_queries: 32,
            seed: 13,
            group_shapes: false,
            complex: ComplexShape::Chain(4),
        });
        assert_eq!(chain.queries, again.queries);
        assert_eq!(chain.store.len(), again.store.len());
    }

    #[test]
    fn group_workload_rewrites_expand_unions() {
        let spec = WorkloadSpec {
            n_rules: 64,
            patterns_per_query: 12,
            n_queries: 16,
            seed: 3,
            group_shapes: true,
            complex: ComplexShape::None,
        };
        let w = generate(&spec);
        let indexed = IndexedRewriter::new(&w.store);
        // At least one query must hit a double-template predicate and grow
        // an extra UNION beyond the one the query text already contains.
        let extra_unions = w.queries.iter().any(|q| {
            let out = indexed.rewrite_query(q);
            let unions = |qq: &Query| {
                qq.pattern
                    .nodes
                    .iter()
                    .filter(|n| matches!(n, sparql_rewrite_core::PatternNode::Union { .. }))
                    .count()
            };
            unions(&out) > unions(q)
        });
        assert!(extra_unions, "no multi-template UNION expansion fired");
    }
}
