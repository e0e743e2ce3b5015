//! End-to-end serve-pipeline property tests: parse → rewrite → render,
//! twice, over random group-shaped queries.
//!
//! With an **idempotent** rule set — every rule maps source vocabulary to
//! target vocabulary and no rule's output is any rule's input, the offline
//! composition discipline the paper assumes (§4) — the pipeline must be a
//! textual fixpoint: feeding the rendered rewrite back through
//! parse → rewrite → render reproduces the text byte for byte. The second
//! pass sees only target vocabulary (nothing fires) plus `?g{n}` names for
//! the first pass's existentials (parsed as ordinary variables, renamed by
//! nothing, re-rendered identically).

use sparql_rewrite_core::{
    parse_bgp, parse_query_into, render_query_into, AlignmentStore, IndexedRewriter, Interner,
    ParseScratch, QueryRef, RewriteScratch, Rewriter,
};

mod common;
use common::{random_group_query_text, Rng};

/// Idempotent rule set over the shared generator's vocabulary
/// (`http://ex/p0..11`, `http://ex/e0..19`): targets live under
/// `http://out/`, which no rule matches.
fn idempotent_rules(it: &mut Interner) -> AlignmentStore {
    let mut store = AlignmentStore::new();
    for i in 0..12 {
        let lhs = parse_bgp(&format!("?s <http://ex/p{i}> ?o"), it)
            .unwrap()
            .patterns[0];
        let rhs = match i % 3 {
            // 1:1 rename.
            0 => {
                parse_bgp(&format!("?s <http://out/p{i}> ?o"), it)
                    .unwrap()
                    .patterns
            }
            // 1:2 chain introducing an existential.
            1 => {
                parse_bgp(
                    &format!("?s <http://out/p{i}h> ?m . ?m <http://out/p{i}t> ?o"),
                    it,
                )
                .unwrap()
                .patterns
            }
            // Leave every third predicate unmapped... except multi-template
            // below.
            _ => continue,
        };
        store.add_predicate(lhs, rhs).unwrap();
        if i % 4 == 0 {
            // Second template on the same predicate: rewrites expand into a
            // two-branch UNION.
            let alt = parse_bgp(&format!("?s <http://out/alt{i}> ?o"), it)
                .unwrap()
                .patterns;
            store.add_predicate(lhs, alt).unwrap();
        }
    }
    for e in (0..20).step_by(2) {
        let from = parse_bgp(&format!("?x <http://ex/e{e}> ?y"), it)
            .unwrap()
            .patterns[0]
            .p;
        let to = parse_bgp(&format!("?x <http://out/e{e}> ?y"), it)
            .unwrap()
            .patterns[0]
            .p;
        store.add_entity(from, to).unwrap();
    }
    store
}

struct Pipeline {
    interner: Interner,
    parse: ParseScratch,
    rewrite: RewriteScratch,
    fresh_base: String,
    out: String,
}

impl Pipeline {
    fn serve<R: Rewriter>(&mut self, rewriter: &R, text: &str) -> &str {
        parse_query_into(text, &mut self.interner, &mut self.parse).expect("pipeline input parses");
        rewriter.rewrite_ref_into(self.parse.query_ref(), &mut self.rewrite);
        render_query_into(
            QueryRef {
                select: self.rewrite.select(),
                pattern: self.rewrite.pattern(),
            },
            &self.interner,
            &mut self.fresh_base,
            &mut self.out,
        );
        &self.out
    }
}

#[test]
fn pipeline_is_a_fixpoint_for_idempotent_rules() {
    let mut interner = Interner::new();
    let mut store = idempotent_rules(&mut interner);
    store.build_dense_index(interner.symbol_bound());
    let rewriter = IndexedRewriter::new(&store);
    let mut pipe = Pipeline {
        interner,
        parse: ParseScratch::new(),
        rewrite: RewriteScratch::new(),
        fresh_base: String::new(),
        out: String::new(),
    };
    for seed in 1..=40u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let text = random_group_query_text(&mut rng);
        let once = pipe.serve(&rewriter, &text).to_string();
        let twice = pipe.serve(&rewriter, &once).to_string();
        assert_eq!(
            once, twice,
            "seed {seed}: pipeline must be a fixpoint\n--- input ---\n{text}"
        );
        // And the fixpoint is stable: a third pass changes nothing either.
        let thrice = pipe.serve(&rewriter, &twice).to_string();
        assert_eq!(twice, thrice, "seed {seed}");
    }
}

#[test]
fn pipeline_matches_owned_type_path() {
    // The scratch pipeline and the allocating convenience path
    // (parse_query → rewrite_query → display) must produce identical text.
    let mut interner = Interner::new();
    let mut store = idempotent_rules(&mut interner);
    store.build_dense_index(interner.symbol_bound());
    let rewriter = IndexedRewriter::new(&store);
    let mut pipe = Pipeline {
        interner: interner.clone(),
        parse: ParseScratch::new(),
        rewrite: RewriteScratch::new(),
        fresh_base: String::new(),
        out: String::new(),
    };
    for seed in 50..=70u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let text = random_group_query_text(&mut rng);
        let via_scratch = pipe.serve(&rewriter, &text).to_string();
        let parsed = sparql_rewrite_core::parse_query(&text, &mut interner).unwrap();
        let via_owned = rewriter
            .rewrite_query(&parsed)
            .display(&interner)
            .to_string();
        assert_eq!(via_scratch, via_owned, "seed {seed}\n{text}");
    }
}
