//! Self-tests of the benchmark itself: deterministic inputs, a checker
//! that rejects wrong replies, and a stage-sum check that notices a
//! missing stage. Run with
//! `cargo test --release --manifest-path servebench/Cargo.toml`.

use sparql_rewrite_core::{parse_query_into, ParseScratch, RewriteLimits};

use crate::gen::{generate, Workload};
use crate::hash64;
use crate::setup::{build_engine, build_planner, member_echo, member_iris};
use crate::trace::{self_time, stage_sum_ok, stage_sum_ratio, Name, Span, SpanBuf};
use crate::verify::{envelope_expect, expected, Expect};

fn input_digest(w: Workload, seed: u64) -> (u64, u64) {
    let inputs = generate(w, seed);
    let mut bytes = inputs.rules.clone().into_bytes();
    for r in &inputs.requests {
        bytes.extend_from_slice(r);
    }
    for q in &inputs.stream {
        bytes.extend_from_slice(&q.to_le_bytes());
    }
    (hash64(&bytes), expected(&inputs, seed).digest())
}

#[test]
fn same_seed_gives_identical_requests_and_expected_answers() {
    for w in Workload::ALL {
        let a = input_digest(w, 7);
        assert_eq!(a, input_digest(w, 7), "{} is not deterministic", w.name());
        assert_ne!(a.0, input_digest(w, 8).0, "{} ignores its seed", w.name());
    }
}

#[test]
fn checker_rejects_a_corrupted_body() {
    let inputs = generate(Workload::ColdUnique, 3);
    let expect = expected(&inputs, 3);
    let engine = build_engine(&inputs.rules, None);
    let mut scratch = engine.scratch();
    let body = engine
        .serve(&inputs.queries[5], &mut scratch)
        .unwrap()
        .to_string();
    assert!(expect.check(5, 200, body.as_bytes()));
    let mut corrupted = body.clone().into_bytes();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0x20;
    assert!(!expect.check(5, 200, &corrupted));
    assert!(!expect.check(5, 200, &body.as_bytes()[..body.len() - 1]));
    assert!(!expect.check(5, 503, body.as_bytes()));
    assert!(
        !expect.check(6, 200, body.as_bytes()),
        "another query's rewrite"
    );
}

/// The envelope the server renders for query 0 of a federated input, in
/// the server's field order, with one endpoint optionally degraded.
fn envelope(degrade: Option<usize>) -> (Expect, String) {
    let inputs = generate(Workload::FederatedFanout, 3);
    let expect = expected(&inputs, 3);
    let (planner, mut interner) = build_planner(&inputs.rules);
    let iris = member_iris(&planner, &interner);
    let mut parse = ParseScratch::new();
    parse_query_into(&inputs.queries[0], &mut interner, &mut parse).unwrap();
    let plan = planner
        .plan_for_dispatch(parse.query_ref(), &interner, RewriteLimits::default())
        .unwrap();
    assert!(plan.endpoints.len() >= 2, "test query must fan out");
    let entries: Vec<String> = plan
        .endpoints
        .iter()
        .enumerate()
        .map(|(i, ep)| {
            let e = ep.endpoint.0 as usize;
            if degrade == Some(i) {
                format!(
                    "{{\"id\":{e},\"iri\":\"{}\",\"outcome\":\"timed-out\",\"attempts\":1}}",
                    iris[e]
                )
            } else {
                format!(
                    "{{\"id\":{e},\"iri\":\"{}\",\"outcome\":\"served\",\"attempts\":1,\"rows\":\"{}\"}}",
                    iris[e],
                    member_echo(e, ep.subquery.as_bytes())
                )
            }
        })
        .collect();
    let body = format!(
        "{{\"partial\":{},\"residual_patterns\":{},\"endpoints\":[{}]}}",
        degrade.is_some(),
        plan.n_residual_patterns,
        entries.join(",")
    );
    // The offline expectation and this plan agree by construction.
    let local = envelope_expect(plan.n_residual_patterns, &plan.endpoints);
    assert!(crate::verify::check_envelope(&local, body.as_bytes()) == degrade.is_none());
    (expect, body)
}

#[test]
fn checker_rejects_a_partial_envelope() {
    let (expect, complete) = envelope(None);
    assert!(expect.check(0, 200, complete.as_bytes()));
    let with_extra = complete.replacen("{\"partial\"", "{\"request_id\":\"r1\",\"partial\"", 1);
    assert!(
        expect.check(0, 200, with_extra.as_bytes()),
        "fields the checker does not know about are tolerated"
    );
    let (_, partial) = envelope(Some(1));
    assert!(!expect.check(0, 200, partial.as_bytes()));
    let wrong_echo = complete.replacen("\"rows\":\"m", "\"rows\":\"x", 1);
    assert!(!expect.check(0, 200, wrong_echo.as_bytes()));
    assert!(!expect.check(0, 502, complete.as_bytes()));
}

#[test]
fn stage_sum_check_fails_when_a_stage_is_dropped() {
    let inputs = generate(Workload::ColdUnique, 3);
    let Expect::Rewrite(hashes) = expected(&inputs, 3) else {
        panic!("single-store workload");
    };
    let spans = SpanBuf::new(64_000);
    let counts = crate::trace::replay_store(&inputs, Some(&hashes), 3_000, &spans);
    assert_eq!(counts.mismatches, 0);
    let all = spans.spans();
    let whole = stage_sum_ratio(&all, None);
    assert!(
        stage_sum_ok(whole),
        "complete replay out of tolerance: {whole}"
    );
    for dropped in [Name::Parse, Name::Render] {
        let ratio = stage_sum_ratio(&all, Some(dropped));
        assert!(
            !stage_sum_ok(ratio),
            "dropping {} left the ratio in tolerance: {ratio}",
            dropped.label()
        );
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let parent = Span {
        req: 0,
        name: Name::Execute,
        parent: u64::MAX,
        start_ns: 100,
        end_ns: 200,
    };
    // Two overlapping children (110..150, 140..170) and one past the end.
    let mut kids = vec![(140, 170), (110, 150), (190, 260)];
    assert_eq!(self_time(&parent, &mut kids), 100 - 60 - 10);
}

#[test]
fn histogram_median_interpolates_inside_its_bin() {
    let mut bins = [0u64; sparql_rewrite_server::LATENCY_BINS];
    bins[3] = 10; // [8192, 16384) ns
    let m = crate::trace::histogram_median_us(&bins);
    assert!((m - 12.288).abs() < 1e-9, "{m}");
}
