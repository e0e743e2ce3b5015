//! Fingerprint soundness: equal canonical fingerprints must imply equal
//! parses. The rewrite cache keys rendered rewrites by
//! [`fingerprint_query`], so a false merge would silently serve one query's
//! rewrite for another.
//!
//! Random group queries are re-spelled in every way the canonicalizer
//! folds — whitespace, comments, keyword case, `$`/`?` sigils, PREFIX
//! aliases (renamed, unused, shadowed) — and each re-spelling must keep
//! both the fingerprint and the parse. Single-token mutations — an IRI
//! byte, literal content, variable case, `;` for `.`, a language tag
//! against a datatype — must change the fingerprint unless they leave the
//! parse unchanged.

use sparql_rewrite_core::{fingerprint_query, parse_query, Interner, Query};

mod common;
use common::{random_group_query_text, Rng};

/// The generator's vocabulary namespace, the one PREFIX aliases stand for.
const NS: &str = "http://ex/";

const KEYWORDS: [&str; 6] = ["SELECT", "WHERE", "OPTIONAL", "UNION", "FILTER", "SERVICE"];

fn parse(text: &str, it: &mut Interner) -> Option<Query> {
    parse_query(text, it).ok()
}

fn pick<'a>(rng: &mut Rng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

/// A separator the canonicalizer must collapse: whitespace runs and
/// comments, the latter carrying bytes that would matter outside one.
fn separator(rng: &mut Rng) -> String {
    match rng.below(8) {
        0 => "\n".into(),
        1 => "\t".into(),
        2 => "   ".into(),
        3 => " \r\n\t ".into(),
        4 => format!(
            " # {} \n",
            pick(
                rng,
                &["note", "} { ?x <http://q> \"", "PREFIX ex: <http://other/>"]
            )
        ),
        _ => " ".into(),
    }
}

/// `SELECT` → `sElEcT`, one random case per letter.
fn random_case(word: &str, rng: &mut Rng) -> String {
    word.chars()
        .map(|c| {
            if rng.below(2) == 0 {
                c.to_ascii_lowercase()
            } else {
                c
            }
        })
        .collect()
}

/// Re-spell `text` (single-space separated, full IRIs, `?` sigils,
/// uppercase keywords — the generator's form) without changing its
/// meaning.
fn respell(text: &str, rng: &mut Rng) -> String {
    let alias = pick(rng, &["ex", "e", "zz", "a1", "Ex"]);
    let mut prologue = String::new();
    if rng.below(2) == 0 {
        prologue.push_str("PREFIX other: <http://other/> ");
    }
    if rng.below(3) == 0 {
        // Shadowed: the later declaration wins.
        prologue.push_str(&format!("PREFIX {alias}: <http://other/> "));
    }
    prologue.push_str(&format!("{} {alias}: <{NS}> ", random_case("PREFIX", rng)));

    let mut tokens = Vec::new();
    for token in text.split(' ').filter(|t| !t.is_empty()) {
        let mut token = token.to_string();
        for kw in KEYWORDS {
            if let Some(rest) = token.strip_prefix(kw) {
                token = random_case(kw, rng) + rest;
            }
        }
        if let Some(start) = token.find(&format!("<{NS}")) {
            if rng.below(2) == 0 {
                let end = start + token[start..].find('>').expect("closed IRI");
                let local = &token[start + 1 + NS.len()..end];
                token = format!("{}{alias}:{local}{}", &token[..start], &token[end + 1..]);
            }
        }
        let token: String = token
            .chars()
            .map(|c| {
                if c == '?' && rng.below(2) == 0 {
                    '$'
                } else {
                    c
                }
            })
            .collect();
        tokens.push(token);
    }

    let mut out = separator(rng);
    out.push_str(&prologue);
    for token in tokens {
        out.push_str(&token);
        out.push_str(&separator(rng));
    }
    out
}

/// A single-token mutation; `None` when the query has no token of its
/// kind.
type Mutation = fn(&str, &mut Rng) -> Option<String>;

const MUTATIONS: [(&str, Mutation); 5] = [
    ("iri byte", mutate_iri_byte),
    ("literal content", mutate_literal_content),
    ("variable case", mutate_variable_case),
    ("semicolon for dot", mutate_dot_to_semicolon),
    ("lang tag vs datatype", mutate_lang_tag),
];

/// Replace one random token satisfying `applies` with `edit(token)`.
fn mutate_one(
    text: &str,
    rng: &mut Rng,
    applies: impl Fn(&str) -> bool,
    edit: impl FnOnce(&str, &mut Rng) -> String,
) -> Option<String> {
    let tokens: Vec<&str> = text.split(' ').collect();
    let hits: Vec<usize> = (0..tokens.len()).filter(|&i| applies(tokens[i])).collect();
    if hits.is_empty() {
        return None;
    }
    let at = hits[rng.below(hits.len())];
    let edited = edit(tokens[at], rng);
    let mut out: Vec<&str> = tokens.clone();
    out[at] = &edited;
    Some(out.join(" "))
}

/// Change one byte of an IRI's local name to another IRI byte.
fn mutate_iri_byte(text: &str, rng: &mut Rng) -> Option<String> {
    mutate_one(
        text,
        rng,
        |t| t.contains(&format!("<{NS}")),
        |t, rng| {
            let start = t.find(&format!("<{NS}")).unwrap() + 1 + NS.len();
            let end = t.find('>').unwrap();
            let at = start + rng.below(end - start);
            let old = t.as_bytes()[at] as char;
            let new = if old == 'q' { 'P' } else { 'q' };
            format!("{}{new}{}", &t[..at], &t[at + 1..])
        },
    )
}

/// Change a string literal's body or a numeric literal's digits.
fn mutate_literal_content(text: &str, rng: &mut Rng) -> Option<String> {
    mutate_one(
        text,
        rng,
        |t| t.starts_with('"') || t.trim_end_matches(')').parse::<f64>().is_ok(),
        |t, rng| {
            if let Some(body) = t.strip_prefix('"') {
                let close = body.find('"').unwrap();
                let edit = pick(rng, &["X", "x", "0"]);
                format!("\"{}{edit}\"{}", &body[..close], &body[close + 1..])
            } else {
                format!("1{t}")
            }
        },
    )
}

/// `?v3` → `?V3`: variables are case-sensitive.
fn mutate_variable_case(text: &str, rng: &mut Rng) -> Option<String> {
    mutate_one(
        text,
        rng,
        |t| t.contains("?v"),
        |t, _| t.replacen("?v", "?V", 1),
    )
}

/// A triple separator `.` becomes a predicate-object separator `;`.
fn mutate_dot_to_semicolon(text: &str, rng: &mut Rng) -> Option<String> {
    mutate_one(text, rng, |t| t == ".", |_, _| ";".into())
}

/// Swap a language tag for a datatype or another tag, or tag a plain
/// literal.
fn mutate_lang_tag(text: &str, rng: &mut Rng) -> Option<String> {
    mutate_one(
        text,
        rng,
        |t| t.starts_with('"'),
        |t, rng| {
            let close = 1 + t[1..].find('"').unwrap();
            let end = t.trim_end_matches(')').len();
            let (lit, suffix, parens) = (&t[..=close], &t[close + 1..end], &t[end..]);
            let options: Vec<&str> = ["", "@en", "@en-GB", "^^<http://ex/en-GB>"]
                .into_iter()
                .filter(|s| !s.eq_ignore_ascii_case(suffix))
                .collect();
            format!("{lit}{}{parens}", pick(rng, &options))
        },
    )
}

#[test]
fn respellings_keep_fingerprint_and_parse() {
    let mut it = Interner::new();
    for seed in 1..=300u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let text = random_group_query_text(&mut rng);
        let fp = fingerprint_query(&text);
        assert!(fp.is_some(), "seed {seed}: uncacheable original\n{text}");
        let parsed = parse(&text, &mut it);
        assert!(
            parsed.is_some(),
            "seed {seed}: unparseable original\n{text}"
        );
        for _ in 0..6 {
            let other = respell(&text, &mut rng);
            assert_eq!(
                fingerprint_query(&other),
                fp,
                "seed {seed}: re-spelling changed the fingerprint\n{text}\n{other}"
            );
            assert_eq!(
                parse(&other, &mut it),
                parsed,
                "seed {seed}: re-spelling changed the parse\n{text}\n{other}"
            );
        }
    }
}

#[test]
fn single_token_mutations_never_merge_distinct_parses() {
    let mut it = Interner::new();
    let mut applied = [0usize; MUTATIONS.len()];
    let mut split = 0usize;
    for seed in 1..=300u64 {
        let mut rng = Rng(seed.wrapping_mul(0xd1b5_4a32_d192_ed03));
        let text = random_group_query_text(&mut rng);
        let fp = fingerprint_query(&text);
        let parsed = parse(&text, &mut it);
        for (k, (name, mutate)) in MUTATIONS.iter().enumerate() {
            let Some(other) = mutate(&text, &mut rng) else {
                continue;
            };
            assert_ne!(other, text, "{name}: mutation changed nothing");
            applied[k] += 1;
            // Re-spell the mutant too, so a merge cannot hide behind an
            // unnormalized byte the original happened to share.
            let other = if rng.below(2) == 0 {
                respell(&other, &mut rng)
            } else {
                other
            };
            if fingerprint_query(&other) == fp {
                assert_eq!(
                    parse(&other, &mut it),
                    parsed,
                    "seed {seed}: {name} mutation merged two distinct queries\n{text}\n{other}"
                );
            } else {
                split += 1;
            }
        }
    }
    for (k, (name, _)) in MUTATIONS.iter().enumerate() {
        assert!(applied[k] >= 50, "{name} applied only {} times", applied[k]);
    }
    assert!(
        split > 1000,
        "only {split} mutations changed the fingerprint"
    );
}
