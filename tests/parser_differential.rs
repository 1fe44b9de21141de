//! The one-pass parser against the parser it replaced.
//!
//! `parser_differential/reference.rs` holds that parser unchanged but for
//! its imports.  On seeded rule texts spliced from query fragments —
//! heads, `:-`, atoms of arity 0–3, inequalities, separators, brackets,
//! ASCII and Unicode whitespace, identifier characters and a non-ASCII
//! letter — and on well-formed UCQs from `annot_query::generator`,
//! `parse_cq`, `parse_ccq` and `parse_ucq` must agree with the reference on
//! success versus failure.  On success the values, their variable names and
//! the schema's relation list must be equal; on failure the schema must be
//! unchanged.  Error wording may differ.

#[path = "parser_differential/reference.rs"]
mod reference;

use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{parser, Cq, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;

/// Fragments the noisy texts are spliced from.
const FRAGMENTS: &[&str] = &[
    "Q()", "Q(x, y)", ":-", "x != y", ",", ",,", ";", "\n", "(", ")", "\t", "\u{a0}", "\u{2003}",
    "'", "_", "λ",
];
const VARS: &[&str] = &["x", "y", "z", "x'", "_w", "0"];
const RELATIONS: &[&str] = &["R", "S", "T"];
const HEADS: &[&str] = &["Q()", "Q(x)", "Q(x, y)", "Q(y, y)", "Q( )"];
const GAPS: &[&str] = &["", " ", " ", "\t", "\u{a0}", "\u{2003}"];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// An atom over the shared relation and variable pools, of arity 0–3.
fn atom(rng: &mut StdRng) -> String {
    let relation = rng.gen_range(0..RELATIONS.len());
    let arity = rng.gen_range(0..4usize);
    atom_of(rng, relation, arity)
}

fn atom_of(rng: &mut StdRng, relation: usize, arity: usize) -> String {
    let args: Vec<&str> = (0..arity).map(|_| pick(rng, VARS)).collect();
    format!("{}({})", RELATIONS[relation], args.join(", "))
}

/// One or two rules built token by token, with one head and each relation
/// mostly at one arity, then perhaps mutated by splicing fragments between
/// or inside tokens, deleting or replacing tokens, joined with random gaps.
fn rule_text(rng: &mut StdRng) -> String {
    let arities: Vec<usize> = RELATIONS.iter().map(|_| rng.gen_range(0..4usize)).collect();
    let head = if rng.gen_bool(0.6) {
        "Q()"
    } else {
        pick(rng, HEADS)
    };
    let mut tokens: Vec<String> = Vec::new();
    for rule in 0..rng.gen_range(1..3usize) {
        if rule > 0 {
            tokens.push(pick(rng, &[";", "\n", " ; "]).to_string());
        }
        tokens.push(head.to_string());
        tokens.push(":-".to_string());
        for literal in 0..rng.gen_range(1..5usize) {
            if literal > 0 {
                tokens.push(pick(rng, &[",", ",", ",,", ", "]).to_string());
            }
            if rng.gen_bool(0.1) {
                tokens.push(format!("{} != {}", pick(rng, VARS), pick(rng, VARS)));
            } else if rng.gen_bool(0.05) {
                tokens.push(atom(rng));
            } else {
                let relation = rng.gen_range(0..RELATIONS.len());
                tokens.push(atom_of(rng, relation, arities[relation]));
            }
        }
    }
    if rng.gen_bool(0.5) {
        for _ in 0..rng.gen_range(1..3usize) {
            let at = rng.gen_range(0..=tokens.len());
            match rng.gen_range(0..4) {
                0 => tokens.insert(at, pick(rng, FRAGMENTS).to_string()),
                1 if at < tokens.len() => drop(tokens.remove(at)),
                2 if at < tokens.len() => tokens[at] = pick(rng, FRAGMENTS).to_string(),
                3 if at < tokens.len() => {
                    // Inside a token: `R(x,,)`, `R(x;y)`, `Q\u{a0}()`.
                    let token = &mut tokens[at];
                    let cuts: Vec<usize> = token.char_indices().map(|(i, _)| i).collect();
                    let cut = cuts[rng.gen_range(0..cuts.len())];
                    token.insert_str(cut, pick(rng, FRAGMENTS));
                }
                _ => {}
            }
        }
    }
    let mut text = String::new();
    for token in tokens {
        text.push_str(pick(rng, GAPS));
        text.push_str(&token);
    }
    text
}

/// One to twelve fragments and atoms in any order.
fn soup(rng: &mut StdRng) -> String {
    (0..rng.gen_range(1..13usize))
        .map(|_| {
            if rng.gen_bool(0.3) {
                atom(rng)
            } else {
                pick(rng, FRAGMENTS).to_string()
            }
        })
        .collect()
}

/// A well-formed UCQ of the generator, its members printed and joined.
fn generated(rng: &mut StdRng) -> String {
    let shape = [QueryShape::Chain, QueryShape::Star, QueryShape::Random][rng.gen_range(0..3usize)];
    let mut generator = QueryGenerator::new(GeneratorConfig {
        num_atoms: rng.gen_range(1..5),
        shape,
        num_relations: rng.gen_range(1..4),
        var_pool: rng.gen_range(2..6),
        free_vars: rng.gen_range(0..2),
        seed: rng.gen_range(0..u64::MAX),
    });
    let members = generator.ucq(rng.gen_range(1..4));
    let texts: Vec<String> = members.disjuncts().iter().map(Cq::to_string).collect();
    texts.join(" ; ")
}

fn relations(schema: &Schema) -> Vec<(String, usize)> {
    schema
        .rel_ids()
        .map(|r| (schema.name(r).to_string(), schema.arity(r)))
        .collect()
}

/// Parses `input` from `base` with both parsers and asserts that they
/// agree; returns whether it parsed.
fn agree<T: PartialEq + Debug, E1: Debug, E2: Debug>(
    base: &Schema,
    input: &str,
    new: impl Fn(&mut Schema, &str) -> Result<T, E1>,
    old: impl Fn(&mut Schema, &str) -> Result<T, E2>,
    names: impl Fn(&T) -> Vec<&[String]>,
) -> bool {
    let (mut new_schema, mut old_schema) = (base.clone(), base.clone());
    match (new(&mut new_schema, input), old(&mut old_schema, input)) {
        (Ok(parsed), Ok(reference)) => {
            assert_eq!(parsed, reference, "{input:?}");
            assert_eq!(names(&parsed), names(&reference), "{input:?}");
            assert_eq!(relations(&new_schema), relations(&old_schema), "{input:?}");
            true
        }
        (Err(_), Err(_)) => {
            assert_eq!(relations(&new_schema), relations(base), "{input:?}");
            assert_eq!(relations(&old_schema), relations(base), "{input:?}");
            false
        }
        (parsed, reference) => {
            panic!("{input:?}: parsed {parsed:?}, the reference {reference:?}")
        }
    }
}

/// Checks all three entry points on `input`; returns how many parsed.
fn check(base: &Schema, input: &str) -> usize {
    let cq = agree(base, input, parser::parse_cq, reference::parse_cq, |q| {
        vec![q.var_names()]
    });
    let ccq = agree(base, input, parser::parse_ccq, reference::parse_ccq, |q| {
        vec![q.cq().var_names()]
    });
    let ucq = agree(base, input, parser::parse_ucq, reference::parse_ucq, |u| {
        u.disjuncts().iter().map(Cq::var_names).collect()
    });
    usize::from(cq) + usize::from(ccq) + usize::from(ucq)
}

#[test]
fn the_one_pass_parser_agrees_with_the_reference() {
    let bases = [
        Schema::new(),
        Schema::with_relations([("R", 2)]),
        Schema::with_relations([("S", 1), ("T", 0), ("R0", 2)]),
    ];
    let mut rng = StdRng::seed_from_u64(0x9a55);
    let (mut inputs, mut parsed) = (0usize, 0usize);
    for round in 0..9_000 {
        let input = match round % 3 {
            0 => rule_text(&mut rng),
            1 => soup(&mut rng),
            _ => generated(&mut rng),
        };
        let base = &bases[rng.gen_range(0..bases.len())];
        parsed += check(base, &input);
        inputs += 1;
    }
    eprintln!(
        "{inputs} inputs, {parsed} of {} parses succeeded",
        3 * inputs
    );
    // Both outcomes must be common for the comparison to mean anything.
    assert!(parsed > inputs / 2, "{parsed} parses succeeded");
    assert!(parsed < 2 * inputs, "{parsed} parses succeeded");
}
