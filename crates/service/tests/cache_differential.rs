//! Cache differential: the semantic cache never changes a decided verdict.
//!
//! One `Service` takes a seeded stream of `DECIDE` requests: fresh pairs;
//! isomorphic variants of earlier pairs (variables renamed, atoms and
//! disjuncts shuffled, semiring spelled by an alias); near misses of earlier
//! pairs (one argument swapped, one relation renamed, one free variable
//! moved); and earlier pairs re-sent with every relation at arity 3, so a
//! name used at arity 2 in one request comes back at arity 3 in a later
//! one.  Every reply must carry the verdict of a fresh `decide_ucq_dyn` on
//! that request, and must say `hit` exactly when an isomorphic pair was
//! asked before over the same semiring — as `are_isomorphic_ucq` judges it
//! over one oracle schema that spells each relation with its arity.

use annot_core::registry::{decide_ucq_dyn, SemiringId};
use annot_hom::are_isomorphic_ucq;
use annot_query::{parser, Schema, Ucq};
use annot_service::proto::format_decision;
use annot_service::Service;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One rule: head variables, then atoms as `(relation, arguments)`.
#[derive(Clone, Debug)]
struct Rule {
    head: Vec<String>,
    atoms: Vec<(String, Vec<String>)>,
}

type Query = Vec<Rule>;

/// The rows the stream draws from, each with an alias an isomorphic
/// variant may use instead.  The small-model rows are left out: their
/// decides dominate an unoptimised test build without exercising the cache
/// any differently.
const ROWS: [(&str, &str); 10] = [
    ("B", "Bool"),
    ("PosBool[X]", "PosBool"),
    ("Fuzzy", "fuzzy"),
    ("Access", "Clearance"),
    ("Lin[X]", "Lineage"),
    ("Why[X]", "why"),
    ("Trio[X]", "Trio"),
    ("B[X]", "BoolPoly"),
    ("N[X]", "NatPoly"),
    ("N", "Bag"),
];

const RELATIONS: [&str; 3] = ["R", "S", "T"];

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// A fresh UCQ of width 1–2 whose rules hold 1–3 binary atoms over a pool
/// of at most four variables, with a common head arity of 0 or 1.
fn fresh_query(rng: &mut StdRng) -> Query {
    let head_arity = rng.gen_range(0..2usize);
    (0..rng.gen_range(1..3usize))
        .map(|_| {
            let pool = rng.gen_range(2..5usize);
            let atoms: Vec<(String, Vec<String>)> = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let name = RELATIONS[rng.gen_range(0..RELATIONS.len())];
                    let args = (0..2)
                        .map(|_| format!("x{}", rng.gen_range(0..pool)))
                        .collect();
                    (name.to_string(), args)
                })
                .collect();
            let used: Vec<&String> = atoms.iter().flat_map(|(_, args)| args).collect();
            let head = (0..head_arity)
                .map(|_| used[rng.gen_range(0..used.len())].clone())
                .collect();
            Rule { head, atoms }
        })
        .collect()
}

/// An isomorphic variant: each rule's variables renamed by a random
/// bijection, its atoms shuffled, and the rules shuffled.
fn iso_variant(q: &Query, rng: &mut StdRng) -> Query {
    let mut rules: Query = q
        .iter()
        .map(|rule| {
            let mut vars: Vec<&String> = rule.atoms.iter().flat_map(|(_, args)| args).collect();
            vars.sort();
            vars.dedup();
            let mut fresh: Vec<usize> = (0..vars.len()).collect();
            shuffle(&mut fresh, rng);
            let rename = |v: &String| {
                let i = vars
                    .iter()
                    .position(|w| *w == v)
                    .expect("variable of the rule");
                format!("y{}", fresh[i])
            };
            let mut atoms: Vec<(String, Vec<String>)> = rule
                .atoms
                .iter()
                .map(|(name, args)| (name.clone(), args.iter().map(rename).collect()))
                .collect();
            shuffle(&mut atoms, rng);
            Rule {
                head: rule.head.iter().map(rename).collect(),
                atoms,
            }
        })
        .collect();
    shuffle(&mut rules, rng);
    rules
}

/// A near miss: one argument swapped, one relation renamed, or one free
/// variable moved.  Usually not isomorphic to the original; the judge, not
/// this function, says whether it is.
fn near_miss(q: &Query, rng: &mut StdRng) -> Query {
    let mut q = q.clone();
    let r = rng.gen_range(0..q.len());
    let a = rng.gen_range(0..q[r].atoms.len());
    let can_move_free = !q[r].head.is_empty();
    match rng.gen_range(0..3) {
        2 if can_move_free => {
            let vars: Vec<String> = q[r].atoms.iter().flat_map(|(_, a)| a.clone()).collect();
            let h = rng.gen_range(0..q[r].head.len());
            q[r].head[h] = vars[rng.gen_range(0..vars.len())].clone();
        }
        1 => {
            let name = &mut q[r].atoms[a].0;
            let others: Vec<&str> = RELATIONS.iter().copied().filter(|n| n != name).collect();
            *name = others[rng.gen_range(0..others.len())].to_string();
        }
        _ => q[r].atoms[a].1.swap(0, 1),
    }
    q
}

/// The same pair with every atom widened to arity 3 (its last argument
/// repeated).
fn at_arity_three(q: &Query) -> Query {
    q.iter()
        .map(|rule| Rule {
            head: rule.head.clone(),
            atoms: rule
                .atoms
                .iter()
                .map(|(name, args)| {
                    let mut args = args.clone();
                    args.push(args[args.len() - 1].clone());
                    (name.clone(), args)
                })
                .collect(),
        })
        .collect()
}

/// Renders a query in the request syntax.  With `arity_tagged`, each
/// relation is spelled with its arity (`R_2`), so one oracle schema holds
/// every request's relations without arity clashes.
fn render(q: &Query, arity_tagged: bool) -> String {
    let rules: Vec<String> = q
        .iter()
        .map(|rule| {
            let atoms: Vec<String> = rule
                .atoms
                .iter()
                .map(|(name, args)| {
                    let name = if arity_tagged {
                        format!("{name}_{}", args.len())
                    } else {
                        name.clone()
                    };
                    format!("{name}({})", args.join(", "))
                })
                .collect();
            format!("Q({}) :- {}", rule.head.join(", "), atoms.join(", "))
        })
        .collect();
    rules.join(" ; ")
}

/// A reply's verdict and cache words.
fn verdict_and_cache(reply: &str) -> (&str, &str) {
    let mut words = reply.split_whitespace();
    assert_eq!(words.next(), Some("OK"), "{reply}");
    let verdict = words.next().expect("verdict");
    let cache = words.next().expect("hit or miss");
    (verdict, cache)
}

#[test]
fn cache_hits_exactly_on_isomorphic_repeats_and_never_changes_a_verdict() {
    let service = Service::new();
    let mut rng = StdRng::seed_from_u64(0xd1ff_cac4e);
    let mut oracle_schema = Schema::new();
    // Pairs asked so far, one per isomorphism class: (row, q1, q2) over the
    // oracle schema.
    let mut asked: Vec<(SemiringId, Ucq, Ucq)> = Vec::new();
    // Every request so far, to draw variants and near misses from.
    let mut history: Vec<(usize, Query, Query)> = Vec::new();
    let (mut hits, mut widened) = (0, 0);
    let requests = 240;
    for step in 0..requests {
        let (row, q1, q2, alias) = match (step, rng.gen_range(0..10)) {
            (0..=9, _) | (_, 0..=3) => {
                let q1 = fresh_query(&mut rng);
                // Half the right-hand sides reuse the left's shape, so both
                // verdicts occur.
                let q2 = if rng.gen_bool(0.5) {
                    near_miss(&q1, &mut rng)
                } else {
                    fresh_query(&mut rng)
                };
                (rng.gen_range(0..ROWS.len()), q1, q2, false)
            }
            (_, kind) => {
                let (row, q1, q2) = history[rng.gen_range(0..history.len())].clone();
                match kind {
                    4..=6 => (
                        row,
                        iso_variant(&q1, &mut rng),
                        iso_variant(&q2, &mut rng),
                        true,
                    ),
                    7 | 8 => {
                        let (q1, q2) = if rng.gen_bool(0.5) {
                            (near_miss(&q1, &mut rng), q2)
                        } else {
                            (q1, near_miss(&q2, &mut rng))
                        };
                        (row, q1, q2, false)
                    }
                    _ => (row, at_arity_three(&q1), at_arity_three(&q2), false),
                }
            }
        };
        let name = if alias { ROWS[row].1 } else { ROWS[row].0 };
        let line = format!(
            "DECIDE {name} {} <= {}",
            render(&q1, false),
            render(&q2, false)
        );
        let reply = service.handle_line(&line).reply().to_string();
        let (verdict, cache) = verdict_and_cache(&reply);

        // The verdict a fresh decide gives on this very request.
        let id = SemiringId::from_name(name).expect("registered row");
        let mut schema = Schema::new();
        let u1 = parser::parse_ucq(&mut schema, &render(&q1, false)).expect("left parses");
        let u2 = parser::parse_ucq(&mut schema, &render(&q2, false)).expect("right parses");
        let fresh = format_decision(&decide_ucq_dyn(id, &u1, &u2), false);
        assert_eq!(
            verdict,
            verdict_and_cache(&fresh).0,
            "step {step}: cached verdict differs from a fresh decide on {line}"
        );

        // Hit exactly when the judge finds an isomorphic pair asked before.
        let o1 = parser::parse_ucq(&mut oracle_schema, &render(&q1, true)).expect("oracle left");
        let o2 = parser::parse_ucq(&mut oracle_schema, &render(&q2, true)).expect("oracle right");
        let seen = asked.iter().any(|(row_id, a1, a2)| {
            *row_id == id && are_isomorphic_ucq(a1, &o1) && are_isomorphic_ucq(a2, &o2)
        });
        assert_eq!(
            cache,
            if seen { "hit" } else { "miss" },
            "step {step}: {line}"
        );
        if seen {
            hits += 1;
        } else {
            asked.push((id, o1, o2));
        }
        widened += usize::from(q1[0].atoms[0].1.len() == 3);
        history.push((row, q1, q2));
    }

    let stats = service.handle_line("STATS").reply().to_string();
    let stat = |key: &str| -> usize {
        stats
            .split_whitespace()
            .find_map(|w| w.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("STATS lacks {key}: {stats}"))
    };
    assert_eq!(stat("hits"), hits, "{stats}");
    assert_eq!(stat("misses"), requests - hits, "{stats}");
    assert_eq!(stat("entries"), asked.len(), "one entry per class: {stats}");
    // The stream exercised both sides of the differential.
    assert!(hits >= 40, "only {hits} hits");
    assert!(requests - hits >= 100, "only {} misses", requests - hits);
    assert!(widened >= 10, "only {widened} arity-3 requests");
}

#[test]
fn one_name_at_two_arities_answers_both_under_distinct_entries() {
    let service = Service::new();
    let binary = "DECIDE B Q() :- R(x, y), R(y, z) <= Q() :- R(u, v)";
    let ternary = "DECIDE B Q() :- R(x, y, y), R(y, z, z) <= Q() :- R(u, v, v)";
    for line in [binary, ternary] {
        let reply = service.handle_line(line).reply().to_string();
        assert!(reply.starts_with("OK contained miss"), "{line}: {reply}");
    }
    // Renamed repeats of each hit their own entry.
    let again = service.handle_line("DECIDE B Q() :- R(a, b, b), R(b, c, c) <= Q() :- R(p, q, q)");
    assert!(
        again.reply().starts_with("OK contained hit"),
        "{}",
        again.reply()
    );
    let stats = service.handle_line("STATS").reply().to_string();
    assert!(stats.contains(" entries=2 "), "{stats}");
}
