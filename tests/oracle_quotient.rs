//! From-first-principles pins of the symmetry-quotiented oracle walk (PR 9).
//!
//! The production code computes the quotiented instance count with a
//! Burnside/cycle-index closed form ([`quotiented_instance_count`]) and
//! prunes the walk with a lex-minimality test against precomputed slot
//! permutation tables.  This suite rebuilds the orbit profile from scratch —
//! its own slot list (relation order, lexicographic tuples over the `Int`
//! domain), its own `d!` permutation generator, and a direct orbit count
//! over explicit support subsets — and holds three things to it:
//!
//! * the shipped closed form agrees with the independent enumeration;
//! * an irrefutable **direct** walk (scalar `ℕ`) visits exactly
//!   `Σ_{k≤cap} orbits(k)·sᵏ` instances;
//! * an irrefutable **factorized** walk (heap-carrying `Lin[X]`, `Why[X]`)
//!   accounts exactly the same closed form.
//!
//! Nothing here imports the oracle's own permutation tables: a bug that
//! warped both the pruning predicate and the closed form the same way would
//! still be caught, because the expected numbers come from this file's own
//! group action.

use annot_core::brute_force::{
    quotiented_instance_count, try_find_counterexample, BruteForceConfig,
};
use annot_query::{parser, Schema};
use annot_semiring::{Lineage, Natural, Semiring, Why};
use std::collections::HashSet;

/// All permutations of `0..d`, built recursively.
fn permutations(d: usize) -> Vec<Vec<usize>> {
    fn extend(prefix: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == used.len() {
            out.push(prefix.clone());
            return;
        }
        for v in 0..used.len() {
            if !used[v] {
                used[v] = true;
                prefix.push(v);
                extend(prefix, used, out);
                prefix.pop();
                used[v] = false;
            }
        }
    }
    let mut out = Vec::new();
    extend(&mut Vec::new(), &mut vec![false; d], &mut out);
    out
}

/// The orbit profile `orbits(k)` for `k ≤ cap`: the number of orbits of
/// `k`-element slot sets under the domain-permutation action, counted by
/// enumerating every support subset and keeping one canonical (minimal
/// sorted image) representative per orbit.  Slots are abstract
/// `(relation, digit-tuple)` pairs — no oracle internals involved.
fn orbit_profile(rels: &[(&str, usize)], d: usize, cap: usize) -> Vec<u128> {
    let mut slots: Vec<(usize, Vec<usize>)> = Vec::new();
    for (r, &(_, arity)) in rels.iter().enumerate() {
        for code in 0..d.pow(arity as u32) {
            let mut digits = vec![0usize; arity];
            let mut c = code;
            for j in (0..arity).rev() {
                digits[j] = c % d;
                c /= d;
            }
            slots.push((r, digits));
        }
    }
    let n = slots.len();
    assert!(n < 32, "bitmask enumeration needs n < 32");
    let perms = permutations(d);
    let cap = cap.min(n);
    let mut orbits = vec![0u128; cap + 1];
    let mut seen: HashSet<Vec<(usize, Vec<usize>)>> = HashSet::new();
    for mask in 0u32..(1u32 << n) {
        let k = mask.count_ones() as usize;
        if k > cap {
            continue;
        }
        let subset: Vec<&(usize, Vec<usize>)> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| &slots[i])
            .collect();
        let canonical = perms
            .iter()
            .map(|p| {
                let mut image: Vec<(usize, Vec<usize>)> = subset
                    .iter()
                    .map(|(r, digits)| (*r, digits.iter().map(|&x| p[x]).collect()))
                    .collect();
                image.sort();
                image
            })
            .min()
            .expect("the permutation group is never empty");
        if seen.insert(canonical) {
            orbits[k] += 1;
        }
    }
    orbits
}

/// Pins one workload: the shipped closed form and the walk's visit counter
/// against this file's independent orbit enumeration, at every cap up to
/// `max_cap`.
fn pin_quotiented_walk<K: Semiring>(
    rels: &[(&str, usize)],
    d: usize,
    query_src: &str,
    max_cap: usize,
) {
    let mut schema = Schema::with_relations(rels.iter().copied());
    let q = parser::parse_ucq(&mut schema, query_src).unwrap();
    let s = K::decisive_samples()
        .into_iter()
        .filter(|k| !k.is_zero())
        .count();
    for cap in 0..=max_cap {
        let orbits = orbit_profile(rels, d, cap);
        let expected: u128 = orbits
            .iter()
            .enumerate()
            .map(|(k, &count)| count * (s as u128).pow(k as u32))
            .sum();
        assert_eq!(
            quotiented_instance_count(&schema, d, s, cap),
            expected,
            "{}: domain {d}, cap {cap}: Burnside closed form disagrees with the \
             independent orbit enumeration",
            K::NAME
        );
        let config = BruteForceConfig {
            domain_size: d,
            max_support: cap,
            ..Default::default()
        };
        let outcome = try_find_counterexample::<K>(&q, &q, &config).unwrap();
        assert!(outcome.counterexample.is_none(), "Q ⊆ Q must hold");
        assert_eq!(
            outcome.stats.instances_visited,
            expected as u64,
            "{}: domain {d}, cap {cap}: quotiented walk drifted from the orbit closed form",
            K::NAME
        );
    }
}

/// The permutation generator produces exactly `d!` distinct permutations —
/// the orbit profiles below are only meaningful if the group is complete.
#[test]
fn permutation_generator_is_complete() {
    for d in 1..=4usize {
        let perms = permutations(d);
        let expected: usize = (1..=d).product();
        assert_eq!(perms.len(), expected, "d = {d}");
        let distinct: HashSet<_> = perms.iter().collect();
        assert_eq!(distinct.len(), expected, "d = {d}: duplicates");
    }
}

/// Hand-checked profile: domain 2, one binary relation (4 slots, group of
/// order 2 whose non-identity element is a product of two 2-cycles) gives
/// orbits(k) = 1, 2, 4, 2, 1 — the worked example in the module docs.
#[test]
fn binary_relation_domain_2_profile_is_hand_checked() {
    assert_eq!(orbit_profile(&[("R", 2)], 2, 4), vec![1, 2, 4, 2, 1]);
}

#[test]
fn direct_walk_visits_the_orbit_closed_form_domain_2() {
    pin_quotiented_walk::<Natural>(&[("R", 2)], 2, "Q() :- R(u, v), R(v, w)", 4);
}

#[test]
fn direct_walk_visits_the_orbit_closed_form_domain_3() {
    pin_quotiented_walk::<Natural>(&[("R", 2)], 3, "Q() :- R(u, v), R(v, w)", 3);
}

#[test]
fn factorized_walk_accounts_the_orbit_closed_form_lineage() {
    pin_quotiented_walk::<Lineage>(&[("R", 2)], 2, "Q() :- R(u, v), R(v, w)", 4);
    pin_quotiented_walk::<Lineage>(&[("R", 2)], 3, "Q() :- R(u, v), R(v, w)", 3);
}

#[test]
fn factorized_walk_accounts_the_orbit_closed_form_why() {
    pin_quotiented_walk::<Why>(&[("R", 2)], 2, "Q() :- R(u, v), R(v, w)", 4);
}

#[test]
fn mixed_arity_schema_matches_the_orbit_closed_form() {
    pin_quotiented_walk::<Natural>(&[("R", 2), ("S", 1)], 2, "Q() :- R(u, v), S(v)", 4);
    pin_quotiented_walk::<Lineage>(&[("R", 2), ("S", 1)], 2, "Q() :- R(u, v), S(v)", 4);
}
