//! The ⟨Q⟩ procedures of Table 1 decide as the member-reading loops did.
//!
//! `N`, `N[X]`, `Trio[X]`, `B_2`, `B_3`, `T+`, `T-` and `Viterbi` read ⟨Q⟩
//! through one flat description grouped into isomorphism classes.  This
//! suite keeps, as references, copies of the loops those rows ran over the
//! materialised members: `↪_∞` and `↪_k` grouped by pairwise isomorphism,
//! `↠_∞` as a bipartite matching between members, `⇉₂` member by member
//! with automorphism searches, and the small-model procedure over every
//! member's canonical instance.  Each procedure is called directly, not
//! through `decide_ucq_dyn`, whose bounds settle most pairs before any ⟨Q⟩
//! is built, and must give the verdict its reference gives, on seeded UCQ
//! pairs (widths 1–3, up to 6 variables, 0–2 free variables, repeated
//! atoms, one or two relations) and on the paper's examples.
//!
//! The last tests pin the requests that took longest before classes: the
//! 7-leaf star against a 2-leaf star on `T+`, `N` and `N[X]`, and the
//! 6-atom chain against itself on `N[X]`.  Reading members again would make
//! this suite stop finishing, not just slow down.

use annot_core::decide::Decision;
use annot_core::poly_order::PolynomialOrder;
use annot_core::registry::{decide_ucq_dyn, SemiringId};
use annot_core::small_model::ucq_contained_small_model;
use annot_core::ucq::{bijective, covering, surjective};
use annot_hom::{iso, kinds, HomSearch, SearchOptions};
use annot_query::complete::{complete_description_ucq, Classes, Description};
use annot_query::eval::eval_ucq_all_outputs_rows;
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{parser, CanonicalInstance, Ccq, Cq, Ducq, QVar, Schema, Ucq};
use annot_semiring::{NatPoly, Schedule, Semiring, Tropical, Viterbi};

/// `↪_∞` (`cap` `None`) or `↪_k`, as the member loop read it: ⟨Q₁⟩ grouped
/// by pairwise isomorphism, each group counted in ⟨Q₂⟩.
fn counting_by_members(d1: &Ducq, d2: &Ducq, cap: Option<u64>) -> bool {
    let mut classes: Vec<(&Ccq, u64)> = Vec::new();
    'members: for member in d1.disjuncts() {
        for (repr, count) in &mut classes {
            if iso::are_isomorphic(repr, member) {
                *count += 1;
                continue 'members;
            }
        }
        classes.push((member, 1));
    }
    classes.into_iter().all(|(repr, count1)| {
        let count2 = (d2.disjuncts().iter()).filter(|m| iso::are_isomorphic(m, repr));
        cap.map_or(count1, |k| count1.min(k)) <= count2.count() as u64
    })
}

/// The size of a maximum bipartite matching, by Kuhn's algorithm.
fn matching_size(adjacency: &[Vec<usize>], num_right: usize) -> usize {
    fn augment(
        l: usize,
        adj: &[Vec<usize>],
        matched: &mut [Option<usize>],
        seen: &mut [bool],
    ) -> bool {
        for &r in &adj[l] {
            if !seen[r] {
                seen[r] = true;
                if matched[r].map_or(true, |other| augment(other, adj, matched, seen)) {
                    matched[r] = Some(l);
                    return true;
                }
            }
        }
        false
    }
    let mut matched = vec![None; num_right];
    (0..adjacency.len())
        .filter(|&l| augment(l, adjacency, &mut matched, &mut vec![false; num_right]))
        .count()
}

/// `↠_∞` as the member loop read it: a matching of the members of ⟨Q₁⟩
/// to distinct members of ⟨Q₂⟩ that surject onto them.
fn unique_surjective_by_members(d1: &Ducq, d2: &Ducq) -> bool {
    let adjacency: Vec<Vec<usize>> = (d1.disjuncts().iter())
        .map(|m1| {
            (0..d2.len())
                .filter(|&j| kinds::exists_surjective_hom_ccq(&d2.disjuncts()[j], m1))
                .collect()
        })
        .collect();
    matching_size(&adjacency, d2.len()) == d1.len()
}

/// Whether some homomorphism of a complete CCQ onto itself moves a
/// variable: it keeps every inequality, so it is an automorphism.
fn automorphic(member: &Ccq) -> bool {
    let injective = SearchOptions {
        occurrence_injective: true,
        ..Default::default()
    };
    HomSearch::new(member, member)
        .with_options(injective)
        .run(&mut |map| {
            (map.as_slice().iter().enumerate()).any(|(v, h)| *h != Some(QVar(v as u32)))
        })
}

/// `⇉₂` as the member loop read it.
fn covering2_by_members(d1: &Ducq, d2: &Ducq) -> bool {
    let members1 = d1.disjuncts();
    let members2 = d2.disjuncts();
    if !(members1.iter()).all(|m1| kinds::homomorphically_covers(members2, m1)) {
        return false;
    }
    members1.iter().all(|m1| {
        if automorphic(m1) {
            return true;
        }
        if (members2.iter())
            .filter(|m2| kinds::exists_hom_ccq(*m2, m1))
            .count()
            >= 2
        {
            return true;
        }
        let count = |d: &[Ccq]| d.iter().filter(|m| iso::are_isomorphic(m, m1)).count();
        count(members1).min(2) <= count(members2)
    })
}

/// The small-model procedure over every member's canonical instance, with
/// the polynomial order of `K`.
fn small_model_by_members<K: PolynomialOrder>(q1: &Ucq, q2: &Ucq) -> bool {
    let zero = NatPoly::zero();
    complete_description_ucq(q1)
        .disjuncts()
        .iter()
        .all(|member| {
            let canonical = CanonicalInstance::of_ccq(member);
            let m1 = eval_ucq_all_outputs_rows(q1, canonical.instance());
            let m2 = eval_ucq_all_outputs_rows(q2, canonical.instance());
            let leq = |p1: &NatPoly, p2: &NatPoly| {
                K::terms_leq(&p1.polynomial().into(), &p2.polynomial().into())
            };
            (m1.iter()).all(|(t, p1)| leq(p1, m2.get(t).unwrap_or(&zero)))
                && (m2.iter()).all(|(t, p2)| m1.contains_key(t) || leq(&zero, p2))
        })
}

/// The ⟨Q⟩ procedures, in the order [`assert_procedures_agree`] reports
/// them: the criteria of `N[X]` (`↪_∞`) and `Trio[X]` (`↠_∞`, also the
/// sufficient bound of `N` and `B_k`), `↪_2`, `N`'s necessary bound `⇉₂`,
/// and the small-model procedure with the orders of `T+`, `T-` and
/// `Viterbi`.
const PROCEDURES: [&str; 7] = ["↪_∞", "↠_∞", "↪_2", "⇉₂", "T+", "T-", "Viterbi"];

/// Asserts every ⟨Q⟩ procedure decides `q1 ⊑ q2` as its member-loop
/// reference does; returns the verdicts.
fn assert_procedures_agree(q1: &Ucq, q2: &Ucq, context: &str) -> [bool; 7] {
    let (d1, d2) = (complete_description_ucq(q1), complete_description_ucq(q2));
    let verdicts = [
        (
            bijective::counting_infinite(q1, q2),
            counting_by_members(&d1, &d2, None),
        ),
        (
            surjective::unique_surjective(q1, q2),
            unique_surjective_by_members(&d1, &d2),
        ),
        (
            bijective::counting_offset(q1, q2, 2),
            counting_by_members(&d1, &d2, Some(2)),
        ),
        (covering::covering2(q1, q2), covering2_by_members(&d1, &d2)),
        (
            ucq_contained_small_model::<Tropical>(q1, q2),
            small_model_by_members::<Tropical>(q1, q2),
        ),
        (
            ucq_contained_small_model::<Schedule>(q1, q2),
            small_model_by_members::<Schedule>(q1, q2),
        ),
        (
            ucq_contained_small_model::<Viterbi>(q1, q2),
            small_model_by_members::<Viterbi>(q1, q2),
        ),
    ];
    for (name, (procedure, reference)) in PROCEDURES.iter().zip(verdicts) {
        assert_eq!(procedure, reference, "{name}, {context}: {q1} ⊑ {q2}");
    }
    verdicts.map(|(procedure, _)| procedure)
}

/// Two seeded UCQs in one schema, with 0–2 free variables.  Each side has
/// width 1–3 and members of 1–3 atoms over one or two binary relations and
/// a pool of 2–5 variables, so small pools repeat atoms.  Every tenth seed
/// gives the left side one member with six variables.
fn ucq_pair(seed: u64) -> (Ucq, Ucq) {
    let free = (seed % 3) as usize;
    let ucq = |shift: u64| {
        let bits = seed >> shift;
        let six = shift == 1 && seed % 10 == 9;
        let mut generator = QueryGenerator::new(GeneratorConfig {
            num_atoms: if six { 3 } else { 1 + bits as usize % 3 },
            shape: QueryShape::Random,
            num_relations: 1 + (seed / 3 % 2) as usize,
            var_pool: if six { 6 } else { 2 + (bits >> 2) as usize % 4 },
            free_vars: free,
            seed: seed + shift,
        });
        // A member with fewer variables than the head asks for gets fewer
        // free variables; a UCQ keeps the members with all of them.
        let width = if six { 1 } else { 1 + (bits >> 5) as usize % 3 };
        let members = std::iter::repeat_with(|| generator.cq())
            .filter(|q| q.free_vars().len() == free && (!six || q.num_vars() == 6))
            .take(width);
        Ucq::new(members.collect::<Vec<_>>())
    };
    (ucq(1), ucq(4))
}

/// Checks the seeded pairs `seeds`, each in both directions and against
/// itself, and that every procedure both proves and refutes containment
/// on some.
fn check_seeded_pairs(seeds: std::ops::Range<u64>) {
    let mut decided = [[0usize; 2]; 7];
    let mut most_vars = 0;
    for seed in seeds {
        let (u1, u2) = ucq_pair(seed);
        most_vars = (u1.disjuncts().iter()).fold(most_vars, |most, q| most.max(q.num_vars()));
        for (q1, q2) in [(&u1, &u2), (&u2, &u1), (&u1, &u1)] {
            let verdicts = assert_procedures_agree(q1, q2, &format!("seed {seed}"));
            for (tally, holds) in decided.iter_mut().zip(verdicts) {
                tally[holds as usize] += 1;
            }
        }
    }
    assert_eq!(most_vars, 6);
    assert!(
        decided.iter().all(|t| t[0] >= 10 && t[1] >= 10),
        "{decided:?}"
    );
}

// Two halves, so the test harness runs them side by side.
#[test]
fn seeded_pairs_decide_as_the_member_loops() {
    check_seeded_pairs(0..50);
}

#[test]
fn more_seeded_pairs_decide_as_the_member_loops() {
    check_seeded_pairs(50..100);
}

#[test]
fn paper_examples_decide_as_the_member_loops() {
    let pairs = [
        // Example 4.6.
        ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)"),
        // Example 5.4.
        ("Q() :- P(v), S(v)", "Q() :- P(v), P(v) ; Q() :- S(v), S(v)"),
        // Example 5.7, and its extension by a third copy of Q'22.
        (
            "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v)",
            "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)",
        ),
        (
            "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v) ; Q() :- R(u, u), R(u, u)",
            "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)",
        ),
        // Example 5.20.
        ("Q() :- S(v), T(v)", "Q() :- S(v) ; Q() :- T(v)"),
        // Free variables: merged heads and existential blocks that take a
        // free variable's value.
        ("Q(x) :- R(x, x), R(x, x)", "Q(x) :- R(x, y), R(x, y)"),
        (
            "Q(x, w) :- R(x, x), R(x, w) ; Q(x, w) :- R(x, w), R(w, w)",
            "Q(x, w) :- R(x, y), R(y, w)",
        ),
        ("Q(x) :- R(x, y), R(y, z)", "Q(x) :- R(x, y)"),
    ];
    for (q1, q2) in pairs {
        let mut schema = Schema::new();
        let u1 = parser::parse_ucq(&mut schema, q1).expect("q1 parses");
        let u2 = parser::parse_ucq(&mut schema, q2).expect("q2 parses");
        assert_procedures_agree(&u1, &u2, "paper example");
        assert_procedures_agree(&u2, &u1, "paper example, reversed");
    }
}

/// `Q() :- R(x, a1), …, R(x, ak)`.
fn star(k: usize) -> String {
    let atoms: Vec<String> = (1..=k).map(|i| format!("R(x, a{i})")).collect();
    format!("Q() :- {}", atoms.join(", "))
}

/// `Q() :- R(x0, x1), …, R(x(k-1), xk)`.
fn chain(k: usize) -> String {
    let atoms: Vec<String> = (0..k).map(|i| format!("R(x{i}, x{})", i + 1)).collect();
    format!("Q() :- {}", atoms.join(", "))
}

fn parse_pair(q1: &str, q2: &str) -> (Ucq, Ucq) {
    let mut schema = Schema::new();
    let u1 = parser::parse_ucq(&mut schema, q1).expect("q1 parses");
    let u2 = parser::parse_ucq(&mut schema, q2).expect("q2 parses");
    (u1, u2)
}

/// The members and classes of ⟨q⟩.
fn classes_of(q: &Cq) -> (usize, usize) {
    let description = Description::new(std::slice::from_ref(q));
    (description.len(), Classes::of(&description).len())
}

fn decided(row: &str, q1: &Ucq, q2: &Ucq) -> Decision {
    decide_ucq_dyn(
        SemiringId::from_name(row).expect("a registered row"),
        q1,
        q2,
    )
}

#[test]
fn the_seven_leaf_star_decides_on_its_classes() {
    let (u1, u2) = parse_pair(&star(7), "Q() :- R(x, y), R(x, z)");
    assert_eq!(classes_of(&u1.disjuncts()[0]), (4_140, 45));
    assert_eq!(classes_of(&u2.disjuncts()[0]), (5, 4));
    // Over T+ the seven-fold product costs at least the two-fold one.
    assert!(ucq_contained_small_model::<Tropical>(&u1, &u2));
    // Over N and N[X] the star's fully distinct member has no partner.
    assert!(!covering::covering2(&u1, &u2));
    assert!(!bijective::counting_infinite(&u1, &u2));
    // Through the decide pass, T+ stops at its injective bound and N[X] at
    // its CQ criterion; N, which no bound settles, reads ⟨Q⟩.
    let tropical = decided("T+", &u1, &u2);
    assert_eq!(tropical.decided(), Some(true), "{}", tropical.method);
    assert_eq!(
        tropical.method,
        "sufficient bound: injective homomorphism (S_in)"
    );
    let bag = decided("N", &u1, &u2);
    assert_eq!(bag.decided(), Some(false), "{}", bag.method);
    assert_eq!(
        bag.method,
        "necessary bound violated: covering ⇉₂ (N²_hcov)"
    );
    let provenance = decided("N[X]", &u1, &u2);
    assert_eq!(provenance.decided(), Some(false), "{}", provenance.method);
    assert_eq!(provenance.method, "bijective homomorphism (C_bi)");
}

#[test]
fn the_six_atom_chain_is_contained_in_itself_on_its_classes() {
    let (u1, u2) = parse_pair(&chain(6), &chain(6));
    assert_eq!(classes_of(&u1.disjuncts()[0]), (877, 425));
    assert!(bijective::counting_infinite(&u1, &u2));
    let provenance = decided("N[X]", &u1, &u2);
    assert_eq!(provenance.decided(), Some(true), "{}", provenance.method);
}
