//! Experiment E6 (DESIGN.md): the offset hierarchy and empirical
//! classification of the shipped semirings.

use annot_core::brute_force::{find_counterexample, BruteForceConfig};
use annot_core::classes::{ClassifiedSemiring, CqCriterion, Offset};
use annot_core::classify::classify;
use annot_core::ucq::bijective;
use annot_query::{parser, Schema, Ucq};
use annot_semiring::axioms;
use annot_semiring::{Bool, BoundedNat, Lineage, NatPoly, Natural, Schedule, Tropical, Why};

#[test]
fn offset_hierarchy_of_bounded_bags() {
    assert_eq!(axioms::smallest_offset::<BoundedNat<1>>(10), Some(1));
    assert_eq!(axioms::smallest_offset::<BoundedNat<2>>(10), Some(2));
    assert_eq!(axioms::smallest_offset::<BoundedNat<3>>(10), Some(3));
    assert_eq!(axioms::smallest_offset::<BoundedNat<5>>(10), Some(5));
    assert_eq!(axioms::smallest_offset::<Natural>(10), None);
    // S^k ⊂ S^{k+1}: an offset-2 semiring also satisfies the offset-3 axiom
    // family trivially (k·x = ℓ·x for ℓ ≥ k ≥ 2), reflected here by the
    // *smallest* offset being reported.
    assert_eq!(classify::<BoundedNat<2>>().offset, Offset::Finite(2));
}

#[test]
fn prop_5_19_shcov_semirings_have_offset_at_most_two() {
    // Every ⊗-idempotent semiring has offset ≤ 2 (Prop. 5.19).
    for (mul_idem, offset) in [
        (
            axioms::is_mul_idempotent::<Bool>(),
            axioms::smallest_offset::<Bool>(4),
        ),
        (
            axioms::is_mul_idempotent::<Lineage>(),
            axioms::smallest_offset::<Lineage>(4),
        ),
        (
            axioms::is_mul_idempotent::<BoundedNat<2>>(),
            axioms::smallest_offset::<BoundedNat<2>>(4),
        ),
    ] {
        if mul_idem {
            assert!(matches!(offset, Some(k) if k <= 2));
        }
    }
}

#[test]
fn empirical_and_declared_classifications_are_consistent() {
    assert!(classify::<Bool>().in_c_hom);
    assert_eq!(
        classify::<Bool>().certified_cq_criterion,
        Some(CqCriterion::Homomorphism)
    );
    assert!(classify::<Lineage>().in_s_hcov && !classify::<Lineage>().in_s_in);
    assert!(classify::<Tropical>().in_s_in && !classify::<Tropical>().in_s_hcov);
    assert!(classify::<Schedule>().in_s_sur && !classify::<Schedule>().in_s_in);
    assert!(classify::<Why>().in_s_sur);
    assert!(!classify::<NatPoly>().in_s_sur);
    assert_eq!(
        Tropical::class_profile().cq_criterion,
        CqCriterion::SmallModel
    );
    assert_eq!(
        Natural::class_profile().cq_criterion,
        CqCriterion::OpenProblem
    );
}

/// The ↪_k criteria form a hierarchy in k: accepting for larger k is harder.
#[test]
fn counting_criteria_are_monotone_in_k() {
    let mut schema = Schema::with_relations([("R", 2)]);
    let pairs: Vec<(Ucq, Ucq)> = vec![
        (
            parser::parse_ucq(
                &mut schema,
                "Q() :- R(u, v), R(u, u) ; Q() :- R(u, u), R(u, u) ; Q() :- R(u, u), R(u, u)",
            )
            .unwrap(),
            parser::parse_ucq(
                &mut schema,
                "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)",
            )
            .unwrap(),
        ),
        (
            parser::parse_ucq(&mut schema, "Q() :- R(u, v)").unwrap(),
            parser::parse_ucq(&mut schema, "Q() :- R(a, b) ; Q() :- R(c, c)").unwrap(),
        ),
    ];
    for (q1, q2) in &pairs {
        for k in 1..=4u64 {
            if bijective::counting_offset(q1, q2, k + 1) {
                assert!(
                    bijective::counting_offset(q1, q2, k),
                    "↪_{} holds but ↪_{} does not for {} vs {}",
                    k + 1,
                    k,
                    q1,
                    q2
                );
            }
        }
        if bijective::counting_infinite(q1, q2) {
            assert!(bijective::counting_offset(q1, q2, 4));
        }
    }
}

/// Offset-k acceptance is semantically sound for B_k on a concrete family.
#[test]
fn offset_acceptance_matches_bounded_bag_semantics() {
    let mut schema = Schema::with_relations([("R", 2)]);
    let q1 = parser::parse_ucq(
        &mut schema,
        "Q() :- R(u, u), R(u, u) ; Q() :- R(u, u), R(u, u) ; Q() :- R(u, u), R(u, u)",
    )
    .unwrap();
    let q2 = parser::parse_ucq(
        &mut schema,
        "Q() :- R(a, a), R(a, a) ; Q() :- R(b, b), R(b, b)",
    )
    .unwrap();
    // Three copies versus two: fails for N[X] (offset ∞), holds for offset 2.
    assert!(!bijective::counting_infinite(&q1, &q2));
    assert!(bijective::counting_offset(&q1, &q2, 2));
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 2,
        ..Default::default()
    };
    assert!(find_counterexample::<BoundedNat<2>>(&q1, &q2, &config).is_none());
    assert!(find_counterexample::<NatPoly>(&q1, &q2, &config).is_some());
    assert!(find_counterexample::<Natural>(&q1, &q2, &config).is_some());
}
