//! Reproduction of the worked examples of the paper (experiment E3 of
//! DESIGN.md): Example 4.6, Example 5.4, Example 5.7 and Example 5.20,
//! plus the CQ-admissibility examples of Sec. 4.5 (experiment E4).

use annot_core::brute_force::{find_counterexample, BruteForceConfig};
use annot_core::decide::{decide_cq, decide_ucq};
use annot_core::poly_order::PolynomialOrder;
use annot_core::small_model::ucq_contained_small_model;
use annot_core::ucq::{bijective, covering, local, surjective};
use annot_hom::kinds;
use annot_polynomial::admissible::is_cq_admissible;
use annot_polynomial::{Polynomial, Terms, Var};
use annot_query::complete::complete_description_cq;
use annot_query::eval::eval_boolean_cq;
use annot_query::{parser, CanonicalInstance, Cq, Schema, Ucq};
use annot_semiring::{Bool, BoundedNat, Lineage, NatPoly, Natural, Tropical, Why};

fn parse_cq(schema: &mut Schema, s: &str) -> Cq {
    parser::parse_cq(schema, s).unwrap()
}

fn parse_ucq(schema: &mut Schema, s: &str) -> Ucq {
    parser::parse_ucq(schema, s).unwrap()
}

/// Example 4.6: Q1 = ∃u,v,w R(u,v),R(u,w), Q2 = ∃u,v R(u,v),R(u,v).
/// There is no injective homomorphism Q2 ↪ Q1, yet Q1 ⊆_{T⁺} Q2.
#[test]
fn example_4_6_tropical_containment_without_injective_hom() {
    let mut schema = Schema::with_relations([("R", 2)]);
    let q1 = parse_cq(&mut schema, "Q() :- R(u, v), R(u, w)");
    let q2 = parse_cq(&mut schema, "Q() :- R(u, v), R(u, v)");

    // No injective homomorphism from Q2 to Q1 (Sec. 4.2).
    assert!(!kinds::exists_injective_hom(&q2, &q1));
    // Yet the small-model procedure proves T⁺-containment (Sec. 4.6).
    let tropical = decide_cq::<Tropical>(&q1, &q2);
    assert_eq!(tropical.decided(), Some(true));
    assert!(tropical.method.contains("small-model"));
    // Brute-force semantic check agrees (no counterexample over T⁺) …
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 4,
        ..Default::default()
    };
    assert!(find_counterexample::<Tropical>(&q1, &q2, &config).is_none());
    // … while the same containment FAILS over bag semantics and N[X].
    assert!(find_counterexample::<Natural>(&q1, &q2, &config).is_some());
    assert_eq!(decide_cq::<NatPoly>(&q1, &q2).decided(), Some(false));
}

/// Example 4.6 (continued): the complete description ⟨Q1⟩ has five CCQs, and
/// over the canonical instance ⟦Q11⟧ the two evaluations are the polynomials
/// x₁² + 2x₁x₂ + x₂² and x₁² + x₂², which are =_{T⁺}.
#[test]
fn example_4_6_canonical_polynomials() {
    let mut schema = Schema::with_relations([("R", 2)]);
    let q1 = parse_cq(&mut schema, "Q() :- R(u, v), R(u, w)");
    let q2 = parse_cq(&mut schema, "Q() :- R(u, v), R(u, v)");

    let description = complete_description_cq(&q1);
    assert_eq!(description.len(), 5); // Q11 … Q15 in the paper

    // The all-distinct CCQ is Q11; evaluate both queries over ⟦Q11⟧.
    let q11 = description
        .disjuncts()
        .iter()
        .find(|c| c.cq().num_vars() == 3)
        .expect("Q11 present");
    let canonical = CanonicalInstance::of_ccq(q11);
    let p1 = eval_boolean_cq(&q1, canonical.instance());
    let p2 = eval_boolean_cq(&q2, canonical.instance());

    let x1 = Polynomial::var(Var(0));
    let x2 = Polynomial::var(Var(1));
    assert_eq!(p1.polynomial(), &x1.plus(&x2).pow(2));
    assert_eq!(p2.polynomial(), &x1.pow(2).plus(&x2.pow(2)));
    // x₁² + 2x₁x₂ + x₂² =_{T⁺} x₁² + x₂² (the paper's displayed equation).
    let (t1, t2) = (Terms::from(p1.polynomial()), Terms::from(p2.polynomial()));
    assert!(Tropical::terms_leq(&t1, &t2));
    assert!(Tropical::terms_leq(&t2, &t1));
}

/// Example 5.4: over T⁺ the UCQ Q1 = {∃v R(v),S(v)} is contained in
/// Q2 = {∃v R(v),R(v) ; ∃v S(v),S(v)}, but neither member of Q2 contains Q11
/// on its own — the local method of Prop. 5.1 is not complete outside C_hom.
#[test]
fn example_5_4_local_method_fails_for_tropical() {
    let mut schema = Schema::with_relations([("R", 1), ("S", 1)]);
    let q1 = parse_ucq(&mut schema, "Q() :- R(v), S(v)");
    let q2 = parse_ucq(&mut schema, "Q() :- R(v), R(v) ; Q() :- S(v), S(v)");

    // Member-wise containment fails for both members of Q2.
    let q11 = &q1.disjuncts()[0];
    for member in q2.disjuncts() {
        assert_eq!(decide_cq::<Tropical>(q11, member).decided(), Some(false));
    }
    // The union containment nevertheless holds.
    assert!(ucq_contained_small_model::<Tropical>(&q1, &q2));
    assert_eq!(decide_ucq::<Tropical>(&q1, &q2).decided(), Some(true));
    // Brute force over T⁺ agrees.
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 4,
        ..Default::default()
    };
    assert!(find_counterexample::<Tropical>(&q1, &q2, &config).is_none());
    // Over set semantics the containment also holds (homomorphism from each
    // member of Q2 … to Q11), but over N[X] it fails.
    assert!(local::contained_chom(&q1, &q2));
    assert!(!bijective::counting_infinite(&q1, &q2));
}

/// Example 5.7: Q1 ⊆_{N[X]} Q2 is decided by the counting criterion ↪_∞ on
/// complete descriptions, although no member-wise assignment of distinct
/// bijective witnesses exists.
#[test]
fn example_5_7_counting_criterion() {
    let mut schema = Schema::with_relations([("R", 2)]);
    let q1 = parse_ucq(
        &mut schema,
        "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v)",
    );
    let q2 = parse_ucq(
        &mut schema,
        "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)",
    );

    // The naive unique-witness sufficient condition fails …
    assert!(!local::sufficient_for_all_semirings(&q1, &q2));
    // … but ↪_∞ holds, so Q1 ⊆_{N[X]} Q2 (Prop. 5.9).
    assert!(bijective::counting_infinite(&q1, &q2));
    assert_eq!(decide_ucq::<NatPoly>(&q1, &q2).decided(), Some(true));
    // Brute-force check over N[X] annotations drawn from the sample space.
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    assert!(find_counterexample::<NatPoly>(&q1, &q2, &config).is_none());
    // The ↠_∞ criterion (sufficient for bag semantics) holds as well.
    assert!(surjective::unique_surjective(&q1, &q2));
}

/// Example 5.7 (continued): adding another copy of Q22 to Q1 breaks
/// N[X]-containment but keeps containment for offset-2 semirings.
#[test]
fn example_5_7_offsets() {
    let mut schema = Schema::with_relations([("R", 2)]);
    let q1 = parse_ucq(
        &mut schema,
        "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v) ; Q() :- R(u, u), R(u, u)",
    );
    let q2 = parse_ucq(
        &mut schema,
        "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)",
    );
    // ⟨Q'1⟩ now has three CCQs isomorphic to Q'22, ⟨Q2⟩ only two.
    assert!(!bijective::counting_infinite(&q1, &q2));
    assert_eq!(decide_ucq::<NatPoly>(&q1, &q2).decided(), Some(false));
    // For semirings of offset 2 the third copy is redundant (k·x = 2·x for
    // k ≥ 2), so the ↪₂ criterion holds …
    assert!(bijective::counting_offset(&q1, &q2, 2));
    // … and indeed the brute-force check over B₂ (saturating bags, offset 2)
    // finds no counterexample, while over N[X] it does.
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    assert!(find_counterexample::<BoundedNat<2>>(&q1, &q2, &config).is_none());
    assert!(find_counterexample::<NatPoly>(&q1, &q2, &config).is_some());
}

/// Example 5.20: for semirings in S_hcov the covering of a member of Q1 may
/// need *several* members of Q2 simultaneously.
#[test]
fn example_5_20_covering_needs_both_members() {
    let mut schema = Schema::with_relations([("R", 1), ("S", 1)]);
    let q1 = parse_ucq(&mut schema, "Q() :- R(v), S(v)");
    let q2 = parse_ucq(&mut schema, "Q() :- R(v) ; Q() :- S(v)");

    // Neither member alone covers Q11 …
    for member in q2.disjuncts() {
        let alone = std::slice::from_ref(member);
        assert!(!kinds::homomorphically_covers(alone, &q1.disjuncts()[0]));
    }
    // … but the union does (Q2 ⇉₁ Q1).
    assert!(covering::covering1(&q1, &q2));
    // The containment indeed holds over Lin[X] (∈ C¹_hcov): no counterexample.
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 4,
        ..Default::default()
    };
    assert!(find_counterexample::<Lineage>(&q1, &q2, &config).is_none());
    assert_eq!(decide_ucq::<Lineage>(&q1, &q2).decided(), Some(true));
    // Over set semantics it holds too, over N[X] it does not.
    assert!(find_counterexample::<Bool>(&q1, &q2, &config).is_none());
    assert!(!bijective::counting_infinite(&q1, &q2));
}

/// Sec. 4.5: the CQ-admissible polynomial examples.
#[test]
fn section_4_5_admissibility_examples() {
    let x = Polynomial::var(Var(0));
    let y = Polynomial::var(Var(1));
    // Admissible: x², 2xy, x + y.
    assert!(is_cq_admissible(&x.pow(2)));
    assert!(is_cq_admissible(&x.times(&y).plus(&x.times(&y))));
    assert!(is_cq_admissible(&x.plus(&y)));
    // Not admissible: 2x, x² + y, x² + xy + y².
    assert!(!is_cq_admissible(&x.plus(&x)));
    assert!(!is_cq_admissible(&x.pow(2).plus(&y)));
    assert!(!is_cq_admissible(
        &x.pow(2).plus(&x.times(&y)).plus(&y.pow(2))
    ));
    // Every evaluation of a CQ over a canonical instance is admissible.
    let mut schema = Schema::with_relations([("R", 2)]);
    let q1 = parse_cq(&mut schema, "Q() :- R(u, v), R(u, w)");
    let canonical = CanonicalInstance::of_cq(&q1);
    let p = eval_boolean_cq(&q1, canonical.instance());
    assert!(is_cq_admissible(p.polynomial()));
}

/// Example 5.4's schema also illustrates Thm. 5.2: over B the member-wise
/// homomorphism criterion is complete, and agrees with brute force.
#[test]
fn theorem_5_2_local_homomorphism_is_exact_for_set_semantics() {
    let mut schema = Schema::with_relations([("R", 1), ("S", 1)]);
    let q1 = parse_ucq(&mut schema, "Q() :- R(v), S(v)");
    let q2 = parse_ucq(&mut schema, "Q() :- R(v) ; Q() :- S(v)");
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 4,
        ..Default::default()
    };
    let criterion = local::contained_chom(&q1, &q2);
    let semantic = find_counterexample::<Bool>(&q1, &q2, &config).is_none();
    assert_eq!(criterion, semantic);
    assert_eq!(decide_ucq::<Bool>(&q1, &q2).decided(), Some(criterion));
    // The reverse direction: Q2 is NOT contained in Q1 over B (R alone does
    // not imply R ∧ S), and the criterion agrees.
    let criterion_rev = local::contained_chom(&q2, &q1);
    let semantic_rev = find_counterexample::<Bool>(&q2, &q1, &config).is_none();
    assert!(!criterion_rev);
    assert_eq!(criterion_rev, semantic_rev);
}

/// Why[X] / Trio[X] (Thm. 4.14): surjective homomorphisms characterise
/// containment; checked against brute force on the paper's Example 4.6 pair.
#[test]
fn why_provenance_surjective_criterion() {
    let mut schema = Schema::with_relations([("R", 2)]);
    let q1 = parse_cq(&mut schema, "Q() :- R(u, v), R(u, w)");
    let q2 = parse_cq(&mut schema, "Q() :- R(u, v), R(u, v)");
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    // Q1 ⊆_{Why[X]} Q2 fails: no surjective homomorphism, and brute force
    // finds a counterexample.
    assert!(!kinds::exists_surjective_hom(&q2, &q1));
    assert!(find_counterexample::<Why>(&q1, &q2, &config).is_some());
    // Q2 ⊆_{Why[X]} Q1 holds: a surjective homomorphism exists and brute
    // force finds no counterexample.
    assert!(kinds::exists_surjective_hom(&q1, &q2));
    assert!(find_counterexample::<Why>(&q2, &q1, &config).is_none());
    assert_eq!(decide_cq::<Why>(&q2, &q1).decided(), Some(true));
}
