//! Intern/resolve round-trips for the `ValueId` flat-storage layer (PR 4).
//!
//! The evaluation stack joins on interned `u32` [`ValueId`]s and resolves
//! back to [`DbValue`]s only at the public boundary.  This suite pins the
//! boundary down:
//!
//! * `Display` parity — rendering through intern→resolve equals rendering
//!   the `DbValue` directly, for every value kind and for whole instances;
//! * instance equality is insertion-order independent and value-wise (two
//!   instances over independent interners compare by value);
//! * a differential check that the interned evaluation and oracle paths
//!   match the `DbValue`-boundary references on the cross-validation
//!   representative semirings.

use annot_core::brute_force::{find_counterexample, find_counterexample_naive, BruteForceConfig};
use annot_query::eval::{eval_cq, eval_cq_all_outputs, eval_cq_all_outputs_rows, resolve_outputs};
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{DbValue, Domain, Instance, Schema, Tuple, Ucq};
use annot_semiring::{Bool, Lineage, NatPoly, Natural, Semiring, Tropical, Why};

#[test]
fn display_parity_between_interned_and_dbvalue_rendering() {
    let domain = Domain::new();
    let values: Vec<DbValue> = vec![
        DbValue::Int(-3),
        DbValue::Int(0),
        DbValue::Int(42),
        DbValue::str(""),
        DbValue::str("alice"),
        DbValue::str("söme-ütf8"),
        DbValue::Fresh(0),
        DbValue::Fresh(7),
    ];
    for v in &values {
        let id = domain.intern(v);
        let resolved = domain.resolve(id);
        assert_eq!(&resolved, v, "resolve is not the inverse of intern");
        assert_eq!(
            format!("{resolved}"),
            format!("{v}"),
            "Display diverges through the interner"
        );
        // Interning the same value again yields the same id.
        assert_eq!(domain.intern(v), id);
    }
    // Tuple round-trip preserves order and multiplicity.
    let tuple: Tuple = vec!["a".into(), "a".into(), 1.into(), DbValue::Fresh(1)];
    assert_eq!(domain.resolve_tuple(&domain.intern_tuple(&tuple)), tuple);
}

#[test]
fn instance_display_is_interning_and_order_invariant() {
    let schema = Schema::with_relations([("R", 2), ("S", 1)]);
    let facts: Vec<(&str, Tuple)> = vec![
        ("R", vec!["b".into(), "a".into()]),
        ("S", vec![3.into()]),
        ("R", vec!["a".into(), "b".into()]),
        ("S", vec!["a".into()]),
    ];
    // Same facts, two insertion orders, two independent interners.
    let mut forward: Instance<Natural> = Instance::new(schema.clone());
    for (rel, t) in &facts {
        forward.insert_named(rel, t.clone(), Natural(2));
    }
    let mut backward: Instance<Natural> =
        Instance::new(Schema::with_relations([("R", 2), ("S", 1)]));
    for (rel, t) in facts.iter().rev() {
        backward.insert_named(rel, t.clone(), Natural(2));
    }
    assert_eq!(forward, backward);
    assert_eq!(format!("{forward}"), format!("{backward}"));
    // The rendering resolves ids back to the original constants.
    let shown = format!("{forward}");
    for needle in ["R(a, b)", "R(b, a)", "S(3)", "S(a)"] {
        assert!(shown.contains(needle), "missing {needle} in:\n{shown}");
    }
}

#[test]
fn instance_equality_is_insertion_order_independent_randomized() {
    // Insert the same 30 (tuple, annotation) pairs in rotated orders; all
    // rotations must compare equal (and unequal once one fact changes).
    let schema = Schema::with_relations([("R", 2)]);
    let r = schema.relation("R").unwrap();
    let facts: Vec<(Tuple, Natural)> = (0..30i64)
        .map(|i| {
            (
                vec![(i % 5).into(), (i / 5).into()],
                Natural(i as u64 % 4 + 1),
            )
        })
        .collect();
    let build = |order: &[usize]| {
        let mut inst: Instance<Natural> = Instance::new(schema.clone());
        for &i in order {
            let (t, k) = &facts[i];
            inst.insert(r, t.clone(), *k);
        }
        inst
    };
    let base_order: Vec<usize> = (0..facts.len()).collect();
    let reference = build(&base_order);
    for rot in [1usize, 7, 13, 29] {
        let mut order = base_order.clone();
        order.rotate_left(rot);
        assert_eq!(reference, build(&order), "rotation {rot} broke equality");
    }
    let mut tweaked = reference.clone();
    tweaked.insert(r, facts[0].0.clone(), Natural(99));
    assert_ne!(reference, tweaked);
}

/// The interned all-outputs path must match the `DbValue`-boundary
/// reference: per answer tuple, the resolved map entry equals a from-scratch
/// per-tuple [`eval_cq`] evaluation.
fn eval_differential<K: Semiring>() {
    let mut generator = QueryGenerator::new(GeneratorConfig {
        num_atoms: 2,
        shape: QueryShape::Random,
        var_pool: 3,
        num_relations: 2,
        free_vars: 1,
        seed: 0xA11CE,
    });
    for _ in 0..10 {
        let q = generator.cq();
        let instance: Instance<K> = generator.instance(3, 8);
        let rows = eval_cq_all_outputs_rows(&q, &instance);
        let resolved = eval_cq_all_outputs(&q, &instance);
        assert_eq!(
            resolve_outputs(instance.domain(), &rows),
            resolved,
            "{}: rows and resolved maps disagree",
            K::NAME
        );
        for (tuple, value) in &resolved {
            assert_eq!(
                &eval_cq(&q, &instance, tuple),
                value,
                "{}: interned all-outputs disagrees with per-tuple reference",
                K::NAME
            );
            assert!(!value.is_zero(), "{}: support contract violated", K::NAME);
        }
    }
}

#[test]
fn eval_differential_bool() {
    eval_differential::<Bool>();
}

#[test]
fn eval_differential_natural() {
    eval_differential::<Natural>();
}

#[test]
fn eval_differential_tropical() {
    eval_differential::<Tropical>();
}

#[test]
fn eval_differential_why() {
    eval_differential::<Why>();
}

#[test]
fn eval_differential_lineage() {
    eval_differential::<Lineage>();
}

#[test]
fn eval_differential_nat_poly() {
    eval_differential::<NatPoly>();
}

/// The interned oracle walk agrees with the `DbValue`-materialising naive
/// reference, and reported witnesses replay through the public boundary.
fn oracle_differential<K: Semiring>() {
    let mut generator = QueryGenerator::new(GeneratorConfig {
        num_atoms: 2,
        shape: QueryShape::Random,
        var_pool: 3,
        num_relations: 1,
        seed: 0x1D5,
        ..Default::default()
    });
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    for case in 0..8u32 {
        let (q1, q2) = (generator.cq(), generator.cq());
        let (u1, u2) = (Ucq::single(q1), Ucq::single(q2));
        let memoized = find_counterexample::<K>(&u1, &u2, &config);
        let naive = find_counterexample_naive::<K>(&u1, &u2, &config);
        assert_eq!(
            memoized.is_some(),
            naive.is_some(),
            "{}: interned and naive oracles disagree on case {case}",
            K::NAME
        );
        if let Some(ce) = memoized {
            // The witness tuple was resolved from interned rows; it must
            // replay on the reported instance through the DbValue API.
            let lhs = eval_cq(&u1.disjuncts()[0], &ce.instance, &ce.tuple);
            let rhs = eval_cq(&u2.disjuncts()[0], &ce.instance, &ce.tuple);
            assert_eq!(ce.lhs, lhs, "{}: lhs does not replay", K::NAME);
            assert_eq!(ce.rhs, rhs, "{}: rhs does not replay", K::NAME);
            assert!(!lhs.leq(&rhs), "{}: violation does not replay", K::NAME);
        }
    }
}

#[test]
fn oracle_differential_bool() {
    oracle_differential::<Bool>();
}

#[test]
fn oracle_differential_natural() {
    oracle_differential::<Natural>();
}

#[test]
fn oracle_differential_why() {
    oracle_differential::<Why>();
}
