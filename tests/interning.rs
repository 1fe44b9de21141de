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
use annot_query::complete::complete_description_cq;
use annot_query::eval::{all_output_rows, all_outputs, eval, Disjuncts};
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{Cq, DbValue, Domain, Instance, Schema, Tuple, Ucq, ValueId};
use annot_semiring::{Bool, Lineage, NatPoly, Natural, Semiring, Tropical, Why};
use std::collections::BTreeMap;

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

/// Checks one query's evaluation against the `DbValue`-boundary reference:
/// the interned row map, resolved, equals [`all_outputs`]; a from-scratch
/// per-tuple [`eval`] equals each of its entries; and `eval` is `0` at every
/// unary tuple over the instance's domain outside the support.  Returns how
/// many tuples it checked in the support and outside it.
fn check_eval<K: Semiring>(
    q: &impl Disjuncts,
    instance: &Instance<K>,
    what: &str,
) -> (usize, usize) {
    let domain = instance.domain();
    let rows = all_output_rows(q, instance);
    let resolved = all_outputs(q, instance);
    let rows_resolved: BTreeMap<Tuple, K> = (rows.iter())
        .map(|(row, k)| (domain.resolve_tuple(row), k.clone()))
        .collect();
    assert_eq!(
        rows_resolved,
        resolved,
        "{} {what}: rows and resolved maps disagree",
        K::NAME
    );
    for (tuple, value) in &resolved {
        assert_eq!(
            &eval(q, instance, tuple),
            value,
            "{} {what}: interned all-outputs disagrees with per-tuple reference",
            K::NAME
        );
        assert!(
            !value.is_zero(),
            "{} {what}: support contract violated",
            K::NAME
        );
    }
    let outside: Vec<Tuple> = (0..domain.len() as u32)
        .map(|id| vec![domain.resolve(ValueId(id))])
        .filter(|tuple| !resolved.contains_key(tuple))
        .collect();
    for tuple in &outside {
        assert!(
            eval(q, instance, tuple).is_zero(),
            "{} {what}: {tuple:?} is outside the support but evaluates non-zero",
            K::NAME
        );
    }
    (resolved.len(), outside.len())
}

/// The interned all-outputs path must match the `DbValue`-boundary
/// reference ([`check_eval`]) on seeded CQs, then on one query of every
/// other kind: a CCQ with an inequality, a two-member UCQ, the DUCQ of a
/// complete description and the empty union.
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
        check_eval(&q, &instance, "CQ");
    }
    let schema = generator.schema().clone();
    let instance: Instance<K> = generator.instance(3, 8);
    // A value of the domain that no fact mentions: every kind but the
    // empty union joins on it and must sum to 0.
    instance.domain().intern(&DbValue::str("isolated"));
    let ccq = Cq::builder(&schema)
        .free(&["x"])
        .atom("R0", &["x", "y"])
        .atom("R1", &["x", "z"])
        .inequality("y", "z")
        .build_ccq();
    let ucq = Ucq::new([
        Cq::builder(&schema)
            .free(&["x"])
            .atom("R0", &["x", "y"])
            .build(),
        Cq::builder(&schema)
            .free(&["x"])
            .atom("R1", &["y", "x"])
            .atom("R1", &["x", "z"])
            .build(),
    ]);
    let path = Cq::builder(&schema)
        .free(&["x"])
        .atom("R0", &["x", "y"])
        .atom("R0", &["y", "z"])
        .build();
    let description = complete_description_cq(&path);
    assert!(description.disjuncts().len() > 1);
    for (support, outside) in [
        check_eval(&ccq, &instance, "CCQ"),
        check_eval(&ucq, &instance, "UCQ"),
        check_eval(&description, &instance, "DUCQ"),
    ] {
        assert!(
            support > 0 && outside > 0,
            "{}: {support} in, {outside} out",
            K::NAME
        );
    }
    let empty = check_eval(&Ucq::empty(), &instance, "empty union");
    assert_eq!(empty, (0, instance.domain().len()));
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
            let lhs = eval(&u1.disjuncts()[0], &ce.instance, &ce.tuple);
            let rhs = eval(&u2.disjuncts()[0], &ce.instance, &ce.tuple);
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
