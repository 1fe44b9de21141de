//! Differential validation of the prefix-memoized oracle (PR 3).
//!
//! The brute-force oracle now has three evaluation strategies that must be
//! observationally identical:
//!
//! * the **naive** path ([`find_counterexample_naive`]): materialise
//!   every support-bounded instance, evaluate both queries from scratch;
//! * the **direct** prefix-memoized walk (incremental [`EvalState`] over
//!   `K`), used for scalar annotation domains;
//! * the **factorized** walk (incremental [`EvalState`] over `N[X]` plus the
//!   Prop. 3.2 evaluation morphism), used for heap-carrying domains with ≥ 2
//!   non-zero samples.
//!
//! This suite pins their agreement over randomized CQ/CCQ/UCQ workloads for
//! the representative semirings of both dispatch classes, the annotation
//! maps the incremental states maintain against the one-shot evaluators
//! under randomized push/pop walks, and the instance-count invariant of the
//! enumerator on full walks — `Σ_{k≤cap} orbits(k)·sᵏ` quotiented, falling
//! back to `Σ_{k≤cap} C(n,k)·sᵏ` with the quotient knob off.
//!
//! Since PR 9 the memoized walks search over [`Semiring::decisive_samples`]
//! and prune value-symmetric support prefixes, while the naive reference
//! still materialises every instance over the *full* `sample_elements()`
//! set: every memoized-vs-naive agreement check below therefore doubles as
//! a reduced-vs-full differential.  The `quotient_sweep_*` tests add the
//! quotiented-vs-unquotiented axis explicitly (via the config knob) across
//! CQ/UCQ/DUCQ shapes.
//!
//! The `budget_threshold_*` tests pin the instance budget on both walks: a
//! budget at or above the unbudgeted search's visit count returns exactly
//! the unbudgeted outcome, and any smaller budget fails with the budget
//! error.

use annot_core::brute_force::{
    bounded_instance_count, find_counterexample, find_counterexample_naive,
    quotiented_instance_count, try_find_counterexample, BruteForceConfig, BruteForceError,
    CounterExample, SearchOutcome,
};
use annot_query::eval::{
    eval_ccq_all_outputs, eval_cq, eval_ducq_all_outputs, eval_ucq_all_outputs, EvalState,
};
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{Ccq, Cq, Ducq, Instance, QVar, Schema, Tuple, Ucq};
use annot_semiring::{Bool, Lineage, NatPoly, Natural, Semiring, Tropical, Why};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn generator(seed: u64) -> QueryGenerator {
    QueryGenerator::new(GeneratorConfig {
        num_atoms: 2,
        shape: QueryShape::Random,
        var_pool: 3,
        num_relations: 1,
        seed,
        ..Default::default()
    })
}

/// Memoized and naive oracles must agree on the *existence* of a
/// counterexample, and every reported counterexample must replay under the
/// one-shot evaluators (`lhs = Q₁ᴵ(t)`, `rhs = Q₂ᴵ(t)`, `lhs ≰ rhs`).
fn check_agreement<K: Semiring>(u1: &Ucq, u2: &Ucq, config: &BruteForceConfig, case: u64) {
    let memoized = find_counterexample::<K>(u1, u2, config);
    let naive = find_counterexample_naive::<K>(u1, u2, config);
    assert_eq!(
        memoized.is_some(),
        naive.is_some(),
        "{}: memoized and naive oracles disagree on case {case}: {} vs {}",
        K::NAME,
        u1,
        u2
    );
    for ce in [memoized, naive].into_iter().flatten() {
        let lhs = eval_ucq(u1, &ce.instance, &ce.tuple);
        let rhs = eval_ucq(u2, &ce.instance, &ce.tuple);
        assert_eq!(ce.lhs, lhs, "{}: reported lhs is not Q₁ᴵ(t)", K::NAME);
        assert_eq!(ce.rhs, rhs, "{}: reported rhs is not Q₂ᴵ(t)", K::NAME);
        assert!(!lhs.leq(&rhs), "{}: reported violation replays", K::NAME);
    }
}

fn eval_ucq<K: Semiring>(u: &Ucq, instance: &Instance<K>, t: &Tuple) -> K {
    u.disjuncts()
        .iter()
        .fold(K::zero(), |acc, cq| acc.add(&eval_cq(cq, instance, t)))
}

// Randomized case loads, with a Miri quick mode (the interpreter is
// orders of magnitude slower; one case per shape still exercises every
// code path memory-wise).  `quick_mode_is_not_a_no_op` pins the floors.
#[cfg(not(miri))]
const CQ_SEEDS: u64 = 40;
#[cfg(miri)]
const CQ_SEEDS: u64 = 2;
#[cfg(not(miri))]
const UCQ_SEEDS: u64 = 15;
#[cfg(miri)]
const UCQ_SEEDS: u64 = 1;
#[cfg(not(miri))]
const WALK_STEPS: usize = 60;
#[cfg(miri)]
const WALK_STEPS: usize = 10;

/// Scales a full-mode case count down to the Miri quick mode, never below
/// one case (a zero-case suite would be a silent no-op).
fn quick(cases: u64) -> u64 {
    if cfg!(miri) {
        (cases / 4).max(1)
    } else {
        cases
    }
}

#[test]
fn quick_mode_is_not_a_no_op() {
    assert!(CQ_SEEDS >= 1 && UCQ_SEEDS >= 1 && WALK_STEPS >= 1 && quick(3) >= 1);
}

fn differential_cq_cases<K: Semiring>() {
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    for seed in 0..CQ_SEEDS {
        let mut g = generator(9000 + seed);
        let (q1, q2) = (g.cq(), g.cq());
        check_agreement::<K>(&Ucq::single(q1), &Ucq::single(q2), &config, seed);
    }
}

fn differential_ucq_cases<K: Semiring>() {
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    for seed in 0..UCQ_SEEDS {
        let mut g = generator(9500 + seed);
        let (u1, u2) = (g.ucq(2), g.ucq(2));
        check_agreement::<K>(&u1, &u2, &config, seed);
    }
}

// One representative per dispatch class and order shape: `B` (single-sample
// direct), `N`/`T⁺` (scalar direct, plural samples), `Lin[X]`/`Why[X]`/`N[X]`
// (heap-carrying factorized).

#[test]
fn differential_cq_bool() {
    differential_cq_cases::<Bool>();
}

#[test]
fn differential_cq_natural() {
    differential_cq_cases::<Natural>();
}

#[test]
fn differential_cq_tropical() {
    differential_cq_cases::<Tropical>();
}

#[test]
fn differential_cq_lineage() {
    differential_cq_cases::<Lineage>();
}

#[test]
fn differential_cq_why() {
    differential_cq_cases::<Why>();
}

#[test]
fn differential_cq_nat_poly() {
    differential_cq_cases::<NatPoly>();
}

#[test]
fn differential_ucq_natural() {
    differential_ucq_cases::<Natural>();
}

#[test]
fn differential_ucq_why() {
    differential_ucq_cases::<Why>();
}

#[test]
fn differential_ucq_nat_poly() {
    differential_ucq_cases::<NatPoly>();
}

// ---------------------------------------------------------------------------
// Annotation maps: EvalState vs the one-shot evaluators under random walks
// ---------------------------------------------------------------------------

/// Drives an [`EvalState`] through a random push/pop walk and checks the
/// maintained annotation map against `oneshot` of the equivalent instance
/// after every step.
fn random_walk_matches_oneshot<K: Semiring>(
    schema: &Schema,
    state: &mut EvalState<'_, K>,
    oneshot: &dyn Fn(&Instance<K>) -> std::collections::BTreeMap<Tuple, K>,
    rng: &mut StdRng,
) {
    let samples: Vec<K> = K::sample_elements();
    let rels: Vec<_> = schema.rel_ids().collect();
    // The shadow stack of concrete facts mirrored into a rebuilt instance.
    let mut stack: Vec<(annot_query::RelId, Tuple, K)> = Vec::new();
    for _ in 0..WALK_STEPS {
        let push = stack.is_empty() || rng.gen_range(0..10u32) < 6;
        if push {
            let rel = rels[rng.gen_range(0..rels.len())];
            let tuple: Tuple = (0..schema.arity(rel))
                .map(|_| annot_query::DbValue::Int(rng.gen_range(0..2i64)))
                .collect();
            let k = samples[rng.gen_range(0..samples.len())].clone();
            state.push_fact(rel, tuple.clone(), k.clone());
            stack.push((rel, tuple, k));
        } else {
            state.pop_fact();
            stack.pop();
        }
        let mut instance: Instance<K> = Instance::new(schema.clone());
        for (rel, tuple, k) in &stack {
            instance.add_annotation(*rel, tuple.clone(), k.clone());
        }
        assert_eq!(
            state.outputs(),
            oneshot(&instance),
            "{}: annotation map diverged at depth {}",
            K::NAME,
            stack.len()
        );
    }
}

fn walk_schema() -> Schema {
    Schema::with_relations([("R", 2), ("S", 1)])
}

fn walk_cq(schema: &Schema) -> Cq {
    Cq::builder(schema)
        .free(&["x"])
        .atom("R", &["x", "y"])
        .atom("S", &["y"])
        .build()
}

#[test]
fn eval_state_cq_maps_match_under_random_walks() {
    let schema = walk_schema();
    let q = walk_cq(&schema);
    let mut rng = StdRng::seed_from_u64(0xD1);
    let mut state: EvalState<'_, Natural> = EvalState::for_cq(&q);
    random_walk_matches_oneshot(
        &schema,
        &mut state,
        &|i| annot_query::eval::eval_cq_all_outputs(&q, i),
        &mut rng,
    );
}

#[test]
fn eval_state_ccq_maps_match_under_random_walks() {
    let schema = walk_schema();
    let base = Cq::builder(&schema)
        .atom("R", &["x", "y"])
        .atom("R", &["z", "w"])
        .build();
    let ccq = Ccq::new(base, [(QVar(0), QVar(2))]);
    let mut rng = StdRng::seed_from_u64(0xD2);
    let mut state: EvalState<'_, Natural> = EvalState::for_ccq(&ccq);
    random_walk_matches_oneshot(
        &schema,
        &mut state,
        &|i| eval_ccq_all_outputs(&ccq, i),
        &mut rng,
    );
}

#[test]
fn eval_state_ucq_maps_match_under_random_walks_nat_poly() {
    // N[X] exercises the factorized dispatch class end to end: polynomial
    // annotations flowing through the incremental joins.
    let schema = walk_schema();
    let q1 = Cq::builder(&schema).atom("S", &["v"]).build();
    let q2 = Cq::builder(&schema)
        .atom("R", &["x", "y"])
        .atom("S", &["y"])
        .build();
    let ucq = Ucq::new([q1, q2]);
    let mut rng = StdRng::seed_from_u64(0xD3);
    let mut state: EvalState<'_, NatPoly> = EvalState::for_ucq(&ucq);
    random_walk_matches_oneshot(
        &schema,
        &mut state,
        &|i| eval_ucq_all_outputs(&ucq, i),
        &mut rng,
    );
}

#[test]
fn eval_state_ducq_maps_match_under_random_walks() {
    let schema = walk_schema();
    let base = Cq::builder(&schema)
        .atom("R", &["x", "y"])
        .atom("R", &["z", "w"])
        .build();
    let ccq1 = Ccq::new(base, [(QVar(0), QVar(2))]);
    let ccq2 = Ccq::from_cq(Cq::builder(&schema).atom("S", &["v"]).build());
    let ducq = Ducq::new([ccq1, ccq2]);
    let mut rng = StdRng::seed_from_u64(0xD4);
    let mut state: EvalState<'_, Why> = EvalState::for_ducq(&ducq);
    random_walk_matches_oneshot(
        &schema,
        &mut state,
        &|i| eval_ducq_all_outputs(&ducq, i),
        &mut rng,
    );
}

// ---------------------------------------------------------------------------
// The enumeration invariant under both prefix-walk strategies
// ---------------------------------------------------------------------------

/// An irrefutable search (`Q ⊆ Q` always holds) must walk exactly
/// `Σ_{k≤cap} orbits(k)·sᵏ` instances over the decisive samples — for the
/// factorized walk (which visits `Σ orbits(k)` tree nodes and *accounts*
/// `sᵏ` instances per node) just as for the direct walk — and exactly
/// `Σ_{k≤cap} C(n,k)·sᵏ` with the symmetry quotient turned off.
fn full_walk_counts<K: Semiring>() {
    let mut schema = Schema::with_relations([("R", 2)]);
    let q = annot_query::parser::parse_ucq(&mut schema, "Q() :- R(u, v), R(v, w)").unwrap();
    let nonzero = K::decisive_samples()
        .into_iter()
        .filter(|k| !k.is_zero())
        .count();
    for cap in 0..=4usize {
        let quotiented = quotiented_instance_count(&schema, 2, nonzero, cap) as u64;
        let full = bounded_instance_count(4, nonzero, cap) as u64;
        for (symmetry_quotient, expected) in [(true, quotiented), (false, full)] {
            let config = BruteForceConfig {
                domain_size: 2,
                max_support: cap,
                symmetry_quotient,
                ..Default::default()
            };
            let outcome = try_find_counterexample::<K>(&q, &q, &config).unwrap();
            assert!(outcome.counterexample.is_none(), "Q ⊆ Q must hold");
            assert_eq!(
                outcome.stats.instances_visited,
                expected,
                "{}: cap {cap}, quotient {symmetry_quotient}: wrong instance count",
                K::NAME
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The sibling-sharing factorized walk (PR 5)
// ---------------------------------------------------------------------------

/// The shared-substitution factorized walk — which memoizes, per prefix
/// node, the sample-assignment evaluations of the unchanged (parent) output
/// polynomials and re-evaluates only monomials containing the newly
/// branched slot's variable — must return exactly the same counterexample
/// verdicts as the naive one-shot oracle at caps 1–4, and a full
/// (irrefutable, `Q ⊆ Q`) walk must still visit exactly
/// `Σ_{k≤cap} orbits(k)·sᵏ` instances.
/// `cases` scales the random-pair load per cap: the naive
/// reference's cost grows with the semiring's non-zero sample count, so
/// `Why[X]` (6 non-zero samples) runs fewer pairs than `Lin[X]`/`N[X]`.
fn sibling_sharing_matches_naive<K: Semiring>(cases: u64) {
    let nonzero = K::decisive_samples()
        .into_iter()
        .filter(|k| !k.is_zero())
        .count();
    for cap in 1..=4usize {
        let config = BruteForceConfig {
            domain_size: 2,
            max_support: cap,
            ..Default::default()
        };
        for seed in 0..cases {
            let mut g = generator(9800 + seed);
            let (u1, u2) = (g.ucq(2), g.ucq(2));
            let naive = find_counterexample_naive::<K>(&u1, &u2, &config);
            let shared = find_counterexample::<K>(&u1, &u2, &config);
            assert_eq!(
                shared.is_some(),
                naive.is_some(),
                "{}: cap {cap}: sibling-sharing walk and naive oracle disagree on {} vs {}",
                K::NAME,
                u1,
                u2
            );
            if let Some(ce) = shared {
                let lhs = eval_ucq(&u1, &ce.instance, &ce.tuple);
                let rhs = eval_ucq(&u2, &ce.instance, &ce.tuple);
                assert_eq!(ce.lhs, lhs, "{}: reported lhs replay", K::NAME);
                assert_eq!(ce.rhs, rhs, "{}: reported rhs replay", K::NAME);
                assert!(!lhs.leq(&rhs), "{}: reported violation replay", K::NAME);
            }
        }
        // The Σ orbits(k)·sᵏ visit invariant on an irrefutable full walk.
        let mut schema = Schema::with_relations([("R", 2)]);
        let q = annot_query::parser::parse_ucq(&mut schema, "Q() :- R(u, v), R(v, w)").unwrap();
        let outcome = try_find_counterexample::<K>(&q, &q, &config).unwrap();
        assert!(outcome.counterexample.is_none());
        assert_eq!(
            outcome.stats.instances_visited,
            quotiented_instance_count(&schema, 2, nonzero, cap) as u64,
            "{}: cap {cap}: wrong visit count",
            K::NAME
        );
    }
}

#[test]
fn sibling_sharing_matches_naive_why() {
    sibling_sharing_matches_naive::<Why>(quick(3));
}

#[test]
fn sibling_sharing_matches_naive_lineage() {
    sibling_sharing_matches_naive::<Lineage>(quick(6));
}

#[test]
fn sibling_sharing_matches_naive_nat_poly() {
    sibling_sharing_matches_naive::<NatPoly>(quick(6));
}

#[test]
fn full_walk_counts_direct_natural() {
    full_walk_counts::<Natural>();
}

// ---------------------------------------------------------------------------
// The instance budget is exact
// ---------------------------------------------------------------------------

/// Pins the budget threshold on one pair: the unbudgeted search settles with
/// the expected verdict after exactly `w` instances; every budget `≥ w`
/// returns the same witness and count; every budget `< w` fails with the
/// budget error naming that budget.
fn budget_threshold<K: Semiring>(
    pair: (&str, &str),
    domain_size: usize,
    max_support: usize,
    refuted: bool,
    w: u64,
) {
    let mut schema = Schema::with_relations([("R", 2)]);
    let q1 = annot_query::parser::parse_ucq(&mut schema, pair.0).unwrap();
    let q2 = annot_query::parser::parse_ucq(&mut schema, pair.1).unwrap();
    let config = BruteForceConfig {
        domain_size,
        max_support,
        ..Default::default()
    };
    let label = format!("{}: {} ⊆ {}", K::NAME, pair.0, pair.1);
    let unbudgeted = try_find_counterexample::<K>(&q1, &q2, &config).unwrap();
    assert_eq!(
        unbudgeted.counterexample.is_some(),
        refuted,
        "{label}: verdict"
    );
    assert_eq!(unbudgeted.stats.instances_visited, w, "{label}: W");
    let witness = |outcome: &SearchOutcome<K>| {
        outcome.counterexample.as_ref().map(|ce| {
            (
                ce.instance.clone(),
                ce.tuple.clone(),
                ce.lhs.clone(),
                ce.rhs.clone(),
            )
        })
    };
    for budget in [w, w + 1, 2 * w] {
        let outcome = try_find_counterexample::<K>(
            &q1,
            &q2,
            &config.clone().with_max_instances(Some(budget)),
        )
        .unwrap_or_else(|err| panic!("{label}: budget {budget} ≥ W failed: {err}"));
        assert_eq!(
            witness(&outcome),
            witness(&unbudgeted),
            "{label}: budget {budget}"
        );
        assert_eq!(
            outcome.stats.instances_visited, w,
            "{label}: budget {budget}"
        );
    }
    for budget in [0, 1, w / 2, w - 1] {
        let err = try_find_counterexample::<K>(
            &q1,
            &q2,
            &config.clone().with_max_instances(Some(budget)),
        )
        .expect_err("a budget below W must not settle the search");
        assert_eq!(
            err,
            BruteForceError::InstanceBudgetExceeded {
                max_instances: budget
            },
            "{label}: budget {budget}"
        );
    }
}

/// Example 4.6's pair, refuted over `N` and `Why[X]`.
const EX_4_6: (&str, &str) = ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)");
/// A pair that holds over every semiring, so its walk is full.
const EDGE: (&str, &str) = ("Q() :- R(u, v)", "Q() :- R(u, v)");

#[test]
fn budget_threshold_direct_natural() {
    budget_threshold::<Natural>(EX_4_6, 2, 3, true, 3);
    budget_threshold::<Natural>(EDGE, 2, 3, false, 361);
}

#[test]
fn budget_threshold_factorized_why() {
    budget_threshold::<Why>(EX_4_6, 2, 3, true, 21);
    budget_threshold::<Why>(EDGE, 2, 4, false, 457);
}

#[test]
fn budget_threshold_factorized_lineage() {
    budget_threshold::<Lineage>(
        ("Q() :- R(u, v)", "Q() :- R(u, v), R(v, w)"),
        2,
        3,
        true,
        88,
    );
    if !cfg!(miri) {
        budget_threshold::<Lineage>(EDGE, 3, 4, false, 2_482);
    }
}

#[test]
fn full_walk_counts_factorized_why() {
    full_walk_counts::<Why>();
}

#[test]
fn full_walk_counts_factorized_nat_poly() {
    full_walk_counts::<NatPoly>();
}

// ---------------------------------------------------------------------------
// The search-space quotients: reduced samples × symmetry pruning (PR 9)
// ---------------------------------------------------------------------------

fn eval_ducq<K: Semiring>(d: &Ducq, instance: &Instance<K>, t: &Tuple) -> K {
    eval_ducq_all_outputs(d, instance)
        .get(t)
        .cloned()
        .unwrap_or_else(K::zero)
}

/// Runs one (pair, shape) cell of the quotient sweep: for both positions of
/// the `symmetry_quotient` knob the verdict must match the full-sample
/// naive oracle's, and every reported witness must replay under the
/// one-shot evaluators.  (Across modes only the verdict is pinned: the
/// unquotiented walk may legitimately stop at a witness whose support the
/// quotiented walk prunes as non-canonical.)  Returns whether the pair was
/// refuted.
fn sweep_quotient_modes<K: Semiring>(
    base: &BruteForceConfig,
    naive_refutes: bool,
    run: &dyn Fn(&BruteForceConfig) -> Option<CounterExample<K>>,
    replay: &dyn Fn(&CounterExample<K>) -> (K, K),
    label: &str,
) -> bool {
    let mut refuted = false;
    for symmetry_quotient in [true, false] {
        let config = BruteForceConfig {
            symmetry_quotient,
            ..base.clone()
        };
        let reference = run(&config);
        assert_eq!(
            reference.is_some(),
            naive_refutes,
            "{}: {label}: quotient {symmetry_quotient} flipped the verdict against \
             the full-sample naive oracle",
            K::NAME
        );
        if let Some(ce) = &reference {
            let (lhs, rhs) = replay(ce);
            assert_eq!(ce.lhs, lhs, "{}: {label}: reported lhs replay", K::NAME);
            assert_eq!(ce.rhs, rhs, "{}: {label}: reported rhs replay", K::NAME);
            assert!(
                !lhs.leq(&rhs),
                "{}: {label}: reported violation replay",
                K::NAME
            );
            refuted = true;
        }
    }
    refuted
}

/// The quotiented-vs-unquotiented differential across CQ/UCQ/DUCQ shapes:
/// randomized pairs, both `symmetry_quotient` positions, verdicts held to
/// the full-sample naive reference.
fn quotient_sweep<K: Semiring>(cases: u64) {
    let base = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    let mut refuted = 0u64;
    for seed in 0..cases {
        let mut g = generator(9600 + seed);
        let cq_pair = (Ucq::single(g.cq()), Ucq::single(g.cq()));
        let ucq_pair = (g.ucq(2), g.ucq(2));
        for (shape, (u1, u2)) in [("CQ", cq_pair), ("UCQ", ucq_pair)] {
            let naive = find_counterexample_naive::<K>(&u1, &u2, &base).is_some();
            let hit = sweep_quotient_modes::<K>(
                &base,
                naive,
                &|config| find_counterexample::<K>(&u1, &u2, config),
                &|ce| {
                    (
                        eval_ucq(&u1, &ce.instance, &ce.tuple),
                        eval_ucq(&u2, &ce.instance, &ce.tuple),
                    )
                },
                &format!("{shape} seed {seed}"),
            );
            refuted += u64::from(hit);
        }
        let (d1, d2) = (g.ducq(2), g.ducq(2));
        let naive = find_counterexample_naive::<K>(&d1, &d2, &base).is_some();
        let hit = sweep_quotient_modes::<K>(
            &base,
            naive,
            &|config| find_counterexample::<K>(&d1, &d2, config),
            &|ce| {
                (
                    eval_ducq(&d1, &ce.instance, &ce.tuple),
                    eval_ducq(&d2, &ce.instance, &ce.tuple),
                )
            },
            &format!("DUCQ seed {seed}"),
        );
        refuted += u64::from(hit);
    }
    assert!(
        refuted > 0,
        "{}: quotient sweep never refuted — the differential is vacuous",
        K::NAME
    );
}

#[test]
fn quotient_sweep_natural() {
    quotient_sweep::<Natural>(quick(8));
}

#[test]
fn quotient_sweep_why() {
    quotient_sweep::<Why>(quick(3));
}

#[test]
fn quotient_sweep_lineage() {
    quotient_sweep::<Lineage>(quick(4));
}

#[test]
fn quotient_sweep_nat_poly() {
    quotient_sweep::<NatPoly>(quick(3));
}
