//! Randomized cross-validation of the syntactic deciders against brute-force
//! semantics.
//!
//! Two layers of checks, all driven by fixed seeds so failures reproduce:
//!
//! 1. **Structural invariants** on random polynomials (previously expressed
//!    with proptest; rewritten as seeded loops because the build environment
//!    vendors its dependencies): semiring laws under evaluation (Prop. 3.2),
//!    homogeneity of CQ-admissible polynomials (Sec. 4.5), monotonicity of
//!    the tropical order.
//!
//! 2. **The oracle harness**: for one representative semiring per class of
//!    Table 1 (`B`, `Lin[X]`, `T⁺`, `T⁻`, `Viterbi`, `Why[X]`, `Trio[X]`,
//!    `N[X]`, `N`, `B_2`, `B_3`), generate ≥100
//!    random CQ pairs and UCQ pairs via [`annot_query::generator`] and check
//!    the class-dispatching deciders of [`annot_core::decide`] against the
//!    exhaustive semantic search of [`annot_core::brute_force`] over small
//!    domains, in the two directions that are logically valid for *every*
//!    sample bound: a `Contained` verdict must never coexist with a semantic
//!    counterexample, and a semantic counterexample must force a
//!    `NotContained` verdict from the exact-criterion deciders.

use annot_core::brute_force::{find_counterexample, find_counterexample_naive, BruteForceConfig};
use annot_core::classes::ClassifiedSemiring;
use annot_core::decide::{decide_cq, decide_ucq, Decision, Verdict};
use annot_hom::kinds;
use annot_polynomial::admissible::is_cq_admissible;
use annot_polynomial::{leq_tropical, Monomial, Polynomial, Terms, TropicalKind, Var};
use annot_query::complete::complete_description_cq;
use annot_query::eval::{eval_boolean_cq, eval_cq, eval_ducq};
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{CanonicalInstance, Cq, Ducq, Instance, Ucq};
use annot_semiring::{
    eval_polynomial, Bool, BoundedNat, Lineage, NatPoly, Natural, Schedule, Semiring, Trio,
    Tropical, Viterbi, Why,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Parallel case driver
// ---------------------------------------------------------------------------

/// Cases handed to a worker per claim: big enough to amortise the claim,
/// small enough to balance skewed case costs.
const BATCH: usize = 8;

/// Drives `total` independent oracle cases (identified by their index) in
/// parallel batches over a scoped pool of up to four threads (the
/// per-semiring `#[test]`s already parallelise at the libtest level, so the
/// pool stays modest on big machines).  A panicking case (a failed
/// assertion) propagates out of the scope and fails the test with its
/// original message.
fn run_cases(total: usize, check: impl Fn(u64) + Sync) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    if threads <= 1 || total <= BATCH {
        for case in 0..total {
            check(case as u64);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let workers = threads.min(total.div_ceil(BATCH));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let start = next.fetch_add(BATCH, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    for case in start..(start + BATCH).min(total) {
                        check(case as u64);
                    }
                })
            })
            .collect();
        // Re-raise the first worker panic with its original payload (a bare
        // scope exit would replace the assertion message with the generic
        // "a scoped thread panicked").
        let mut panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
}

// ---------------------------------------------------------------------------
// Random polynomials (seeded replacement for the old proptest strategies)
// ---------------------------------------------------------------------------

/// A random polynomial over up to 3 variables, ≤ 3 monomials of degree ≤ 2,
/// coefficients ≤ 3 — the same distribution the old proptest strategy used.
fn random_polynomial(rng: &mut StdRng) -> Polynomial {
    let num_terms = rng.gen_range(0..4usize);
    Polynomial::from_terms((0..num_terms).map(|_| {
        let num_vars = rng.gen_range(0..3usize);
        let vars = (0..num_vars).map(|_| Var(rng.gen_range(0..3u32)));
        (Monomial::from_vars(vars), rng.gen_range(1..4u64))
    }))
}

// Full randomized load, or a handful of cases per property under Miri —
// the interpreter is orders of magnitude slower and hunts undefined
// behaviour, not statistical coverage.  `quick_mode_covers_every_semiring`
// pins the quick counts above zero.
#[cfg(not(miri))]
const POLY_CASES: usize = 128;
#[cfg(miri)]
const POLY_CASES: usize = 4;

/// Prop. 3.2: evaluation into N (bag semantics) is a semiring morphism.
#[test]
fn evaluation_is_a_morphism() {
    let mut rng = StdRng::seed_from_u64(0xA1);
    for _ in 0..POLY_CASES {
        let p = random_polynomial(&mut rng);
        let q = random_polynomial(&mut rng);
        let (a, b, c) = (
            rng.gen_range(0..4u64),
            rng.gen_range(0..4u64),
            rng.gen_range(0..4u64),
        );
        let valuation = move |v: Var| {
            Natural(match v.0 {
                0 => a,
                1 => b,
                _ => c,
            })
        };
        let ep = eval_polynomial::<Natural>(&p, &valuation);
        let eq = eval_polynomial::<Natural>(&q, &valuation);
        assert_eq!(
            eval_polynomial::<Natural>(&p.plus(&q), &valuation),
            ep.add(&eq)
        );
        assert_eq!(
            eval_polynomial::<Natural>(&p.times(&q), &valuation),
            ep.mul(&eq)
        );
    }
}

/// Polynomial arithmetic is commutative/associative/distributive.
#[test]
fn polynomial_ring_laws() {
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..POLY_CASES {
        let p = random_polynomial(&mut rng);
        let q = random_polynomial(&mut rng);
        let r = random_polynomial(&mut rng);
        assert_eq!(p.plus(&q), q.plus(&p));
        assert_eq!(p.times(&q), q.times(&p));
        assert_eq!(p.plus(&q).plus(&r), p.plus(&q.plus(&r)));
        assert_eq!(p.times(&q).times(&r), p.times(&q.times(&r)));
        assert_eq!(p.times(&q.plus(&r)), p.times(&q).plus(&p.times(&r)));
    }
}

/// Every CQ-admissible polynomial is homogeneous and its coefficients are
/// bounded by the number of orderings of the monomial (Sec. 4.5).
#[test]
fn admissible_polynomials_are_homogeneous() {
    let mut rng = StdRng::seed_from_u64(0xA3);
    let mut admissible_seen = 0usize;
    for _ in 0..4 * POLY_CASES {
        let p = random_polynomial(&mut rng);
        if is_cq_admissible(&p) {
            admissible_seen += 1;
            assert!(p.is_homogeneous(), "admissible but inhomogeneous: {:?}", p);
            for (m, c) in p.terms() {
                assert!(c <= m.num_orderings());
            }
        }
    }
    assert!(
        admissible_seen > 0,
        "sample never hit an admissible polynomial"
    );
}

/// The tropical order is a preorder compatible with addition (positivity
/// requirement (C4) at the polynomial level).
#[test]
fn tropical_order_is_monotone() {
    let mut rng = StdRng::seed_from_u64(0xA4);
    for _ in 0..POLY_CASES {
        let p = random_polynomial(&mut rng);
        let q = random_polynomial(&mut rng);
        let r = random_polynomial(&mut rng);
        let leq = |p: &Polynomial, q: &Polynomial| {
            leq_tropical(&Terms::from(p), &Terms::from(q), TropicalKind::MinPlus)
        };
        assert!(leq(&p, &p));
        if leq(&p, &q) {
            assert!(leq(&p.plus(&r), &q.plus(&r)));
        }
    }
}

// ---------------------------------------------------------------------------
// The oracle harness: deciders vs brute-force semantics
// ---------------------------------------------------------------------------

// Per-semiring randomized oracle load; quick mode under Miri (see
// `POLY_CASES`).
#[cfg(not(miri))]
const CQ_CASES_PER_SEMIRING: usize = 110;
#[cfg(miri)]
const CQ_CASES_PER_SEMIRING: usize = 2;
#[cfg(not(miri))]
const UCQ_CASES_PER_SEMIRING: usize = 40;
#[cfg(miri)]
const UCQ_CASES_PER_SEMIRING: usize = 1;

/// The Miri quick mode must still exercise every property and every
/// semiring: a case count of zero would turn a suite into a silent no-op
/// while looking green in CI.  (Compiled in both modes; the constants
/// differ, the floor does not.)
#[test]
#[allow(clippy::assertions_on_constants)] // pinning cfg(miri) constants is the point
fn quick_mode_covers_every_semiring() {
    assert!(POLY_CASES >= 1, "polynomial properties disabled");
    assert!(CQ_CASES_PER_SEMIRING >= 1, "CQ oracle disabled");
    assert!(UCQ_CASES_PER_SEMIRING >= 1, "UCQ oracle disabled");
}

fn cq_pair(seed: u64) -> (Cq, Cq) {
    let mut generator = QueryGenerator::new(GeneratorConfig {
        num_atoms: 2,
        shape: QueryShape::Random,
        var_pool: 3,
        num_relations: 1,
        seed,
        ..Default::default()
    });
    (generator.cq(), generator.cq())
}

fn ucq_pair(seed: u64) -> (Ucq, Ucq) {
    let mut generator = QueryGenerator::new(GeneratorConfig {
        num_atoms: 2,
        shape: QueryShape::Random,
        var_pool: 3,
        num_relations: 1,
        seed,
        ..Default::default()
    });
    (generator.ucq(2), generator.ucq(2))
}

/// Checks one decider answer against the brute-force search, in the
/// directions valid for any sample/domain bound:
///
/// * `Contained` ⇒ no semantic counterexample exists (soundness);
/// * a semantic counterexample ⇒ the answer is not `Contained`, and for
///   semirings with an exact criterion (`exact = true`) it must be
///   `NotContained`.
fn check_against_oracle(
    name: &str,
    case: &str,
    decision: &Decision,
    counterexample_found: bool,
    exact: bool,
) {
    if exact {
        assert!(
            decision.decided().is_some(),
            "{name}: exact criterion returned Unknown on {case}"
        );
    }
    if decision.answer == Verdict::Contained {
        assert!(
            !counterexample_found,
            "{name}: decider claims containment via {} but brute force \
             refutes it on {case}",
            decision.method
        );
    }
    if counterexample_found && exact {
        assert_eq!(
            decision.decided(),
            Some(false),
            "{name}: semantic counterexample exists but decider did not refute {case}"
        );
    }
}

fn oracle_cq<K: ClassifiedSemiring>(exact: bool) {
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    let name = K::class_profile().name;
    run_cases(CQ_CASES_PER_SEMIRING, |seed| {
        let (q1, q2) = cq_pair(3000 + seed);
        let answer = decide_cq::<K>(&q1, &q2);
        let refuted = find_counterexample::<K>(&q1, &q2, &config).is_some();
        check_against_oracle(name, &format!("{} vs {}", q1, q2), &answer, refuted, exact);
    });
}

fn oracle_ucq<K: ClassifiedSemiring>(exact: bool) {
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    let name = K::class_profile().name;
    run_cases(UCQ_CASES_PER_SEMIRING, |seed| {
        let (u1, u2) = ucq_pair(5000 + seed);
        let answer = decide_ucq::<K>(&u1, &u2);
        let refuted = find_counterexample::<K>(&u1, &u2, &config).is_some();
        let case = format!("{} vs {} (seed {})", u1, u2, 5000 + seed);
        check_against_oracle(name, &case, &answer, refuted, exact);
    });
}

#[test]
fn oracle_cq_bool() {
    oracle_cq::<Bool>(true);
}

#[test]
fn oracle_cq_lineage() {
    oracle_cq::<Lineage>(true);
}

#[test]
fn oracle_cq_tropical() {
    oracle_cq::<Tropical>(true);
}

#[test]
fn oracle_cq_viterbi() {
    // Viterbi is decided through its −ln isomorphism to T⁺ (the small-model
    // procedure with the min-plus polynomial order).
    oracle_cq::<Viterbi>(true);
}

#[test]
fn oracle_cq_why() {
    oracle_cq::<Why>(true);
}

#[test]
fn oracle_cq_nat_poly() {
    oracle_cq::<NatPoly>(true);
}

#[test]
fn oracle_cq_schedule() {
    oracle_cq::<Schedule>(true);
}

#[test]
fn oracle_cq_trio() {
    oracle_cq::<Trio>(true);
}

#[test]
fn oracle_cq_bounded_2() {
    // B_2 and B_3 have no exact criterion either: their verdicts come from
    // the bounds, which must agree with the semantics where they decide.
    oracle_cq::<BoundedNat<2>>(false);
}

#[test]
fn oracle_cq_bounded_3() {
    oracle_cq::<BoundedNat<3>>(false);
}

#[test]
fn oracle_cq_natural() {
    // Bag semantics is the open row of Table 1: the decider may answer
    // Unknown, but its Contained/NotContained answers must still agree with
    // the semantics.
    oracle_cq::<Natural>(false);
}

#[test]
fn oracle_ucq_bool() {
    oracle_ucq::<Bool>(true);
}

#[test]
fn oracle_ucq_lineage() {
    oracle_ucq::<Lineage>(true);
}

#[test]
fn oracle_ucq_tropical() {
    oracle_ucq::<Tropical>(true);
}

#[test]
fn oracle_ucq_viterbi() {
    oracle_ucq::<Viterbi>(true);
}

#[test]
fn oracle_ucq_why() {
    oracle_ucq::<Why>(true);
}

#[test]
fn oracle_ucq_nat_poly() {
    oracle_ucq::<NatPoly>(true);
}

#[test]
fn oracle_ucq_natural() {
    oracle_ucq::<Natural>(false);
}

#[test]
fn oracle_ucq_schedule() {
    oracle_ucq::<Schedule>(true);
}

#[test]
fn oracle_ucq_trio() {
    oracle_ucq::<Trio>(true);
}

#[test]
fn oracle_ucq_bounded_2() {
    oracle_ucq::<BoundedNat<2>>(false);
}

#[test]
fn oracle_ucq_bounded_3() {
    oracle_ucq::<BoundedNat<3>>(false);
}

// ---------------------------------------------------------------------------
// DUCQ oracle cases: the incremental (EvalState-driven) search vs the
// one-shot reference
// ---------------------------------------------------------------------------

fn ducq_pair(seed: u64) -> (Ducq, Ducq) {
    let mut generator = QueryGenerator::new(GeneratorConfig {
        num_atoms: 2,
        shape: QueryShape::Random,
        var_pool: 3,
        num_relations: 1,
        seed,
        ..Default::default()
    });
    (generator.ducq(2), generator.ducq(2))
}

/// Random DUCQs (unions of CCQs, whose disjuncts carry `u ≠ v` disequality
/// constraints): the prefix-memoized oracle — which maintains both queries'
/// all-outputs maps through `EvalState::for_ducq` — must agree with the
/// naive reference oracle — which re-evaluates every instance one-shot via
/// `eval_ducq_all_outputs` — on the existence of a counterexample, and
/// every reported counterexample must replay under `eval_ducq`.
///
/// No syntactic decider covers DUCQs, so unlike the CQ/UCQ harnesses above
/// this is a two-oracle differential; it runs over one representative
/// semiring per dispatch class and order shape of the search (scalar
/// direct: `B`, `N`, `T⁺`; heap-carrying factorized: `Why[X]`, `N[X]`).
///
/// `cases` is scaled per semiring so the whole suite respects the ~3 s
/// debug wall budget on the single-core CI builder — the naive reference
/// enumerates `Σ C(n,k)·sᵏ` instances per case, so semirings with many
/// sample elements (`Why[X]`: 6 non-zero) pay an order of magnitude more
/// per case than `B` (1 non-zero).
fn oracle_ducq<K: Semiring>(cases: usize) {
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    run_cases(cases, |seed| {
        let (d1, d2) = ducq_pair(11_000 + seed);
        let memoized = find_counterexample::<K>(&d1, &d2, &config);
        let naive = find_counterexample_naive::<K>(&d1, &d2, &config);
        assert_eq!(
            memoized.is_some(),
            naive.is_some(),
            "{}: incremental and one-shot DUCQ oracles disagree on {} vs {} (seed {})",
            K::NAME,
            d1,
            d2,
            11_000 + seed
        );
        for ce in [memoized, naive].into_iter().flatten() {
            let lhs = eval_ducq(&d1, &ce.instance, &ce.tuple);
            let rhs = eval_ducq(&d2, &ce.instance, &ce.tuple);
            assert_eq!(ce.lhs, lhs, "{}: reported lhs is not Q₁ᴵ(t)", K::NAME);
            assert_eq!(ce.rhs, rhs, "{}: reported rhs is not Q₂ᴵ(t)", K::NAME);
            assert!(
                !lhs.leq(&rhs),
                "{}: reported DUCQ violation does not replay",
                K::NAME
            );
        }
    });
}

#[test]
fn oracle_ducq_bool() {
    oracle_ducq::<Bool>(24);
}

#[test]
fn oracle_ducq_natural() {
    oracle_ducq::<Natural>(18);
}

#[test]
fn oracle_ducq_tropical() {
    oracle_ducq::<Tropical>(18);
}

#[test]
fn oracle_ducq_why() {
    oracle_ducq::<Why>(10);
}

#[test]
fn oracle_ducq_nat_poly() {
    oracle_ducq::<NatPoly>(14);
}

/// On the exact-criterion semiring whose brute-force search is complete on
/// these bounds (`B`: ⊕-idempotent, two-element carrier, domain as large as
/// the variable pools involved), the decider and the oracle agree *in both
/// directions* — full agreement, not just the sound directions.
#[test]
fn oracle_cq_bool_is_two_sided() {
    let config = BruteForceConfig {
        domain_size: 3,
        max_support: 4,
        ..Default::default()
    };
    let mut disagreements_settled = 0usize;
    for seed in 0..60u64 {
        let (q1, q2) = cq_pair(7000 + seed);
        let answer = decide_cq::<Bool>(&q1, &q2).decided().expect("B is exact");
        let refuted = find_counterexample::<Bool>(&q1, &q2, &config).is_some();
        assert_eq!(
            answer, !refuted,
            "B: decider and complete brute force disagree on {} vs {}",
            q1, q2
        );
        if !answer {
            disagreements_settled += 1;
        }
    }
    // The workload must exercise both verdicts for the test to mean much.
    assert!(disagreements_settled > 0);
    assert!(disagreements_settled < 60);
}

// ---------------------------------------------------------------------------
// Random CQ workloads retained from the seed suite
// ---------------------------------------------------------------------------

/// Random CQ workloads: a query is always equivalent to its complete
/// description (Q ≡_K ⟨Q⟩) on random instances, for an idempotent and a
/// non-idempotent semiring.
#[test]
fn complete_description_equivalence_on_random_queries() {
    for seed in 0..30u64 {
        let mut generator = QueryGenerator::new(GeneratorConfig {
            num_atoms: 2 + (seed % 2) as usize,
            shape: QueryShape::Random,
            var_pool: 3,
            num_relations: 1,
            seed,
            ..Default::default()
        });
        let q = generator.cq();
        let description = complete_description_cq(&q);
        let instance: Instance<Natural> = generator.instance(3, 5);
        let direct = eval_boolean_cq(&q, &instance);
        let via_description = eval_ducq(&description, &instance, &vec![]);
        assert_eq!(direct, via_description, "Q ≢ ⟨Q⟩ for {}", q);

        let tropical: Instance<Tropical> =
            instance.map_annotations(&|n| Tropical::Finite(n.0.min(20)));
        assert_eq!(
            eval_boolean_cq(&q, &tropical),
            eval_ducq(&description, &tropical, &vec![])
        );
    }
}

/// The universal bounds of the paper on random workloads:
/// `Q₂ ⤖ Q₁ ⇒ Q₁ ⊆_K Q₂` and `Q₁ ⊆_K Q₂ ⇒ Q₂ → Q₁` for every semiring.
#[test]
fn universal_bounds_on_random_queries() {
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    for seed in 100..130u64 {
        let (q1, q2) = cq_pair(seed);
        // Sufficiency of bijective homomorphisms, tested over Why[X]
        // (idempotent) and N (non-idempotent).
        if kinds::exists_bijective_hom(&q2, &q1) {
            assert!(find_counterexample::<Why>(&q1, &q2, &config).is_none());
            assert!(find_counterexample::<Natural>(&q1, &q2, &config).is_none());
        }
        // Necessity of plain homomorphisms: if no homomorphism Q2 → Q1
        // exists there must be a small Boolean counterexample (the canonical
        // instance of Q1 fits in the search bounds for these workloads).
        if !kinds::exists_hom(&q2, &q1) {
            assert!(
                find_counterexample::<Bool>(&q1, &q2, &config).is_some() || q1.num_vars() > 2,
                "no homomorphism but no small Boolean counterexample: {} vs {}",
                q1,
                q2
            );
        }
    }
}

/// Evaluating a CQ over the canonical instance of another CQ realises the
/// homomorphism criterion: Q2 → Q1 iff Q2 evaluates to a non-zero polynomial
/// over ⟦Q1⟧ with the identity output tuple (Chandra–Merlin via provenance).
#[test]
fn canonical_instances_capture_homomorphisms() {
    for seed in 200..240u64 {
        let (q1, q2) = cq_pair(seed);
        let canonical = CanonicalInstance::of_cq(&q1);
        let value = eval_cq(&q2, canonical.instance(), &canonical.identity_tuple(&q2));
        let hom = kinds::exists_hom(&q2, &q1);
        // Both queries here are Boolean, so the identity tuple is empty and
        // the equivalence is exact.
        assert_eq!(hom, !value.polynomial().is_zero(), "{} vs {}", q1, q2);
    }
}
