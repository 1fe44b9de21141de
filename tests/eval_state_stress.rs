//! Randomized stress suite for the dense, relation-indexed [`EvalState`].
//!
//! PR 5 rewrote `EvalState`'s fact storage from a `HashMap<RelId, Vec<…>>`
//! to dense per-relation flat arenas with `(RelId, u32 len)` undo frames.
//! This suite drives seeded randomized push/pop walks — biased towards
//! pushes, with zero-annotation no-op frames and tombstone-revival episodes
//! (pop a fact, then re-push the same row with a different annotation)
//! interleaved — and checks the maintained **row-level** outputs
//! ([`EvalState::outputs_rows`]) against the one-shot
//! `eval_*_all_outputs_rows` family after **every** step, across all four
//! query shapes (CQ / CCQ / UCQ / DUCQ) and both dispatch classes of
//! annotation domain (scalar: `N`, `T⁺`; heap-carrying: `Why[X]`, `N[X]`).
//!
//! The row-level comparison is exact because the state, the mirror
//! instance and the one-shot evaluators all share one interner: clones of
//! a [`Schema`] share its [`Domain`], so equal tuples intern to equal
//! [`ValueId`]s on every side.

use annot_query::eval::{all_output_rows, EvalState};
use annot_query::{Ccq, Cq, DbValue, Ducq, IdTuple, Instance, QVar, RelId, Schema, Tuple, Ucq};
use annot_semiring::{NatPoly, Natural, Semiring, Tropical, Why};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn schema() -> Schema {
    Schema::with_relations([("R", 2), ("S", 1)])
}

/// One step of the walk as recorded on the shadow stack.
type Fact<K> = (RelId, Tuple, K);

/// Rebuilds the instance equivalent to the current fact stack.  Annotations
/// accumulate per row exactly like [`EvalState::push_fact`]
/// (`add_annotation`), and zero pushes are the same no-op on both sides.
fn mirror_instance<K: Semiring>(schema: &Schema, stack: &[Fact<K>]) -> Instance<K> {
    let mut instance = Instance::new(schema.clone());
    for (rel, tuple, k) in stack {
        instance.add_annotation(*rel, tuple.clone(), k.clone());
    }
    instance
}

/// Drives `state` through `steps` seeded random push/pop steps over the
/// given schema and checks its row-level outputs against `oneshot` of the
/// mirror instance after every step.
///
/// The walk is biased towards pushes (so depth grows), draws annotations
/// from the **full** sample list — including `0`, exercising the no-op
/// undo frames — over a 2-value domain (so rows repeat and annotations
/// accumulate), and with a dedicated move pops the newest fact and
/// immediately re-pushes its row under a different annotation: the
/// tombstone-revival episode of the brute-force enumerators, driven
/// through the undo log.
fn random_walk<K: Semiring>(
    seed: u64,
    steps: usize,
    schema: &Schema,
    state: &mut EvalState<'_, K>,
    oneshot: &dyn Fn(&Instance<K>) -> BTreeMap<IdTuple, K>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<K> = K::sample_elements();
    let rels: Vec<RelId> = schema.rel_ids().collect();
    let mut stack: Vec<Fact<K>> = Vec::new();
    let random_fact = |rng: &mut StdRng| -> (RelId, Tuple) {
        let rel = rels[rng.gen_range(0..rels.len())];
        let tuple: Tuple = (0..schema.arity(rel))
            .map(|_| DbValue::Int(rng.gen_range(0..2i64)))
            .collect();
        (rel, tuple)
    };
    for step in 0..steps {
        let roll = rng.gen_range(0..10u32);
        if stack.is_empty() || roll < 5 {
            // Push a random fact (possibly zero-annotated).
            let (rel, tuple) = random_fact(&mut rng);
            let k = samples[rng.gen_range(0..samples.len())].clone();
            state.push_fact(rel, tuple.clone(), k.clone());
            stack.push((rel, tuple, k));
        } else if roll < 8 {
            state.pop_fact();
            stack.pop();
        } else {
            // Tombstone revival: retract the newest fact and revive its row
            // under a different annotation.
            let (rel, tuple, old) = stack.pop().expect("non-empty stack");
            state.pop_fact();
            let replacement = samples
                .iter()
                .find(|k| !k.is_zero() && **k != old)
                .expect("samples contain at least two distinct non-zero elements")
                .clone();
            state.push_fact(rel, tuple.clone(), replacement.clone());
            stack.push((rel, tuple, replacement));
        }
        assert_eq!(state.depth(), stack.len(), "depth diverged at step {step}");
        let expected = oneshot(&mirror_instance(schema, &stack));
        assert_eq!(
            *state.outputs_rows(),
            expected,
            "{}: row-level outputs diverged at step {step} (depth {})",
            K::NAME,
            stack.len()
        );
    }
    // Unwind completely: the undo log must restore the initial outputs.
    while state.depth() > 0 {
        state.pop_fact();
        stack.pop();
        let expected = oneshot(&mirror_instance(schema, &stack));
        assert_eq!(
            *state.outputs_rows(),
            expected,
            "{}: unwind diverged",
            K::NAME
        );
    }
}

// Push/pop walk length; a short walk under Miri (interpreter overhead),
// still deep enough to exercise push, undo and full unwind.
#[cfg(not(miri))]
const STEPS: usize = 70;
#[cfg(miri)]
const STEPS: usize = 10;

// -- CQ ---------------------------------------------------------------------

fn cq_query(schema: &Schema) -> Cq {
    Cq::builder(schema)
        .free(&["x"])
        .atom("R", &["x", "y"])
        .atom("S", &["y"])
        .build()
}

fn stress_cq<K: Semiring>(seed: u64) {
    let schema = schema();
    let q = cq_query(&schema);
    let mut state: EvalState<'_, K> = EvalState::new(&q);
    random_walk(seed, STEPS, &schema, &mut state, &|i| {
        all_output_rows(&q, i)
    });
}

#[test]
fn stress_cq_natural() {
    stress_cq::<Natural>(0xE1);
}

#[test]
fn stress_cq_why() {
    stress_cq::<Why>(0xE2);
}

// -- CCQ --------------------------------------------------------------------

fn ccq_query(schema: &Schema) -> Ccq {
    let base = Cq::builder(schema)
        .atom("R", &["x", "y"])
        .atom("R", &["z", "w"])
        .build();
    Ccq::new(base, [(QVar(0), QVar(2)), (QVar(1), QVar(3))])
}

fn stress_ccq<K: Semiring>(seed: u64) {
    let schema = schema();
    let q = ccq_query(&schema);
    let mut state: EvalState<'_, K> = EvalState::new(&q);
    random_walk(seed, STEPS, &schema, &mut state, &|i| {
        all_output_rows(&q, i)
    });
}

#[test]
fn stress_ccq_tropical() {
    stress_ccq::<Tropical>(0xE3);
}

#[test]
fn stress_ccq_nat_poly() {
    stress_ccq::<NatPoly>(0xE4);
}

// -- UCQ --------------------------------------------------------------------

fn ucq_query(schema: &Schema) -> Ucq {
    let q1 = Cq::builder(schema).free(&["v"]).atom("S", &["v"]).build();
    let q2 = Cq::builder(schema)
        .free(&["x"])
        .atom("R", &["x", "y"])
        .atom("S", &["y"])
        .build();
    Ucq::new([q1, q2])
}

fn stress_ucq<K: Semiring>(seed: u64) {
    let schema = schema();
    let q = ucq_query(&schema);
    let mut state: EvalState<'_, K> = EvalState::new(&q);
    random_walk(seed, STEPS, &schema, &mut state, &|i| {
        all_output_rows(&q, i)
    });
}

#[test]
fn stress_ucq_natural() {
    stress_ucq::<Natural>(0xE5);
}

#[test]
fn stress_ucq_why() {
    stress_ucq::<Why>(0xE6);
}

// -- DUCQ -------------------------------------------------------------------

fn ducq_query(schema: &Schema) -> Ducq {
    let ccq1 = ccq_query(schema);
    let ccq2 = Ccq::from_cq(
        Cq::builder(schema)
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build(),
    );
    Ducq::new([ccq1, ccq2])
}

fn stress_ducq<K: Semiring>(seed: u64) {
    let schema = schema();
    let q = ducq_query(&schema);
    let mut state: EvalState<'_, K> = EvalState::new(&q);
    random_walk(seed, STEPS, &schema, &mut state, &|i| {
        all_output_rows(&q, i)
    });
}

#[test]
fn stress_ducq_tropical() {
    stress_ducq::<Tropical>(0xE7);
}

#[test]
fn stress_ducq_nat_poly() {
    stress_ducq::<NatPoly>(0xE8);
}

/// Relations the tracked queries never mention still participate in the
/// dense fact store (their `RelId` indexes past the query schema's tables
/// at first sight): pushes to them must maintain outputs, undo cleanly,
/// and interleave with tracked pushes.
#[test]
fn stress_untracked_relations_round_trip() {
    let schema = Schema::with_relations([("R", 2), ("S", 1), ("T", 3)]);
    let q = Cq::builder(&schema)
        .free(&["x"])
        .atom("R", &["x", "y"])
        .build();
    let mut state: EvalState<'_, Natural> = EvalState::new(&q);
    let r = schema.relation("R").unwrap();
    let t = schema.relation("T").unwrap();
    state.push_fact(t, vec![1.into(), 2.into(), 3.into()], Natural(7));
    assert!(state.outputs_rows().is_empty());
    state.push_fact(r, vec![1.into(), 2.into()], Natural(2));
    assert_eq!(state.outputs_rows().len(), 1);
    state.push_fact(t, vec![3.into(), 2.into(), 1.into()], Natural(0));
    assert_eq!(state.outputs_rows().len(), 1);
    state.pop_fact();
    state.pop_fact();
    state.pop_fact();
    assert!(state.outputs_rows().is_empty());
    assert_eq!(state.depth(), 0);
}
