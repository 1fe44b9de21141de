//! Acceptance differential test for the runtime-dispatch API: for every
//! semiring registered in [`annot_core::registry`], `decide_cq_dyn` /
//! `decide_ucq_dyn` must return exactly the decision of the typed
//! `decide_cq::<K>` / `decide_ucq::<K>` entry points — same verdict, same
//! method string, same witness.  The CQ and UCQ entry points must also
//! return the same decision on single CQs.

use annot_core::decide::{decide_cq, decide_ucq, Decision};
use annot_core::registry::{decide_cq_dyn, decide_ucq_dyn, SemiringId};
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{Cq, Ucq};
use annot_semiring::{
    Bool, BoolPoly, BoundedNat, Clearance, Fuzzy, Lineage, NatPoly, Natural, PosBool, Schedule,
    Trio, Tropical, Viterbi, Why,
};

/// Typed dispatch by registry name — the reference side of the differential
/// test.  Must stay in sync with the `REGISTRY` table; the exhaustiveness
/// test below fails if a row is added without extending this match.
fn typed_cq(name: &str, q1: &Cq, q2: &Cq) -> Decision {
    match name {
        "B" => decide_cq::<Bool>(q1, q2),
        "PosBool[X]" => decide_cq::<PosBool>(q1, q2),
        "Fuzzy" => decide_cq::<Fuzzy>(q1, q2),
        "Access" => decide_cq::<Clearance>(q1, q2),
        "Lin[X]" => decide_cq::<Lineage>(q1, q2),
        "Why[X]" => decide_cq::<Why>(q1, q2),
        "Trio[X]" => decide_cq::<Trio>(q1, q2),
        "B[X]" => decide_cq::<BoolPoly>(q1, q2),
        "N[X]" => decide_cq::<NatPoly>(q1, q2),
        "N" => decide_cq::<Natural>(q1, q2),
        "T+" => decide_cq::<Tropical>(q1, q2),
        "T-" => decide_cq::<Schedule>(q1, q2),
        "Viterbi" => decide_cq::<Viterbi>(q1, q2),
        "B_2" => decide_cq::<BoundedNat<2>>(q1, q2),
        "B_3" => decide_cq::<BoundedNat<3>>(q1, q2),
        other => panic!("registry row {other:?} missing from the typed reference dispatch"),
    }
}

fn typed_ucq(name: &str, q1: &Ucq, q2: &Ucq) -> Decision {
    match name {
        "B" => decide_ucq::<Bool>(q1, q2),
        "PosBool[X]" => decide_ucq::<PosBool>(q1, q2),
        "Fuzzy" => decide_ucq::<Fuzzy>(q1, q2),
        "Access" => decide_ucq::<Clearance>(q1, q2),
        "Lin[X]" => decide_ucq::<Lineage>(q1, q2),
        "Why[X]" => decide_ucq::<Why>(q1, q2),
        "Trio[X]" => decide_ucq::<Trio>(q1, q2),
        "B[X]" => decide_ucq::<BoolPoly>(q1, q2),
        "N[X]" => decide_ucq::<NatPoly>(q1, q2),
        "N" => decide_ucq::<Natural>(q1, q2),
        "T+" => decide_ucq::<Tropical>(q1, q2),
        "T-" => decide_ucq::<Schedule>(q1, q2),
        "Viterbi" => decide_ucq::<Viterbi>(q1, q2),
        "B_2" => decide_ucq::<BoundedNat<2>>(q1, q2),
        "B_3" => decide_ucq::<BoundedNat<3>>(q1, q2),
        other => panic!("registry row {other:?} missing from the typed reference dispatch"),
    }
}

fn cq_pair(seed: u64) -> (Cq, Cq) {
    let mut generator = QueryGenerator::new(GeneratorConfig {
        num_atoms: 2 + (seed % 2) as usize,
        shape: QueryShape::Random,
        var_pool: 3,
        num_relations: 1 + (seed % 2) as usize,
        free_vars: (seed % 3) as usize,
        seed,
    });
    (generator.cq(), generator.cq())
}

fn ucq_pair(seed: u64) -> (Ucq, Ucq) {
    let mut generator = QueryGenerator::new(GeneratorConfig {
        num_atoms: 2,
        shape: QueryShape::Random,
        var_pool: 3,
        num_relations: 1,
        free_vars: (seed % 2) as usize,
        seed,
    });
    (generator.ucq(2), generator.ucq(2))
}

#[test]
fn dyn_cq_matches_typed_cq_for_every_registered_semiring() {
    for seed in 0..40u64 {
        let (q1, q2) = cq_pair(seed);
        for id in SemiringId::all() {
            let dynamic = decide_cq_dyn(id, &q1, &q2);
            let typed = typed_cq(id.name(), &q1, &q2);
            assert_eq!(
                dynamic,
                typed,
                "seed {seed}, semiring {}: dyn and typed CQ decisions diverge",
                id.name()
            );
        }
    }
}

#[test]
fn dyn_ucq_matches_typed_ucq_for_every_registered_semiring() {
    for seed in 0..25u64 {
        let (q1, q2) = ucq_pair(seed);
        for id in SemiringId::all() {
            let dynamic = decide_ucq_dyn(id, &q1, &q2);
            let typed = typed_ucq(id.name(), &q1, &q2);
            assert_eq!(
                dynamic,
                typed,
                "seed {seed}, semiring {}: dyn and typed UCQ decisions diverge",
                id.name()
            );
        }
    }
}

/// Seeded single-CQ pairs over every generator shape, 2–3 atoms, 1–2
/// relations and 0–2 free variables.
fn single_cq_pairs(seeds: &[u64]) -> Vec<(Cq, Cq)> {
    let mut pairs = Vec::new();
    for &seed in seeds {
        for shape in [QueryShape::Chain, QueryShape::Star, QueryShape::Random] {
            for num_atoms in 2..=3 {
                for num_relations in 1..=2 {
                    for free_vars in 0..=2 {
                        let mut generator = QueryGenerator::new(GeneratorConfig {
                            num_atoms,
                            shape,
                            var_pool: 3,
                            num_relations,
                            free_vars,
                            seed,
                        });
                        pairs.push((generator.cq(), generator.cq()));
                    }
                }
            }
        }
    }
    pairs
}

#[test]
fn cq_and_singleton_ucq_entry_points_never_contradict() {
    // Seeds 3 and 6 hold N[X] pairs with free variables, among them
    // `Q(x) :- R(x, x), R(x, x) ⊑ Q(x) :- R(x, y), R(x, y)` (seed 6, random
    // shape, 2 atoms, 1 relation, 1 free variable), that the UCQ path
    // refuted while the CQ path proved them, when ⟨Q⟩ never let an
    // existential variable take a free variable's value.  Both entry points
    // run one decide pass, so they return the same `Decision` — verdict,
    // method and witness — on every row, the open ones included.
    let pairs = single_cq_pairs(&[3, 6]);
    for id in SemiringId::all() {
        for (q1, q2) in &pairs {
            let cq = decide_cq_dyn(id, q1, q2);
            let (u1, u2) = (Ucq::single(q1.clone()), Ucq::single(q2.clone()));
            let ucq = decide_ucq_dyn(id, &u1, &u2);
            assert_eq!(cq, ucq, "semiring {}: {q1} ⊑ {q2}", id.name());
        }
    }
}

#[test]
fn every_alias_resolves_to_its_canonical_row() {
    for id in SemiringId::all() {
        assert_eq!(SemiringId::from_name(id.name()), Some(id));
        for alias in id.aliases() {
            assert_eq!(
                SemiringId::from_name(alias),
                Some(id),
                "alias {alias:?} does not resolve to {}",
                id.name()
            );
            // Case-insensitively, too — the protocol accepts `why[x]`.
            assert_eq!(SemiringId::from_name(&alias.to_uppercase()), Some(id));
            assert_eq!(SemiringId::from_name(&alias.to_lowercase()), Some(id));
        }
    }
    assert_eq!(SemiringId::from_name("no-such-semiring"), None);
}

#[test]
fn reflexive_containment_holds_dynamically_everywhere() {
    // q ⊑ q for every semiring, through the dynamic path: a quick sanity
    // floor that exercises each registry row's criterion at least once with
    // a decidable instance.
    let (q, _) = cq_pair(7);
    let u = Ucq::single(q.clone());
    for id in SemiringId::all() {
        let cq_decision = decide_cq_dyn(id, &q, &q);
        assert_ne!(
            cq_decision.decided(),
            Some(false),
            "semiring {}: q ⊑ q came back NotContained",
            id.name()
        );
        let ucq_decision = decide_ucq_dyn(id, &u, &u);
        assert_ne!(
            ucq_decision.decided(),
            Some(false),
            "semiring {}: q ⊑ q (UCQ) came back NotContained",
            id.name()
        );
    }
}
