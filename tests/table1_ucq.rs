//! Experiment E2 (DESIGN.md): the UCQ half of Table 1.
//!
//! Random UCQ workloads; for each class row the criterion is compared with
//! brute-force semantics over small instances (soundness of acceptance, and
//! rejection whenever a semantic counterexample exists).

use annot_core::brute_force::{find_counterexample, BruteForceConfig};
use annot_core::small_model::ucq_contained_small_model;
use annot_core::ucq::{bijective, covering, local, surjective};
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::Ucq;
use annot_semiring::{Bool, BoolPoly, Lineage, NatPoly, Natural, Semiring, Tropical, Why};

fn workload(seed_base: u64, pairs: usize) -> Vec<(Ucq, Ucq)> {
    let mut out = Vec::new();
    for i in 0..pairs {
        let mut generator = QueryGenerator::new(GeneratorConfig {
            num_atoms: 2,
            shape: if i % 2 == 0 {
                QueryShape::Random
            } else {
                QueryShape::Chain
            },
            var_pool: 3,
            num_relations: 1,
            seed: seed_base + i as u64,
            ..Default::default()
        });
        let q1 = generator.ucq(1 + (i % 2));
        let q2 = generator.ucq(2);
        out.push((q1, q2));
    }
    out
}

fn check<K: Semiring>(criterion: &dyn Fn(&Ucq, &Ucq) -> bool, pairs: &[(Ucq, Ucq)], name: &str) {
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    for (q1, q2) in pairs {
        let predicted = criterion(q1, q2);
        let counterexample = find_counterexample::<K>(q1, q2, &config);
        if predicted {
            assert!(
                counterexample.is_none(),
                "[{}] criterion accepts but semantics refutes\nQ1 = {}\nQ2 = {}",
                name,
                q1,
                q2
            );
        }
        if counterexample.is_some() {
            assert!(
                !predicted,
                "[{}] semantics refutes but criterion accepts\nQ1 = {}\nQ2 = {}",
                name, q1, q2
            );
        }
    }
}

#[test]
fn row_chom_local_homomorphism() {
    let pairs = workload(1000, 8);
    check::<Bool>(&local::contained_chom, &pairs, "C_hom/B (UCQ)");
}

#[test]
fn row_c1hcov_covering() {
    let pairs = workload(2000, 8);
    check::<Lineage>(&covering::covering1, &pairs, "C¹_hcov/Lin[X] (⇉₁)");
}

#[test]
fn row_c1sur_local_surjective() {
    let pairs = workload(3000, 8);
    check::<Why>(&local::contained_c1sur, &pairs, "C¹_sur/Why[X] (↠₁)");
}

#[test]
fn row_c1bi_local_bijective() {
    let pairs = workload(4000, 8);
    check::<BoolPoly>(&local::contained_c1bi, &pairs, "C¹_bi/B[X] (⤖₁)");
}

#[test]
fn row_cinf_bi_counting() {
    let pairs = workload(5000, 6);
    check::<NatPoly>(&bijective::counting_infinite, &pairs, "C^∞_bi/N[X] (↪_∞)");
}

#[test]
fn row_cinf_sur_unique_surjection_is_sound_for_bags() {
    // ↠_∞ is a sufficient condition for N-containment (Cor. 5.16): whenever
    // it accepts, brute force must not find a bag counterexample.
    let pairs = workload(6000, 6);
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    for (q1, q2) in &pairs {
        if surjective::unique_surjective(q1, q2) {
            assert!(
                find_counterexample::<Natural>(q1, q2, &config).is_none(),
                "↠_∞ accepted but N-containment fails: {} vs {}",
                q1,
                q2
            );
        }
    }
}

#[test]
fn covering2_is_necessary_for_bags() {
    // Cor. 5.23: if Q1 ⊆_N Q2 then ⟨Q2⟩ ⇉₂ ⟨Q1⟩ — equivalently, if ⇉₂ fails
    // then a bag counterexample must exist; we verify the contrapositive
    // statement that acceptance of containment by semantics (no small
    // counterexample AND the sufficient ↠_∞ condition) implies ⇉₂.
    let pairs = workload(7000, 6);
    for (q1, q2) in &pairs {
        if surjective::unique_surjective(q1, q2) {
            assert!(
                covering::covering2(q1, q2),
                "↠_∞ holds (so Q1 ⊆_N Q2) but the necessary ⇉₂ fails: {} vs {}",
                q1,
                q2
            );
        }
    }
}

#[test]
fn row_small_model_tropical_ucq() {
    let pairs = workload(8000, 6);
    let criterion = |q1: &Ucq, q2: &Ucq| ucq_contained_small_model::<Tropical>(q1, q2);
    check::<Tropical>(&criterion, &pairs, "S¹/T⁺ (UCQ small model)");
}

#[test]
fn local_method_is_sound_for_all_idempotent_semirings() {
    // Prop. 5.1: member-wise containment is sufficient for ⊕-idempotent
    // semirings; with the bijective CQ criterion it is sufficient for any
    // semiring.  Check against Lin[X], Why[X] and N[X].
    let pairs = workload(9000, 6);
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    for (q1, q2) in &pairs {
        if local::contained_c1bi(q1, q2) {
            assert!(find_counterexample::<NatPoly>(q1, q2, &config).is_none());
            assert!(find_counterexample::<Why>(q1, q2, &config).is_none());
            assert!(find_counterexample::<Lineage>(q1, q2, &config).is_none());
        }
    }
}
