//! # annot-hom
//!
//! Homomorphism engines between conjunctive queries — the syntactic side of
//! the containment criteria classified by *"Classification of Annotation
//! Semirings over Query Containment"* (Kostylev, Reutter, Salamon;
//! PODS 2012).
//!
//! | module | contents | paper |
//! |--------|----------|-------|
//! | [`kinds`] | one predicate per homomorphism notion: plain (`→`), injective (`↪`), surjective (`↠`) and bijective (`⤖`) homomorphisms, and the one covering loop (`⇉`) behind the CQ covering and the UCQ coverings `⇉₁` | Sec. 3.3, 4.1–4.4, 5.4 |
//! | [`iso`] | isomorphism of CCQs, CQs and UCQs | Sec. 5.2 |
//! | [`search`] | the backtracking engine underlying all of the above, between CQs, CCQs or members of a flat complete description ([`SearchQuery`]); the problems are NP-complete, the engine picks the most constrained atom first by default, and a search allocates nothing once its per-thread buffers have grown | — |
//! | [`mapping`] | variable mappings ([`VarMap`]) | — |
//!
//! ## Example
//!
//! ```
//! use annot_query::{Cq, Schema};
//! use annot_hom::kinds;
//!
//! let schema = Schema::with_relations([("R", 2)]);
//! // Example 4.6 of the paper:
//! let q1 = Cq::builder(&schema).atom("R", &["u", "v"]).atom("R", &["u", "w"]).build();
//! let q2 = Cq::builder(&schema).atom("R", &["u", "v"]).atom("R", &["u", "v"]).build();
//!
//! assert!(kinds::exists_hom(&q2, &q1));            // Q2 → Q1
//! assert!(!kinds::exists_injective_hom(&q2, &q1)); // but not injectively
//! ```

#![warn(missing_docs)]

pub mod iso;
pub mod kinds;
pub mod mapping;
pub mod search;

pub use iso::{are_isomorphic, are_isomorphic_cq, are_isomorphic_ucq};
pub use kinds::{
    exists_bijective_hom, exists_hom, exists_injective_hom, exists_surjective_hom,
    find_bijective_hom, find_hom, find_injective_hom, find_surjective_hom, homomorphically_covers,
};
pub use mapping::VarMap;
pub use search::{AtomOrder, HomSearch, Inequalities, SearchOptions, SearchQuery};

#[cfg(test)]
mod semantic_soundness_tests {
    //! Cross-checks connecting the syntactic homomorphism notions with the
    //! semantics: if `Q₂ → Q₁` then `Q₁ ⊆_B Q₂` on concrete instances, if
    //! `Q₂ ↠ Q₁` then `Q₁ ⊆_N Q₂`, etc.  These are spot-checks on random
    //! workloads; the systematic verification lives in `annot-core`.

    use super::*;
    use annot_query::eval::eval;
    use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
    use annot_query::Instance;
    use annot_semiring::{Bool, Natural, Semiring};

    #[test]
    fn homomorphism_implies_boolean_containment_on_samples() {
        for seed in 0..20 {
            let mut generator = QueryGenerator::new(GeneratorConfig {
                num_atoms: 3,
                shape: QueryShape::Random,
                var_pool: 3,
                seed,
                ..Default::default()
            });
            let q1 = generator.cq();
            let q2 = generator.cq();
            if !exists_hom(&q2, &q1) {
                continue;
            }
            for inst_seed in 0..5 {
                let mut gen2 = QueryGenerator::new(GeneratorConfig {
                    seed: 1000 + inst_seed,
                    ..Default::default()
                });
                let instance: Instance<Bool> = gen2.instance(3, 6);
                let v1 = eval(&q1, &instance, &vec![]);
                let v2 = eval(&q2, &instance, &vec![]);
                assert!(
                    v1.leq(&v2),
                    "hom exists but containment fails\nQ1 = {}\nQ2 = {}",
                    q1,
                    q2
                );
            }
        }
    }

    #[test]
    fn surjective_hom_implies_bag_containment_on_samples() {
        for seed in 20..40 {
            let mut generator = QueryGenerator::new(GeneratorConfig {
                num_atoms: 3,
                shape: QueryShape::Random,
                var_pool: 3,
                seed,
                ..Default::default()
            });
            let q1 = generator.cq();
            let q2 = generator.cq();
            if !exists_surjective_hom(&q2, &q1) {
                continue;
            }
            for inst_seed in 0..5 {
                let mut gen2 = QueryGenerator::new(GeneratorConfig {
                    seed: 2000 + inst_seed,
                    ..Default::default()
                });
                let instance: Instance<Natural> = gen2.instance(3, 6);
                let v1 = eval(&q1, &instance, &vec![]);
                let v2 = eval(&q2, &instance, &vec![]);
                assert!(
                    v1.leq(&v2),
                    "surjective hom exists but N-containment fails\nQ1 = {}\nQ2 = {}",
                    q1,
                    q2
                );
            }
        }
    }
}
