//! Decision procedures for K-containment of conjunctive queries (Sec. 3–4).
//!
//! For each class of Table 1 the containment `Q₁ ⊆_K Q₂` is decided by the
//! corresponding homomorphism check from `annot-hom`; the class-generic entry
//! point is [`crate::decide::decide_cq`].  The functions here are
//! thin, well-named wrappers so that callers (and the benchmarks reproducing
//! Table 1) can invoke exactly the procedure a paper row refers to.

use annot_hom::kinds;
use annot_query::Cq;

/// `C_hom` (Thm. 3.3): `Q₁ ⊆_K Q₂  ⇔  Q₂ → Q₁`.
pub fn contained_chom(q1: &Cq, q2: &Cq) -> bool {
    kinds::exists_hom(q2, q1)
}

/// `C_hcov` (Thm. 4.3): `Q₁ ⊆_K Q₂  ⇔  Q₂ ⇉ Q₁`.
pub fn contained_chcov(q1: &Cq, q2: &Cq) -> bool {
    kinds::homomorphically_covers(q2, q1)
}

/// `C_in` (Thm. 4.9): `Q₁ ⊆_K Q₂  ⇔  Q₂ ↪ Q₁`.
pub fn contained_cin(q1: &Cq, q2: &Cq) -> bool {
    kinds::exists_injective_hom(q2, q1)
}

/// `C_sur` (Thm. 4.14): `Q₁ ⊆_K Q₂  ⇔  Q₂ ↠ Q₁`.
pub fn contained_csur(q1: &Cq, q2: &Cq) -> bool {
    kinds::exists_surjective_hom(q2, q1)
}

/// `C_bi` (Thm. 4.10): `Q₁ ⊆_K Q₂  ⇔  Q₂ ⤖ Q₁`.
pub fn contained_cbi(q1: &Cq, q2: &Cq) -> bool {
    kinds::exists_bijective_hom(q2, q1)
}

/// The *necessary* condition valid for every positive semiring (Sec. 3.3,
/// from [Green 2011] / [Ioannidis–Ramakrishnan 1995]): if `Q₁ ⊆_K Q₂` for any
/// `K ∈ S` then `Q₂ → Q₁`.  Useful as a refuter when no exact criterion is
/// known.
pub fn necessary_for_all_semirings(q1: &Cq, q2: &Cq) -> bool {
    kinds::exists_hom(q2, q1)
}

/// The *sufficient* condition valid for every positive semiring (Sec. 4.3,
/// universality of `N[X]`): if `Q₂ ⤖ Q₁` then `Q₁ ⊆_K Q₂` for every `K ∈ S`.
pub fn sufficient_for_all_semirings(q1: &Cq, q2: &Cq) -> bool {
    kinds::exists_bijective_hom(q2, q1)
}

/// Sufficient and necessary bounds for bag semantics `N` (Sec. 4.1, 4.4):
/// a surjective homomorphism is sufficient ([Chaudhuri–Vardi]), homomorphic
/// covering is necessary.  Returns `Some(true)` / `Some(false)` when the
/// bounds settle the question, `None` otherwise — the exact problem is open.
pub fn contained_bag_bounds(q1: &Cq, q2: &Cq) -> Option<bool> {
    if kinds::exists_surjective_hom(q2, q1) {
        return Some(true);
    }
    if !kinds::homomorphically_covers(q2, q1) {
        return Some(false);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::Schema;

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    /// Example 4.6: Q1 = ∃u,v,w R(u,v),R(u,w);  Q2 = ∃u,v R(u,v),R(u,v).
    fn example_4_6() -> (Cq, Cq) {
        let q1 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "w"])
            .build();
        let q2 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "v"])
            .build();
        (q1, q2)
    }

    #[test]
    fn example_4_6_differs_across_classes() {
        let (q1, q2) = example_4_6();
        // Over set semantics (C_hom) Q1 ⊆ Q2 (and vice versa): they have the
        // same core.
        assert!(contained_chom(&q1, &q2));
        assert!(contained_chom(&q2, &q1));
        // Over C_hcov (e.g. lineage) both directions still hold.
        assert!(contained_chcov(&q1, &q2));
        assert!(contained_chcov(&q2, &q1));
        // Over C_in (injective) the containment Q1 ⊆ Q2 FAILS (no injective
        // homomorphism Q2 ↪ Q1), while Q2 ⊆ Q1 holds.
        assert!(!contained_cin(&q1, &q2));
        assert!(contained_cin(&q2, &q1));
        // Over C_sur and C_bi the containment Q1 ⊆ Q2 fails as well, while
        // Q2 ⊆ Q1 keeps holding (collapse v = w gives a bijective
        // homomorphism Q1 ⤖ Q2).
        assert!(!contained_csur(&q1, &q2));
        assert!(!contained_cbi(&q1, &q2));
        assert!(contained_cbi(&q2, &q1));
    }

    #[test]
    fn chain_versus_collapsed_chain() {
        // Q1 = R(x,y),R(y,z); Q2 = R(x,x).  There is a homomorphism
        // Q2 → Q1? No: needs a loop in Q1.  And Q1 → Q2? Yes (collapse).
        let q1 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let q2 = Cq::builder(&schema()).atom("R", &["x", "x"]).build();
        assert!(!contained_chom(&q1, &q2));
        assert!(contained_chom(&q2, &q1));
        assert!(contained_csur(&q2, &q1)); // both atoms of Q1 map onto the loop? q1 ↠ q2: yes
        assert!(!contained_cbi(&q2, &q1)); // atom counts differ
    }

    #[test]
    fn bag_bounds_behave() {
        let (q1, q2) = example_4_6();
        // Q2 ⊆_N Q1: a surjective homomorphism Q1 ↠ Q2 exists (map u↦u, and
        // both v,w ↦ v), so the sufficient bound fires.
        assert_eq!(contained_bag_bounds(&q2, &q1), Some(true));
        // Q1 ⊆_N Q2 is refuted by neither bound: the covering Q2 ⇉ Q1 holds
        // and no surjective homomorphism exists, so the answer is unknown
        // from the bounds alone (in fact it is false for N).
        assert_eq!(contained_bag_bounds(&q1, &q2), None);
        // A clear refutation: Q3 has an S-atom that no homomorphism from Q1
        // can produce, so the necessary covering condition fails.
        let q3 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("S", &["x"])
            .build();
        assert_eq!(contained_bag_bounds(&q3, &q1), Some(false));
    }

    #[test]
    fn universal_bounds_bracket_every_semiring() {
        let (q1, q2) = example_4_6();
        // sufficient ⇒ necessary on any pair where both are defined
        if sufficient_for_all_semirings(&q1, &q2) {
            assert!(necessary_for_all_semirings(&q1, &q2));
        }
        // Q2 ⤖ Q2 trivially, so Q2 ⊆_K Q2 for every K.
        assert!(sufficient_for_all_semirings(&q2, &q2));
        assert!(necessary_for_all_semirings(&q2, &q2));
    }
}
