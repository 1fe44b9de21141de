//! The small-model / canonical-instance containment procedure (Sec. 4.6).
//!
//! Thm. 4.17: for an ⊕-idempotent semiring `K` (class `S¹`) and CQs `Q₁`,
//! `Q₂`,
//!
//! > `Q₁ ⊆_K Q₂` iff `Q₁^⟦Q⟧(t) ¹_K Q₂^⟦Q⟧(t)` for every CCQ `Q ∈ ⟨Q₁⟩` and
//! > every tuple `t` of variables of `Q₁`.
//!
//! Both sides of the comparison are CQ-admissible polynomials (evaluations
//! over an abstractly-tagged instance), so the procedure is effective exactly
//! when the polynomial order `¹_K` is decidable — which
//! [`crate::poly_order::PolynomialOrder`] provides for `T⁺`, `T⁻`, finite
//! semirings and the polynomial semirings.  This yields the containment
//! procedures of Prop. 4.19 (in PSPACE; here implemented with exact
//! rational LPs).
//!
//! The procedure is implemented once, on UCQs (used to verify Ex. 5.4):
//! evaluate the unions over the canonical instances of `⟨Q₁⟩`.  On singleton
//! unions that is Thm. 4.17's CQ procedure, and
//! [`crate::decide::decide_cq`] calls it that way.

use crate::classes::PolyLeqFn;
use crate::poly_order::PolynomialOrder;
use annot_query::complete::complete_description_ucq;
use annot_query::eval::eval_ucq_all_outputs_rows;
use annot_query::{CanonicalInstance, IdTuple, Ucq};
use annot_semiring::{NatPoly, Semiring};
use std::collections::BTreeMap;

/// Compares the two all-outputs maps under `¹_K` on the union of their
/// supports.  Missing entries are the zero polynomial; tuples outside both
/// supports compare as `0 ¹_K 0`, which holds reflexively, so only tuples
/// in either support can witness a violation.  Both maps are evaluated over
/// the *same* canonical instance, so their interned row keys are directly
/// comparable.
fn supports_ordered(
    m1: &BTreeMap<IdTuple, NatPoly>,
    m2: &BTreeMap<IdTuple, NatPoly>,
    leq: PolyLeqFn,
) -> bool {
    let zero = NatPoly::zero();
    for (t, p1) in m1 {
        let p2 = m2.get(t).unwrap_or(&zero);
        if !leq(p1.polynomial(), p2.polynomial()) {
            return false;
        }
    }
    for (t, p2) in m2 {
        if !m1.contains_key(t) && !leq(zero.polynomial(), p2.polynomial()) {
            return false;
        }
    }
    true
}

/// Decides `Q₁ ⊆_K Q₂` for an ⊕-idempotent semiring `K` with a decidable
/// polynomial order: checks `Q₁^⟦Q⟧(t) ¹_K Q₂^⟦Q⟧(t)` for every CCQ
/// `Q ∈ ⟨Q₁⟩` of the *union* `Q₁` (Thm. 4.17 for singleton unions).
///
/// This is also the procedure the paper sketches for `T⁺` in Ex. 5.4 (the
/// member-wise local method fails there; the canonical-instance comparison
/// succeeds).
///
/// The caller is responsible for `K` being ⊕-idempotent (class `S¹`) — the
/// generic dispatcher checks this via the class profile.
///
/// Per canonical instance, both queries are evaluated for *all* output
/// tuples in a single assignment-enumeration pass (instead of re-running the
/// join per candidate tuple); tuples outside both supports compare as
/// `0 ¹_K 0`, which holds in every semiring.
pub fn ucq_contained_small_model<K: PolynomialOrder>(q1: &Ucq, q2: &Ucq) -> bool {
    ucq_contained_small_model_with(q1, q2, K::poly_leq)
}

/// Monomorphic core of [`ucq_contained_small_model`], taking the polynomial
/// order as a plain function pointer so the runtime-dispatch layer
/// ([`crate::decide`], [`crate::registry`]) can invoke it without a generic
/// parameter.
pub fn ucq_contained_small_model_with(q1: &Ucq, q2: &Ucq, leq: PolyLeqFn) -> bool {
    if q1.is_empty() {
        return true;
    }
    let description = complete_description_ucq(q1);
    for ccq in description.disjuncts() {
        let canonical = CanonicalInstance::of_ccq(ccq);
        let m1 = eval_ucq_all_outputs_rows(q1, canonical.instance());
        let m2 = eval_ucq_all_outputs_rows(q2, canonical.instance());
        if !supports_ordered(&m1, &m2, leq) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::parser;
    use annot_query::Schema;
    use annot_semiring::{Schedule, Tropical};

    /// `Q₁ ⊆_K Q₂` for two queries in one schema, through the procedure.
    fn contained<K: PolynomialOrder>(q1: &str, q2: &str) -> bool {
        let mut schema = Schema::new();
        let q1 = parser::parse_ucq(&mut schema, q1).unwrap();
        let q2 = parser::parse_ucq(&mut schema, q2).unwrap();
        ucq_contained_small_model::<K>(&q1, &q2)
    }

    #[test]
    fn example_4_6_tropical_containment() {
        // Example 4.6: Q1 = ∃u,v,w R(u,v),R(u,w) IS T⁺-contained in
        // Q2 = ∃u,v R(u,v),R(u,v), even though no injective homomorphism
        // exists.  Q2 ⊆_{T⁺} Q1 holds as well (a homomorphism Q1 → Q2 exists
        // and T⁺ is 1-annihilating... we simply check both with the
        // procedure).
        let q1 = "Q() :- R(u, v), R(u, w)";
        let q2 = "Q() :- R(u, v), R(u, v)";
        assert!(contained::<Tropical>(q1, q2));
        assert!(contained::<Tropical>(q2, q1));
    }

    #[test]
    fn tropical_distinguishes_genuinely_larger_queries() {
        // Q3 = ∃u,v R(u,v) (one atom) and Q1 = two atoms: over T⁺ annotations
        // are costs and more atoms mean higher cost, so Q1 ⊆ Q3 (cheaper) but
        // Q3 ⊄ Q1.
        let q1 = "Q() :- R(u, v), R(u, w)";
        let q3 = "Q() :- R(u, v)";
        assert!(contained::<Tropical>(q1, q3));
        assert!(!contained::<Tropical>(q3, q1));
    }

    #[test]
    fn schedule_algebra_prefers_more_atoms() {
        // Over T⁻ (max-plus) the order is reversed: a query with more atoms
        // dominates, so Q3 ⊆ Q1 but not conversely.
        let q1 = "Q() :- R(u, v), R(u, w)";
        let q3 = "Q() :- R(u, v)";
        assert!(contained::<Schedule>(q3, q1));
        assert!(!contained::<Schedule>(q1, q3));
    }

    #[test]
    fn example_5_4_ucq_containment_over_tropical() {
        // Example 5.4: Q1 = {∃v R(v),S(v)}, Q2 = {∃v R(v),R(v); ∃v S(v),S(v)}.
        // Q1 ⊆_{T⁺} Q2 although neither member of Q2 alone contains Q11.
        let q1 = "Q() :- R(v), S(v)";
        let q2 = "Q() :- R(v), R(v) ; Q() :- S(v), S(v)";
        assert!(contained::<Tropical>(q1, q2));
        // The member-wise checks indeed fail:
        assert!(!contained::<Tropical>(q1, "Q() :- R(v), R(v)"));
        assert!(!contained::<Tropical>(q1, "Q() :- S(v), S(v)"));
        // And the converse union containment does not hold.
        assert!(!contained::<Tropical>(q2, q1));
    }

    #[test]
    fn free_variables_are_handled() {
        let q1 = "Q(x) :- R(x, y), R(y, z)";
        let q2 = "Q(x) :- R(x, y)";
        // Over T⁺ the longer chain is contained in the shorter one.
        assert!(contained::<Tropical>(q1, q2));
        assert!(!contained::<Tropical>(q2, q1));
        // Reflexivity.
        assert!(contained::<Tropical>(q1, q1));
    }

    #[test]
    fn empty_union_edge_cases() {
        let mut schema = Schema::new();
        let q = parser::parse_ucq(&mut schema, "Q() :- R(v)").unwrap();
        assert!(ucq_contained_small_model::<Tropical>(&Ucq::empty(), &q));
        assert!(!ucq_contained_small_model::<Tropical>(&q, &Ucq::empty()));
    }
}
