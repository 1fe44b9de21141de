//! Member-wise ("local") criteria for UCQ containment (Prop. 5.1 and
//! Sec. 5.1).
//!
//! For ⊕-idempotent semirings (`S¹`), `Q₁ ⊆_K Q₂` follows whenever every
//! member of `Q₁` is K-contained in *some* member of `Q₂` (Prop. 5.1).
//! Combined with the CQ-level criteria this yields complete procedures for
//! `C_hom` (Thm. 5.2), `C¹_in` (Thm. 5.6), `C¹_sur` (Cor. 5.18) and `C¹_bi`
//! (Thm. 5.13, k = 1), and the generic sufficient condition for any class
//! inside `S¹`.

use crate::matching::saturates_left;
use annot_hom::kinds;
use annot_query::{Cq, Ucq};

/// The generic local method: every member of `q1` is related to some member
/// of `q2` by the supplied CQ-level check.
pub fn locally_contained(q1: &Ucq, q2: &Ucq, cq_check: &dyn Fn(&Cq, &Cq) -> bool) -> bool {
    q1.disjuncts().iter().all(|member1| {
        q2.disjuncts()
            .iter()
            .any(|member2| cq_check(member1, member2))
    })
}

/// `C_hom` (Thm. 5.2): `Q₁ ⊆_K Q₂ ⇔ Q₂ → Q₁` member-wise.
pub fn contained_chom(q1: &Ucq, q2: &Ucq) -> bool {
    locally_contained(q1, q2, &|a, b| kinds::exists_hom(b, a))
}

/// `C¹_in` (Thm. 5.6): `Q₁ ⊆_K Q₂ ⇔ Q₂ ↪ Q₁` member-wise.
pub fn contained_c1in(q1: &Ucq, q2: &Ucq) -> bool {
    locally_contained(q1, q2, &|a, b| kinds::exists_injective_hom(b, a))
}

/// `C¹_sur` (Cor. 5.18): `Q₁ ⊆_K Q₂ ⇔ Q₂ ↠₁ Q₁` (member-wise surjective
/// homomorphisms).  `Why[X]` is the canonical member of the class.
pub fn contained_c1sur(q1: &Ucq, q2: &Ucq) -> bool {
    locally_contained(q1, q2, &|a, b| kinds::exists_surjective_hom(b, a))
}

/// `C¹_bi` (Thm. 5.13, k = 1): `Q₁ ⊆_K Q₂ ⇔ Q₂ ⤖₁ Q₁` (member-wise bijective
/// homomorphisms).  `B[X]` is the canonical member of the class.
pub fn contained_c1bi(q1: &Ucq, q2: &Ucq) -> bool {
    locally_contained(q1, q2, &|a, b| kinds::exists_bijective_hom(b, a))
}

/// The uniqueness-flavoured sufficient condition valid for *every* semiring
/// (Sec. 5.2, after [Green 2011]): if every member of `q1` is bijectively
/// covered by a *distinct* member of `q2`, then `Q₁ ⊆_K Q₂` for every
/// positive `K`.  (Not necessary even for `N[X]`; see Ex. 5.7.)
///
/// The witnesses of each member of `q1` are one bit set over the members
/// of `q2`, and [`saturates_left`] matches them, so the check allocates
/// nothing.  A `q2` of more than 64 members is not checked: the answer is
/// then `false`, which a sufficient condition may always give.
pub fn sufficient_for_all_semirings(q1: &Ucq, q2: &Ucq) -> bool {
    let (members1, members2) = (q1.disjuncts(), q2.disjuncts());
    if members1.len() > members2.len() || members2.len() > 64 {
        return false;
    }
    let mut witnesses = [0u64; 64];
    for (row, member1) in witnesses.iter_mut().zip(members1) {
        for (j, member2) in members2.iter().enumerate() {
            if kinds::exists_bijective_hom(member2, member1) {
                *row |= 1 << j;
            }
        }
        if *row == 0 {
            return false;
        }
    }
    saturates_left(&witnesses[..members1.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::parser;
    use annot_query::Schema;

    fn parse(s: &str) -> Ucq {
        let mut schema = Schema::with_relations([("R", 2), ("S", 1), ("T", 1)]);
        parser::parse_ucq(&mut schema, s).unwrap()
    }

    #[test]
    fn single_member_unions_reduce_to_cq_case() {
        let q1 = parse("Q() :- R(u, v), R(u, w)");
        let q2 = parse("Q() :- R(u, v), R(u, v)");
        assert!(contained_chom(&q1, &q2));
        assert!(!contained_c1in(&q1, &q2));
        assert!(!contained_c1sur(&q1, &q2));
        assert!(!contained_c1bi(&q1, &q2));
        assert!(contained_c1in(&q2, &q1));
    }

    #[test]
    fn each_member_needs_a_witness() {
        let q1 = parse("Q() :- R(u, v) ; Q() :- S(x)");
        let q2_good = parse("Q() :- R(a, b) ; Q() :- S(y)");
        let q2_bad = parse("Q() :- R(a, b) ; Q() :- T(y)");
        assert!(contained_chom(&q1, &q2_good));
        assert!(!contained_chom(&q1, &q2_bad));
        assert!(contained_c1bi(&q1, &q2_good));
    }

    #[test]
    fn empty_unions() {
        let q = parse("Q() :- R(u, v)");
        assert!(contained_chom(&Ucq::empty(), &q));
        assert!(contained_chom(&Ucq::empty(), &Ucq::empty()));
        assert!(!contained_chom(&q, &Ucq::empty()));
        assert!(sufficient_for_all_semirings(&Ucq::empty(), &q));
    }

    #[test]
    fn unique_witness_condition_is_stricter() {
        // Two identical members of Q1 need two distinct witnesses in Q2.
        let q1 = parse("Q() :- R(u, v) ; Q() :- R(a, b)");
        let q2_single = parse("Q() :- R(x, y)");
        let q2_double = parse("Q() :- R(x, y) ; Q() :- R(p, q)");
        assert!(contained_chom(&q1, &q2_single));
        assert!(!sufficient_for_all_semirings(&q1, &q2_single));
        assert!(sufficient_for_all_semirings(&q1, &q2_double));
    }

    #[test]
    fn local_surjective_example() {
        // The doubled query R(u,v),R(u,v) surjects onto the single atom
        // R(x,y), so the single-atom query is contained in the doubled one
        // (over C¹_sur semirings such as Why[X]); the converse fails, since a
        // single atom cannot cover the two occurrences.
        let q1 = parse("Q() :- R(u, v), R(u, v)");
        let q2 = parse("Q() :- R(x, y)");
        let q3 = parse("Q() :- R(x, y), R(x, y)");
        assert!(contained_c1sur(&q2, &q1));
        assert!(!contained_c1sur(&q1, &q2));
        assert!(!contained_c1bi(&q1, &q2));
        assert!(contained_c1bi(&q1, &q3));
    }
}
