//! The covering criteria `⇉₁` and `⇉₂` for UCQ containment (Sec. 5.4).
//!
//! `Q₂ ⇉₁ Q₁`: for every member `Q₁` of `Q₁` and every atom of `Q₁`, some
//! member of `Q₂` has a homomorphism to `Q₁` whose image contains that atom.
//! This is sufficient for every ⊕-idempotent semiring in `S_hcov`
//! (Prop. 5.21) and exact for `C¹_hcov` (Thm. 5.24) — e.g. `Lin[X]`.
//!
//! `⟨Q₂⟩ ⇉₂ ⟨Q₁⟩` strengthens the condition for offset-2 members of
//! `S_hcov` (every semiring in `S_hcov` has offset ≤ 2, Prop. 5.19): on top
//! of `⇉₁` over the complete descriptions, every CCQ of `⟨Q₁⟩` without
//! non-trivial automorphisms must either receive homomorphisms from two
//! members of `⟨Q₂⟩` or be matched in multiplicity up to 2 (Sec. 5.4).
//! It is also a *necessary* condition for bag-semantics containment
//! (Cor. 5.23), improving on the classical Chaudhuri–Vardi condition.

use annot_hom::{iso, kinds};
use annot_query::complete::complete_description_ucq;
use annot_query::{Ducq, Ucq};

/// `Q₂ ⇉₁ Q₁` on plain UCQs: every member of `Q₁` is covered by the members
/// of `Q₂` together.
pub fn covering1(q1: &Ucq, q2: &Ucq) -> bool {
    q1.disjuncts()
        .iter()
        .all(|member1| kinds::homomorphically_covers(q2.disjuncts(), member1))
}

/// `⟨Q₂⟩ ⇉₁ ⟨Q₁⟩` on complete descriptions (inequality-preserving).
pub fn covering1_on_descriptions(d1: &Ducq, d2: &Ducq) -> bool {
    d1.disjuncts()
        .iter()
        .all(|member1| kinds::homomorphically_covers(d2.disjuncts(), member1))
}

/// `⟨Q₂⟩ ⇉₂ ⟨Q₁⟩` (Sec. 5.4): the offset-2 covering criterion over complete
/// descriptions.
pub fn covering2(q1: &Ucq, q2: &Ucq) -> bool {
    let d1 = complete_description_ucq(q1);
    let d2 = complete_description_ucq(q2);
    covering2_on_descriptions(&d1, &d2)
}

/// `⇉₂` on precomputed complete descriptions.
pub fn covering2_on_descriptions(d1: &Ducq, d2: &Ducq) -> bool {
    if !covering1_on_descriptions(d1, d2) {
        return false;
    }
    for member1 in d1.disjuncts() {
        if iso::has_nontrivial_automorphism(member1) {
            continue;
        }
        // Either two (distinct) members of d2 admit homomorphisms to member1 …
        let homs_from_distinct_members = d2
            .disjuncts()
            .iter()
            .filter(|member2| kinds::exists_hom_ccq(member2, member1))
            .count();
        if homs_from_distinct_members >= 2 {
            continue;
        }
        // … or the multiplicity of member1's isomorphism class in d1, capped
        // at 2, is matched in d2.
        let count1 = iso::count_isomorphic(d1, member1);
        let count2 = iso::count_isomorphic(d2, member1);
        if count1.min(2) > count2 {
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

    fn parse(s: &str) -> Ucq {
        let mut schema = Schema::with_relations([("R", 2), ("S", 1), ("T", 1), ("U", 1)]);
        parser::parse_ucq(&mut schema, s).unwrap()
    }

    #[test]
    fn example_5_20_needs_both_members() {
        // Example 5.20: Q1 = {∃v R(v),S(v)}, Q2 = {∃v R(v); ∃v S(v)} over
        // unary R, S (we reuse the binary-R schema with unary relations T, U
        // renamed: here use S and T as the unary symbols).
        let q1 = parse("Q() :- S(v), T(v)");
        let q2 = parse("Q() :- S(v) ; Q() :- T(v)");
        // Neither member alone covers Q11 …
        let member_s = parse("Q() :- S(v)");
        let member_t = parse("Q() :- T(v)");
        assert!(!covering1(&q1, &member_s));
        assert!(!covering1(&q1, &member_t));
        // … but together they do (Q2 ⇉₁ Q1), which is the paper's point.
        assert!(covering1(&q1, &q2));
        // The converse direction fails: no homomorphism from the two-atom
        // member of Q1 into a single-atom member of Q2 exists at all.
        assert!(!covering1(&q2, &q1));
    }

    #[test]
    fn covering1_fails_when_a_relation_is_missing() {
        let q1 = parse("Q() :- S(v), U(v)");
        let q2 = parse("Q() :- S(v) ; Q() :- T(v)");
        assert!(!covering1(&q1, &q2));
    }

    #[test]
    fn covering2_is_stronger_than_covering1() {
        // Q1 = two copies of an asymmetric CQ (no nontrivial automorphisms);
        // a single-member Q2 passes ⇉₁ but fails the multiplicity clause of
        // ⇉₂ unless a second covering member (or copy) exists.
        let q1 = parse("Q() :- R(x, y), S(x) ; Q() :- R(a, b), S(a)");
        let q2_single = parse("Q() :- R(u, v), S(u)");
        let q2_double = parse("Q() :- R(u, v), S(u) ; Q() :- R(p, q), S(p)");
        assert!(covering1(&q1, &q2_single));
        assert!(!covering2(&q1, &q2_single));
        assert!(covering2(&q1, &q2_double));
    }

    #[test]
    fn covering2_holds_on_example_5_7_pair() {
        // The N[X]-contained pair of Ex. 5.7 also satisfies the weaker bag
        // necessary condition ⇉₂ (Cor. 5.23).
        let q1 = parse("Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v)");
        let q2 = parse("Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)");
        assert!(covering2(&q1, &q2));
    }

    #[test]
    fn empty_unions() {
        let q = parse("Q() :- R(u, v)");
        assert!(covering1(&Ucq::empty(), &q));
        assert!(covering2(&Ucq::empty(), &q));
        assert!(!covering1(&q, &Ucq::empty()));
        assert!(!covering2(&q, &Ucq::empty()));
    }
}
