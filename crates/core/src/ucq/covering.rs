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
//!
//! `⇉₂` reads the joint isomorphism classes of `⟨Q₁⟩` and `⟨Q₂⟩`: every
//! clause is invariant under isomorphism of members.  Each `⟨Q₁⟩` class is
//! covered by the representatives of the `⟨Q₂⟩` classes, homomorphisms from
//! `⟨Q₂⟩` are counted as the sum of the multiplicities of the classes whose
//! representative has one, and the multiplicity clause compares the class's
//! two multiplicities.  The automorphism flag comes from the canonical
//! code's search, asked only of classes that the cheaper clauses leave
//! open.

use annot_hom::kinds;
use annot_query::complete::{Classes, Description, Member};
use annot_query::key::has_nontrivial_automorphism;
use annot_query::Ucq;

/// `Q₂ ⇉₁ Q₁` on plain UCQs: every member of `Q₁` is covered by the members
/// of `Q₂` together.
pub fn covering1(q1: &Ucq, q2: &Ucq) -> bool {
    q1.disjuncts()
        .iter()
        .all(|member1| kinds::homomorphically_covers(q2.disjuncts(), member1))
}

/// `⟨Q₂⟩ ⇉₂ ⟨Q₁⟩` (Sec. 5.4): the offset-2 covering criterion over complete
/// descriptions.
pub fn covering2(q1: &Ucq, q2: &Ucq) -> bool {
    let d1 = Description::new(q1.disjuncts());
    let d2 = Description::new(q2.disjuncts());
    covering2_on_classes(&Classes::joint(&d1, &d2))
}

/// `⇉₂` on the joint classes of `⟨Q₁⟩` (side 0) and `⟨Q₂⟩` (side 1).
pub fn covering2_on_classes(classes: &Classes<'_>) -> bool {
    let side = |s: usize| (0..classes.len()).filter(move |&c| classes.count(c, s) > 0);
    let sources: Vec<Member<'_>> = side(1).map(|c| classes.representative(c)).collect();
    let counts: Vec<u64> = side(1).map(|c| classes.count(c, 1)).collect();
    // ⇉₁: the ⟨Q₂⟩ representatives together cover every ⟨Q₁⟩ class.
    if !side(0).all(|c| kinds::homomorphically_covers(&sources, &classes.representative(c))) {
        return false;
    }
    side(0).all(|c| {
        let member1 = classes.representative(c);
        // The multiplicity of member1's class in ⟨Q₁⟩, capped at 2, is
        // matched in ⟨Q₂⟩ …
        if classes.count(c, 0).min(2) <= classes.count(c, 1) {
            return true;
        }
        // … or two members of ⟨Q₂⟩ admit homomorphisms to member1 …
        let mut homs = 0;
        for (source, &count) in sources.iter().zip(&counts) {
            if kinds::exists_hom(source, &member1) {
                homs += count;
                if homs >= 2 {
                    return true;
                }
            }
        }
        // … or member1 has a non-trivial automorphism.
        has_nontrivial_automorphism(&member1)
    })
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
