//! The unique-surjection criterion `↠_∞` over complete descriptions
//! (Sec. 5.3, Def. 5.14 and Thm. 5.17).
//!
//! `⟨Q₂⟩ ↠_∞ ⟨Q₁⟩` holds when each CCQ of `⟨Q₁⟩` can be assigned a *distinct*
//! CCQ of `⟨Q₂⟩` that surjects onto it (a system of distinct representatives,
//! decided with Hall's-theorem-style bipartite matching).  The condition is
//! sufficient for K-containment of UCQs for every semiring in `S_sur`
//! (Prop. 5.15) — in particular it is a new sufficient condition for bag
//! semantics (Cor. 5.16) — and it is also necessary exactly for the class
//! `C^∞_sur` (Thm. 5.17).
//!
//! The test reads isomorphism classes: whether one member surjects onto
//! another depends only on their classes, so Hall's condition over the
//! members is Hall's condition with multiplicities over the classes of
//! `⟨Q₁⟩ ∪ ⟨Q₂⟩`.  Each class of `⟨Q₁⟩` supplies its multiplicity, each
//! class of `⟨Q₂⟩` takes at most its multiplicity, a class pair is an edge
//! when the `⟨Q₂⟩` representative surjects onto the `⟨Q₁⟩` one, and one
//! maximum flow ([`crate::matching`]) decides.  Most edge tests end at
//! counts in [`kinds::exists_surjective_hom`]: a surjection between
//! complete CCQs needs equal variable counts and equal per-relation counts
//! of distinct atoms.

use crate::matching::saturates_supply;
use annot_hom::kinds;
use annot_query::complete::{Classes, Description};
use annot_query::Ucq;

/// `⟨Q₂⟩ ↠_∞ ⟨Q₁⟩` (Def. 5.14), computed on the complete descriptions of the
/// two UCQs.
pub fn unique_surjective(q1: &Ucq, q2: &Ucq) -> bool {
    let d1 = Description::new(q1.disjuncts());
    let d2 = Description::new(q2.disjuncts());
    unique_surjective_on_classes(&Classes::joint(&d1, &d2))
}

/// The same criterion on the joint classes of `⟨Q₁⟩` (side 0) and `⟨Q₂⟩`
/// (side 1): each class supplies its multiplicity in `⟨Q₁⟩` and takes at
/// most its multiplicity in `⟨Q₂⟩`.
pub fn unique_surjective_on_classes(classes: &Classes<'_>) -> bool {
    let count = |side: usize| (0..classes.len()).map(move |c| classes.count(c, side));
    let (supply, capacity): (Vec<u64>, Vec<u64>) = (count(0).collect(), count(1).collect());
    let mut edges = Vec::new();
    for c1 in (0..classes.len()).filter(|&c| supply[c] > 0) {
        let member1 = classes.representative(c1);
        for c2 in (0..classes.len()).filter(|&c| capacity[c] > 0) {
            if kinds::exists_surjective_hom(&classes.representative(c2), &member1) {
                edges.push((c1, c2));
            }
        }
    }
    saturates_supply(&supply, &capacity, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::parser;
    use annot_query::Schema;

    fn parse(s: &str) -> Ucq {
        let mut schema = Schema::with_relations([("R", 2)]);
        parser::parse_ucq(&mut schema, s).unwrap()
    }

    #[test]
    fn example_5_7_satisfies_unique_surjection() {
        // The pair of Ex. 5.7 is N[X]-contained, hence also satisfies the
        // weaker sufficient condition ↠_∞ for S_sur semirings.
        let q1 = parse("Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v)");
        let q2 = parse("Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)");
        assert!(unique_surjective(&q1, &q2));
        assert!(!unique_surjective(&q2, &q1));
    }

    #[test]
    fn duplicated_members_need_distinct_witnesses() {
        // ⟨Q1⟩ for two copies of the same CQ contains two copies of each CCQ;
        // a single-member Q2 cannot provide distinct surjecting CCQs for
        // both, so ↠_∞ fails, while the member-wise condition ↠₁ holds.
        let q1 = parse("Q() :- R(u, v) ; Q() :- R(a, b)");
        let q2_single = parse("Q() :- R(x, y)");
        let q2_double = parse("Q() :- R(x, y) ; Q() :- R(p, q)");
        assert!(crate::ucq::local::contained_c1sur(&q1, &q2_single));
        assert!(!unique_surjective(&q1, &q2_single));
        assert!(unique_surjective(&q1, &q2_double));
    }

    #[test]
    fn surjection_respects_multiset_structure() {
        // A doubled atom surjects onto the single atom but not conversely.
        let single = parse("Q() :- R(x, y)");
        let double = parse("Q() :- R(u, v), R(u, v)");
        assert!(unique_surjective(&single, &double));
        assert!(!unique_surjective(&double, &single));
    }

    #[test]
    fn empty_unions() {
        let q = parse("Q() :- R(u, v)");
        assert!(unique_surjective(&Ucq::empty(), &q));
        assert!(!unique_surjective(&q, &Ucq::empty()));
        assert!(unique_surjective(&Ucq::empty(), &Ucq::empty()));
    }
}
