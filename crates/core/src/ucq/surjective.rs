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
//! The bipartite graph has one edge test per pair of members.  Most tests
//! end at counts in [`kinds::exists_surjective_hom_ccq`]: a surjection
//! between complete CCQs needs equal variable counts and equal per-relation
//! counts of distinct atoms.  On servebench's seed-2718 miss-serial stream,
//! the 105 tests of a decide run 16 searches.

use crate::matching::has_left_saturating_matching;
use annot_hom::kinds;
use annot_query::complete::complete_description_ucq;
use annot_query::{Ducq, Ucq};

/// `⟨Q₂⟩ ↠_∞ ⟨Q₁⟩` (Def. 5.14), computed on the complete descriptions of the
/// two UCQs.
pub fn unique_surjective(q1: &Ucq, q2: &Ucq) -> bool {
    let d1 = complete_description_ucq(q1);
    let d2 = complete_description_ucq(q2);
    unique_surjective_on_descriptions(&d1, &d2)
}

/// The same criterion on precomputed complete descriptions.
pub fn unique_surjective_on_descriptions(d1: &Ducq, d2: &Ducq) -> bool {
    let adjacency: Vec<Vec<usize>> = d1
        .disjuncts()
        .iter()
        .map(|member1| {
            d2.disjuncts()
                .iter()
                .enumerate()
                .filter(|(_, member2)| kinds::exists_surjective_hom_ccq(member2, member1))
                .map(|(j, _)| j)
                .collect()
        })
        .collect();
    has_left_saturating_matching(&adjacency, d2.len())
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
