//! Isomorphisms of CCQs, CQs and UCQs.
//!
//! For complete CQs the paper observes (Sec. 5.2) that all endomorphisms are
//! automorphisms, and that `Q₂ ⤖ Q₁` holds between CCQs iff they are
//! *isomorphic* — they coincide up to renaming of existential variables.
//!
//! The criteria over complete descriptions do not ask this per pair of
//! members: `annot_query::complete::Classes` groups a description's members
//! into isomorphism classes, and the covering criterion `⇉₂` reads the
//! automorphism flag of the canonical code's search
//! (`annot_query::key::has_nontrivial_automorphism`).  Nor does the
//! semantic cache: it keys decisions by canonical codes
//! (`annot_query::key::ucq_code`), equal exactly for isomorphic queries, and
//! compares them word for word.  The predicates here serve the tests and
//! servebench's traced check that a hit was isomorphic to its entry.

use crate::mapping::VarMap;
use crate::search::{HomSearch, SearchOptions};
use annot_query::{Ccq, Cq, Ucq};

/// Whether two CCQs are isomorphic: there is a bijective renaming of
/// variables (fixing the free variables positionally) mapping the atom
/// multiset of one exactly onto the other and preserving the inequalities in
/// both directions.
pub fn are_isomorphic(a: &Ccq, b: &Ccq) -> bool {
    if a.cq().num_atoms() != b.cq().num_atoms()
        || a.cq().num_vars() != b.cq().num_vars()
        || a.inequalities().len() != b.inequalities().len()
        || a.cq().free_vars().len() != b.cq().free_vars().len()
    {
        return false;
    }
    find_isomorphism(a, b).is_some()
}

/// Finds an isomorphism from `a` to `b`, if one exists.
pub fn find_isomorphism(a: &Ccq, b: &Ccq) -> Option<VarMap> {
    // An isomorphism matches the atom multisets exactly, so the per-relation
    // occurrence counts must agree — a cheap refutation before the search.
    if a.cq().num_atoms() != b.cq().num_atoms()
        || !crate::kinds::relation_counts_dominated(a.cq(), b.cq())
    {
        return None;
    }
    let mut found = None;
    HomSearch::new(a, b)
        .with_options(SearchOptions {
            occurrence_injective: true,
            ..Default::default()
        })
        .run(&mut |map| {
            if is_isomorphism(map, a, b) {
                found = Some(map.clone());
                true
            } else {
                false
            }
        });
    found
}

/// Checks that a total mapping (already known to send the atom multiset of
/// `a` injectively into `b`'s) is an isomorphism: counts match, it is
/// bijective on variables, and it maps the inequality set of `a` onto that of
/// `b`.
fn is_isomorphism(map: &VarMap, a: &Ccq, b: &Ccq) -> bool {
    if a.cq().num_atoms() != b.cq().num_atoms() {
        return false;
    }
    if !map.is_injective_on_vars() {
        return false;
    }
    if a.cq().num_vars() != b.cq().num_vars() {
        return false;
    }
    // Injective + equal cardinality ⇒ bijective on variables.
    // Inequalities must map exactly onto inequalities.
    for &(u, v) in a.inequalities() {
        // invariant: callers pass total mappings (every variable bound)
        let hu = map.get(u).expect("total");
        // invariant: callers pass total mappings (every variable bound)
        let hv = map.get(v).expect("total");
        if !b.must_differ(hu, hv) {
            return false;
        }
    }
    a.inequalities().len() == b.inequalities().len()
}

/// Whether two plain CQs are isomorphic: a bijective variable renaming
/// (fixing the free variables positionally) mapping the atom multiset of one
/// exactly onto the other.  This is [`are_isomorphic`] with empty inequality
/// sets, searched on the CQs themselves: a warmed check allocates nothing.
/// Every containment criterion of the paper is invariant under it.
pub fn are_isomorphic_cq(a: &Cq, b: &Cq) -> bool {
    a.num_atoms() == b.num_atoms()
        && a.num_vars() == b.num_vars()
        && a.free_vars().len() == b.free_vars().len()
        && crate::kinds::relation_counts_dominated(a, b)
        && HomSearch::new(a, b)
            .with_options(SearchOptions {
                occurrence_injective: true,
                ..Default::default()
            })
            .run(&mut |map| map.is_injective_on_vars())
}

/// Whether two UCQs are isomorphic as *multisets* of CQs: a bijection between
/// the disjunct multisets matching isomorphic members.  Because isomorphism
/// is an equivalence relation, greedy matching is exact (the first unused
/// isomorphic partner is as good as any other).
pub fn are_isomorphic_ucq(a: &Ucq, b: &Ucq) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut used = vec![false; b.len()];
    'members: for qa in a.disjuncts() {
        for (i, qb) in b.disjuncts().iter().enumerate() {
            if !used[i] && are_isomorphic_cq(qa, qb) {
                used[i] = true;
                continue 'members;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::{Cq, Schema};

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    fn ccq(builder: Cq) -> Ccq {
        Ccq::completion_of(builder)
    }

    #[test]
    fn renamed_queries_are_isomorphic() {
        let a = ccq(Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("S", &["v"])
            .build());
        let b = ccq(Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build());
        assert!(are_isomorphic(&a, &b));
        assert!(are_isomorphic(&b, &a));
        assert!(find_isomorphism(&a, &b).is_some());
    }

    #[test]
    fn structurally_different_queries_are_not_isomorphic() {
        let path = ccq(Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build());
        let fork = ccq(Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["x", "z"])
            .build());
        let double = ccq(Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["x", "y"])
            .build());
        assert!(!are_isomorphic(&path, &fork));
        assert!(!are_isomorphic(&path, &double));
        assert!(!are_isomorphic(&fork, &double));
        assert!(are_isomorphic(&path, &path));
    }

    #[test]
    fn loops_and_edges_differ() {
        let loop_q = ccq(Cq::builder(&schema()).atom("R", &["x", "x"]).build());
        let edge_q = ccq(Cq::builder(&schema()).atom("R", &["x", "y"]).build());
        assert!(!are_isomorphic(&loop_q, &edge_q));
        assert!(!are_isomorphic(&edge_q, &loop_q));
    }

    #[test]
    fn counting_isomorphic_members_in_complete_descriptions() {
        use annot_query::complete::{Classes, Description};
        // Example 5.7: ⟨Q2⟩ for Q2 = {R(u,v),R(w,w) ; R(u,u),R(u,u)} contains
        // two CCQs isomorphic to Q'22 = R(u,u),R(u,u).
        let q21 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["w", "w"])
            .build();
        let q22 = Cq::builder(&schema())
            .atom("R", &["u", "u"])
            .atom("R", &["u", "u"])
            .build();
        let union = [q21.clone(), q22.clone()];
        let description = Description::new(&union);
        let members = description.materialise();
        let classes = Classes::of(&description);
        // The multiplicity of a CCQ's class, checked against pairwise
        // isomorphism.
        let count = |q: &Ccq| {
            let class = (0..classes.len())
                .find(|&c| are_isomorphic(&classes.representative(c).to_ccq(), q))
                .map_or(0, |c| classes.count(c, 0));
            let pairwise = members.disjuncts().iter().filter(|m| are_isomorphic(m, q));
            assert_eq!(class as usize, pairwise.count());
            class
        };
        assert_eq!(count(&ccq(q22)), 2);
        // and exactly one member isomorphic to Q'21 (all three vars distinct).
        assert_eq!(count(&ccq(q21)), 1);
    }

    #[test]
    fn free_variables_must_be_fixed() {
        let a = Ccq::completion_of(
            Cq::builder(&schema())
                .free(&["x"])
                .atom("R", &["x", "y"])
                .build(),
        );
        let b = Ccq::completion_of(
            Cq::builder(&schema())
                .free(&["y"])
                .atom("R", &["x", "y"])
                .build(),
        );
        // Both are R(x,y) with one free variable, but the free position
        // differs (first vs second argument), so they are not isomorphic.
        assert!(!are_isomorphic(&a, &b));
        assert!(are_isomorphic(&a, &a));
    }
}
