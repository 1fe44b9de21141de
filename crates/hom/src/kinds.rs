//! The homomorphism notions of the paper, one predicate per criterion.
//!
//! | notation | name | predicates | defined in | decides containment for |
//! |----------|------|------------|------------|--------------------------|
//! | `Q₂ → Q₁`  | homomorphism | [`exists_hom`], [`find_hom`], [`exists_hom_ccq`] | Sec. 3.3 | `C_hom` (Thm. 3.3) |
//! | `Q₂ ⇉ Q₁`  | homomorphic covering | [`homomorphically_covers`] | Sec. 4.1, 5.4 | `C_hcov` (Thm. 4.3), `C¹_hcov` (Thm. 5.24) |
//! | `Q₂ ↪ Q₁`  | injective homomorphism | [`exists_injective_hom`], [`find_injective_hom`] | Sec. 4.2 | `C_in` (Thm. 4.9) |
//! | `Q₂ ↠ Q₁`  | surjective homomorphism | [`exists_surjective_hom`], [`find_surjective_hom`], [`exists_surjective_hom_ccq`] | Sec. 4.4 | `C_sur` (Thm. 4.14) |
//! | `Q₂ ⤖ Q₁`  | bijective homomorphism | [`exists_bijective_hom`], [`find_bijective_hom`] | Sec. 4.3 | `C_bi` (Thm. 4.10) |
//!
//! The `_ccq` predicates take CCQs, or members of a flat complete
//! description (`annot_query::complete::Member`), whose homomorphisms
//! additionally preserve the inequalities; [`homomorphically_covers`] takes
//! a union of sources of any kind.  Between CCQs a bijective homomorphism
//! is an isomorphism ([`crate::iso`]).
//!
//! Before a search runs, exact counts that allocate nothing settle the
//! questions whose answer they prove, and the search runs otherwise.
//! Per-relation atom counts come before every injective, bijective,
//! surjective and isomorphism search.  Between CCQs whose source variables
//! must all differ, as in every member of a complete description ⟨Q⟩, a
//! shape test compares variable counts and per-relation counts of distinct
//! atoms: before [`exists_hom_ccq`] and [`exists_surjective_hom_ccq`], and
//! before the searches from each source in [`homomorphically_covers`].  A
//! description's members read both counts from the description.  A
//! surjective search accepts a mapping by counting the covered target atoms
//! in place, so it allocates nothing either.

use crate::mapping::VarMap;
use crate::search::{HomSearch, SearchOptions, SearchQuery};
use annot_query::{Ccq, Cq, QueryView, RelId};

/// How many distinct atoms of `q` have relation `rel`.
fn distinct_atoms(q: &Cq, rel: RelId) -> usize {
    let atoms = q.atoms();
    (0..atoms.len())
        .filter(|&i| atoms[i].relation == rel && !atoms[..i].contains(&atoms[i]))
        .count()
}

/// `counts(q2, R) ≤ counts(q1, R)` for every relation `R` occurring in `q2`:
/// a cheap necessary condition before the NP-complete searches.  Every
/// homomorphism maps an `R`-atom to an `R`-atom, so occurrence-injective
/// (sub-multiset) images need it, and surjective (covering) images need the
/// reverse.  It counts by scanning the atoms, or reads the counts a
/// complete description made, and allocates nothing.
pub(crate) fn relation_counts_dominated<Q: SearchQuery>(q2: &Q, q1: &Q) -> bool {
    (0..q2.num_atoms()).all(|a| {
        let rel = q2.relation(a);
        q2.occurrences(rel) <= q1.occurrences(rel)
    })
}

/// The shape test between CCQs: whether `source` may map into `target`, or
/// onto it when `onto`, as far as counts tell.  It applies when every two
/// variables of `source` must differ, as in every ⟨Q⟩ member, and admits
/// everything otherwise.  A homomorphism preserves the source's
/// inequalities, so out of such a source it is injective on variables and
/// maps distinct atoms to distinct atoms.  It therefore needs no more
/// variables than `target` has and, per relation, no more distinct atoms.
/// A surjective one needs equality in both counts, since every variable of
/// a safe target occurs in some atom.  The members of a flat description
/// take the same test on the counts the description made
/// ([`SearchQuery::shape_admits`]).
pub(crate) fn shape_admits(source: &Ccq, target: &Ccq, onto: bool) -> bool {
    let (s, t) = (source.cq(), target.cq());
    let n = s.num_vars();
    if source.inequalities().len() != n * n.saturating_sub(1) / 2 {
        return true;
    }
    let fits = |a: usize, b: usize| if onto { a == b } else { a <= b };
    fits(n, t.num_vars())
        && (s.atoms().iter())
            .all(|a| fits(distinct_atoms(s, a.relation), distinct_atoms(t, a.relation)))
}

/// Whether the images of `source`'s atoms under the total mapping `map`
/// cover `target`'s atom multiset: each distinct target atom is the image
/// of at least as many source atoms as `target` has copies of it.  It
/// counts in place, so an accepted surjection allocates nothing.
pub(crate) fn covers<Q: QueryView>(map: &VarMap, source: &Q, target: &Q) -> bool {
    let m = target.num_atoms();
    (0..m).all(|t| {
        let (rel, args) = (target.relation(t), target.args(t));
        let equal = |u: &usize| target.relation(*u) == rel && target.args(*u) == args;
        if (0..t).any(|u| equal(&u)) {
            // Counted at its first copy.
            return true;
        }
        let images = (0..source.num_atoms()).filter(|&a| {
            let mapped = (source.args(a).iter())
                .zip(args)
                .all(|(&v, &w)| map.get(v) == Some(w));
            source.relation(a) == rel && mapped
        });
        images.count() >= (t..m).filter(equal).count()
    })
}

/// Runs a search and returns the first accepted total mapping, if any.
fn first_witness<Q: SearchQuery>(
    search: &HomSearch<'_, Q>,
    accept: &mut dyn FnMut(&VarMap) -> bool,
) -> Option<VarMap> {
    let mut found = None;
    search.run(&mut |map| {
        if accept(map) {
            found = Some(map.clone());
            true
        } else {
            false
        }
    });
    found
}

/// `Q₂ → Q₁`: is there a homomorphism (containment mapping) from `q2` to
/// `q1`?  (Chandra–Merlin; Sec. 3.3.)
pub fn exists_hom(q2: &Cq, q1: &Cq) -> bool {
    HomSearch::new(q2, q1).exists()
}

/// `Q₂ → Q₁` with the witness: the first homomorphism found, as a variable
/// mapping from `q2`'s variables into `q1`'s.
pub fn find_hom(q2: &Cq, q1: &Cq) -> Option<VarMap> {
    first_witness(&HomSearch::new(q2, q1), &mut |_| true)
}

/// `Q₂ ↪ Q₁` with the witness (see [`exists_injective_hom`]).
pub fn find_injective_hom(q2: &Cq, q1: &Cq) -> Option<VarMap> {
    if !relation_counts_dominated(q2, q1) {
        return None;
    }
    let search = HomSearch::new(q2, q1).with_options(SearchOptions {
        occurrence_injective: true,
        ..Default::default()
    });
    first_witness(&search, &mut |_| true)
}

/// `Q₂ ⤖ Q₁` with the witness (see [`exists_bijective_hom`]).
pub fn find_bijective_hom(q2: &Cq, q1: &Cq) -> Option<VarMap> {
    if q2.num_atoms() != q1.num_atoms() {
        return None;
    }
    find_injective_hom(q2, q1)
}

/// `Q₂ ↠ Q₁` with the witness (see [`exists_surjective_hom`]).
pub fn find_surjective_hom(q2: &Cq, q1: &Cq) -> Option<VarMap> {
    if !relation_counts_dominated(q1, q2) {
        return None;
    }
    first_witness(&HomSearch::new(q2, q1), &mut |map| covers(map, q2, q1))
}

/// `Q₂ → Q₁` for CCQs, or for members of complete descriptions, preserving
/// inequalities.
pub fn exists_hom_ccq<Q: SearchQuery>(q2: &Q, q1: &Q) -> bool {
    Q::shape_admits(q2, q1, false) && HomSearch::new(q2, q1).exists()
}

/// `Q₂ ↪ Q₁`: is there an injective (one-to-one on atoms) homomorphism from
/// `q2` to `q1`?  The multiset of image atoms is a sub-multiset of `q1`'s
/// atoms (Sec. 4.2).
pub fn exists_injective_hom(q2: &Cq, q1: &Cq) -> bool {
    relation_counts_dominated(q2, q1)
        && HomSearch::new(q2, q1)
            .with_options(SearchOptions {
                occurrence_injective: true,
                ..Default::default()
            })
            .exists()
}

/// `Q₂ ⤖ Q₁`: is there a bijective (exact) homomorphism from `q2` to `q1`?
/// The multiset of image atoms equals `q1`'s atom multiset (Sec. 4.3).
pub fn exists_bijective_hom(q2: &Cq, q1: &Cq) -> bool {
    q2.num_atoms() == q1.num_atoms() && exists_injective_hom(q2, q1)
}

/// `Q₂ ↠ Q₁`: is there a surjective (onto) homomorphism from `q2` to `q1`?
/// Every atom occurrence of `q1` appears in the image multiset (Sec. 4.4).
pub fn exists_surjective_hom(q2: &Cq, q1: &Cq) -> bool {
    surjective_search(q2, q1)
}

/// `Q₂ ↠ Q₁` for CCQs, or for members of complete descriptions, preserving
/// inequalities.
pub fn exists_surjective_hom_ccq<Q: SearchQuery>(q2: &Q, q1: &Q) -> bool {
    surjective_search(q2, q1)
}

fn surjective_search<Q: SearchQuery>(q2: &Q, q1: &Q) -> bool {
    // The shape test starts with the variable counts; then, covering every
    // atom occurrence of q1 needs, per relation, at least as many atoms in
    // q2 (images stay within the relation).
    if !Q::shape_admits(q2, q1, true) || !relation_counts_dominated(q1, q2) {
        return false;
    }
    HomSearch::new(q2, q1).run(&mut |map| covers(map, q2, q1))
}

/// `Q₂ ⇉ Q₁` over a union of sources: every atom of `target` is in the image
/// of a homomorphism from some source to `target` (Sec. 4.1).  One source
/// gives the CQ covering `Q₂ ⇉ Q₁`; the members of a UCQ `Q₂`, or one
/// representative per isomorphism class of its complete description, give
/// the union covering `⇉₁` of Sec. 5.4.  Target atoms are tried in order,
/// and for each the sources and their atoms.  A source whose shape cannot
/// map into `target` is skipped without a search.
pub fn homomorphically_covers<Q: SearchQuery>(sources: &[Q], target: &Q) -> bool {
    'atoms: for target_index in 0..target.num_atoms() {
        let relation = target.relation(target_index);
        for source in sources {
            if !Q::shape_admits(source, target, false) {
                continue;
            }
            for source_index in 0..source.num_atoms() {
                if source.relation(source_index) != relation {
                    continue;
                }
                if HomSearch::new(source, target)
                    .with_pin(source_index, target_index)
                    .exists()
                {
                    continue 'atoms;
                }
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

    /// Example 4.6 of the paper:
    /// Q1 = ∃u,v,w R(u,v), R(u,w);  Q2 = ∃u,v R(u,v), R(u,v).
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
    fn example_4_6_has_plain_but_no_injective_hom() {
        let (q1, q2) = example_4_6();
        // A homomorphism Q2 → Q1 exists (map both atoms to R(u,v)).
        assert!(exists_hom(&q2, &q1));
        // But no injective homomorphism (the paper's point in Sec. 4.2).
        assert!(!exists_injective_hom(&q2, &q1));
        assert!(!exists_bijective_hom(&q2, &q1));
        // A surjective homomorphism Q2 → Q1 also fails (two occurrences of
        // the same image atom cannot cover two distinct atoms).
        assert!(!exists_surjective_hom(&q2, &q1));
        // Homomorphic covering Q2 ⇉ Q1 also fails: the atom R(u,w) of Q1 is
        // never in the image of a homomorphism from Q2 ... actually any hom
        // image is a single atom {R(u,x)}, which can be made equal to R(u,w)
        // by mapping v ↦ w, so the covering *does* hold.
        assert!(homomorphically_covers(std::slice::from_ref(&q2), &q1));
    }

    #[test]
    fn injective_and_surjective_on_simple_pairs() {
        // Q1 = R(x,y), R(y,z); Q2 = R(a,b).
        let q1 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let q2 = Cq::builder(&schema()).atom("R", &["a", "b"]).build();
        assert!(exists_hom(&q2, &q1));
        assert!(exists_injective_hom(&q2, &q1));
        assert!(!exists_bijective_hom(&q2, &q1)); // different atom counts
        assert!(!exists_surjective_hom(&q2, &q1)); // a single image atom cannot cover both atoms at once
                                                   // ... but each atom of Q1 is separately the image of some
                                                   // homomorphism from the edge, so the covering Q2 ⇉ Q1 holds.
        assert!(homomorphically_covers(std::slice::from_ref(&q2), &q1));
    }

    #[test]
    fn covering_of_path_by_edge() {
        // An edge query covers a path query: each path atom separately is the
        // image of some homomorphism from the edge.
        let path = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let edge = Cq::builder(&schema()).atom("R", &["a", "b"]).build();
        assert!(homomorphically_covers(std::slice::from_ref(&edge), &path));
    }

    #[test]
    fn bijective_requires_exact_multiset() {
        // Q2 = R(a,b), R(b,c) maps bijectively onto Q1 = R(x,y), R(y,z).
        let q1 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let q2 = Cq::builder(&schema())
            .atom("R", &["a", "b"])
            .atom("R", &["b", "c"])
            .build();
        assert!(exists_bijective_hom(&q2, &q1));
        assert!(exists_surjective_hom(&q2, &q1));
        assert!(exists_injective_hom(&q2, &q1));
        // Collapsing the target breaks bijectivity but keeps surjectivity:
        // Q3 = R(x,x).
        let q3 = Cq::builder(&schema()).atom("R", &["x", "x"]).build();
        assert!(!exists_bijective_hom(&q2, &q3));
        assert!(exists_surjective_hom(&q2, &q3));
        assert!(!exists_injective_hom(&q2, &q3));
    }

    #[test]
    fn surjective_but_not_injective_example() {
        // Q2 = R(u,v), R(u,v) ↠ Q1 = R(x,y): both atoms map onto the single
        // target atom, covering it; injectivity fails.
        let q2 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "v"])
            .build();
        let q1 = Cq::builder(&schema()).atom("R", &["x", "y"]).build();
        assert!(exists_surjective_hom(&q2, &q1));
        assert!(!exists_injective_hom(&q2, &q1));
        assert!(homomorphically_covers(std::slice::from_ref(&q2), &q1));
    }

    #[test]
    fn free_variables_restrict_all_variants() {
        let q1 = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .build();
        let q2 = Cq::builder(&schema())
            .free(&["a"])
            .atom("R", &["a", "b"])
            .build();
        assert!(exists_hom(&q2, &q1));
        assert!(exists_injective_hom(&q2, &q1));
        assert!(exists_bijective_hom(&q2, &q1));
        assert!(exists_surjective_hom(&q2, &q1));
        assert!(homomorphically_covers(std::slice::from_ref(&q2), &q1));
        // Swapping the head variable to the second position blocks them.
        let q3 = Cq::builder(&schema())
            .free(&["b"])
            .atom("R", &["a", "b"])
            .build();
        assert!(!exists_hom(&q3, &q1));
        assert!(!exists_surjective_hom(&q3, &q1));
    }

    #[test]
    fn multiset_helpers() {
        // Under the identity, the images of R(x,y), R(x,y), S(y) cover its
        // own atom multiset and its first two atoms, but two copies of
        // R(x,y) do not cover the three atoms.
        let q = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build();
        let pair = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["x", "y"])
            .build();
        let single = Cq::builder(&schema()).atom("R", &["x", "y"]).build();
        let mut identity = VarMap::new(2);
        identity.bind(annot_query::QVar(0), annot_query::QVar(0));
        identity.bind(annot_query::QVar(1), annot_query::QVar(1));
        assert!(covers(&identity, &q, &pair));
        assert!(covers(&identity, &q, &q));
        assert!(!covers(&identity, &pair, &q));
        // Copies count: one R(x,y) does not cover two.
        assert!(covers(&identity, &pair, &single));
        assert!(!covers(&identity, &single, &pair));
    }

    #[test]
    fn ccq_variants_respect_inequalities() {
        use annot_query::Ccq;
        let loop_q = Ccq::completion_of(Cq::builder(&schema()).atom("R", &["x", "x"]).build());
        let edge_distinct =
            Ccq::completion_of(Cq::builder(&schema()).atom("R", &["u", "v"]).build());
        // R(u,v) with u≠v maps into R(x,x) only by collapsing u,v — forbidden.
        assert!(!exists_hom_ccq(&edge_distinct, &loop_q));
        assert!(!exists_surjective_hom_ccq(&edge_distinct, &loop_q));
        assert!(!homomorphically_covers(
            std::slice::from_ref(&edge_distinct),
            &loop_q
        ));
        // The loop maps into the loop.
        assert!(exists_hom_ccq(&loop_q, &loop_q));
        assert!(exists_surjective_hom_ccq(&loop_q, &loop_q));
        assert!(homomorphically_covers(
            std::slice::from_ref(&loop_q),
            &loop_q
        ));
        // As a second source, the loop covers it in a union with the edge.
        assert!(homomorphically_covers(
            &[edge_distinct.clone(), loop_q.clone()],
            &loop_q
        ));
    }
}
