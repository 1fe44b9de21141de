//! The backtracking search engine underlying every homomorphism variant.
//!
//! All the criteria of the paper — plain homomorphisms (Sec. 3.3), injective,
//! surjective and bijective homomorphisms (Sec. 4.2–4.4), homomorphic
//! coverings (Sec. 4.1) and isomorphisms of CCQs (Sec. 5.2) — reduce to the
//! same search problem: map the atoms of a source query `Q₂` onto atoms of a
//! target query `Q₁` consistently with a variable mapping, subject to side
//! conditions (occurrence-injectivity, pinned atoms, inequality preservation,
//! an acceptance predicate on the completed mapping).  This module implements
//! that search once; the public per-criterion functions live in
//! [`crate::kinds`] and [`crate::iso`].
//!
//! Deciding existence of these homomorphisms is NP-complete in general
//! (Chandra–Merlin); the search is exponential in the worst case.  Two
//! engine-level optimisations keep the practical cases fast:
//!
//! * a **per-relation target-atom index** built once per search, so candidate
//!   target occurrences are looked up by relation instead of scanning every
//!   target atom at every node;
//! * **dynamic most-constrained-next selection with forward checking**: at
//!   each node the engine picks the not-yet-mapped source atom with the
//!   fewest *currently admissible* target occurrences (admissibility checks
//!   the already-bound argument positions, occurrence usage and the pin), so
//!   dead branches are detected before descending into them;
//! * **inequalities checked at bind time**: a CCQ search checks each source
//!   inequality as soon as both of its variables are bound, head bindings
//!   included, so a mapping that merges two variables that must differ is
//!   cut where it merges them instead of at a leaf.  The accepted mappings
//!   and their order are those of a leaf check.  Plain-CQ searches run an
//!   instance of the recursion compiled without the check.

use crate::mapping::VarMap;
use annot_query::{Ccq, Cq, QVar};

/// Atom-selection order used by the backtracking search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomOrder {
    /// Process source atoms in syntactic order.
    Syntactic,
    /// Dynamically pick, at every node, the unmapped source atom with the
    /// fewest admissible target occurrences under the current partial
    /// mapping (forward checking) — the default.
    MostConstrained,
}

/// Configuration of a homomorphism search.
#[derive(Clone, Debug)]
pub struct SearchOptions {
    /// Each target atom *occurrence* may be used by at most one source atom.
    /// With this flag the found mapping's atom image is a sub-multiset of the
    /// target's atoms (injective homomorphism); combined with equal atom
    /// counts it is exactly the target multiset (bijective homomorphism).
    pub occurrence_injective: bool,
    /// Atom ordering heuristic.
    pub order: AtomOrder,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            occurrence_injective: false,
            order: AtomOrder::MostConstrained,
        }
    }
}

/// Target atom occurrences grouped by relation, so the search enumerates only
/// same-relation candidates instead of scanning the whole atom list.
struct TargetIndex {
    by_relation: Vec<Vec<usize>>,
}

impl TargetIndex {
    fn new(target: &Cq) -> Self {
        let buckets = target
            .atoms()
            .iter()
            .map(|a| a.relation.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut by_relation = vec![Vec::new(); buckets];
        for (i, atom) in target.atoms().iter().enumerate() {
            by_relation[atom.relation.0 as usize].push(i);
        }
        TargetIndex { by_relation }
    }

    fn candidates(&self, rel: annot_query::RelId) -> &[usize] {
        self.by_relation
            .get(rel.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// A query a [`HomSearch`] runs between: a plain CQ, or a CCQ whose
/// inequalities the homomorphism must preserve.
pub trait SearchQuery {
    /// The underlying CQ.
    fn as_cq(&self) -> &Cq;
    /// A search from `source` to `target`.
    fn search<'a>(source: &'a Self, target: &'a Self) -> HomSearch<'a>;
    /// Whether counts leave room for a homomorphism from `source` into
    /// `target`, or onto it when `onto`.  Always true between CQs; between
    /// CCQs, the shape test of [`crate::kinds`] for sources whose variables
    /// must all differ.
    fn shape_admits(source: &Self, target: &Self, onto: bool) -> bool;
}

impl SearchQuery for Cq {
    fn as_cq(&self) -> &Cq {
        self
    }

    fn search<'a>(source: &'a Cq, target: &'a Cq) -> HomSearch<'a> {
        HomSearch::new(source, target)
    }

    fn shape_admits(_: &Cq, _: &Cq, _: bool) -> bool {
        true
    }
}

impl SearchQuery for Ccq {
    fn as_cq(&self) -> &Cq {
        self.cq()
    }

    fn search<'a>(source: &'a Ccq, target: &'a Ccq) -> HomSearch<'a> {
        HomSearch::new_ccq(source, target)
    }

    fn shape_admits(source: &Ccq, target: &Ccq, onto: bool) -> bool {
        crate::kinds::shape_admits(source, target, onto)
    }
}

/// A single search problem: find a homomorphism from `source` to `target`.
pub struct HomSearch<'a> {
    source: &'a Cq,
    target: &'a Cq,
    /// The source and target CCQs of an inequality-preserving search.
    inequalities: Option<(&'a Ccq, &'a Ccq)>,
    options: SearchOptions,
    /// Optional pin: the source atom at index `.0` must map to the target
    /// atom occurrence at index `.1` (used for homomorphic coverings).
    pin: Option<(usize, usize)>,
}

impl<'a> HomSearch<'a> {
    /// Creates a search between two plain CQs.
    pub fn new(source: &'a Cq, target: &'a Cq) -> Self {
        HomSearch {
            source,
            target,
            inequalities: None,
            options: SearchOptions::default(),
            pin: None,
        }
    }

    /// Creates a search between two CCQs; the homomorphism must preserve the
    /// source inequalities (Sec. 5: "homomorphisms … between CCQs should
    /// preserve the inequalities").  Each inequality is checked as soon as
    /// both of its variables are bound, so a branch that breaks one is cut
    /// before it completes.
    pub fn new_ccq(source: &'a Ccq, target: &'a Ccq) -> Self {
        HomSearch {
            source: source.cq(),
            target: target.cq(),
            inequalities: Some((source, target)),
            options: SearchOptions::default(),
            pin: None,
        }
    }

    /// Overrides the search options.
    pub fn with_options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self
    }

    /// Requires the source atom `source_atom` to map to the target occurrence
    /// `target_atom`.
    pub fn with_pin(mut self, source_atom: usize, target_atom: usize) -> Self {
        self.pin = Some((source_atom, target_atom));
        self
    }

    /// Runs the search, calling `accept` on every complete candidate mapping;
    /// stops and returns `true` as soon as `accept` returns `true`.  Returns
    /// `false` if no accepted mapping exists.
    pub fn run(&self, accept: &mut dyn FnMut(&VarMap) -> bool) -> bool {
        // Head condition: h(u₂) = u₁ positionally.
        if self.source.free_vars().len() != self.target.free_vars().len() {
            return false;
        }
        let mut map = VarMap::new(self.source.num_vars());
        for (v2, v1) in self.source.free_vars().iter().zip(self.target.free_vars()) {
            if !map.bind(*v2, *v1) || !self.keeps_inequalities(*v2, &map) {
                return false;
            }
        }

        let index = TargetIndex::new(self.target);
        let mut assigned = vec![false; self.source.num_atoms()];
        let mut used = vec![false; self.target.num_atoms()];
        // One shared binding stack for the whole search: candidates record
        // their fresh bindings above a mark and truncate back on backtrack,
        // instead of allocating a scratch vector per candidate.
        let mut touched: Vec<QVar> = Vec::new();
        // Plain-CQ searches run an instance without the inequality check.
        let (index, map, used, touched) = (&index, &mut map, &mut used, &mut touched);
        if self.inequalities.is_some() {
            self.recurse::<true>(index, 0, &mut assigned, map, used, touched, accept)
        } else {
            self.recurse::<false>(index, 0, &mut assigned, map, used, touched, accept)
        }
    }

    /// Convenience: does any accepted mapping exist (with trivial acceptance)?
    pub fn exists(&self) -> bool {
        self.run(&mut |_| true)
    }

    /// Convenience: the first homomorphism found, if any.
    pub fn find(&self) -> Option<VarMap> {
        let mut found = None;
        self.run(&mut |m| {
            found = Some(m.clone());
            true
        });
        found
    }

    /// Enumerates all homomorphisms (calling `visit` on each); mainly used by
    /// the surjectivity and counting checks.
    pub fn for_each(&self, visit: &mut dyn FnMut(&VarMap)) {
        self.run(&mut |m| {
            visit(m);
            false
        });
    }

    /// Whether mapping the source atom `source_index` onto the target
    /// occurrence `target_index` is admissible under the current partial
    /// state: the occurrence is free (when occurrence-injective), the pin is
    /// respected, and every already-bound argument position agrees (forward
    /// checking).  Unbound positions are checked later during unification
    /// (they may still conflict through repeated variables).
    fn admissible(
        &self,
        source_index: usize,
        target_index: usize,
        map: &VarMap,
        used: &[bool],
    ) -> bool {
        if self.options.occurrence_injective && used[target_index] {
            return false;
        }
        if let Some((pinned_source, pinned_target)) = self.pin {
            if source_index == pinned_source && target_index != pinned_target {
                return false;
            }
        }
        let atom = &self.source.atoms()[source_index];
        let target_atom = &self.target.atoms()[target_index];
        atom.args
            .iter()
            .zip(&target_atom.args)
            .all(|(&sv, &tv)| match map.get(sv) {
                None => true,
                Some(bound) => bound == tv,
            })
    }

    /// Picks the next source atom to map.  The pinned atom (if any) always
    /// goes first so the pin prunes immediately; after that, syntactic order
    /// or dynamic most-constrained-next selection.
    fn select_next(
        &self,
        index: &TargetIndex,
        assigned: &[bool],
        map: &VarMap,
        used: &[bool],
    ) -> usize {
        if let Some((pinned, _)) = self.pin {
            if !assigned[pinned] {
                return pinned;
            }
        }
        match self.options.order {
            AtomOrder::Syntactic => assigned
                .iter()
                .position(|&done| !done)
                // invariant: guarded by the all-assigned check above
                .expect("select_next called with all atoms assigned"),
            AtomOrder::MostConstrained => {
                let mut best = usize::MAX;
                let mut best_count = usize::MAX;
                for (i, &done) in assigned.iter().enumerate() {
                    if done {
                        continue;
                    }
                    let atom = &self.source.atoms()[i];
                    let mut count = 0;
                    for &t in index.candidates(atom.relation) {
                        if self.admissible(i, t, map, used) {
                            count += 1;
                            if count >= best_count {
                                break;
                            }
                        }
                    }
                    if count < best_count {
                        best_count = count;
                        best = i;
                        if best_count == 0 {
                            break;
                        }
                    }
                }
                best
            }
        }
    }

    /// Extends the partial mapping by one source atom at a time.  With
    /// `INEQUALITIES`, every fresh binding is checked against the source
    /// inequalities whose other variable is already bound.
    #[allow(clippy::too_many_arguments)]
    fn recurse<const INEQUALITIES: bool>(
        &self,
        index: &TargetIndex,
        depth: usize,
        assigned: &mut Vec<bool>,
        map: &mut VarMap,
        used: &mut Vec<bool>,
        touched: &mut Vec<QVar>,
        accept: &mut dyn FnMut(&VarMap) -> bool,
    ) -> bool {
        if depth == self.source.num_atoms() {
            if !map.is_total() {
                // Cannot happen for safe queries, but guard anyway.
                return false;
            }
            return accept(map);
        }
        let source_index = self.select_next(index, assigned, map, used);
        let atom = &self.source.atoms()[source_index];
        assigned[source_index] = true;
        for &target_index in index.candidates(atom.relation) {
            if !self.admissible(source_index, target_index, map, used) {
                continue;
            }
            let target_atom = &self.target.atoms()[target_index];
            // Unify the argument lists (forward checking already validated
            // the bound positions; repeated variables can still conflict).
            // Fresh bindings go on the shared stack above `mark`.
            let mark = touched.len();
            let mut ok = true;
            for (&sv, &tv) in atom.args.iter().zip(&target_atom.args) {
                if map.get(sv).is_none() {
                    map.bind(sv, tv);
                    touched.push(sv);
                    if INEQUALITIES && !self.keeps_inequalities(sv, map) {
                        ok = false;
                        break;
                    }
                } else if map.get(sv) != Some(tv) {
                    ok = false;
                    break;
                }
            }
            if ok {
                used[target_index] = true;
                if self.recurse::<INEQUALITIES>(
                    index,
                    depth + 1,
                    assigned,
                    map,
                    used,
                    touched,
                    accept,
                ) {
                    return true;
                }
                used[target_index] = false;
            }
            for v in touched.drain(mark..) {
                map.unbind(v);
            }
        }
        assigned[source_index] = false;
        false
    }

    /// Inequality preservation at the binding of `v`: for every source
    /// inequality `v ≠ w` whose `w` is bound, the images must be distinct
    /// variables, and — when both images are existential variables of the
    /// target — the pair must itself be an inequality of the target
    /// (automatically true for complete CCQs).  Checking each inequality
    /// when its second variable is bound checks every one by the leaf, and
    /// cuts only branches whose every completion would fail.
    fn keeps_inequalities(&self, v: QVar, map: &VarMap) -> bool {
        let Some((source, target)) = self.inequalities else {
            return true;
        };
        // invariant: called right after binding `v`
        let hv = map.get(v).expect("bound variable");
        let distinct_images = |hw: QVar| {
            hw != hv
                && (target.cq().is_free(hv)
                    || target.cq().is_free(hw)
                    || target.must_differ(hv, hw))
        };
        source.inequalities().iter().all(|&(a, b)| {
            let w = if v == a {
                b
            } else if v == b {
                a
            } else {
                return true;
            };
            map.get(w).map_or(true, distinct_images)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::{Cq, Schema};

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    #[test]
    fn chandra_merlin_classic() {
        // Q1 = R(x,y), R(y,z)  (path of length 2)
        // Q2 = R(u,v)          (single edge)
        // There is a homomorphism Q2 → Q1, but none from Q1 to Q2 (the
        // collapse would need u = v).
        let q1 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let q2 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        assert!(HomSearch::new(&q2, &q1).exists());
        assert!(!HomSearch::new(&q1, &q2).exists());
    }

    #[test]
    fn hom_from_path_to_edge_requires_collapse() {
        // Mapping R(x,y),R(y,z) into the single atom R(u,v) needs
        // y ↦ v and y ↦ u simultaneously, impossible since u ≠ v are distinct
        // variables... unless both atoms map to R(u,v) with x↦u, y↦v and then
        // the second atom needs R(v, z↦?) = R(u,v) i.e. v = u: impossible.
        let q1 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let q2 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        assert!(!HomSearch::new(&q1, &q2).exists());
        // With a loop R(u,u) in the target, the collapse works.
        let q3 = Cq::builder(&schema()).atom("R", &["u", "u"]).build();
        assert!(HomSearch::new(&q1, &q3).exists());
    }

    #[test]
    fn free_variables_must_map_positionally() {
        let q1 = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .build();
        let q2 = Cq::builder(&schema())
            .free(&["a"])
            .atom("R", &["a", "b"])
            .build();
        assert!(HomSearch::new(&q2, &q1).exists());
        // A Boolean query cannot map onto a unary-head query and vice versa.
        let q3 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        assert!(!HomSearch::new(&q3, &q1).exists());
        assert!(!HomSearch::new(&q1, &q3).exists());
    }

    #[test]
    fn occurrence_injective_search() {
        // Q2 = R(u,v), R(u,v) has 2 atoms; target Q1 = R(x,y) has only one
        // occurrence, so an occurrence-injective mapping does not exist,
        // while a plain homomorphism does.
        let q2 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "v"])
            .build();
        let q1 = Cq::builder(&schema()).atom("R", &["x", "y"]).build();
        assert!(HomSearch::new(&q2, &q1).exists());
        let injective = SearchOptions {
            occurrence_injective: true,
            ..Default::default()
        };
        assert!(!HomSearch::new(&q2, &q1)
            .with_options(injective.clone())
            .exists());
        // Against a target with two parallel occurrences it works.
        let q1b = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["x", "y"])
            .build();
        assert!(HomSearch::new(&q2, &q1b).with_options(injective).exists());
    }

    #[test]
    fn pinned_atom_restricts_images() {
        let q1 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build();
        let q2 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        // Q2's only atom can be pinned to Q1's atom 0 (the R atom) ...
        assert!(HomSearch::new(&q2, &q1).with_pin(0, 0).exists());
        // ... but not to atom 1 (an S atom, different relation).
        assert!(!HomSearch::new(&q2, &q1).with_pin(0, 1).exists());
    }

    #[test]
    fn enumeration_visits_all_homomorphisms() {
        // Q2 = R(u,v) into Q1 = R(a,b), R(c,d): two homomorphisms.
        let q2 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        let q1 = Cq::builder(&schema())
            .atom("R", &["a", "b"])
            .atom("R", &["c", "d"])
            .build();
        let mut count = 0;
        HomSearch::new(&q2, &q1).for_each(&mut |_| count += 1);
        assert_eq!(count, 2);
        assert!(HomSearch::new(&q2, &q1).find().is_some());
        // In the opposite direction both disconnected atoms can map onto the
        // single edge, so a homomorphism exists there as well.
        assert!(HomSearch::new(&q1, &q2).find().is_some());
    }

    #[test]
    fn syntactic_and_most_constrained_orders_agree() {
        let q1 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .atom("S", &["z"])
            .build();
        let q2 = Cq::builder(&schema())
            .atom("R", &["a", "b"])
            .atom("S", &["b"])
            .build();
        for order in [AtomOrder::Syntactic, AtomOrder::MostConstrained] {
            let options = SearchOptions {
                occurrence_injective: false,
                order,
            };
            assert!(HomSearch::new(&q2, &q1).with_options(options).exists());
        }
    }

    #[test]
    fn dynamic_ordering_enumerates_the_same_homomorphism_count() {
        // The ordering heuristic must never change the *set* of complete
        // mappings, only the discovery order: counts agree across orders.
        let q1 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .atom("R", &["x", "z"])
            .build();
        let q2 = Cq::builder(&schema())
            .atom("R", &["a", "b"])
            .atom("R", &["b", "c"])
            .build();
        let mut counts = Vec::new();
        for order in [AtomOrder::Syntactic, AtomOrder::MostConstrained] {
            let options = SearchOptions {
                occurrence_injective: false,
                order,
            };
            let mut count = 0usize;
            HomSearch::new(&q2, &q1)
                .with_options(options)
                .for_each(&mut |_| count += 1);
            counts.push(count);
        }
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn ccq_inequalities_are_preserved() {
        use annot_query::Ccq;
        // Source: R(u,v) with u ≠ v; target: R(x,x) — the only hom collapses
        // u and v, violating the inequality.
        let src = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .inequality("u", "v")
            .build_ccq();
        let tgt_loop = Ccq::completion_of(Cq::builder(&schema()).atom("R", &["x", "x"]).build());
        assert!(!HomSearch::new_ccq(&src, &tgt_loop).exists());
        // Target R(x,y) with x ≠ y admits it.
        let tgt_edge = Ccq::completion_of(Cq::builder(&schema()).atom("R", &["x", "y"]).build());
        assert!(HomSearch::new_ccq(&src, &tgt_edge).exists());
        // Without the completion on the target, the image pair is not bound
        // by an inequality, so preservation fails.
        let tgt_plain = Ccq::from_cq(Cq::builder(&schema()).atom("R", &["x", "y"]).build());
        assert!(!HomSearch::new_ccq(&src, &tgt_plain).exists());
    }
}
