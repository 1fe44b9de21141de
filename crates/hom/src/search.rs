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
//! The engine reads its queries through [`SearchQuery`]: atoms, heads and
//! variable counts, and which variables must differ.  [`Cq`], [`Ccq`] and
//! the members of a flat complete description ([`Member`]) implement it.
//!
//! Deciding existence of these homomorphisms is NP-complete in general
//! (Chandra–Merlin); the search is exponential in the worst case.  These
//! engine-level measures keep the practical cases fast:
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
//!   cut where it merges them instead of at a leaf.  Between members of a
//!   complete description, whose variables all differ, the check is
//!   injectivity: a variable may not take an image already taken.  The
//!   accepted mappings and their order are those of a leaf check.
//!   Plain-CQ searches are compiled without the check;
//! * **no allocation per search**: the variable map, the target index, the
//!   flags and the binding stack live in a per-thread scratch that every
//!   search reuses, so once its buffers have grown a search allocates
//!   nothing.

use crate::mapping::VarMap;
use annot_query::complete::Member;
use annot_query::{Ccq, Cq, QVar, QueryView, RelId};
use std::cell::Cell;

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

/// Which variables of a query must take distinct values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inequalities {
    /// None: a plain CQ.
    None,
    /// The pairs the query lists: a CCQ.
    Listed,
    /// Every two: a member of a complete description.
    All,
}

/// A query a [`HomSearch`] runs between: a plain CQ, a CCQ whose
/// inequalities the homomorphism must preserve, or a member of a complete
/// description, all of whose variables differ.
pub trait SearchQuery: QueryView {
    /// Which variables must differ.
    const INEQUALITIES: Inequalities;

    /// With [`Inequalities::Listed`]: whether the binding of `v` keeps every
    /// source inequality `v ≠ w` whose `w` is bound in `map`.
    fn keeps_inequalities(_source: &Self, _target: &Self, _v: QVar, _map: &VarMap) -> bool {
        true
    }

    /// Whether counts leave room for a homomorphism from `source` into
    /// `target`, or onto it when `onto`: the shape test of [`crate::kinds`]
    /// for sources whose variables must all differ, and true otherwise.
    fn shape_admits(_source: &Self, _target: &Self, _onto: bool) -> bool {
        true
    }

    /// How many atoms have relation `rel`.
    fn occurrences(&self, rel: RelId) -> usize {
        (0..self.num_atoms())
            .filter(|&a| self.relation(a) == rel)
            .count()
    }
}

impl SearchQuery for Cq {
    const INEQUALITIES: Inequalities = Inequalities::None;
}

impl SearchQuery for Ccq {
    const INEQUALITIES: Inequalities = Inequalities::Listed;

    /// For every source inequality `v ≠ w` whose `w` is bound, the images
    /// must be distinct variables, and — when both images are existential
    /// variables of the target — the pair must itself be an inequality of
    /// the target (automatically true for complete CCQs).  Checking each
    /// inequality when its second variable is bound checks every one by the
    /// leaf, and cuts only branches whose every completion would fail.
    fn keeps_inequalities(source: &Ccq, target: &Ccq, v: QVar, map: &VarMap) -> bool {
        let Some(hv) = map.get(v) else {
            return true;
        };
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

    fn shape_admits(source: &Ccq, target: &Ccq, onto: bool) -> bool {
        crate::kinds::shape_admits(source, target, onto)
    }
}

impl SearchQuery for Member<'_> {
    const INEQUALITIES: Inequalities = Inequalities::All;

    /// A homomorphism out of a member is injective on variables and maps
    /// distinct atoms to distinct atoms, so it needs no more variables and,
    /// per relation, no more distinct atoms than the target has; a
    /// surjective one needs equality in both.  The description counted the
    /// distinct atoms once.
    fn shape_admits(source: &Self, target: &Self, onto: bool) -> bool {
        let fits = |a: usize, b: usize| if onto { a == b } else { a <= b };
        fits(source.num_vars(), target.num_vars())
            && (0..source.num_atoms()).all(|a| {
                let rel = source.relation(a);
                fits(source.distinct_atoms(rel), target.distinct_atoms(rel))
            })
    }

    fn occurrences(&self, rel: RelId) -> usize {
        Member::occurrences(self, rel)
    }
}

/// A single search problem: find a homomorphism from `source` to `target`.
pub struct HomSearch<'a, Q: SearchQuery = Cq> {
    source: &'a Q,
    target: &'a Q,
    options: SearchOptions,
    /// Optional pin: the source atom at index `.0` must map to the target
    /// atom occurrence at index `.1` (used for homomorphic coverings).
    pin: Option<(usize, usize)>,
}

/// The buffers one search works in, kept per thread between searches.
#[derive(Default)]
struct Scratch {
    map: VarMap,
    /// Per target variable: whether it is some bound variable's image
    /// (kept for [`Inequalities::All`] only).
    taken: Vec<bool>,
    /// Per source atom: whether it is mapped.
    assigned: Vec<bool>,
    /// Per target atom: whether a source atom is mapped to it.
    used: Vec<bool>,
    /// The binding stack: candidates record their fresh bindings above a
    /// mark and truncate back on backtrack.
    touched: Vec<QVar>,
    /// The target atoms grouped by relation: those of relation `r` are
    /// `atoms[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
    atoms: Vec<u32>,
}

impl Scratch {
    const EMPTY: Scratch = Scratch {
        map: VarMap::EMPTY,
        taken: Vec::new(),
        assigned: Vec::new(),
        used: Vec::new(),
        touched: Vec::new(),
        starts: Vec::new(),
        atoms: Vec::new(),
    };

    /// Groups `target`'s atoms by relation.
    fn index<Q: QueryView>(&mut self, target: &Q) {
        let m = target.num_atoms();
        let buckets = (0..m).map(|a| target.relation(a).0 as usize + 1).max();
        self.starts.clear();
        self.starts.resize(buckets.unwrap_or(0) + 1, 0);
        for a in 0..m {
            self.starts[target.relation(a).0 as usize + 1] += 1;
        }
        for r in 1..self.starts.len() {
            self.starts[r] += self.starts[r - 1];
        }
        self.atoms.clear();
        self.atoms.resize(m, 0);
        // `starts[r + 1]` is where relation `r`'s atoms end.  Placing the
        // atoms from the back, each just below its relation's end, keeps
        // them in order and moves each end down to its relation's start;
        // shifting the starts down by one and closing them with `m` gives
        // the index.
        for a in (0..m).rev() {
            let end = &mut self.starts[target.relation(a).0 as usize + 1];
            *end -= 1;
            self.atoms[*end as usize] = a as u32;
        }
        self.starts.rotate_left(1);
        if let Some(last) = self.starts.last_mut() {
            *last = m as u32;
        }
    }

    /// The target atoms of relation `rel`.
    fn candidates(&self, rel: RelId) -> &[u32] {
        let r = rel.0 as usize;
        match (self.starts.get(r), self.starts.get(r + 1)) {
            (Some(&from), Some(&to)) => &self.atoms[from as usize..to as usize],
            _ => &[],
        }
    }
}

thread_local! {
    /// The scratch every search on this thread reuses.  A search takes it
    /// and puts it back, so a search started from inside another's
    /// acceptance predicate works in fresh buffers.
    static SCRATCH: Cell<Scratch> = const { Cell::new(Scratch::EMPTY) };
}

impl<'a, Q: SearchQuery> HomSearch<'a, Q> {
    /// Creates a search from `source` to `target`.  Between CCQs the
    /// homomorphism must preserve the source inequalities (Sec. 5:
    /// "homomorphisms … between CCQs should preserve the inequalities");
    /// between members of a complete description it is injective on
    /// variables.
    pub fn new(source: &'a Q, target: &'a Q) -> Self {
        HomSearch {
            source,
            target,
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
        if self.source.head().len() != self.target.head().len() {
            return false;
        }
        let mut scratch = SCRATCH.with(Cell::take);
        let found = self.run_in(&mut scratch, accept);
        SCRATCH.with(|cell| cell.set(scratch));
        found
    }

    fn run_in(&self, s: &mut Scratch, accept: &mut dyn FnMut(&VarMap) -> bool) -> bool {
        s.map.reset(self.source.num_vars());
        if Q::INEQUALITIES == Inequalities::All {
            s.taken.clear();
            s.taken.resize(self.target.num_vars(), false);
        }
        s.touched.clear();
        for (&v2, &v1) in self.source.head().iter().zip(self.target.head()) {
            match s.map.get(v2) {
                Some(bound) if bound != v1 => return false,
                Some(_) => {}
                None => {
                    if !self.bind(s, v2, v1) {
                        return false;
                    }
                }
            }
        }
        s.index(self.target);
        s.assigned.clear();
        s.assigned.resize(self.source.num_atoms(), false);
        s.used.clear();
        s.used.resize(self.target.num_atoms(), false);
        self.recurse(s, 0, accept)
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

    /// Binds the unbound source variable `v` to `t` and pushes it on the
    /// binding stack, unless an image already taken refuses it.  Returns
    /// whether the binding keeps the query's inequalities; on `false` the
    /// caller unwinds the stack, this binding included if it was made.
    fn bind(&self, s: &mut Scratch, v: QVar, t: QVar) -> bool {
        if Q::INEQUALITIES == Inequalities::All {
            if s.taken[t.0 as usize] {
                return false;
            }
            s.taken[t.0 as usize] = true;
        }
        s.map.bind(v, t);
        s.touched.push(v);
        Q::INEQUALITIES != Inequalities::Listed
            || Q::keeps_inequalities(self.source, self.target, v, &s.map)
    }

    /// Undoes the bindings above `mark` on the binding stack.
    fn unwind(s: &mut Scratch, mark: usize) {
        for v in s.touched.drain(mark..) {
            if Q::INEQUALITIES == Inequalities::All {
                if let Some(t) = s.map.get(v) {
                    s.taken[t.0 as usize] = false;
                }
            }
            s.map.unbind(v);
        }
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
        (self.source.args(source_index).iter())
            .zip(self.target.args(target_index))
            .all(|(&sv, &tv)| match map.get(sv) {
                None => true,
                Some(bound) => bound == tv,
            })
    }

    /// Picks the next source atom to map.  The pinned atom (if any) always
    /// goes first so the pin prunes immediately; after that, syntactic order
    /// or dynamic most-constrained-next selection.
    fn select_next(&self, s: &Scratch) -> usize {
        if let Some((pinned, _)) = self.pin {
            if !s.assigned[pinned] {
                return pinned;
            }
        }
        match self.options.order {
            AtomOrder::Syntactic => s
                .assigned
                .iter()
                .position(|&done| !done)
                // invariant: guarded by the all-assigned check above
                .expect("select_next called with all atoms assigned"),
            AtomOrder::MostConstrained => {
                let mut best = usize::MAX;
                let mut best_count = usize::MAX;
                for (i, &done) in s.assigned.iter().enumerate() {
                    if done {
                        continue;
                    }
                    let mut count = 0;
                    for &t in s.candidates(self.source.relation(i)) {
                        if self.admissible(i, t as usize, &s.map, &s.used) {
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

    /// Extends the partial mapping by one source atom at a time.  Every
    /// fresh binding is checked against the query's inequalities.
    fn recurse(
        &self,
        s: &mut Scratch,
        depth: usize,
        accept: &mut dyn FnMut(&VarMap) -> bool,
    ) -> bool {
        if depth == self.source.num_atoms() {
            if !s.map.is_total() {
                // Cannot happen for safe queries, but guard anyway.
                return false;
            }
            return accept(&s.map);
        }
        let source_index = self.select_next(s);
        let relation = self.source.relation(source_index);
        s.assigned[source_index] = true;
        let candidates = s.candidates(relation).len();
        for c in 0..candidates {
            let target_index = s.candidates(relation)[c] as usize;
            if !self.admissible(source_index, target_index, &s.map, &s.used) {
                continue;
            }
            // Unify the argument lists (forward checking already validated
            // the bound positions; repeated variables can still conflict).
            // Fresh bindings go on the shared stack above `mark`.
            let mark = s.touched.len();
            let mut ok = true;
            let args = self.source.args(source_index);
            for (&sv, &tv) in args.iter().zip(self.target.args(target_index)) {
                match s.map.get(sv) {
                    None => {
                        if !self.bind(s, sv, tv) {
                            ok = false;
                            break;
                        }
                    }
                    Some(bound) => {
                        if bound != tv {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if ok {
                s.used[target_index] = true;
                if self.recurse(s, depth + 1, accept) {
                    return true;
                }
                s.used[target_index] = false;
            }
            Self::unwind(s, mark);
        }
        s.assigned[source_index] = false;
        false
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
        assert!(!HomSearch::new(&src, &tgt_loop).exists());
        // Target R(x,y) with x ≠ y admits it.
        let tgt_edge = Ccq::completion_of(Cq::builder(&schema()).atom("R", &["x", "y"]).build());
        assert!(HomSearch::new(&src, &tgt_edge).exists());
        // Without the completion on the target, the image pair is not bound
        // by an inequality, so preservation fails.
        let tgt_plain = Ccq::from_cq(Cq::builder(&schema()).atom("R", &["x", "y"]).build());
        assert!(!HomSearch::new(&src, &tgt_plain).exists());
    }
}
