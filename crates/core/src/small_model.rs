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
//! unions that is Thm. 4.17's CQ procedure.  The decide pass
//! ([`crate::decide`]) calls it on the pairs its homomorphism bounds leave
//! open.
//!
//! It evaluates one representative per isomorphism class of `⟨Q₁⟩`
//! ([`Classes`]).  Isomorphic members give the same comparison up to
//! renaming their atoms' tags, and `¹_K` is invariant under that renaming,
//! so the verdict is the one every member would give: the 7-leaf star's
//! 4,140 members fall into 45 classes.
//!
//! # Evaluating over a member's atoms
//!
//! The canonical instance ⟦Q⟧ of a member `Q` tags the `i`-th atom of `Q`
//! with `xᵢ` and annotates each distinct fact with the sum of the tags of
//! the atoms that state it ([`CanonicalInstance`]).  A valuation of a
//! disjunct over ⟦Q⟧ multiplies one such sum per atom.  Expanded, the
//! disjunct's evaluation is a sum over the ways to send each of its atoms
//! to an atom of `Q` with the same relation, binding its variables to
//! `Q`'s consistently; each way adds the monomial
//! `Πᵢ xᵢ^(atoms sent to atom i)` at the output tuple the head is sent to.
//!
//! The procedure counts these ways one atom at a time, writing each
//! monomial as an exponent row.  After each atom, two partial ways that
//! bind the variables still to be read alike and have chosen the same
//! atoms of `Q` extend alike, so they merge into one with a count; the
//! count of a complete way is its monomial's coefficient.  Merging keeps
//! symmetric queries cheap: a 6-leaf star sent into its 877 members merges
//! 6⁶ ways per member into at most 462 monomials.  The rows of each output
//! tuple are sorted into [`Terms`], which the polynomial orders read.  So
//! deciding builds no instance and no `N[X]` polynomial, and its buffers
//! serve every member.  The rows are the polynomials ⟦Q⟧ gives: the tests
//! compare them with [`CanonicalInstance`] evaluations, and the verdicts
//! with the canonical-instance loop.
//!
//! [`CanonicalInstance`]: annot_query::CanonicalInstance

use crate::classes::PolyLeqFn;
use crate::poly_order::PolynomialOrder;
use annot_polynomial::Terms;
use annot_query::complete::{Classes, Description};
use annot_query::{QVar, QueryView, Ucq};
use std::cmp::Ordering;

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
/// Per member, each union is evaluated for *all* output tuples in one pass
/// over its atoms; tuples outside both supports compare as `0 ¹_K 0`,
/// which holds in every semiring.
pub fn ucq_contained_small_model<K: PolynomialOrder>(q1: &Ucq, q2: &Ucq) -> bool {
    ucq_contained_small_model_with(q1, q2, K::terms_leq)
}

/// Monomorphic core of [`ucq_contained_small_model`], taking the polynomial
/// order as a plain function pointer so the runtime-dispatch layer
/// ([`crate::decide`], [`crate::registry`]) can invoke it without a generic
/// parameter.  It evaluates one representative per isomorphism class of
/// ⟨Q₁⟩, in walk order, and stops at the first that violates the order.
pub fn ucq_contained_small_model_with(q1: &Ucq, q2: &Ucq, leq: PolyLeqFn) -> bool {
    if q1.is_empty() {
        return true;
    }
    let description = Description::new(q1.disjuncts());
    let classes = Classes::of(&description);
    let (mut left, mut right) = (Evaluation::new(q1), Evaluation::new(q2));
    let mut terms = [Terms::default(), Terms::default()];
    (0..classes.len()).all(|c| {
        let member = classes.representative(c);
        left.run(&member);
        right.run(&member);
        ordered(&left, &right, &mut terms, leq)
    })
}

/// Whether `left ¹_K right` at every output tuple of either: a tuple
/// missing on one side has the zero polynomial there.  Both sides list
/// their tuples in increasing order, so one merged walk pairs them.
fn ordered(
    left: &Evaluation<'_>,
    right: &Evaluation<'_>,
    terms: &mut [Terms; 2],
    leq: PolyLeqFn,
) -> bool {
    let [p1, p2] = terms;
    let (mut i, mut j) = (0, 0);
    loop {
        let side = match (left.head(i), right.head(j)) {
            (None, None) => return true,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(t1), Some(t2)) => t1.cmp(t2),
        };
        if side.is_le() {
            i = left.polynomial(i, p1);
        } else {
            p1.clear(left.width);
        }
        if side.is_ge() {
            j = right.polynomial(j, p2);
        } else {
            p2.clear(right.width);
        }
        if !leq(p1, p2) {
            return false;
        }
    }
}

/// Marks a variable that is not bound.
const UNBOUND: u32 = u32::MAX;

/// One union evaluated over the canonical instance of one member of ⟨Q₁⟩,
/// read off the member's atoms.  [`Evaluation::run`] reuses the buffers
/// from member to member.
///
/// A disjunct's atoms are sent into the member one at a time.  After each
/// atom, a partial way is a record: the member variables bound to the live
/// variables (those a later atom or the head still reads), then the
/// exponent row of the atoms chosen so far.  Partial ways with equal
/// records extend alike, so they merge into one record with a count, and
/// the count of a complete way is its monomial's coefficient.
struct Evaluation<'u> {
    union: &'u Ucq,
    /// Per disjunct and atom, in order: the variables live once that atom
    /// is sent, ascending, at `live[spans[k]..spans[k + 1]]`.
    live: Vec<usize>,
    spans: Vec<usize>,
    /// The length of an output tuple.
    arity: usize,
    /// The length of an exponent row: the member's number of atoms.
    width: usize,
    /// The union's complete ways: the head's image, then the exponent row.
    heads: Records,
    /// The current disjunct's partial ways, merged.
    ways: Records,
    /// The partial ways one more atom makes, before merging.
    extended: Records,
    /// Per variable of the disjunct: the member variable it is bound to.
    image: Vec<u32>,
    /// The variables the last unification bound.
    bound: Vec<usize>,
    /// Record indices, for sorting; after a run, the complete ways in
    /// increasing order.
    order: Vec<usize>,
}

impl<'u> Evaluation<'u> {
    /// An evaluation of `union`, with the live variables of each of its
    /// atoms.
    fn new(union: &'u Ucq) -> Self {
        let (mut live, mut spans) = (Vec::new(), vec![0]);
        for query in union.disjuncts() {
            let atoms = query.atoms();
            let occurs = |v: usize, t: usize| atoms[t].args.contains(&QVar(v as u32));
            for t in 0..atoms.len() {
                if t + 1 == atoms.len() {
                    // Complete ways bind the head, position by position.
                    live.extend(query.free_vars().iter().map(|v| v.0 as usize));
                } else {
                    live.extend((0..query.num_vars()).filter(|&v| {
                        (0..=t).any(|s| occurs(v, s))
                            && (query.is_free(QVar(v as u32))
                                || (t + 1..atoms.len()).any(|s| occurs(v, s)))
                    }));
                }
                spans.push(live.len());
            }
        }
        Evaluation {
            union,
            live,
            spans,
            arity: union.disjuncts().first().map_or(0, |q| q.free_vars().len()),
            width: 0,
            heads: Records::default(),
            ways: Records::default(),
            extended: Records::default(),
            image: Vec::new(),
            bound: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Evaluates the union over ⟦member⟧, replacing the previous result.
    fn run<Q: QueryView>(&mut self, member: &Q) {
        self.width = member.num_atoms();
        self.heads.clear(self.arity + self.width);
        let mut k = 0;
        for query in self.union.disjuncts() {
            self.image.clear();
            self.image.resize(query.num_vars(), UNBOUND);
            // The one way to send no atom: nothing bound, the zero row.
            let mut live = 0..0;
            self.ways.clear(self.width);
            self.ways.words.resize(self.width, 0);
            self.ways.counts.push(1);
            for (t, atom) in query.atoms().iter().enumerate() {
                let next = self.spans[k]..self.spans[k + 1];
                k += 1;
                self.extended.clear(next.len() + self.width);
                for w in 0..self.ways.len() {
                    let (bindings, row) = self.ways.get(w).split_at(live.len());
                    for (&v, &value) in self.live[live.clone()].iter().zip(bindings) {
                        self.image[v] = value;
                    }
                    for j in 0..self.width {
                        if member.relation(j) != atom.relation {
                            continue;
                        }
                        if unify(&mut self.image, &mut self.bound, &atom.args, member.args(j)) {
                            let image = &self.image;
                            (self.extended.words)
                                .extend(self.live[next.clone()].iter().map(|&v| image[v]));
                            let at = self.extended.words.len();
                            self.extended.words.extend_from_slice(row);
                            self.extended.words[at + j] += 1;
                            self.extended.counts.push(self.ways.counts[w]);
                        }
                        for v in self.bound.drain(..) {
                            self.image[v] = UNBOUND;
                        }
                    }
                    for &v in &self.live[live.clone()] {
                        self.image[v] = UNBOUND;
                    }
                }
                // The ways out of one partial way differ in the atom they
                // chose: only ways out of several can coincide.  Equal
                // complete ways are added up when read.
                if self.ways.len() == 1 || t + 1 == query.num_atoms() {
                    std::mem::swap(&mut self.ways, &mut self.extended);
                } else {
                    self.ways.merge(&self.extended, &mut self.order);
                }
                live = next;
            }
            self.heads.words.extend_from_slice(&self.ways.words);
            self.heads.counts.extend_from_slice(&self.ways.counts);
        }
        // Sorted, equal complete ways are adjacent: `Terms::push` adds them
        // up.
        self.heads.sort(&mut self.order);
    }

    /// The output tuple of the complete way at position `i`, if any.
    fn head(&self, i: usize) -> Option<&[u32]> {
        let k = *self.order.get(i)?;
        Some(&self.heads.get(k)[..self.arity])
    }

    /// Fills `terms` with the polynomial at the output tuple of the complete
    /// way at position `i`, and returns the position past that tuple's ways.
    fn polynomial(&self, i: usize, terms: &mut Terms) -> usize {
        terms.clear(self.width);
        let mut next = i;
        while next < self.order.len() && self.head(next) == self.head(i) {
            let k = self.order[next];
            terms.push(&self.heads.get(k)[self.arity..], self.heads.counts[k]);
            next += 1;
        }
        next
    }
}

/// Binds `args` to `targets` position by position, recording the newly
/// bound variables in `bound`.  Returns `false` on a clash; the caller
/// unbinds `bound` either way.
fn unify(image: &mut [u32], bound: &mut Vec<usize>, args: &[QVar], targets: &[QVar]) -> bool {
    for (v, t) in args.iter().zip(targets) {
        let slot = &mut image[v.0 as usize];
        if *slot == UNBOUND {
            *slot = t.0;
            bound.push(v.0 as usize);
        } else if *slot != t.0 {
            return false;
        }
    }
    true
}

/// Records of `stride` words, each with a count.
#[derive(Default)]
struct Records {
    stride: usize,
    words: Vec<u32>,
    counts: Vec<u64>,
}

impl Records {
    /// Empties the records and sets their stride, keeping the buffers.
    fn clear(&mut self, stride: usize) {
        self.stride = stride;
        self.words.clear();
        self.counts.clear();
    }

    fn len(&self) -> usize {
        self.counts.len()
    }

    fn get(&self, k: usize) -> &[u32] {
        &self.words[k * self.stride..(k + 1) * self.stride]
    }

    /// Sets `order` to the record indices in increasing order of the
    /// records.
    fn sort(&self, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..self.len());
        order.sort_unstable_by(|&a, &b| self.get(a).cmp(self.get(b)));
    }

    /// Replaces these records with those of `from`, sorted, equal ones
    /// merged into one with the sum of their counts.
    fn merge(&mut self, from: &Records, order: &mut Vec<usize>) {
        self.clear(from.stride);
        from.sort(order);
        for &k in order.iter() {
            let (record, count) = (from.get(k), from.counts[k]);
            match self.counts.last_mut() {
                Some(last) if &self.words[self.words.len() - self.stride..] == record => {
                    *last = last.saturating_add(count);
                }
                _ => {
                    self.words.extend_from_slice(record);
                    self.counts.push(count);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::complete::complete_description_ucq;
    use annot_query::eval::eval_ucq_all_outputs_rows;
    use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
    use annot_query::{parser, CanonicalInstance, Ccq, Schema};
    use annot_semiring::{
        Bool, BoolPoly, BoundedNat, Clearance, NatPoly, Schedule, Semiring, Tropical, Viterbi,
    };

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

    /// Two seeded UCQs over one or two binary relations with 0–2 free
    /// variables.  Each side has width 1–3, and members of 1–3 atoms over a
    /// pool of 2–6 variables, so small pools repeat atoms.  On every tenth
    /// seed the left members have three atoms over six variables.
    fn ucq_pair(seed: u64) -> (Ucq, Ucq) {
        let free = (seed % 3) as usize;
        let ucq = |shift: u64| {
            let bits = seed >> shift;
            let six = shift == 1 && seed % 10 == 9;
            let mut generator = QueryGenerator::new(GeneratorConfig {
                num_atoms: if six { 3 } else { 1 + bits as usize % 3 },
                shape: QueryShape::Random,
                num_relations: 1 + (seed / 3 % 2) as usize,
                var_pool: if six { 6 } else { 2 + (bits >> 2) as usize % 5 },
                free_vars: free,
                seed: seed + shift,
            });
            // A member with fewer variables than the head asks for gets
            // fewer free variables; a UCQ keeps the members with all of them.
            let width = if six { 1 } else { 1 + (bits >> 5) as usize % 3 };
            let members = std::iter::repeat_with(|| generator.cq())
                .filter(|q| q.free_vars().len() == free && (!six || q.num_vars() == 6))
                .take(width);
            Ucq::new(members.collect::<Vec<_>>())
        };
        (ucq(1), ucq(4))
    }

    /// The reference rows: `union` evaluated over the canonical instance of
    /// `member` as `N[X]` polynomials, keyed by output tuples of member
    /// variables, in increasing order.
    fn canonical_rows(union: &Ucq, member: &Ccq) -> Vec<(Vec<u32>, Terms)> {
        let canonical = CanonicalInstance::of_ccq(member);
        let vars = 0..member.cq().num_vars() as u32;
        let var_of = |id: &_| (vars.clone()).find(|&v| canonical.row_of(QVar(v)) == *id);
        let outputs = eval_ucq_all_outputs_rows(union, canonical.instance());
        let mut rows: Vec<(Vec<u32>, Terms)> = (outputs.iter())
            .map(|(t, p)| {
                let tuple = t.iter().map(|id| var_of(id).expect("a member variable"));
                (tuple.collect(), Terms::from(p.polynomial()))
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// The rows of an evaluation, one entry per output tuple.
    fn rows(evaluation: &Evaluation<'_>) -> Vec<(Vec<u32>, Terms)> {
        let mut rows = Vec::new();
        let mut i = 0;
        while let Some(head) = evaluation.head(i) {
            let head = head.to_vec();
            let mut terms = Terms::default();
            i = evaluation.polynomial(i, &mut terms);
            rows.push((head, terms));
        }
        rows
    }

    #[test]
    fn rows_equal_the_canonical_instance_evaluation() {
        let (mut most_vars, mut repeated_atoms, mut merged_heads, mut monomials) = (0, 0, 0, 0);
        for seed in 0..150 {
            let (u1, u2) = ucq_pair(seed);
            most_vars = (u1.disjuncts().iter()).fold(most_vars, |most, q| most.max(q.num_vars()));
            for member in complete_description_ucq(&u1).disjuncts() {
                let (atoms, head) = (member.cq().atoms(), member.cq().free_vars());
                repeated_atoms += (1..atoms.len()).any(|i| atoms[..i].contains(&atoms[i])) as usize;
                merged_heads += (1..head.len()).any(|i| head[..i].contains(&head[i])) as usize;
                for union in [&u1, &u2] {
                    let mut evaluation = Evaluation::new(union);
                    evaluation.run(member.cq());
                    let expected = canonical_rows(union, member);
                    assert_eq!(
                        rows(&evaluation),
                        expected,
                        "seed {seed}: {union} over {member}"
                    );
                    monomials += expected.iter().map(|(_, p)| p.num_terms()).sum::<usize>();
                }
            }
        }
        assert_eq!(most_vars, 6);
        assert!(
            repeated_atoms > 100 && merged_heads > 100 && monomials > 10_000,
            "{repeated_atoms} members repeat atoms, {merged_heads} merge heads, \
             {monomials} monomials"
        );
    }

    /// The reference procedure for each of `orders`: both unions evaluated
    /// as `N[X]` polynomials over the canonical instance of each member of
    /// ⟨Q₁⟩.
    fn contained_by_canonical_instances(
        q1: &Ucq,
        q2: &Ucq,
        orders: &[fn(&Terms, &Terms) -> bool],
    ) -> Vec<bool> {
        let zero = NatPoly::zero();
        let mut holds = vec![true; orders.len()];
        for ccq in complete_description_ucq(q1).disjuncts() {
            let canonical = CanonicalInstance::of_ccq(ccq);
            let m1 = eval_ucq_all_outputs_rows(q1, canonical.instance());
            let m2 = eval_ucq_all_outputs_rows(q2, canonical.instance());
            for (leq, holds) in orders.iter().zip(&mut holds) {
                let leq = |p1: &NatPoly, p2: &NatPoly| {
                    leq(&p1.polynomial().into(), &p2.polynomial().into())
                };
                *holds = *holds
                    && (m1.iter()).all(|(t, p1)| leq(p1, m2.get(t).unwrap_or(&zero)))
                    && (m2.iter()).all(|(t, p2)| m1.contains_key(t) || leq(&zero, p2));
            }
        }
        holds
    }

    #[test]
    fn verdicts_equal_the_canonical_instance_loop() {
        let names = [
            "T+", "T-", "Viterbi", "N[X]", "B[X]", "B", "Access", "B_2", "B_3",
        ];
        let orders = [
            Tropical::terms_leq,
            Schedule::terms_leq,
            Viterbi::terms_leq,
            NatPoly::terms_leq,
            BoolPoly::terms_leq,
            Bool::terms_leq,
            Clearance::terms_leq,
            BoundedNat::<2>::terms_leq,
            BoundedNat::<3>::terms_leq,
        ];
        let mut holds = [0usize; 9];
        let mut pairs = 0;
        // Past seed 9, the six-variable seeds run in the row differential
        // only: their 203 members make nine orders slow in debug builds.
        for seed in (0..120).filter(|&seed| seed < 10 || seed % 10 != 9) {
            let (u1, u2) = ucq_pair(seed);
            for (q1, q2) in [(&u1, &u2), (&u2, &u1), (&u1, &u1)] {
                let verdicts = [
                    ucq_contained_small_model::<Tropical>(q1, q2),
                    ucq_contained_small_model::<Schedule>(q1, q2),
                    ucq_contained_small_model::<Viterbi>(q1, q2),
                    ucq_contained_small_model::<NatPoly>(q1, q2),
                    ucq_contained_small_model::<BoolPoly>(q1, q2),
                    ucq_contained_small_model::<Bool>(q1, q2),
                    ucq_contained_small_model::<Clearance>(q1, q2),
                    ucq_contained_small_model::<BoundedNat<2>>(q1, q2),
                    ucq_contained_small_model::<BoundedNat<3>>(q1, q2),
                ];
                let reference = contained_by_canonical_instances(q1, q2, &orders);
                for (row, (rows, reference)) in verdicts.into_iter().zip(reference).enumerate() {
                    assert_eq!(rows, reference, "{}, seed {seed}: {q1} ⊑ {q2}", names[row]);
                    holds[row] += rows as usize;
                }
                pairs += 1;
            }
        }
        // Every row holds on the reflexive pairs and fails on some others.
        assert!(holds.iter().all(|&n| n >= 100 && n < pairs), "{holds:?}");
    }

    /// The member loop, as a reference: each union evaluated over every
    /// materialised member of ⟨Q₁⟩, not one per class.
    fn contained_member_by_member(q1: &Ucq, q2: &Ucq, leq: PolyLeqFn) -> bool {
        let (mut left, mut right) = (Evaluation::new(q1), Evaluation::new(q2));
        let mut terms = [Terms::default(), Terms::default()];
        (complete_description_ucq(q1).disjuncts().iter()).all(|member| {
            left.run(member.cq());
            right.run(member.cq());
            ordered(&left, &right, &mut terms, leq)
        })
    }

    #[test]
    fn class_representatives_decide_like_every_member() {
        let orders: [(&str, PolyLeqFn); 5] = [
            ("T+", Tropical::terms_leq),
            ("T-", Schedule::terms_leq),
            ("Viterbi", Viterbi::terms_leq),
            ("N[X]", NatPoly::terms_leq),
            ("B_3", BoundedNat::<3>::terms_leq),
        ];
        let (mut holds, mut fails) = (0, 0);
        for seed in 0..150 {
            let (u1, u2) = ucq_pair(seed);
            for (q1, q2) in [(&u1, &u2), (&u2, &u1), (&u1, &u1)] {
                for (name, leq) in orders {
                    let expected = contained_member_by_member(q1, q2, leq);
                    let by_class = ucq_contained_small_model_with(q1, q2, leq);
                    assert_eq!(by_class, expected, "{name}, seed {seed}: {q1} ⊑ {q2}");
                    holds += expected as usize;
                    fails += !expected as usize;
                }
            }
        }
        assert!(holds > 300 && fails > 300, "{holds} hold, {fails} fail");
    }
}
