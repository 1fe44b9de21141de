//! Evaluation of CQs, CCQs and UCQs over K-instances.
//!
//! For a CQ `Q = ∃v R₁(u₁,v₁), …, Rₙ(uₙ,vₙ)`, a K-instance `I` and a tuple
//! `t`, the evaluation is (Sec. 2 of the paper)
//!
//! ```text
//! Qᴵ(t) = Σ_{f ∈ V(Q,t)}  Π_{1≤i≤n}  Rᵢᴵ(f(uᵢ,vᵢ))
//! ```
//!
//! where `V(Q, t)` is the set of mappings from the query variables to the
//! domain with `f(u) = t`.  Mappings sending any atom to a tuple annotated
//! `0` contribute `0`, so the sum effectively ranges over mappings into the
//! active domain; the queries in this crate are *safe* (every variable occurs
//! in an atom), which keeps the sum finite.
//!
//! For CCQs the sum is restricted to mappings respecting the inequalities;
//! for UCQs the evaluations of the members are summed (the empty UCQ
//! evaluates to `0`).
//!
//! Every query kind is read the same way, as its disjuncts ([`Disjuncts`]):
//! a CQ or a CCQ is one disjunct and a union is its members, each a CQ plus
//! the CCQ whose inequalities restrict it, if any.  So each question has one
//! function: [`eval`] evaluates one output tuple, [`all_output_rows`] every
//! output tuple at once, keyed by interned [`IdTuple`] rows of the
//! instance's [`Domain`] (the form the brute-force oracle and the
//! small-model procedure consume), and [`all_outputs`] resolves that map to
//! [`Tuple`]s.  All joins run over interned [`ValueId`] rows: variables bind
//! `u32` ids and the unification loop never touches a
//! [`DbValue`](crate::DbValue).
//!
//! # One-shot vs incremental evaluation
//!
//! The functions above are *one-shot*: they recompute the full sum from the
//! instance each time.  When a caller evaluates the same query over a
//! **sequence** of instances that differ by one fact at a time — the shape
//! of the brute-force oracle's support enumeration — use [`EvalState`]
//! instead: it maintains the all-outputs map incrementally under
//! [`EvalState::push_fact`] / [`EvalState::pop_fact`], paying only for the
//! *delta* of satisfying assignments that involve the new fact.

use crate::ccq::Ccq;
use crate::cq::{Cq, QVar};
use crate::instance::Instance;
use crate::rowtable::RowArena;
use crate::schema::{Domain, IdTuple, RelId, Tuple, ValueId};
use crate::ucq::{Ducq, Ucq};
use annot_semiring::Semiring;
use std::collections::BTreeMap;

/// A query read as its disjuncts: each is a [`Cq`] plus the [`Ccq`] whose
/// inequalities restrict its valuations, if any.  A [`Cq`] or a [`Ccq`] is
/// one disjunct; a [`Ucq`] or a [`Ducq`] is its members, and the empty
/// union has none.
pub trait Disjuncts {
    /// The disjuncts, in order.
    fn each_disjunct(&self) -> impl Iterator<Item = (&Cq, Option<&Ccq>)>;
}

impl Disjuncts for Cq {
    fn each_disjunct(&self) -> impl Iterator<Item = (&Cq, Option<&Ccq>)> {
        std::iter::once((self, None))
    }
}

impl Disjuncts for Ccq {
    fn each_disjunct(&self) -> impl Iterator<Item = (&Cq, Option<&Ccq>)> {
        std::iter::once((self.cq(), Some(self)))
    }
}

impl Disjuncts for Ucq {
    fn each_disjunct(&self) -> impl Iterator<Item = (&Cq, Option<&Ccq>)> {
        self.disjuncts().iter().map(|cq| (cq, None))
    }
}

impl Disjuncts for Ducq {
    fn each_disjunct(&self) -> impl Iterator<Item = (&Cq, Option<&Ccq>)> {
        self.disjuncts().iter().map(|ccq| (ccq.cq(), Some(ccq)))
    }
}

/// Evaluates a query on an instance for an output tuple `t`: the semiring
/// sum of its disjuncts' evaluations (`0` for the empty union).
///
/// Panics if `t` has a different length than a disjunct's free-variable
/// list.
pub fn eval<K: Semiring>(query: &impl Disjuncts, instance: &Instance<K>, t: &Tuple) -> K {
    let mut total = K::zero();
    for (cq, inequalities) in query.each_disjunct() {
        total = total.add(&eval_with_inequalities(cq, inequalities, instance, t));
    }
    total
}

/// Evaluates a query on an instance for *every* output tuple at once: one
/// backtracking join per disjunct with the free variables left unbound,
/// adding each satisfying assignment's product to the output row it reads
/// off.  Returns the map `t ↦ Qᴵ(t)` restricted to its support (absent
/// tuples evaluate to `0`), keyed by interned rows of the instance's
/// domain.
///
/// This is the bulk counterpart of [`eval`]: where a caller would loop over
/// `|adom|^arity` candidate tuples and re-run the joins for each, this pays
/// for each join exactly once.
pub fn all_output_rows<K: Semiring>(
    query: &impl Disjuncts,
    instance: &Instance<K>,
) -> BTreeMap<IdTuple, K> {
    let mut map: BTreeMap<IdTuple, K> = BTreeMap::new();
    for (cq, inequalities) in query.each_disjunct() {
        let mut assignment: Vec<Option<ValueId>> = vec![None; cq.num_vars()];
        let mut touched: Vec<QVar> = Vec::new();
        eval_rec(
            cq,
            inequalities,
            instance,
            0,
            &mut assignment,
            &mut touched,
            &K::one(),
            &mut |assignment, product| add_into(&mut map, head_row(cq, assignment), product),
        );
    }
    // Positive semirings cannot sum non-zeros to zero, but keep the support
    // contract (`t ∈ map ⇔ Qᴵ(t) ≠ 0`) robust for exotic semirings.
    map.retain(|_, value| !value.is_zero());
    map
}

/// The [`Tuple`]-keyed form of [`all_output_rows`].
pub fn all_outputs<K: Semiring>(
    query: &impl Disjuncts,
    instance: &Instance<K>,
) -> BTreeMap<Tuple, K> {
    resolve_outputs(instance.domain(), &all_output_rows(query, instance))
}

/// Resolves an interned all-outputs map back to [`DbValue`] tuples.
///
/// [`DbValue`]: crate::schema::DbValue
fn resolve_outputs<K: Semiring>(
    domain: &Domain,
    outputs: &BTreeMap<IdTuple, K>,
) -> BTreeMap<Tuple, K> {
    outputs
        .iter()
        .map(|(row, k)| (domain.resolve_tuple(row), k.clone()))
        .collect()
}

/// The output row of a complete assignment of `query`: its free variables'
/// values.  It is `#[inline]` because the joins that call it once per leaf
/// are monomorphized in other crates, which do not inline a non-generic
/// function otherwise.
#[inline]
fn head_row(query: &Cq, assignment: &[Option<ValueId>]) -> IdTuple {
    query
        .free_vars()
        .iter()
        .map(|v| {
            assignment[v.0 as usize]
                // invariant: safety was validated when the query was built
                .expect("safe query: every free variable occurs in an atom")
        })
        .collect()
}

/// Adds `value` to the entry for `row` (absent entries hold `0`).
fn add_into<K: Semiring>(map: &mut BTreeMap<IdTuple, K>, row: IdTuple, value: &K) {
    let entry = map.entry(row).or_insert_with(K::zero);
    *entry = entry.add(value);
}

/// Core evaluation: backtracking join over the atoms of the query.
fn eval_with_inequalities<K: Semiring>(
    query: &Cq,
    inequalities: Option<&Ccq>,
    instance: &Instance<K>,
    t: &Tuple,
) -> K {
    assert_eq!(
        t.len(),
        query.free_vars().len(),
        "output tuple arity does not match the query head"
    );
    // A value the instance's domain has never interned cannot appear in any
    // supported tuple, and safety puts every free variable in an atom — so
    // such a `t` evaluates to `0` without running the join.
    let ids = match instance.domain().lookup_tuple(t) {
        Some(ids) => ids,
        None => return K::zero(),
    };
    // Initial partial assignment: free variables bound to `t`.
    let mut assignment: Vec<Option<ValueId>> = vec![None; query.num_vars()];
    for (v, value) in query.free_vars().iter().zip(&ids) {
        match assignment[v.0 as usize] {
            None => assignment[v.0 as usize] = Some(*value),
            Some(existing) => {
                // A repeated free variable must receive equal values.
                if existing != *value {
                    return K::zero();
                }
            }
        }
    }
    let mut total = K::zero();
    let mut touched: Vec<QVar> = Vec::new();
    eval_rec(
        query,
        inequalities,
        instance,
        0,
        &mut assignment,
        &mut touched,
        &K::one(),
        &mut |_, product| {
            total = total.add(product);
        },
    );
    total
}

/// The backtracking join shared by the per-tuple and all-outputs
/// evaluations: enumerates every satisfying assignment (restricted by the
/// inequalities, with `0`-product branches pruned) and hands the completed
/// assignment plus its annotation product to `on_leaf`.
///
/// `touched` is the shared binding stack of the whole join: each candidate
/// row records its fresh bindings above a mark and truncates back on
/// backtrack (no per-candidate allocation).
#[allow(clippy::too_many_arguments)]
fn eval_rec<K: Semiring>(
    query: &Cq,
    inequalities: Option<&Ccq>,
    instance: &Instance<K>,
    atom_index: usize,
    assignment: &mut Vec<Option<ValueId>>,
    touched: &mut Vec<QVar>,
    partial_product: &K,
    on_leaf: &mut dyn FnMut(&[Option<ValueId>], &K),
) {
    if partial_product.is_zero() {
        return;
    }
    if atom_index == query.num_atoms() {
        // All variables are bound (safety).  Check the inequalities.
        if !inequalities_hold(inequalities, assignment) {
            return;
        }
        on_leaf(assignment, partial_product);
        return;
    }
    let atom = &query.atoms()[atom_index];
    // Iterate over the supported rows of the atom's relation and try to
    // unify them with the current partial assignment.
    for (row, annotation) in instance.support_rows(atom.relation) {
        let mark = touched.len();
        if unify_atom(&atom.args, row, assignment, touched) {
            let product = partial_product.mul(annotation);
            eval_rec(
                query,
                inequalities,
                instance,
                atom_index + 1,
                assignment,
                touched,
                &product,
                on_leaf,
            );
        }
        for var in touched.drain(mark..) {
            assignment[var.0 as usize] = None;
        }
    }
}

/// Attempts to extend `assignment` so that the atom arguments `args` map onto
/// `row`, recording newly-bound variables in `touched`.  Returns `false` on
/// a clash; the caller must unbind `touched` either way (bindings made before
/// the clash was detected are recorded).
fn unify_atom(
    args: &[QVar],
    row: &[ValueId],
    assignment: &mut [Option<ValueId>],
    touched: &mut Vec<QVar>,
) -> bool {
    for (var, &value) in args.iter().zip(row) {
        match assignment[var.0 as usize] {
            None => {
                assignment[var.0 as usize] = Some(value);
                touched.push(*var);
            }
            Some(existing) => {
                if existing != value {
                    return false;
                }
            }
        }
    }
    true
}

/// Whether a complete assignment satisfies the inequalities of a CCQ (`true`
/// when there are none).
fn inequalities_hold(inequalities: Option<&Ccq>, assignment: &[Option<ValueId>]) -> bool {
    inequalities.map_or(true, |ccq| {
        ccq.inequalities()
            .iter()
            .all(|&(a, b)| assignment[a.0 as usize] != assignment[b.0 as usize])
    })
}

// ---------------------------------------------------------------------------
// Incremental evaluation
// ---------------------------------------------------------------------------

/// The undo record of one [`EvalState::push_fact`]: a `(RelId, u32 len)`
/// frame — the relation whose fact table the push touched and that table's
/// fact count *before* the push — plus the previous value of every
/// output-map entry the push changed (`None` = the entry did not exist).
/// The change set is almost always tiny, so a linear-scan `Vec` (one
/// allocation, contiguous) beats a tree map on the push/pop hot path.
///
/// # Invariant
///
/// A frame undoes at most the single fact its push appended: when the frame
/// is popped, the relation's fact count must be `prev_len` (a
/// zero-annotation no-op push) or `prev_len + 1` (a pushed fact).  Anything
/// else means pushes and pops were interleaved inconsistently — impossible
/// through the public API, which always pops the newest frame.  Debug
/// builds assert the invariant; release builds truncate to `prev_len`
/// regardless (a no-op when the count is already smaller).
struct UndoFrame<K> {
    rel: RelId,
    /// The relation's fact count before this push.
    prev_len: u32,
    /// First-seen previous value per changed row (each row recorded once,
    /// so restoring in any order is sound).
    changed: Vec<(IdTuple, Option<K>)>,
}

/// One relation's fact stack: an arity-chunked [`RowArena`] plus parallel
/// annotation slots, pushed in fact order and popped by truncation.
/// Duplicate rows are kept as separate entries (a K-relation under
/// construction sums its derivations; the delta joins realise the sum by
/// distributivity).
#[derive(Clone, Debug)]
struct FactTable<K> {
    rows: RowArena,
    annots: Vec<K>,
}

impl<K> Default for FactTable<K> {
    fn default() -> Self {
        FactTable {
            rows: RowArena::default(),
            annots: Vec::new(),
        }
    }
}

/// Dense, [`RelId`]-indexed fact storage: `tables[rel.0 as usize]` is the
/// fact stack of relation `rel`, mirroring [`Instance`]'s flat per-relation
/// tables.  Delta joins index by `rel.0` instead of hashing a map key.
#[derive(Clone, Debug)]
struct FactStore<K> {
    tables: Vec<FactTable<K>>,
}

impl<K> Default for FactStore<K> {
    fn default() -> Self {
        FactStore { tables: Vec::new() }
    }
}

impl<K: Semiring> FactStore<K> {
    /// Number of facts currently pushed for `rel`.
    fn len_of(&self, rel: RelId) -> usize {
        self.tables
            .get(rel.0 as usize)
            .map_or(0, |t| t.annots.len())
    }

    /// The fact stack of `rel` (empty for relations never pushed).
    fn table(&self, rel: RelId) -> Option<&FactTable<K>> {
        self.tables
            .get(rel.0 as usize)
            .filter(|t| !t.annots.is_empty())
    }

    /// Appends a fact.  The relation's arity is fixed by its first pushed
    /// row (the callers guarantee consistent arities per relation).
    fn push(&mut self, rel: RelId, row: &[ValueId], annotation: K) {
        let index = rel.0 as usize;
        if self.tables.len() <= index {
            self.tables.resize_with(index + 1, FactTable::default);
        }
        let table = &mut self.tables[index];
        if table.annots.is_empty() && table.rows.arity() != row.len() {
            table.rows = RowArena::new(row.len());
        }
        table.rows.push_row(row);
        table.annots.push(annotation);
    }

    /// Shrinks the fact stack of `rel` to its first `len` facts.
    fn truncate(&mut self, rel: RelId, len: usize) {
        if let Some(table) = self.tables.get_mut(rel.0 as usize) {
            table.rows.truncate(len);
            table.annots.truncate(len);
        }
    }
}

/// Incremental all-outputs evaluation of a query, read as its
/// [`Disjuncts`], over a *stack* of facts.
///
/// Where [`all_outputs`] recomputes the full map `t ↦ Qᴵ(t)` from
/// scratch per instance, an `EvalState` maintains that map under
/// [`push_fact`](EvalState::push_fact) / [`pop_fact`](EvalState::pop_fact):
/// pushing a fact runs, per disjunct, only the *delta* joins — the satisfying
/// assignments that map at least one atom to the new fact — and popping
/// restores the previous map from an undo log.  Over an enumeration of
/// instances organised as a prefix tree of supports (the brute-force
/// oracle), evaluation cost becomes proportional to the delta from the
/// parent prefix instead of the whole instance.
///
/// Facts are interned rows: [`push_fact`](EvalState::push_fact) interns a
/// [`Tuple`] through the state's domain (the domain of the first disjunct's
/// schema), while [`push_fact_row`](EvalState::push_fact_row) accepts
/// pre-interned rows and is the zero-allocation hot path the brute-force
/// oracle drives.  The maintained map is interned too
/// ([`outputs_rows`](EvalState::outputs_rows)); [`outputs`](EvalState::outputs)
/// resolves it for boundary consumers.
///
/// The fact stack is a K-relation under construction: pushing a fact for a
/// tuple that is already present behaves like
/// [`Instance::add_annotation`] — the two annotations *add* (a K-relation
/// maps each tuple to the sum of its derivations).  Pushing a `0` annotation
/// is a no-op frame (zero never contributes to any product).
///
/// The outputs map upholds the support contract of [`all_output_rows`]:
/// `t ∈ outputs ⇔ Qᴵ(t) ≠ 0`.
///
/// ```
/// use annot_query::eval::{all_outputs, EvalState};
/// use annot_query::{Cq, Instance, Schema};
/// use annot_semiring::Natural;
///
/// let schema = Schema::with_relations([("R", 2)]);
/// let rel = schema.relation("R").unwrap();
/// let q = Cq::builder(&schema)
///     .atom("R", &["x", "y"])
///     .atom("R", &["y", "z"])
///     .build();
///
/// let mut state: EvalState<Natural> = EvalState::new(&q);
/// state.push_fact(rel, vec![1.into(), 2.into()], Natural(2));
/// state.push_fact(rel, vec![2.into(), 3.into()], Natural(3));
///
/// let mut instance: Instance<Natural> = Instance::new(schema.clone());
/// instance.insert(rel, vec![1.into(), 2.into()], Natural(2));
/// instance.insert(rel, vec![2.into(), 3.into()], Natural(3));
/// assert_eq!(state.outputs(), all_outputs(&q, &instance));
///
/// state.pop_fact();
/// state.pop_fact();
/// assert!(state.outputs().is_empty());
/// ```
pub struct EvalState<'q, K: Semiring> {
    /// Each disjunct's CQ and the CCQ whose inequalities restrict it, if any.
    disjuncts: Vec<(&'q Cq, Option<&'q Ccq>)>,
    /// The interner tuples pushed through the `DbValue` API go through, and
    /// the resolver for [`EvalState::outputs`].
    domain: Domain,
    /// The current fact stack, stored densely per relation (push order per
    /// relation): `facts.tables[rel.0]` mirrors [`Instance`]'s flat tables.
    facts: FactStore<K>,
    /// The maintained map `t ↦ Qᴵ(t)`, restricted to its support.
    outputs: BTreeMap<IdTuple, K>,
    /// One frame per push, in push order.
    frames: Vec<UndoFrame<K>>,
}

impl<'q, K: Semiring> EvalState<'q, K> {
    /// A state evaluating `query` over the empty fact stack (outputs are
    /// summed over its disjuncts).
    pub fn new(query: &'q impl Disjuncts) -> Self {
        let disjuncts: Vec<(&'q Cq, Option<&'q Ccq>)> = query.each_disjunct().collect();
        let domain = disjuncts
            .first()
            .map(|(cq, _)| cq.schema().domain().clone())
            .unwrap_or_default();
        let mut outputs = BTreeMap::new();
        // Atomless disjuncts have one satisfying assignment (the empty one)
        // on every instance, including the empty one this state starts from;
        // all other disjuncts evaluate to 0 with no facts.  Safety makes an
        // atomless disjunct variable-free, so its output tuple is ().
        for (cq, _) in &disjuncts {
            if cq.num_atoms() == 0 {
                add_into(&mut outputs, Vec::new(), &K::one());
            }
        }
        outputs.retain(|_, value| !value.is_zero());
        EvalState {
            disjuncts,
            domain,
            facts: FactStore::default(),
            outputs,
            frames: Vec::new(),
        }
    }

    /// The interner the state's rows live in (the domain of the first
    /// disjunct's schema; a private one for empty unions).
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Replaces the state's interner.  Use when driving several states with
    /// pre-interned rows from one shared domain (the brute-force oracle
    /// pushes its own schema's ids into both queries' states, which may
    /// have been built over independent but structurally equal schemas).
    /// Only meaningful before the first push (debug builds assert this):
    /// rows already pushed were interned in the old domain and would alias
    /// under the new one.
    pub fn with_domain(mut self, domain: Domain) -> Self {
        debug_assert!(
            self.frames.is_empty(),
            "with_domain after push_fact would re-interpret already-interned rows"
        );
        self.domain = domain;
        self
    }

    /// The maintained all-outputs map of the current fact stack, keyed by
    /// interned rows and restricted to its support (absent rows evaluate to
    /// `0`).  This is the hot-path accessor; it returns the map by
    /// reference, unresolved.
    pub fn outputs_rows(&self) -> &BTreeMap<IdTuple, K> {
        &self.outputs
    }

    /// The maintained all-outputs map, resolved to [`Tuple`] keys.  This
    /// materialises the map on every call — boundary/diagnostic use only;
    /// hot paths consume [`EvalState::outputs_rows`].
    pub fn outputs(&self) -> BTreeMap<Tuple, K> {
        resolve_outputs(&self.domain, &self.outputs)
    }

    /// Number of pushed facts.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The output rows whose value changed in the most recent push (empty
    /// before the first push and after the matching pop).  The brute-force
    /// oracle checks containment violations on exactly these rows: values
    /// untouched by the newest fact were already checked at the parent
    /// prefix.
    pub fn last_changed_rows(&self) -> impl Iterator<Item = &IdTuple> + '_ {
        self.frames
            .last()
            .into_iter()
            .flat_map(|frame| frame.changed.iter().map(|(row, _)| row))
    }

    /// Pushes a fact given as a [`Tuple`]: interns it through the state's
    /// domain and delegates to [`EvalState::push_fact_row`].  A `0`
    /// annotation is a no-op frame and does not intern (zero pushes must
    /// not grow the shared domain).
    pub fn push_fact(&mut self, rel: RelId, tuple: Tuple, annotation: K) {
        if annotation.is_zero() {
            self.frames.push(UndoFrame {
                rel,
                prev_len: self.facts.len_of(rel) as u32,
                changed: Vec::new(),
            });
            return;
        }
        let row = self.domain.intern_tuple(&tuple);
        self.push_fact_row(rel, &row, annotation);
    }

    /// Pushes a fact: adds `annotation` to the K-relation entry of `row`
    /// and updates the outputs map by running only the delta joins (the
    /// satisfying assignments using the new fact at least once).
    ///
    /// The row length must match the relation's arity in the queries'
    /// schema (the enumeration callers guarantee this by construction; a
    /// wrong-arity designated atom is skipped rather than joined).  The ids
    /// must come from [`EvalState::domain`] — ids minted by an unrelated
    /// interner alias arbitrary values when the outputs are resolved; debug
    /// builds assert each id is in range.
    pub fn push_fact_row(&mut self, rel: RelId, row: &[ValueId], annotation: K) {
        // A disjunct-less state (empty union) never joins or resolves its
        // facts, so foreign ids are harmless there — the brute-force oracle
        // legitimately pushes its own schema's ids into `Ucq::empty()`
        // states.
        debug_assert!(
            self.disjuncts.is_empty() || {
                let len = self.domain.len();
                row.iter().all(|id| (id.0 as usize) < len)
            },
            "row contains ValueIds outside this state's domain"
        );
        let mut frame = UndoFrame {
            rel,
            prev_len: self.facts.len_of(rel) as u32,
            changed: Vec::new(),
        };
        if !annotation.is_zero() {
            let outputs = &mut self.outputs;
            let changed = &mut frame.changed;
            for &(query, inequalities) in &self.disjuncts {
                delta_join(
                    query,
                    inequalities,
                    &self.facts,
                    (rel, row, &annotation),
                    &mut |output, product| {
                        // One map lookup; the previous annotation is deep-
                        // cloned only for a first-touch undo record, never
                        // per satisfying assignment (annotations can be
                        // whole polynomials or witness sets).
                        let previous = outputs.get(&output);
                        let value = match previous {
                            Some(v) => v.add(product),
                            None => product.clone(),
                        };
                        if !changed.iter().any(|(t, _)| t == &output) {
                            changed.push((output.clone(), previous.cloned()));
                        }
                        if value.is_zero() {
                            outputs.remove(&output);
                        } else {
                            outputs.insert(output, value);
                        }
                    },
                );
            }
            self.facts.push(rel, row, annotation);
        }
        self.frames.push(frame);
    }

    /// Undoes the most recent [`push_fact`](EvalState::push_fact): removes
    /// the fact and restores every output entry the push changed.
    ///
    /// Panics if there is nothing to pop.
    pub fn pop_fact(&mut self) {
        // invariant: documented panic — push/pop discipline is the caller's contract (see the docs)
        let frame = self.frames.pop().expect("pop_fact with no pushed fact");
        for (row, previous) in frame.changed {
            match previous {
                Some(value) => {
                    self.outputs.insert(row, value);
                }
                None => {
                    self.outputs.remove(&row);
                }
            }
        }
        // See the [`UndoFrame`] invariant: the newest frame undoes at most
        // the one fact its push appended.  Release builds truncate to the
        // recorded length either way.
        let len = self.facts.len_of(frame.rel);
        debug_assert!(
            len == frame.prev_len as usize || len == frame.prev_len as usize + 1,
            "EvalState push/pop mismatch: relation {:?} holds {} facts but \
             the undo frame recorded {} before its push",
            frame.rel,
            len,
            frame.prev_len,
        );
        self.facts.truncate(frame.rel, frame.prev_len as usize);
    }
}

/// Enumerates the satisfying assignments of `query` that use the new fact
/// for at least one atom, over the instance `facts ∪ {new fact}`, calling
/// `on_leaf(output_row, product)` per assignment.
///
/// Each such assignment is produced exactly once: it is counted at its
/// *first* atom mapped to the new fact (`designated`) — atoms before the
/// designated one range over the old facts only, the designated atom is
/// pinned to the new fact, and atoms after it range over old facts plus the
/// new one.
fn delta_join<K: Semiring>(
    query: &Cq,
    inequalities: Option<&Ccq>,
    facts: &FactStore<K>,
    new_fact: (RelId, &[ValueId], &K),
    on_leaf: &mut dyn FnMut(IdTuple, &K),
) {
    let (new_rel, new_row, _) = new_fact;
    let mut assignment: Vec<Option<ValueId>> = vec![None; query.num_vars()];
    let mut touched: Vec<QVar> = Vec::new();
    for designated in 0..query.num_atoms() {
        let atom = &query.atoms()[designated];
        if atom.relation != new_rel || atom.args.len() != new_row.len() {
            continue;
        }
        let join = DeltaJoin {
            query,
            inequalities,
            facts,
            new_fact,
            designated,
        };
        join.rec(
            0,
            &mut assignment,
            &mut touched,
            &K::one(),
            &mut |assignment, product| on_leaf(head_row(query, assignment), product),
        );
    }
}

/// One delta join of [`delta_join`], fixed to a designated atom.
struct DeltaJoin<'a, K: Semiring> {
    query: &'a Cq,
    inequalities: Option<&'a Ccq>,
    facts: &'a FactStore<K>,
    new_fact: (RelId, &'a [ValueId], &'a K),
    designated: usize,
}

impl<K: Semiring> DeltaJoin<'_, K> {
    fn rec(
        &self,
        atom_index: usize,
        assignment: &mut Vec<Option<ValueId>>,
        touched: &mut Vec<QVar>,
        partial_product: &K,
        on_leaf: &mut dyn FnMut(&[Option<ValueId>], &K),
    ) {
        if partial_product.is_zero() {
            return;
        }
        if atom_index == self.query.num_atoms() {
            if inequalities_hold(self.inequalities, assignment) {
                on_leaf(assignment, partial_product);
            }
            return;
        }
        let atom = &self.query.atoms()[atom_index];
        let (new_rel, new_row, new_ann) = self.new_fact;
        // Candidate facts for this atom: the old facts of its relation,
        // streamed contiguously out of the dense per-relation arena by the
        // packed-row iterator — except at the designated atom, which is
        // pinned to the new fact (see `delta_join`).
        if atom_index != self.designated {
            if let Some(table) = self.facts.table(atom.relation) {
                for (row, annotation) in table.rows.iter().zip(&table.annots) {
                    let mark = touched.len();
                    if unify_atom(&atom.args, row, assignment, touched) {
                        let product = partial_product.mul(annotation);
                        self.rec(atom_index + 1, assignment, touched, &product, on_leaf);
                    }
                    for var in touched.drain(mark..) {
                        assignment[var.0 as usize] = None;
                    }
                }
            }
        }
        // The new fact itself: mandatory at the designated atom, an extra
        // candidate after it, and excluded before it.
        if atom_index >= self.designated && atom.relation == new_rel {
            let mark = touched.len();
            if unify_atom(&atom.args, new_row, assignment, touched) {
                let product = partial_product.mul(new_ann);
                self.rec(atom_index + 1, assignment, touched, &product, on_leaf);
            }
            for var in touched.drain(mark..) {
                assignment[var.0 as usize] = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DbValue, Schema};
    use annot_polynomial::{Polynomial, Var};
    use annot_semiring::{Bool, NatPoly, Natural, Semiring, Tropical};

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    fn path_instance() -> Instance<Natural> {
        // R(a,b) ↦ 2, R(b,c) ↦ 3, S(c) ↦ 1
        let mut i = Instance::new(schema());
        i.insert_named("R", vec!["a".into(), "b".into()], Natural(2));
        i.insert_named("R", vec!["b".into(), "c".into()], Natural(3));
        i.insert_named("S", vec!["c".into()], Natural(1));
        i
    }

    #[test]
    fn boolean_query_over_bags_counts_derivations() {
        // Q() :- R(x,y), R(y,z): the only valuation is x=a,y=b,z=c with
        // annotation 2·3 = 6.
        let q = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        assert_eq!(eval(&q, &path_instance(), &vec![]), Natural(6));
    }

    #[test]
    fn free_variables_select_tuples() {
        // Q(x) :- R(x, y)
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .build();
        let i = path_instance();
        assert_eq!(eval(&q, &i, &vec!["a".into()]), Natural(2));
        assert_eq!(eval(&q, &i, &vec!["b".into()]), Natural(3));
        assert_eq!(eval(&q, &i, &vec!["c".into()]), Natural(0));
        // A value the instance has never seen evaluates to 0 without
        // interning it into the domain.
        let before = i.domain().len();
        assert_eq!(eval(&q, &i, &vec!["unseen".into()]), Natural(0));
        assert_eq!(i.domain().len(), before);
        let ans = all_outputs(&q, &i);
        assert_eq!(ans.len(), 2);
    }

    #[test]
    fn repeated_atoms_square_annotations() {
        // Q() :- S(v), S(v) over S(c) ↦ 3 gives 9 under bag semantics.
        let mut i: Instance<Natural> = Instance::new(schema());
        i.insert_named("S", vec!["c".into()], Natural(3));
        let q = Cq::builder(&schema())
            .atom("S", &["v"])
            .atom("S", &["v"])
            .build();
        assert_eq!(eval(&q, &i, &vec![]), Natural(9));
    }

    #[test]
    fn joins_sum_over_all_valuations() {
        // Q() :- R(x,y), R(z,w): every pair of R-tuples, 4 valuations:
        // 2·2 + 2·3 + 3·2 + 3·3 = 25 = (2+3)².
        let q = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["z", "w"])
            .build();
        assert_eq!(eval(&q, &path_instance(), &vec![]), Natural(25));
    }

    #[test]
    fn tropical_evaluation_takes_minimum_cost() {
        // Same join over T⁺: min over valuations of the sum of costs.
        let mut i: Instance<Tropical> = Instance::new(schema());
        i.insert_named("R", vec!["a".into(), "b".into()], Tropical::Finite(2));
        i.insert_named("R", vec!["b".into(), "c".into()], Tropical::Finite(3));
        let q = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        assert_eq!(eval(&q, &i, &vec![]), Tropical::Finite(5));
        let q2 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["z", "w"])
            .build();
        assert_eq!(eval(&q2, &i, &vec![]), Tropical::Finite(4)); // 2+2
    }

    #[test]
    fn ccq_inequalities_restrict_valuations() {
        // Q() :- R(x,y), R(z,w), x != z over the path instance: only the two
        // valuations using different first tuples survive: 2·3 + 3·2 = 12.
        let q = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["z", "w"])
            .inequality("x", "z")
            .build_ccq();
        assert_eq!(eval(&q, &path_instance(), &vec![]), Natural(12));
    }

    #[test]
    fn ucq_evaluation_sums_members() {
        let q1 = Cq::builder(&schema()).atom("S", &["v"]).build();
        let q2 = Cq::builder(&schema()).atom("R", &["x", "y"]).build();
        let ucq = Ucq::new([q1, q2]);
        // S contributes 1, R contributes 2 + 3.
        assert_eq!(eval(&ucq, &path_instance(), &vec![]), Natural(6));
        assert_eq!(
            eval(&Ucq::empty(), &path_instance(), &vec![]),
            Natural::zero()
        );
    }

    #[test]
    fn repeated_free_variable_requires_equal_values() {
        // Q(x, x) :- R(x, x): output tuple must repeat the same value.
        let mut i: Instance<Bool> = Instance::new(schema());
        i.insert_named("R", vec!["a".into(), "a".into()], Bool(true));
        let q = Cq::builder(&schema())
            .free(&["x", "x"])
            .atom("R", &["x", "x"])
            .build();
        assert_eq!(eval(&q, &i, &vec!["a".into(), "a".into()]), Bool(true));
        assert_eq!(eval(&q, &i, &vec!["a".into(), "b".into()]), Bool(false));
    }

    #[test]
    fn provenance_polynomials_record_derivations() {
        // Annotate tuples with distinct variables and evaluate into N[X]:
        // Q() :- R(x,y), R(y,z) over R(a,b) ↦ p₀, R(b,c) ↦ p₁ yields p₀·p₁.
        let mut i: Instance<NatPoly> = Instance::new(schema());
        i.insert_named("R", vec!["a".into(), "b".into()], NatPoly::var(Var(0)));
        i.insert_named("R", vec!["b".into(), "c".into()], NatPoly::var(Var(1)));
        let q = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let result = eval(&q, &i, &vec![]);
        let expected = Polynomial::var(Var(0)).times(&Polynomial::var(Var(1)));
        assert_eq!(result.polynomial(), &expected);
    }

    #[test]
    fn rows_and_resolved_outputs_agree() {
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .build();
        let i = path_instance();
        let rows = all_output_rows(&q, &i);
        let resolved = all_outputs(&q, &i);
        assert_eq!(rows.len(), resolved.len());
        assert_eq!(resolve_outputs(i.domain(), &rows), resolved);
        for (row, k) in &rows {
            let tuple = i.domain().resolve_tuple(row);
            assert_eq!(resolved.get(&tuple), Some(k));
            assert_eq!(&eval(&q, &i, &tuple), k);
        }
    }

    #[test]
    #[should_panic(expected = "arity does not match")]
    fn output_arity_is_checked() {
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("S", &["x"])
            .build();
        let i: Instance<Bool> = Instance::new(schema());
        let _ = eval(&q, &i, &vec![]);
    }

    // -- incremental evaluation ---------------------------------------------

    /// Replays `facts` as pushes and checks the state against the one-shot
    /// evaluation after every push, then again after every pop.
    fn check_state_matches_oneshot<K: Semiring>(
        mut state: EvalState<'_, K>,
        oneshot: &dyn Fn(&Instance<K>) -> BTreeMap<Tuple, K>,
        facts: &[(&str, Tuple, K)],
    ) {
        let mut instances: Vec<Instance<K>> = vec![Instance::new(schema())];
        for (rel, tuple, k) in facts {
            let mut next = instances.last().unwrap().clone();
            next.add_annotation(
                next.schema().relation(rel).unwrap(),
                tuple.clone(),
                k.clone(),
            );
            instances.push(next);
        }
        assert_eq!(state.outputs(), oneshot(&instances[0]));
        for (depth, (rel, tuple, k)) in facts.iter().enumerate() {
            let id = schema().relation(rel).unwrap();
            state.push_fact(id, tuple.clone(), k.clone());
            assert_eq!(state.depth(), depth + 1);
            assert_eq!(
                state.outputs(),
                oneshot(&instances[depth + 1]),
                "after push {depth}"
            );
        }
        for depth in (0..facts.len()).rev() {
            state.pop_fact();
            assert_eq!(state.outputs(), oneshot(&instances[depth]), "after pop");
        }
    }

    #[test]
    fn eval_state_matches_oneshot_cq() {
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let state: EvalState<'_, Natural> = EvalState::new(&q);
        check_state_matches_oneshot(
            state,
            &|i| all_outputs(&q, i),
            &[
                ("R", vec!["a".into(), "b".into()], Natural(2)),
                ("R", vec!["b".into(), "c".into()], Natural(3)),
                ("R", vec!["b".into(), "b".into()], Natural(1)),
                ("S", vec!["c".into()], Natural(5)),
            ],
        );
    }

    #[test]
    fn eval_state_matches_oneshot_ccq() {
        let q = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["z", "w"])
            .inequality("x", "z")
            .build_ccq();
        let state: EvalState<'_, Natural> = EvalState::new(&q);
        check_state_matches_oneshot(
            state,
            &|i| all_outputs(&q, i),
            &[
                ("R", vec!["a".into(), "b".into()], Natural(2)),
                ("R", vec!["b".into(), "c".into()], Natural(3)),
                ("R", vec!["a".into(), "c".into()], Natural(4)),
            ],
        );
    }

    #[test]
    fn eval_state_matches_oneshot_ucq() {
        let q1 = Cq::builder(&schema()).atom("S", &["v"]).build();
        let q2 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build();
        let ucq = Ucq::new([q1, q2]);
        let state: EvalState<'_, Natural> = EvalState::new(&ucq);
        check_state_matches_oneshot(
            state,
            &|i| all_outputs(&ucq, i),
            &[
                ("S", vec!["b".into()], Natural(2)),
                ("R", vec!["a".into(), "b".into()], Natural(3)),
                ("S", vec!["a".into()], Natural(1)),
            ],
        );
    }

    #[test]
    fn eval_state_handles_atomless_and_empty_unions() {
        // The empty UCQ evaluates to 0 everywhere.
        let empty = Ucq::empty();
        let state: EvalState<'_, Natural> = EvalState::new(&empty);
        assert!(state.outputs().is_empty());

        // An atomless CQ evaluates to 1 on every instance, facts or not.
        let atomless = Cq::new(schema(), vec![], vec![], vec![]);
        let mut state: EvalState<'_, Natural> = EvalState::new(&atomless);
        assert_eq!(state.outputs().get(&Vec::new()), Some(&Natural(1)));
        let r = schema().relation("R").unwrap();
        state.push_fact(r, vec![1.into(), 2.into()], Natural(7));
        assert_eq!(state.outputs().get(&Vec::new()), Some(&Natural(1)));
        state.pop_fact();
        assert_eq!(state.outputs().get(&Vec::new()), Some(&Natural(1)));
    }

    #[test]
    fn eval_state_duplicate_tuple_pushes_add_annotations() {
        // Pushing a tuple twice behaves like `add_annotation`: the state and
        // an instance holding the summed annotation agree.
        let q = Cq::builder(&schema())
            .atom("S", &["v"])
            .atom("S", &["v"])
            .build();
        let s = schema().relation("S").unwrap();
        let mut state: EvalState<'_, Natural> = EvalState::new(&q);
        state.push_fact(s, vec!["c".into()], Natural(2));
        state.push_fact(s, vec!["c".into()], Natural(3));
        let mut i: Instance<Natural> = Instance::new(schema());
        i.insert(s, vec!["c".into()], Natural(5));
        assert_eq!(state.outputs(), all_outputs(&q, &i));
        state.pop_fact();
        i.insert(s, vec!["c".into()], Natural(2));
        assert_eq!(state.outputs(), all_outputs(&q, &i));
    }

    #[test]
    fn eval_state_zero_push_is_a_noop_frame() {
        let q = Cq::builder(&schema()).atom("S", &["v"]).build();
        let s = schema().relation("S").unwrap();
        let mut state: EvalState<'_, Natural> = EvalState::new(&q);
        let before = state.domain().len();
        state.push_fact(s, vec!["c".into()], Natural(0));
        assert!(state.outputs().is_empty());
        assert_eq!(state.depth(), 1);
        // A zero push does not intern its tuple.
        assert_eq!(state.domain().len(), before);
        state.pop_fact();
        assert_eq!(state.depth(), 0);
    }

    #[test]
    fn eval_state_last_changed_reports_touched_outputs() {
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .build();
        let r = schema().relation("R").unwrap();
        let mut state: EvalState<'_, Natural> = EvalState::new(&q);
        let last_changed = |state: &EvalState<'_, Natural>| -> Vec<Tuple> {
            (state.last_changed_rows())
                .map(|row| state.domain().resolve_tuple(row))
                .collect()
        };
        assert_eq!(last_changed(&state).len(), 0);
        state.push_fact(r, vec!["a".into(), "b".into()], Natural(2));
        assert_eq!(last_changed(&state), vec![vec![DbValue::str("a")]]);
        // A fact for an unrelated output leaves ("a") out of the new delta.
        state.push_fact(r, vec!["b".into(), "c".into()], Natural(3));
        assert_eq!(last_changed(&state), vec![vec![DbValue::str("b")]]);
        // The interned view reports the same rows.
        assert_eq!(state.last_changed_rows().count(), 1);
    }

    #[test]
    fn eval_state_row_pushes_match_tuple_pushes() {
        let q = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let r = schema().relation("R").unwrap();
        let mut by_tuple: EvalState<'_, Natural> = EvalState::new(&q);
        by_tuple.push_fact(r, vec!["a".into(), "b".into()], Natural(2));
        by_tuple.push_fact(r, vec!["b".into(), "a".into()], Natural(3));
        let mut by_row: EvalState<'_, Natural> = EvalState::new(&q);
        let a = by_row.domain().intern(&"a".into());
        let b = by_row.domain().intern(&"b".into());
        by_row.push_fact_row(r, &[a, b], Natural(2));
        by_row.push_fact_row(r, &[b, a], Natural(3));
        assert_eq!(by_tuple.outputs(), by_row.outputs());
        assert!(!by_row.outputs().is_empty());
    }

    #[test]
    #[should_panic(expected = "pop_fact with no pushed fact")]
    fn eval_state_pop_on_empty_panics() {
        let q = Cq::builder(&schema()).atom("S", &["v"]).build();
        let mut state: EvalState<'_, Bool> = EvalState::new(&q);
        state.pop_fact();
    }

    /// The documented [`UndoFrame`] invariant — the newest frame undoes at
    /// most the single fact its push appended — is checked on every pop in
    /// debug builds.  The public API cannot violate it (pops always take
    /// the newest frame), so this test corrupts a frame directly to pin
    /// that a mismatch is caught rather than silently truncating the wrong
    /// number of facts.
    #[test]
    #[cfg(debug_assertions)]
    fn eval_state_push_pop_mismatch_is_caught_in_debug() {
        let q = Cq::builder(&schema()).atom("S", &["v"]).build();
        let s = schema().relation("S").unwrap();
        let mut state: EvalState<'_, Natural> = EvalState::new(&q);
        state.push_fact(s, vec!["c".into()], Natural(2));
        state.push_fact(s, vec!["d".into()], Natural(3));
        // Corrupt the newest frame: it now claims the relation held 0 facts
        // before its push, while the table holds 2 — neither `prev_len` nor
        // `prev_len + 1`.
        state.frames.last_mut().unwrap().prev_len = 0;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.pop_fact();
        }))
        .expect_err("corrupted undo frame must trip the debug assertion");
        let message = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("push/pop mismatch"),
            "unexpected panic message: {message}"
        );
    }
}
