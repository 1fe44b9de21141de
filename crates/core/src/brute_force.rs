//! Brute-force semantic containment checking (the cross-validation baseline).
//!
//! The syntactic criteria of the paper are validated in this repository by
//! comparing them against direct semantic checks: enumerate K-instances over
//! a small domain with annotations drawn from the semiring's sample elements,
//! evaluate both queries on every instance and output tuple, and look for a
//! violation of `Q₁ᴵ(t) ¹_K Q₂ᴵ(t)`.
//!
//! Finding a counterexample *refutes* containment outright.  Not finding one
//! is, in general, only evidence — but for ⊕-idempotent semirings the paper's
//! small-model property (Thm. 4.17) shows that counterexamples, when they
//! exist, already appear on instances no larger than the canonical instances
//! of `⟨Q₁⟩`, so with a domain of size `≥ |vars(Q₁)|` and a sample containing
//! the relevant elements the search is a genuine decision procedure for the
//! finite semirings used in the test-suite.
//!
//! # One walk, two strategies
//!
//! The searched instances are organised as a *support-prefix tree*: each
//! node is a support prefix — a set of tuple slots whose indices increase
//! along the path — and a child extends its parent by one later slot.  One
//! walk keeps both queries' all-outputs maps in incremental [`EvalState`]s
//! (`push_fact` on descent, `pop_fact` on backtrack), brings the rhs up to
//! date only at nodes whose lhs output is non-empty, and checks at each node
//! only the output tuples the newest fact changed: the others were already
//! checked at the parent.  Two strategies differ in how a pushed slot is
//! annotated:
//!
//! - the **direct** strategy branches each slot over the `s` non-zero
//!   sample annotations and evaluates over `K` itself, so every node is one
//!   concrete instance;
//! - the **factorized** strategy annotates the slot pushed at depth `i`
//!   with the provenance *variable* `xᵢ` and evaluates over `N[X]`, so a
//!   node pays for the delta joins of its newest fact **once**, not once per
//!   concrete annotation assignment — the enumeration's `s^k` factor never
//!   touches the join machinery.
//!
//! The *instances* of a factorized node — all `s^k` ways of annotating its
//! `k` slots with non-zero sample elements — are recovered through the
//! universal property of `N[X]` (Prop. 3.2): evaluating a query over the
//! variable-annotated instance and then applying the evaluation morphism
//! `xᵢ ↦ aᵢ` equals evaluating it over the concretely-annotated instance.
//! The containment check at a node thus substitutes sample values into the
//! (tiny, often unchanged) output *polynomials*, and only for the variables
//! that actually occur in them: assignments differing only on variables
//! absent from both polynomials cannot change the verdict.  The factorized
//! strategy runs when the annotation domain carries heap data and there are
//! at least two samples to amortise (see [`try_find_counterexample`]).
//!
//! The tree is walked depth-first on the calling thread, and the walk stops
//! at the first violation, so the reported counterexample is the first
//! violating node in depth-first order: the same on every run.  The budget
//! [`BruteForceConfig::max_instances`] is exact: let `W` be the
//! [`SearchStats::instances_visited`] of the search without a budget; any
//! budget `≥ W` returns the same outcome with the same count, and any
//! budget `< W` fails with [`BruteForceError::InstanceBudgetExceeded`].
//!
//! [`find_counterexample_naive`] retains the previous per-instance one-shot
//! evaluation as the reference implementation for differential testing.
//!
//! # Enumeration contract
//!
//! [`for_each_instance`] enumerates **exactly** the K-instances over the
//! domain `{0, …, domain_size−1}` whose annotations are non-zero sample
//! elements and whose support has at most `max_support` tuples — each
//! instance once.  With `n` possible tuples and `s` non-zero sample elements
//! that is
//!
//! ```text
//! Σ_{k=0}^{min(n, max_support)}  C(n, k) · s^k
//! ```
//!
//! instances ([`bounded_instance_count`]).  The support cap prunes the tree
//! *during descent*: a node at depth `max_support` has no children.
//!
//! The prefix-tree search walks the same space **quotiented two ways**.  Its
//! samples are [`Semiring::decisive_samples`] — a per-semiring subset of the
//! sample elements certified (`tests/decisive_samples.rs`) to refute exactly
//! when the full set does — and by default it prunes every support that is
//! not the lexicographically minimal member of its orbit under the
//! permutations of the domain values
//! ([`BruteForceConfig::symmetry_quotient`]).  A domain permutation is an
//! isomorphism of instances and constant-free queries cannot distinguish
//! isomorphic instances, so one representative per orbit decides the search;
//! the constant-free precondition (`cq_constant_free` on every disjunct) is
//! checked at entry and the walk falls back to the full enumeration when it
//! fails.
//! A full quotiented walk visits
//!
//! ```text
//! Σ_{k=0}^{min(n, max_support)}  orbits(k) · s^k
//! ```
//!
//! instances ([`quotiented_instance_count`], with `orbits(k)` the number of
//! orbits of `k`-element slot sets, a Burnside sum over the permutations'
//! cycle types) — the same closed form for both strategies: the factorized
//! one visits `orbits(k)` tree nodes of depth `k` accounting `sᵏ` instances
//! each, the direct one `orbits(k)·sᵏ` nodes of one instance each.  The
//! regression tests below pin both closed forms.

use annot_polynomial::{Monomial, Polynomial, Var};
use annot_query::eval::{all_outputs, Disjuncts, EvalState};
use annot_query::{Cq, DbValue, IdTuple, Instance, RelId, Schema, Tuple, ValueId};
use annot_semiring::{NatPoly, Semiring};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;

/// A semantic counterexample to `Q₁ ⊆_K Q₂`.
#[derive(Clone, Debug)]
pub struct CounterExample<K: Semiring> {
    /// The witnessing instance.
    pub instance: Instance<K>,
    /// The output tuple on which the order fails.
    pub tuple: Tuple,
    /// `Q₁ᴵ(t)`.
    pub lhs: K,
    /// `Q₂ᴵ(t)`.
    pub rhs: K,
}

/// Configuration of the brute-force search.
///
/// `max_support` bounds the number of annotated (non-zero) tuples per
/// candidate instance, and is enforced *during* enumeration — branches that
/// would exceed it are never descended into, and oversized instances are
/// never materialised.  `Default` derives a bounded cap from the default
/// domain size (see [`BruteForceConfig::with_domain_size`]); it is
/// deliberately **not** unbounded, since an unbounded default makes the
/// search cost explode with the tuple space while a cap of `domain_size²`
/// already contains every canonical counterexample the paper's small-model
/// property needs at these domain sizes.
#[derive(Clone, Debug)]
pub struct BruteForceConfig {
    /// Domain size of the candidate instances.
    pub domain_size: usize,
    /// Upper bound on the number of annotated tuples per instance.
    pub max_support: usize,
    /// Optional hard cap on the number of instances a single search may
    /// visit.  `None` (the default) is unbounded; with `Some(n)`, a search
    /// whose enumeration exceeds `n` instances aborts with
    /// [`BruteForceError::InstanceBudgetExceeded`] instead of running until
    /// an external timeout kills the process (the module docs state the
    /// exact threshold).  Use this in CI so adversarial schemas fail loudly.
    pub max_instances: Option<u64>,
    /// Whether the prefix walk quotients the support enumeration by the
    /// symmetry of the domain values (default `true`): supports that are not
    /// the lexicographically minimal member of their orbit under the
    /// `domain_size!` value permutations are pruned, so the walk visits one
    /// representative instance per isomorphism orbit (see the module docs
    /// for the closed-form visit count).  The quotient is only *effective*
    /// when the query pair is constant-free — checked at search entry, with
    /// a fallback to the full walk — and when
    /// `domain_size ≤ `[`MAX_QUOTIENT_DOMAIN`] (beyond that the permutation
    /// group outgrows the per-node check).  Turn it off to force the full
    /// walk; the differential suite does, to pin quotiented against
    /// unquotiented verdicts.
    pub symmetry_quotient: bool,
}

impl BruteForceConfig {
    /// A config whose support cap is derived from the domain size:
    /// `max_support = domain_size²`, the size of a full binary relation over
    /// the domain (the canonical instances of the 2-ary workloads in this
    /// repository never need more).
    pub fn with_domain_size(domain_size: usize) -> Self {
        BruteForceConfig {
            domain_size,
            max_support: domain_size.saturating_mul(domain_size),
            max_instances: None,
            symmetry_quotient: true,
        }
    }

    /// Returns the config with the instance budget replaced.
    pub fn with_max_instances(self, max_instances: Option<u64>) -> Self {
        BruteForceConfig {
            max_instances,
            ..self
        }
    }
}

impl Default for BruteForceConfig {
    fn default() -> Self {
        // Domain of size 2 and support ≤ 4: every instance over a full binary
        // relation is reachable, and the enumeration stays small for every
        // sample-element count.
        BruteForceConfig::with_domain_size(2)
    }
}

/// Why a brute-force search could not run to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BruteForceError {
    /// The enumeration visited more instances than
    /// [`BruteForceConfig::max_instances`] allows.  The search is
    /// inconclusive: neither a counterexample nor its absence was
    /// established.
    InstanceBudgetExceeded {
        /// The configured budget that was exhausted.
        max_instances: u64,
    },
}

impl fmt::Display for BruteForceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BruteForceError::InstanceBudgetExceeded { max_instances } => write!(
                f,
                "brute-force search exceeded its instance budget \
                 (max_instances = {max_instances}); raise the budget or \
                 shrink domain_size/max_support"
            ),
        }
    }
}

impl std::error::Error for BruteForceError {}

/// Counters describing a completed (or aborted) search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Instances visited before the search returned (on a full walk this is
    /// exactly [`quotiented_instance_count`] over the decisive samples when
    /// the symmetry quotient is effective, [`bounded_instance_count`]
    /// otherwise; smaller when a counterexample stopped the search early).
    pub instances_visited: u64,
}

/// The result of a completed brute-force search.
#[derive(Clone, Debug)]
pub struct SearchOutcome<K: Semiring> {
    /// The first counterexample found, if any.
    pub counterexample: Option<CounterExample<K>>,
    /// Enumeration counters.
    pub stats: SearchStats,
}

/// Searches for a counterexample to `Q₁ ⊆_K Q₂` among the K-instances over a
/// domain of `config.domain_size` values whose annotations are drawn from
/// [`Semiring::decisive_samples`] (a refutation-preserving subset of the
/// sample elements; the naive reference oracle keeps the full set).  Each
/// side is any query read as its disjuncts ([`Disjuncts`]): a [`Cq`], a
/// CCQ, a UCQ or a union of CCQs.
///
/// Panics if the search exceeds `config.max_instances`; use
/// [`try_find_counterexample`] to handle the budget as an error.
pub fn find_counterexample<K: Semiring>(
    q1: &impl Disjuncts,
    q2: &impl Disjuncts,
    config: &BruteForceConfig,
) -> Option<CounterExample<K>> {
    match try_find_counterexample(q1, q2, config) {
        Ok(outcome) => outcome.counterexample,
        // invariant: documented panic — the budget overflow contract of this wrapper (see its docs)
        Err(err) => panic!("{err}"),
    }
}

/// The prefix-memoized counterexample search (see the module docs for the
/// tree structure and sharing argument).
///
/// Returns the first counterexample in depth-first order together with
/// enumeration counters, or [`BruteForceError::InstanceBudgetExceeded`] when
/// `config.max_instances` ran out before the search settled.
pub fn try_find_counterexample<K: Semiring>(
    q1: &impl Disjuncts,
    q2: &impl Disjuncts,
    config: &BruteForceConfig,
) -> Result<SearchOutcome<K>, BruteForceError> {
    let schema = match first_schema(q1, q2) {
        Some(schema) => schema.clone(),
        None => {
            return Ok(SearchOutcome {
                counterexample: None,
                stats: SearchStats::default(),
            })
        }
    };
    let slots = slots_over(&schema, config.domain_size);
    // Zero annotations never enter a support; enumerating them would only
    // duplicate the "slot absent" branch.  The decisive subset refutes
    // exactly when the full sample set does (the per-semiring certificates
    // behind `Semiring::decisive_samples`); the naive reference oracle keeps
    // the full set.
    let samples: Vec<K> = K::decisive_samples()
        .into_iter()
        .filter(|s| !s.is_zero())
        .collect();

    // The value-symmetry quotient: a domain permutation is an isomorphism of
    // instances, so for constant-free queries one support per orbit decides
    // the search.  The guard is asserted here — today it holds by
    // construction of the AST (see `cq_constant_free`), and a future
    // constants-capable AST falls back to the full walk.  An empty
    // `orbit_maps` turns the per-node canonicity check off.
    let quotient = config.symmetry_quotient
        && config.domain_size <= MAX_QUOTIENT_DOMAIN
        && (q1.each_disjunct().chain(q2.each_disjunct())).all(|(cq, _)| cq_constant_free(cq));
    let orbit_maps: Vec<Vec<u32>> = if quotient {
        slot_permutation_maps(&schema, &slots, config.domain_size)
            .into_iter()
            .filter(|map| map.iter().enumerate().any(|(i, &to)| to != i as u32))
            .collect()
    } else {
        Vec::new()
    };

    let ctx = SearchContext {
        schema: &schema,
        slots: &slots,
        samples: &samples,
        orbit_maps: &orbit_maps,
        cap: config.max_support,
        max_instances: config.max_instances,
        visited: Cell::new(0),
    };

    // Factorization through `N[X]` pays when the sample assignments it
    // amortises are plural *and* the annotation domain's operations are
    // expensive — heap-carrying domains (provenance sets, polynomials, …)
    // are exactly the ones `needs_drop` detects.  Scalar domains (`B`, `N`,
    // `T⁺`, …) amortise too on full walks, but lose on the small
    // early-refuted searches that dominate interactive use: their cheap
    // native operations beat polynomial arithmetic before the sharing can
    // pay for itself, so they keep the direct strategy.
    let walked = if std::mem::needs_drop::<K>() && samples.len() >= 2 {
        Walk::new(&ctx, q1, q2, Factorized::new()).walk()
    } else {
        Walk::new(&ctx, q1, q2, Direct).walk()
    };
    let counterexample = match walked {
        Ok(()) => None,
        Err(Halt::Found(counterexample)) => Some(counterexample),
        Err(Halt::Budget) => {
            return Err(BruteForceError::InstanceBudgetExceeded {
                max_instances: config.max_instances.unwrap_or(0),
            })
        }
    };
    Ok(SearchOutcome {
        counterexample,
        stats: SearchStats {
            instances_visited: ctx.visited.get(),
        },
    })
}

/// Why a walk ended before exhausting its tree.
enum Halt<K: Semiring> {
    /// The node just checked violates the containment.
    Found(CounterExample<K>),
    /// The instance budget ran out.
    Budget,
}

/// What tells the two walk strategies apart: the annotation domain, how a
/// tree edge branches, per-depth state and the check of one output row.
/// The stack, the budget and stop discipline, the lazy rhs, the node check
/// and the counterexample rebuild live once, in [`Walk`].
trait Strategy<K: Semiring> {
    /// The annotation domain both evaluation states run in.
    type A: Semiring;
    /// Branch choices per slot when extending a prefix.
    fn branches(samples: &[K]) -> usize;
    /// Concrete instances a node at `depth` covers (counted on visit).
    fn instances_at(samples: &[K], depth: usize) -> u64;
    /// The annotation of stack position `position` pushed with `branch`.
    fn annotation(samples: &[K], position: usize, branch: usize) -> Self::A;
    /// Opens the per-depth state of a newly pushed position.
    fn enter(&mut self) {}
    /// Drops the per-depth state of the popped position.
    fn leave(&mut self) {}
    /// Checks `Q₁ᴵ(t) ¹ Q₂ᴵ(t)` for one output row of the current node,
    /// whose `(slot, branch)` stack is `stack`.
    fn check_row(
        &mut self,
        samples: &[K],
        stack: &[(usize, usize)],
        lhs: &EvalState<'_, Self::A>,
        rhs: &EvalState<'_, Self::A>,
        row: &IdTuple,
    ) -> Option<Violation<K>>;
}

/// The depth-first prefix walk, once for both strategies: the incremental
/// evaluation states of both queries over `S::A` and the stack of pushed
/// `(slot, branch)` positions.  Each node counts its instances against the
/// budget, pushes its newest fact, is checked, recurses over later slots
/// and pops.
struct Walk<'s, K: Semiring, S: Strategy<K>> {
    ctx: &'s SearchContext<'s, K>,
    lhs: EvalState<'s, S::A>,
    rhs: EvalState<'s, S::A>,
    stack: Vec<(usize, usize)>,
    strategy: S,
}

impl<'s, K: Semiring, S: Strategy<K>> Walk<'s, K, S> {
    fn new(
        ctx: &'s SearchContext<'s, K>,
        q1: &'s impl Disjuncts,
        q2: &'s impl Disjuncts,
        strategy: S,
    ) -> Self {
        // Both states adopt the search's own domain: the pushed rows are
        // interned there, and q2 may have been built over an independent
        // (structurally equal) schema whose interner never saw them.
        let domain = ctx.schema.domain();
        Walk {
            ctx,
            lhs: EvalState::new(q1).with_domain(domain.clone()),
            rhs: EvalState::new(q2).with_domain(domain.clone()),
            stack: Vec::new(),
            strategy,
        }
    }

    /// Walks the whole tree: the root (the empty instance, whose outputs
    /// are the constants of the atomless disjuncts), then every support
    /// prefix below it.
    fn walk(&mut self) -> Result<(), Halt<K>> {
        self.ctx.count_instances(1)?;
        if let Some(counterexample) = self.check() {
            return Err(Halt::Found(counterexample));
        }
        self.descend(0, self.ctx.cap)
    }

    /// Extends the current (already counted and checked) prefix by every
    /// annotated slot ≥ `next_slot`, depth-first.
    fn descend(&mut self, next_slot: usize, budget: usize) -> Result<(), Halt<K>> {
        if budget == 0 {
            return Ok(());
        }
        // The child support is the current (ascending) slot stack plus the
        // candidate slot — rebuilt once per node, mutated in place per
        // child.  Canonicity is a property of the support alone, so the
        // check is hoisted out of the branch loop.
        let ctx = self.ctx;
        let depth = self.stack.len();
        let mut support: Vec<u32> = self.stack.iter().map(|&(slot, _)| slot as u32).collect();
        support.push(0);
        for slot in next_slot..ctx.slots.len() {
            support[depth] = slot as u32;
            if !ctx.canonical_support(&support) {
                continue;
            }
            for branch in 0..S::branches(ctx.samples) {
                ctx.count_instances(S::instances_at(ctx.samples, depth + 1))?;
                self.push(slot, branch);
                let result = match self.check() {
                    Some(counterexample) => Err(Halt::Found(counterexample)),
                    None => self.descend(slot + 1, budget - 1),
                };
                self.pop();
                result?;
            }
        }
        Ok(())
    }

    /// Pushes a slot into the lhs state only; the rhs state is synced
    /// lazily (see [`Walk::check`]).  Positivity makes tuples outside the
    /// lhs support unable to witness a violation, and the lhs support only
    /// grows along a tree path, so prefixes whose lhs output is empty — the
    /// common case — never pay for a rhs evaluation at all.
    fn push(&mut self, slot: usize, branch: usize) {
        let (rel, row) = &self.ctx.slots[slot];
        let annotation = S::annotation(self.ctx.samples, self.stack.len(), branch);
        self.lhs.push_fact_row(*rel, row, annotation);
        self.stack.push((slot, branch));
        self.strategy.enter();
    }

    fn pop(&mut self) {
        self.lhs.pop_fact();
        self.stack.pop();
        self.strategy.leave();
        // The rhs lags behind the prefix, never ahead of it.
        while self.rhs.depth() > self.stack.len() {
            self.rhs.pop_fact();
        }
    }

    /// Brings the rhs state up to the current prefix, returning how many
    /// facts it was behind.
    fn sync_rhs(&mut self) -> usize {
        let synced = self.rhs.depth();
        for (position, &(slot, branch)) in self.stack.iter().enumerate().skip(synced) {
            let (rel, row) = &self.ctx.slots[slot];
            let annotation = S::annotation(self.ctx.samples, position, branch);
            self.rhs.push_fact_row(*rel, row, annotation);
        }
        self.stack.len() - synced
    }

    /// The containment check of the current node.
    ///
    /// An empty lhs output means no tuple can violate for any sample
    /// assignment (positivity), so the rhs is not even synced.  Otherwise
    /// the rhs catches up to the prefix: when it was only the newest fact
    /// behind — meaning the parent prefix ran this very check — only output
    /// tuples whose annotation that fact changed (on either side) can newly
    /// violate; at the root and after a longer catch-up the whole lhs
    /// support is checked.
    fn check(&mut self) -> Option<CounterExample<K>> {
        if self.lhs.outputs_rows().is_empty() {
            return None;
        }
        let lag = self.sync_rhs();
        let (samples, stack, lhs, rhs) = (self.ctx.samples, &self.stack, &self.lhs, &self.rhs);
        let strategy = &mut self.strategy;
        let mut check_row = |row: &IdTuple| strategy.check_row(samples, stack, lhs, rhs, row);
        let violation = if lag == 1 {
            changed_rows(lhs, rhs).iter().find_map(&mut check_row)
        } else {
            lhs.outputs_rows().keys().find_map(check_row)
        }?;
        Some(self.materialise(violation))
    }

    /// Rebuilds the witnessing instance of a violation at the current prefix
    /// (stack position `i` annotated with the sample `choice[i]`), and
    /// resolves the witnessing row into a `DbValue` tuple — the only point
    /// of the walk that touches the resolver.
    fn materialise(&self, violation: Violation<K>) -> CounterExample<K> {
        let mut instance = Instance::new(self.ctx.schema.clone());
        for (&(slot, _), &sample) in self.stack.iter().zip(&violation.choice) {
            let (rel, row) = &self.ctx.slots[slot];
            instance.add_annotation_row(*rel, row, self.ctx.samples[sample].clone());
        }
        CounterExample {
            instance,
            tuple: self.ctx.schema.domain().resolve_tuple(&violation.row),
            lhs: violation.lhs,
            rhs: violation.rhs,
        }
    }
}

/// The search state the walk reads, whichever its strategy.
struct SearchContext<'s, K: Semiring> {
    schema: &'s Schema,
    /// Every tuple slot of the schema over the domain, in enumeration order,
    /// pre-interned into the schema's domain once — the walk never touches a
    /// `DbValue` again.
    slots: &'s [(RelId, IdTuple)],
    /// The non-zero decisive sample annotations.
    samples: &'s [K],
    /// One slot-relabelling table per non-identity domain-value permutation
    /// (empty when the symmetry quotient is off): `orbit_maps[p][slot]` is
    /// the slot whose tuple is the image of `slot`'s tuple under the `p`-th
    /// permutation.  Built once per search; the per-node canonicity check
    /// only chases these tables.
    orbit_maps: &'s [Vec<u32>],
    /// Support cap (maximum depth of the prefix tree).
    cap: usize,
    max_instances: Option<u64>,
    /// Instances visited so far.
    visited: Cell<u64>,
}

impl<K: Semiring> SearchContext<'_, K> {
    /// Counts the `n` instances of one visited tree node (a node of depth
    /// `k` covers the `sᵏ` sample assignments of its support) against the
    /// budget, halting the walk when it is exhausted.
    fn count_instances(&self, n: u64) -> Result<(), Halt<K>> {
        let visited = self.visited.get().saturating_add(n);
        self.visited.set(visited);
        match self.max_instances {
            Some(max) if visited > max => Err(Halt::Budget),
            _ => Ok(()),
        }
    }

    /// Whether `support` — the slot indices of a prefix node's path, in the
    /// walk's ascending order — is the lexicographically minimal member of
    /// its orbit under the domain-value permutations (vacuously `true` when
    /// the quotient is off).
    ///
    /// Pruning on this predicate is sound for a depth-first walk because
    /// canonicity is *prefix-closed*: a DFS prefix `P` of a support `S`
    /// holds the `|P|` smallest slots of `S` and every remaining slot
    /// exceeds `max(P)`, so the order statistics of `π(S) ⊇ π(P)` are
    /// bounded by those of `π(P)` position by position — if some permutation
    /// `π` sorts `π(P)` strictly below `P`, the same `π` sorts `π(S)`
    /// strictly below `S`.  Pruning a non-canonical prefix therefore never
    /// cuts off a canonical descendant, and the walk visits exactly one (the
    /// lex-least) representative per orbit.
    fn canonical_support(&self, support: &[u32]) -> bool {
        if self.orbit_maps.is_empty() || support.is_empty() {
            return true;
        }
        let mut image: Vec<u32> = Vec::with_capacity(support.len());
        for map in self.orbit_maps {
            image.clear();
            image.extend(support.iter().map(|&slot| map[slot as usize]));
            image.sort_unstable();
            if image.as_slice() < support {
                return false;
            }
        }
        true
    }
}

/// A containment violation at the current prefix: the witnessing output
/// row, both annotations, and the sample assignment, one index per stack
/// position.  The direct strategy's assignment is its stack's branches; in
/// the factorized one, positions whose variable occurs in neither
/// polynomial are unconstrained and default to the first sample.
struct Violation<K> {
    row: IdTuple,
    lhs: K,
    rhs: K,
    choice: Vec<usize>,
}

/// The per-prefix-node cache of the sibling-sharing walk: for each checked
/// output row and side, the evaluations of the *parent* prefix's output
/// polynomial under sample assignments, keyed by the assignment restricted
/// to the variables that polynomial actually uses (the restricted
/// evaluation morphism).
///
/// Every sibling node extending the same parent shares the parent's output
/// polynomials exactly — a push only *adds* monomials containing the newest
/// slot's variable, so the unchanged part of a child polynomial is the
/// parent polynomial verbatim.  The cache therefore lives with the parent:
/// the first sibling to substitute a given restricted assignment pays for
/// the evaluation, every later sibling (and every later odometer lap of the
/// same sibling) replays it with a hash lookup, and only the monomials
/// containing the newly branched slot's variable are ever re-evaluated.
struct NodeCache<K> {
    rows: HashMap<IdTuple, RowMemo<K>>,
}

impl<K> NodeCache<K> {
    fn new() -> Self {
        NodeCache {
            rows: HashMap::new(),
        }
    }
}

/// A sibling-sharing memo key: the sample assignment restricted to the base
/// variables of the checked row (see [`NodeCache`]).
///
/// The restriction is a short list of small sample indices, so in the common
/// case — at most 16 base variables over at most 16 samples — it packs into
/// a single `u64` fingerprint, 4 bits per variable position: hashing and
/// comparing cost one word each and the deep odometer laps stop allocating a
/// `Vec` per lookup.  Wider assignments (possible only with an adversarial
/// sample set or a support cap above 16) fall back to the explicit vector.
///
/// The packing is injective per memo: every sibling of one parent node
/// partitions against the same base polynomial, so `base_vars` — the
/// positions being packed — is fixed for a given (node, row) memo and equal
/// fingerprints mean equal restricted assignments.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum MemoKey {
    Packed(u64),
    Wide(Vec<u32>),
}

/// Builds the memo key of `choice` restricted to `base_vars` (packed when
/// the [`MemoKey::Packed`] bounds hold, explicit otherwise).
fn memo_key(base_vars: &[usize], choice: &[usize], samples: usize) -> MemoKey {
    if samples <= 16 && base_vars.len() <= 16 {
        let mut packed = 0u64;
        for (position, &var) in base_vars.iter().enumerate() {
            packed |= (choice[var] as u64) << (4 * position);
        }
        MemoKey::Packed(packed)
    } else {
        MemoKey::Wide(base_vars.iter().map(|&var| choice[var] as u32).collect())
    }
}

/// The cached partial evaluations of one output row at one prefix node,
/// per side of the containment check.
struct RowMemo<K> {
    lhs: HashMap<MemoKey, K>,
    rhs: HashMap<MemoKey, K>,
}

impl<K> Default for RowMemo<K> {
    fn default() -> Self {
        RowMemo {
            lhs: HashMap::new(),
            rhs: HashMap::new(),
        }
    }
}

/// Per-row-and-side memo entries beyond this are evaluated directly instead
/// of cached — a safety valve so adversarial sample/support combinations
/// cannot balloon the walk's memory.
const MAX_MEMO_ENTRIES: usize = 1 << 14;

/// The factorized strategy: both states evaluate over `N[X]`, stack
/// position `i` is annotated with the provenance variable `xᵢ`, and a node's
/// check substitutes every sample assignment into its output polynomials.
struct Factorized<K> {
    /// Cache of `K::from_natural(c)` for monomial coefficients `c`.
    naturals: Vec<K>,
    /// `caches[d]` is the [`NodeCache`] of the current depth-`d` prefix,
    /// shared by all its depth-`d+1` children (the siblings); pushed and
    /// popped in lockstep with the walk's stack, plus the root cache at
    /// index 0.
    caches: Vec<NodeCache<K>>,
}

impl<K: Semiring> Factorized<K> {
    fn new() -> Self {
        Factorized {
            naturals: vec![K::zero(), K::one()],
            caches: vec![NodeCache::new()],
        }
    }
}

impl<K: Semiring> Strategy<K> for Factorized<K> {
    type A = NatPoly;

    /// The factorized tree branches over supports only: the one "branch" of
    /// a slot is its provenance variable.
    fn branches(_samples: &[K]) -> usize {
        1
    }

    /// A support of size `depth` covers the `s^depth` sample assignments.
    fn instances_at(samples: &[K], depth: usize) -> u64 {
        (samples.len() as u64).saturating_pow(depth as u32)
    }

    fn annotation(_samples: &[K], position: usize, _branch: usize) -> NatPoly {
        NatPoly::var(Var(position as u32))
    }

    fn enter(&mut self) {
        self.caches.push(NodeCache::new());
    }

    fn leave(&mut self) {
        self.caches.pop();
    }

    /// Checks the row across every sample assignment of the current support,
    /// through the evaluation morphism.  Positivity (required of every
    /// `Semiring` implementation) makes `0` the least element, so a
    /// violation needs `Q₁ᴵ(t) ≠ 0`: tuples outside the lhs support can
    /// never witness one.
    ///
    /// The substitution loop shares work across sibling nodes: both
    /// polynomials are split at the newest stack variable `x_{k−1}` into the
    /// *base* part (monomials without it — exactly the parent prefix's
    /// polynomial, identical for every sibling) and the *delta* part
    /// (monomials the newest fact introduced).  The odometer runs the
    /// delta-only variables innermost and re-evaluates only the delta
    /// monomials there; base evaluations are memoized in the parent's
    /// [`NodeCache`] under the assignment restricted to the base variables,
    /// so siblings (and later laps of the same node) replay them as hash
    /// lookups.
    fn check_row(
        &mut self,
        samples: &[K],
        stack: &[(usize, usize)],
        lhs: &EvalState<'_, NatPoly>,
        rhs: &EvalState<'_, NatPoly>,
        row: &IdTuple,
    ) -> Option<Violation<K>> {
        let Factorized { naturals, caches } = self;
        let p1 = lhs.outputs_rows().get(row)?.polynomial();
        let zero = Polynomial::zero();
        let p2 = rhs
            .outputs_rows()
            .get(row)
            .map(|p| p.polynomial())
            .unwrap_or(&zero);
        // If `P₁ ¹ P₂` in the natural order of `N[X]` (coefficient-wise),
        // then `P₂ = P₁ + R` and every evaluation morphism `h` gives
        // `h(P₁) ¹ h(P₁) ⊕ h(R) = h(P₂)` by positivity — no sample
        // assignment can violate, and the whole substitution loop is
        // skipped.  This settles most nodes of a search whose containment
        // actually holds (the full-walk worst case) for free.
        if p1.terms().all(|(m, c)| c <= p2.coefficient(m)) {
            return None;
        }
        let depth = stack.len();
        // The newest stack variable; `None` at the root, whose polynomials
        // are variable-free constants (no split, no cache).
        let new_var = depth.checked_sub(1).map(|d| Var(d as u32));
        let in_delta = |m: &Monomial| match new_var {
            Some(v) => m.exponent(v) > 0,
            None => true,
        };
        // Partition both polynomials' terms once: the inner laps below then
        // walk only the (usually tiny) delta lists, never re-filtering the
        // base monomials.
        let (delta1, base1_terms): (Vec<Term<'_>>, Vec<Term<'_>>) =
            p1.terms().partition(|(m, _)| in_delta(m));
        let (delta2, base2_terms): (Vec<Term<'_>>, Vec<Term<'_>>) =
            p2.terms().partition(|(m, _)| in_delta(m));
        // Only assignments of the variables occurring in either polynomial
        // can influence the verdict; everything else stays at sample 0.
        // `base_vars` are those used by the unchanged (parent) parts,
        // `delta_vars` those used *only* by monomials the newest fact
        // introduced.
        let mut base_vars: Vec<usize> = Vec::new();
        let mut all_vars: Vec<usize> = Vec::new();
        for (terms, base) in [
            (&delta1, false),
            (&base1_terms, true),
            (&delta2, false),
            (&base2_terms, true),
        ] {
            for (m, _) in terms {
                for &(var, _) in m.factors() {
                    all_vars.push(var.0 as usize);
                    if base {
                        base_vars.push(var.0 as usize);
                    }
                }
            }
        }
        base_vars.sort_unstable();
        base_vars.dedup();
        all_vars.sort_unstable();
        all_vars.dedup();
        let delta_vars: Vec<usize> = all_vars
            .iter()
            .copied()
            .filter(|v| base_vars.binary_search(v).is_err())
            .collect();
        // The parent's memo for this row (the root check has no parent).
        // The entry key is cloned only when the row is first seen at this
        // node; every later sibling check hits `get_mut`.
        let mut memo = new_var.map(|_| {
            let rows = &mut caches[depth - 1].rows;
            if !rows.contains_key(row) {
                rows.insert(row.clone(), RowMemo::default());
            }
            // invariant: inserted two lines up when absent
            rows.get_mut(row).expect("row memo just ensured")
        });
        let mut choice = vec![0usize; depth];
        loop {
            // Outer lap: one assignment of the base variables.  Both base
            // evaluations are constant across the inner delta laps; the lhs
            // one is resolved here (memoized), the rhs one lazily below.
            let base_key = memo_key(&base_vars, &choice, samples.len());
            let base1 = memoized_base(
                memo.as_mut().map(|m| &mut m.lhs),
                &base_key,
                &base1_terms,
                samples,
                &choice,
                naturals,
            );
            let mut base2: Option<K> = None;
            loop {
                // Inner lap: only the delta monomials — those containing
                // the newly branched slot's variable — are re-evaluated.
                let lhs_val = base1.add(&eval_terms(&delta1, samples, &choice, naturals));
                // `0 ¹ a` for every `a` (positivity), so a zero lhs cannot
                // violate and the rhs evaluation is skipped.
                if !lhs_val.is_zero() {
                    let b2 = match &base2 {
                        Some(b) => b.clone(),
                        None => {
                            let value = memoized_base(
                                memo.as_mut().map(|m| &mut m.rhs),
                                &base_key,
                                &base2_terms,
                                samples,
                                &choice,
                                naturals,
                            );
                            base2 = Some(value.clone());
                            value
                        }
                    };
                    let rhs_val = b2.add(&eval_terms(&delta2, samples, &choice, naturals));
                    if !lhs_val.leq(&rhs_val) {
                        return Some(Violation {
                            row: row.clone(),
                            lhs: lhs_val,
                            rhs: rhs_val,
                            choice,
                        });
                    }
                }
                if !advance_odometer(&mut choice, &delta_vars, samples.len()) {
                    break;
                }
            }
            if !advance_odometer(&mut choice, &base_vars, samples.len()) {
                return None;
            }
        }
    }
}

/// The direct strategy: both states evaluate over `K` itself, and the tree
/// branches over `(slot, sample)` pairs, one concrete instance per node.
/// Used when factorization would not pay (see [`try_find_counterexample`]):
/// for scalar annotation domains the delta joins are cheaper in `K` than in
/// `N[X]`, and with a single non-zero sample there is nothing to amortise.
struct Direct;

impl<K: Semiring> Strategy<K> for Direct {
    type A = K;

    /// The direct tree branches over every (slot, sample) pair.
    fn branches(samples: &[K]) -> usize {
        samples.len()
    }

    /// Every node *is* one concrete instance.
    fn instances_at(_samples: &[K], _depth: usize) -> u64 {
        1
    }

    fn annotation(samples: &[K], _position: usize, branch: usize) -> K {
        samples[branch].clone()
    }

    /// Compares the row's two concrete annotations; a violation's sample
    /// assignment is the stack's own branches.
    fn check_row(
        &mut self,
        _samples: &[K],
        stack: &[(usize, usize)],
        lhs: &EvalState<'_, K>,
        rhs: &EvalState<'_, K>,
        row: &IdTuple,
    ) -> Option<Violation<K>> {
        let lhs = lhs.outputs_rows().get(row)?;
        let rhs = rhs.outputs_rows().get(row).cloned().unwrap_or_else(K::zero);
        if lhs.leq(&rhs) {
            return None;
        }
        Some(Violation {
            row: row.clone(),
            lhs: lhs.clone(),
            rhs,
            choice: stack.iter().map(|&(_, sample)| sample).collect(),
        })
    }
}

/// The output rows whose annotation the newest fact changed on either side,
/// each once and sorted — the order a full check iterates, so a node with
/// several violating rows reports the least of them however it was
/// checked.
fn changed_rows<A: Semiring>(lhs: &EvalState<'_, A>, rhs: &EvalState<'_, A>) -> Vec<IdTuple> {
    let mut changed: Vec<IdTuple> = lhs
        .last_changed_rows()
        .chain(rhs.last_changed_rows())
        .cloned()
        .collect();
    changed.sort_unstable();
    changed.dedup();
    changed
}

/// One borrowed `(monomial, coefficient)` term of an output polynomial, as
/// partitioned by the sibling-sharing check.
type Term<'a> = (&'a Monomial, u64);

/// The evaluation morphism of Prop. 3.2, specialised to the factorized
/// strategy: evaluates a list of `N[X]` terms in `K` under the sample
/// assignment `xᵢ ↦ samples[choice[i]]`, with coefficients interpreted
/// through the (cached) canonical map `N → K`.  The sibling-sharing check
/// partitions each output polynomial into parent (base) and newest-variable
/// (delta) term lists once and evaluates them separately — the morphism
/// property makes the sum of the two parts equal the full evaluation.
fn eval_terms<K: Semiring>(
    terms: &[Term<'_>],
    samples: &[K],
    choice: &[usize],
    naturals: &mut Vec<K>,
) -> K {
    let mut total = K::zero();
    for &(monomial, coefficient) in terms {
        let mut term = from_natural_cached(naturals, coefficient);
        for &(var, exponent) in monomial.factors() {
            let value = &samples[choice[var.0 as usize]];
            for _ in 0..exponent {
                term = term.mul(value);
            }
        }
        total = total.add(&term);
    }
    total
}

/// The memoize-or-evaluate step shared by both sides of the containment
/// check: returns the evaluation of `terms` (a base-part term list) under
/// `choice`, replaying it from `memo` keyed by the base-restricted
/// assignment `key` when a parent cache is available.
fn memoized_base<K: Semiring>(
    memo: Option<&mut HashMap<MemoKey, K>>,
    key: &MemoKey,
    terms: &[Term<'_>],
    samples: &[K],
    choice: &[usize],
    naturals: &mut Vec<K>,
) -> K {
    let Some(memo) = memo else {
        return eval_terms(terms, samples, choice, naturals);
    };
    if let Some(cached) = memo.get(key) {
        return cached.clone();
    }
    let value = eval_terms(terms, samples, choice, naturals);
    if memo.len() < MAX_MEMO_ENTRIES {
        memo.insert(key.clone(), value.clone());
    }
    value
}

/// Advances `choice` one step through the assignments of the positions in
/// `vars` (least-significant first), wrapping each position at `s`.
/// Returns `false` — with every listed position reset to `0` — once all
/// assignments have been visited.
fn advance_odometer(choice: &mut [usize], vars: &[usize], s: usize) -> bool {
    for &pos in vars {
        choice[pos] += 1;
        if choice[pos] < s {
            return true;
        }
        choice[pos] = 0;
    }
    false
}

/// `K::from_natural(c)` memoized in a dense cache (coefficients repeat
/// heavily across the checked polynomials; the cache is capped so a
/// pathological coefficient cannot balloon it).
fn from_natural_cached<K: Semiring>(cache: &mut Vec<K>, c: u64) -> K {
    if c >= 1024 {
        return K::from_natural(c);
    }
    while cache.len() <= c as usize {
        let one = K::one();
        // invariant: the cache is seeded with 0 and 1, never empty
        let next = cache.last().expect("cache seeded with 0 and 1").add(&one);
        cache.push(next);
    }
    cache[c as usize].clone()
}

/// The schema the search enumerates instances over: that of the first
/// disjunct of `q1`, else of `q2` (`None` when both are empty unions).
fn first_schema<'q>(q1: &'q impl Disjuncts, q2: &'q impl Disjuncts) -> Option<&'q Schema> {
    let (cq, _) = q1.each_disjunct().chain(q2.each_disjunct()).next()?;
    Some(cq.schema())
}

/// The previous oracle: materialise each instance via [`for_each_instance`]
/// and evaluate both queries from scratch with the one-shot all-outputs
/// evaluators.
///
/// Retained as the reference implementation the differential test-suite
/// checks the prefix-memoized search against; it ignores
/// [`BruteForceConfig::max_instances`].
pub fn find_counterexample_naive<K: Semiring>(
    q1: &impl Disjuncts,
    q2: &impl Disjuncts,
    config: &BruteForceConfig,
) -> Option<CounterExample<K>> {
    let schema = first_schema(q1, q2)?.clone();
    let mut found: Option<CounterExample<K>> = None;
    for_each_instance(&schema, config, &mut |instance: &Instance<K>| {
        let lhs = all_outputs(q1, instance);
        // When the lhs support is empty `Q₂` need not be evaluated at all.
        if lhs.is_empty() {
            return false;
        }
        let rhs = all_outputs(q2, instance);
        for (t, l) in &lhs {
            let r = rhs.get(t).cloned().unwrap_or_else(K::zero);
            if !l.leq(&r) {
                found = Some(CounterExample {
                    instance: instance.clone(),
                    tuple: t.clone(),
                    lhs: l.clone(),
                    rhs: r,
                });
                return true;
            }
        }
        false
    });
    found
}

/// Enumerates every K-instance over the schema and the domain
/// `{0, …, domain_size−1}` with support ≤ `config.max_support` and non-zero
/// annotations drawn from `K::sample_elements()`, calling `visit` on each;
/// stops early (returning `true`) as soon as `visit` returns `true`.
///
/// The instance is built incrementally — the enumeration inserts and removes
/// one tuple per tree edge rather than reconstructing the instance per leaf —
/// and the support cap prunes during descent (see the module docs for the
/// exact instance count).  This enumerator materialises real [`Instance`]s
/// and is the naive baseline; the memoized counterexample search walks the
/// same instance set without materialising them.
pub fn for_each_instance<K: Semiring>(
    schema: &Schema,
    config: &BruteForceConfig,
    visit: &mut dyn FnMut(&Instance<K>) -> bool,
) -> bool {
    let all_tuples = slots_over(schema, config.domain_size);
    // full-samples: the naive enumerator is the differential *reference* —
    // it deliberately keeps the complete sample set (and no symmetry
    // quotient) so the decisive-subset walk is validated against it.
    let samples: Vec<K> = K::sample_elements()
        .into_iter()
        .filter(|s| !s.is_zero())
        .collect();
    let mut instance = Instance::new(schema.clone());
    enumerate_supports(
        &all_tuples,
        &samples,
        &mut instance,
        0,
        config.max_support,
        visit,
    )
}

/// The closed-form number of instances the enumerators visit for `n` tuple
/// slots, `s` non-zero samples and support cap `cap`:
/// `Σ_{k=0}^{min(n, cap)} C(n, k) · s^k`.
pub fn bounded_instance_count(n: usize, s: usize, cap: usize) -> u128 {
    let mut total: u128 = 0;
    for k in 0..=cap.min(n) {
        let mut binom: u128 = 1;
        for i in 0..k {
            binom = binom * (n - i) as u128 / (i + 1) as u128;
        }
        total += binom * (s as u128).pow(k as u32);
    }
    total
}

/// The largest domain size the symmetry quotient stays on for: beyond it the
/// `domain_size!`-sized permutation group makes the per-node canonicity
/// check (one sorted image per non-identity permutation) cost more than the
/// subtrees it prunes are worth, so the search falls back to the full walk.
/// Domains of the sizes the oracle can actually exhaust (2–4) sit far below
/// the cutoff.
pub const MAX_QUOTIENT_DOMAIN: usize = 5;

/// The closed-form number of instances a full *symmetry-quotiented* prefix
/// walk visits: `Σ_{k=0}^{min(n, cap)} orbits(k) · s^k`, where `orbits(k)`
/// counts the orbits of `k`-element slot sets under the domain-value
/// permutations.  By Burnside's lemma `orbits(k)` is the group average of
/// the number of `k`-subsets each permutation fixes setwise, and a
/// permutation with slot-cycle lengths `c₁, c₂, …` fixes exactly
/// `[xᵏ] Π_i (1 + x^{cᵢ})` of them (a fixed subset is a union of whole
/// cycles).  Both walk strategies visit exactly this count on a full
/// (irrefutable, unbudgeted) walk whenever the quotient is effective — same
/// `n` and `s` as [`bounded_instance_count`], which the quotiented count
/// never exceeds.
pub fn quotiented_instance_count(
    schema: &Schema,
    domain_size: usize,
    s: usize,
    cap: usize,
) -> u128 {
    let slots = slots_over(schema, domain_size);
    let n = slots.len();
    let cap = cap.min(n);
    let maps = slot_permutation_maps(schema, &slots, domain_size);
    let group = maps.len() as u128;
    // Σ_π (#k-subsets fixed setwise by π), accumulated per k.
    let mut fixed = vec![0u128; cap + 1];
    for map in &maps {
        // The cycle-index product Π (1 + x^len), truncated at `cap`.
        let mut poly = vec![0u128; cap + 1];
        poly[0] = 1;
        let mut seen = vec![false; n];
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut len = 0usize;
            let mut cur = start;
            while !seen[cur] {
                seen[cur] = true;
                cur = map[cur] as usize;
                len += 1;
            }
            for k in (len..=cap).rev() {
                poly[k] += poly[k - len];
            }
        }
        for (k, fix) in fixed.iter_mut().enumerate() {
            *fix += poly[k];
        }
    }
    let mut total = 0u128;
    for (k, fix) in fixed.iter().enumerate() {
        // Burnside: the group average of fixed-point counts is the (always
        // integral) orbit count.
        debug_assert_eq!(fix % group, 0, "Burnside sum not divisible by |G|");
        total += (fix / group) * (s as u128).pow(k as u32);
    }
    total
}

/// Whether the domain-permutation symmetry argument applies to a
/// conjunctive body: no atom may mention a concrete domain value, else
/// permuting the domain is no longer containment-invariant.  Today this
/// holds by construction — [`Atom::args`](annot_query::Atom) is typed
/// `Vec<QVar>` and CCQ disequalities relate variables only, so the AST
/// *cannot* express a constant — but the quotient's soundness rests on it,
/// so the search re-establishes it instead of silently assuming it.  The
/// argument scan is kept as a real traversal with the element type pinned:
/// an AST extension that adds constants to atom arguments fails to compile
/// here and must teach this guard about the new shape (the search then
/// falls back to the full, unquotiented walk for queries that use it).
fn cq_constant_free(cq: &Cq) -> bool {
    cq.atoms()
        .iter()
        .all(|atom| atom.args.iter().all(|_var: &annot_query::QVar| true))
}

/// All permutations of `{0, …, n−1}`, identity included, in no particular
/// order.
fn domain_permutations(n: usize) -> Vec<Vec<usize>> {
    fn extend(prefix: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Vec<usize>>) {
        if prefix.len() == used.len() {
            out.push(prefix.clone());
            return;
        }
        for value in 0..used.len() {
            if !used[value] {
                used[value] = true;
                prefix.push(value);
                extend(prefix, used, out);
                prefix.pop();
                used[value] = false;
            }
        }
    }
    let mut out = Vec::new();
    extend(&mut Vec::with_capacity(n), &mut vec![false; n], &mut out);
    out
}

/// One slot-relabelling table per permutation of the domain values
/// (identity included): `maps[p][slot]` is the index in `slots` of the
/// tuple obtained by applying the `p`-th permutation to every component of
/// `slots[slot]`'s tuple.  Permuting values maps each relation block onto
/// itself, so the table is a permutation of `0..slots.len()`.
fn slot_permutation_maps(
    schema: &Schema,
    slots: &[(RelId, IdTuple)],
    domain_size: usize,
) -> Vec<Vec<u32>> {
    // Interning is idempotent: this re-yields the ids `slots_over` built
    // the slot tuples from.
    let domain: Vec<ValueId> = (0..domain_size as i64)
        .map(|v| schema.intern_value(&DbValue::Int(v)))
        .collect();
    let digit: HashMap<ValueId, usize> = domain
        .iter()
        .enumerate()
        .map(|(index, &value)| (value, index))
        .collect();
    let index_of: HashMap<&(RelId, IdTuple), u32> = slots
        .iter()
        .enumerate()
        .map(|(index, slot)| (slot, index as u32))
        .collect();
    domain_permutations(domain_size)
        .into_iter()
        .map(|perm| {
            slots
                .iter()
                .map(|&(rel, ref tuple)| {
                    let image: IdTuple = tuple.iter().map(|v| domain[perm[digit[v]]]).collect();
                    index_of[&(rel, image)]
                })
                .collect()
        })
        .collect()
}

/// Every tuple slot of the schema over the domain `{0, …, domain_size−1}`,
/// in relation-then-lexicographic order (the slot order of the prefix tree).
/// The domain values are interned into the schema's [`Domain`] once, here —
/// every later push, probe and comparison is on `u32` ids.
///
/// [`Domain`]: annot_query::Domain
fn slots_over(schema: &Schema, domain_size: usize) -> Vec<(RelId, IdTuple)> {
    let domain: Vec<ValueId> = (0..domain_size as i64)
        .map(|v| schema.intern_value(&DbValue::Int(v)))
        .collect();
    schema
        .rel_ids()
        .flat_map(|rel| {
            tuples_over(&domain, schema.arity(rel))
                .into_iter()
                .map(move |t| (rel, t))
        })
        .collect()
}

fn tuples_over(domain: &[ValueId], arity: usize) -> Vec<IdTuple> {
    let mut result = vec![Vec::new()];
    for _ in 0..arity {
        let mut next = Vec::with_capacity(result.len() * domain.len());
        for partial in &result {
            for &v in domain {
                let mut t = partial.clone();
                t.push(v);
                next.push(t);
            }
        }
        result = next;
    }
    result
}

/// Support-bounded enumeration: at each tuple slot, either leave the slot
/// out of the support, or — while the remaining support budget is positive —
/// annotate it with each non-zero sample.  Once the budget reaches zero the
/// remaining slots are forced to zero, so oversized assignments are never
/// descended into (let alone materialised).
fn enumerate_supports<K: Semiring>(
    all_tuples: &[(RelId, IdTuple)],
    samples: &[K],
    instance: &mut Instance<K>,
    index: usize,
    remaining_support: usize,
    visit: &mut dyn FnMut(&Instance<K>) -> bool,
) -> bool {
    if index == all_tuples.len() {
        return visit(instance);
    }
    let (rel, ref row) = all_tuples[index];
    // Branch 1: the slot stays out of the support.
    if enumerate_supports(
        all_tuples,
        samples,
        instance,
        index + 1,
        remaining_support,
        visit,
    ) {
        return true;
    }
    // Branch 2: annotate the slot — only while the budget allows it.
    if remaining_support > 0 {
        for sample in samples {
            instance.insert_row(rel, row, sample.clone());
            if enumerate_supports(
                all_tuples,
                samples,
                instance,
                index + 1,
                remaining_support - 1,
                visit,
            ) {
                return true;
            }
        }
        // Tombstones the row in place (the flat storage revives it on the
        // next sample without rehashing).
        instance.insert_row(rel, row, K::zero());
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_query::eval::eval;
    use annot_query::{parser, Ucq};
    use annot_semiring::{Bool, Natural, Tropical};

    fn schema() -> Schema {
        Schema::with_relations([("R", 2)])
    }

    #[test]
    fn finds_bag_counterexample_for_example_4_6() {
        // Q1 = R(u,v),R(u,w) is NOT N-contained in Q2 = R(u,v),R(u,v):
        // an instance with two distinct R-tuples sharing the first column
        // gives Q1 ↦ 4 (via cross terms) vs Q2 ↦ 2.
        let mut s = schema();
        let q1 = parser::parse_cq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_cq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let config = BruteForceConfig {
            domain_size: 2,
            max_support: 4,
            ..Default::default()
        };
        let counterexample = find_counterexample::<Natural>(&q1, &q2, &config);
        assert!(counterexample.is_some());
        let ce = counterexample.unwrap();
        assert!(!ce.lhs.leq(&ce.rhs));
        // The reported annotations match a from-scratch evaluation of the
        // reported instance (the memoized state and the witness agree), so
        // replaying the witness refutes containment too.
        let lhs = eval(&q1, &ce.instance, &ce.tuple);
        let rhs = eval(&q2, &ce.instance, &ce.tuple);
        assert!(!lhs.leq(&rhs));
        assert_eq!(ce.lhs, lhs);
        assert_eq!(ce.rhs, rhs);
        // The same pair over T⁺ has no counterexample (Ex. 4.6: containment
        // holds over the tropical semiring).
        assert!(find_counterexample::<Tropical>(&q1, &q2, &config).is_none());
        // Over B (set semantics) the two queries are equivalent.
        assert!(find_counterexample::<Bool>(&q1, &q2, &config).is_none());
        assert!(find_counterexample::<Bool>(&q2, &q1, &config).is_none());
    }

    #[test]
    fn respects_containment_that_actually_holds() {
        let mut s = schema();
        let q1 = parser::parse_cq(&mut s, "Q() :- R(u, v), R(v, w)").unwrap();
        let q2 = parser::parse_cq(&mut s, "Q() :- R(a, b)").unwrap();
        let config = BruteForceConfig {
            domain_size: 2,
            max_support: 3,
            ..Default::default()
        };
        // Under set semantics the path is contained in the edge.
        assert!(find_counterexample::<Bool>(&q1, &q2, &config).is_none());
        // Under bag semantics it is not (the counterexample requires
        // path > edge, e.g. a 2-cycle squared): the brute force finds one.
        assert!(find_counterexample::<Natural>(&q1, &q2, &config).is_some());
    }

    #[test]
    fn empty_queries_are_least() {
        // Audited for the bounded default: the counterexample to
        // `Q ⊆ ∅` is a single supported tuple, well within the default
        // `max_support = 4` (the old default was unbounded).
        let mut s = schema();
        let q = parser::parse_ucq(&mut s, "Q() :- R(u, v)").unwrap();
        let config = BruteForceConfig::default();
        assert_eq!(config.max_support, 4);
        assert!(find_counterexample::<Natural>(&Ucq::empty(), &q, &config).is_none());
        assert!(find_counterexample::<Natural>(&q, &Ucq::empty(), &config).is_some());
        assert!(find_counterexample::<Natural>(&Ucq::empty(), &Ucq::empty(), &config).is_none());
    }

    #[test]
    fn default_config_is_bounded_and_domain_derived_caps_fit() {
        assert_eq!(BruteForceConfig::default().domain_size, 2);
        assert_eq!(BruteForceConfig::default().max_support, 4);
        assert_eq!(BruteForceConfig::default().max_instances, None);
        assert!(BruteForceConfig::default().symmetry_quotient);
        assert_eq!(BruteForceConfig::with_domain_size(3).max_support, 9);
    }

    /// The headline regression test: the enumeration visits exactly the
    /// closed-form support-bounded count `Σ_{k≤cap} C(n,k)·s^k` of instances
    /// — not `(s+1)^n` with oversized leaves filtered afterwards.
    #[test]
    fn support_cap_prunes_the_enumeration_tree() {
        let s = schema();
        let nonzero_samples = Natural::sample_elements()
            .into_iter()
            .filter(|k| !k.is_zero())
            .count();
        let n = 4; // 2² tuples of the binary relation over a 2-value domain
        for cap in 0..=5usize {
            let config = BruteForceConfig {
                domain_size: 2,
                max_support: cap,
                ..Default::default()
            };
            let mut visited: u128 = 0;
            let mut max_seen_support = 0usize;
            for_each_instance::<Natural>(&s, &config, &mut |instance| {
                visited += 1;
                max_seen_support = max_seen_support.max(instance.support_size());
                false
            });
            assert_eq!(
                visited,
                bounded_instance_count(n, nonzero_samples, cap),
                "cap {cap}: wrong instance count"
            );
            assert!(max_seen_support <= cap.min(n));
            // Strictly fewer visits than the unpruned (s+1)^n whenever the
            // cap actually bites.
            if cap < n {
                let unpruned = ((nonzero_samples + 1) as u128).pow(n as u32);
                assert!(visited < unpruned, "cap {cap} did not prune");
            }
        }
    }

    /// The prefix-tree search walks the support-bounded instance set
    /// quotiented by value symmetry: on a pair with no counterexample
    /// (`Q ⊆ Q` always holds) a full walk visits exactly the quotiented
    /// closed form — and exactly the unquotiented closed form with the
    /// quotient knob off.
    #[test]
    fn prefix_tree_walks_the_closed_form_instance_count() {
        let mut s = schema();
        let q = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(v, w)").unwrap();
        let nonzero_samples = Natural::decisive_samples()
            .into_iter()
            .filter(|k| !k.is_zero())
            .count();
        for cap in 0..=5usize {
            let quotiented = quotiented_instance_count(&s, 2, nonzero_samples, cap) as u64;
            let full = bounded_instance_count(4, nonzero_samples, cap) as u64;
            assert!(quotiented <= full, "quotient must not add instances");
            for (symmetry_quotient, expected) in [(true, quotiented), (false, full)] {
                let config = BruteForceConfig {
                    domain_size: 2,
                    max_support: cap,
                    symmetry_quotient,
                    ..Default::default()
                };
                let outcome = try_find_counterexample::<Natural>(&q, &q, &config).unwrap();
                assert!(outcome.counterexample.is_none(), "Q ⊆ Q must hold");
                assert_eq!(
                    outcome.stats.instances_visited, expected,
                    "cap {cap}, quotient {symmetry_quotient}: wrong instance count"
                );
            }
        }
    }

    /// `quotiented_instance_count`'s Burnside sum agrees with a direct orbit
    /// enumeration: list every support set as a bitmask, act on it with the
    /// slot permutation tables, and count the lexicographically least
    /// representatives — the exact sets [`SearchContext::canonical_support`]
    /// keeps.  Pins the hand-computed domain-2 orbit profile as well.
    #[test]
    fn quotiented_count_matches_independent_orbit_enumeration() {
        fn orbit_profile(schema: &Schema, domain_size: usize, cap: usize) -> Vec<u128> {
            let slots = slots_over(schema, domain_size);
            let maps = slot_permutation_maps(schema, &slots, domain_size);
            let n = slots.len();
            assert!(n < 32, "bitmask enumeration needs n < 32");
            let cap = cap.min(n);
            let mut orbits = vec![0u128; cap + 1];
            for mask in 0u32..(1u32 << n) {
                let k = mask.count_ones() as usize;
                if k > cap {
                    continue;
                }
                let support: Vec<u32> = (0..n as u32).filter(|i| mask & (1 << i) != 0).collect();
                let canonical = maps.iter().all(|map| {
                    let mut image: Vec<u32> =
                        support.iter().map(|&slot| map[slot as usize]).collect();
                    image.sort_unstable();
                    image.as_slice() >= support.as_slice()
                });
                if canonical {
                    orbits[k] += 1;
                }
            }
            orbits
        }

        // Hand-computed pin: domain 2, one binary relation, 4 slots.  The
        // only non-identity permutation swaps slots 0↔3 and 1↔2 (two
        // 2-cycles), so Burnside gives orbits(k) = (C(4,k) + [k even]·fix)/2
        // = 1, 2, 4, 2, 1 for k = 0..4.
        let binary = Schema::with_relations([("R", 2)]);
        assert_eq!(orbit_profile(&binary, 2, 4), vec![1, 2, 4, 2, 1]);

        let mixed = Schema::with_relations([("R", 2), ("S", 1)]);
        for (schema, domain_size) in [(&binary, 2), (&binary, 3), (&mixed, 2)] {
            let n = slots_over(schema, domain_size).len();
            for cap in 0..=n {
                let orbits = orbit_profile(schema, domain_size, cap);
                for samples in [1usize, 2, 5] {
                    let expected: u128 = orbits
                        .iter()
                        .enumerate()
                        .map(|(k, &count)| count * (samples as u128).pow(k as u32))
                        .sum();
                    assert_eq!(
                        quotiented_instance_count(schema, domain_size, samples, cap),
                        expected,
                        "domain {domain_size}, cap {cap}, samples {samples}"
                    );
                }
            }
        }
    }

    /// Early termination propagates through the incremental enumeration.
    #[test]
    fn enumeration_stops_on_first_accepted_instance() {
        let s = schema();
        let config = BruteForceConfig::default();
        let mut visited = 0usize;
        let stopped = for_each_instance::<Bool>(&s, &config, &mut |instance| {
            visited += 1;
            instance.support_size() == 1
        });
        assert!(stopped);
        // The empty instance is visited first, then the first singleton.
        assert_eq!(visited, 2);
    }

    /// The memoized search stops early once a counterexample is found: the
    /// visited count stays below the full walk.
    #[test]
    fn memoized_search_stops_early_on_refutation() {
        let mut s = schema();
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v)").unwrap();
        let config = BruteForceConfig::default();
        let outcome = try_find_counterexample::<Natural>(&q1, &Ucq::empty(), &config).unwrap();
        assert!(outcome.counterexample.is_some());
        let nonzero = Natural::decisive_samples()
            .into_iter()
            .filter(|k| !k.is_zero())
            .count();
        assert!(
            outcome.stats.instances_visited < quotiented_instance_count(&s, 2, nonzero, 4) as u64
        );
    }

    /// The memoized search and the retained naive oracle agree on the
    /// module's worked examples, in both directions.
    #[test]
    fn memoized_and_naive_oracles_agree() {
        let mut s = schema();
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let config = BruteForceConfig::default();
        for (a, b) in [(&q1, &q2), (&q2, &q1)] {
            assert_eq!(
                find_counterexample::<Natural>(a, b, &config).is_some(),
                find_counterexample_naive::<Natural>(a, b, &config).is_some()
            );
            assert_eq!(
                find_counterexample::<Bool>(a, b, &config).is_some(),
                find_counterexample_naive::<Bool>(a, b, &config).is_some()
            );
        }
    }

    /// `max_instances` turns an over-budget search into a clear error.
    #[test]
    fn instance_budget_fails_with_a_clear_error() {
        let mut s = schema();
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(v, w)").unwrap();
        let config = BruteForceConfig::default().with_max_instances(Some(10));
        let err = try_find_counterexample::<Natural>(&q1, &q1, &config).unwrap_err();
        assert_eq!(
            err,
            BruteForceError::InstanceBudgetExceeded { max_instances: 10 }
        );
        assert!(err.to_string().contains("max_instances = 10"));
        // A budget exactly as large as the quotiented walk does not trip.
        let nonzero = Natural::decisive_samples()
            .into_iter()
            .filter(|k| !k.is_zero())
            .count();
        let full = quotiented_instance_count(&s, 2, nonzero, 4) as u64;
        let config = BruteForceConfig::default().with_max_instances(Some(full));
        assert!(try_find_counterexample::<Natural>(&q1, &q1, &config).is_ok());
        // A search that refutes within the budget succeeds even though the
        // full walk would not fit.
        let config = BruteForceConfig::default().with_max_instances(Some(10));
        let outcome = try_find_counterexample::<Natural>(&q1, &Ucq::empty(), &config).unwrap();
        assert!(outcome.counterexample.is_some());
    }

    #[test]
    #[should_panic(expected = "exceeded its instance budget")]
    fn panicking_wrapper_reports_the_budget_clearly() {
        let mut s = schema();
        let q1 = parser::parse_cq(&mut s, "Q() :- R(u, v), R(v, w)").unwrap();
        let config = BruteForceConfig::default().with_max_instances(Some(3));
        let _ = find_counterexample::<Natural>(&q1, &q1, &config);
    }

    /// Queries built over *independent* (structurally equal, non-domain-
    /// sharing) schemas are valid oracle input: the walks adopt the
    /// search's own domain, so the walk neither panics (debug id-range
    /// asserts) nor mixes interners.
    #[test]
    fn independent_schemas_are_valid_oracle_input() {
        let mut s1 = schema();
        let mut s2 = schema();
        let q1 = parser::parse_ucq(&mut s1, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s2, "Q() :- R(u, v), R(u, v)").unwrap();
        let config = BruteForceConfig::default();
        // N refutes Q1 ⊆ Q2 (Ex. 4.6), B holds in both directions.
        assert!(find_counterexample::<Natural>(&q1, &q2, &config).is_some());
        assert!(find_counterexample::<Bool>(&q1, &q2, &config).is_none());
        assert!(find_counterexample::<Bool>(&q2, &q1, &config).is_none());
    }

    /// The packed memo fingerprint is injective over its stated bounds and
    /// falls back to the explicit key beyond them.
    #[test]
    fn memo_keys_pack_within_bounds_and_widen_beyond() {
        // 16 base variables over 16 samples: the widest packable shape.
        let base_vars: Vec<usize> = (0..16).collect();
        let lo = vec![0usize; 16];
        let mut hi = vec![15usize; 16];
        assert_eq!(memo_key(&base_vars, &lo, 16), MemoKey::Packed(0));
        assert_eq!(memo_key(&base_vars, &hi, 16), MemoKey::Packed(u64::MAX));
        // Flipping any single position changes the fingerprint.
        let full = memo_key(&base_vars, &hi, 16);
        for position in 0..16 {
            hi[position] = 14;
            assert_ne!(memo_key(&base_vars, &hi, 16), full, "position {position}");
            hi[position] = 15;
        }
        // The key reads `choice` *through* `base_vars`: non-base positions
        // do not contribute.
        let sparse_vars = [1usize, 3];
        let choice_a = [9usize, 2, 9, 5];
        let choice_b = [0usize, 2, 0, 5];
        assert_eq!(
            memo_key(&sparse_vars, &choice_a, 16),
            memo_key(&sparse_vars, &choice_b, 16)
        );
        // 17 samples or 17 base variables exceed 4 bits/slot: explicit keys.
        let wide_vars: Vec<usize> = (0..17).collect();
        let wide_choice = vec![3usize; 17];
        assert_eq!(
            memo_key(&wide_vars, &wide_choice, 16),
            MemoKey::Wide(vec![3u32; 17])
        );
        assert_eq!(
            memo_key(&sparse_vars, &choice_a, 17),
            MemoKey::Wide(vec![2, 5])
        );
    }
}
