//! Canonical codes for queries, exact up to isomorphism.
//!
//! Every containment criterion in the paper is invariant under *isomorphism*
//! of queries — a bijective renaming of variables that maps the free tuple
//! positionally and the atom multiset onto itself.  A semantic cache for
//! containment decisions therefore wants a key that is equal exactly for
//! isomorphic queries: this module computes one as a canonical
//! serialization ([`cq_code`] / [`ucq_code`]) plus a 64-bit fingerprint
//! ([`cq_key`] / [`ucq_key`]).
//!
//! The code comes from individualization–refinement with automorphism
//! pruning (McKay & Piperno, *Practical Graph Isomorphism II*, J. Symb.
//! Comput. 2014), re-derived here for queries.  Colours are refined by the
//! exact multiset of `(atom class, argument position)` occurrences, an
//! atom's class being its relation and its arguments' colours, and the free
//! tuple counting as one more atom; while a cell holds several variables,
//! each variable of the first such cell in turn is individualized and the
//! colours refined again; the code is the least serialization over the
//! discrete partitions this reaches.  Two leaves that serialize equally
//! differ by an automorphism, which prunes every child in the orbit of an
//! explored sibling.
//!
//! Some automorphisms are known before any leaf.  Two non-free variables
//! are *twins* when swapping them alone maps the atom multiset onto itself;
//! twinship is an equivalence, and every permutation of a twin class is an
//! automorphism.  After the root refinement the search finds the classes:
//! candidates are the variables of one cell whose incident atoms hash
//! alike, and each is confirmed by an exact swap check on those atoms.  It
//! then never explores a variable whose twin it explored at the same node,
//! and a first cell of twins is individualized in one step, its members
//! taking consecutive positions in variable order, with no refinement, when
//! no atom holds two of the class's occurrences beside another variable:
//! individualizing one such twin splits no other cell, so that is the node
//! the one-at-a-time route reaches, and the code is the same.  A k-leaf
//! star or a k-clique takes one leaf, not k or k!; leaves without twins,
//! such as those of disjoint directed cycles, still take one search each.
//!
//! Relation identity is spelled exactly: each member code carries the
//! sorted `(name, arity)` table of the relations it uses, and atoms refer to
//! ranks in it.  Equal codes therefore mean isomorphic queries by
//! construction, whatever schemas the queries were parsed into.
//!
//! Each call borrows its thread's search and puts it back, so once warmed
//! up a call allocates only its output.  A variable's occurrences never
//! change, so its signature words sit in one flat buffer at fixed offsets
//! and are rewritten in place each round; the atom order, class, partition
//! and colour buffers are reused across rounds, search nodes, the members
//! of a UCQ and the queries of a thread.

use crate::{Cq, QVar, QueryView, RelId, Ucq};
use std::cell::Cell;
use std::cmp::Ordering;

/// First word of every member code (the layout [`cq_code`] documents).
const CODE_TAG: u64 = 2;

/// The starting state and the multiplier of [`hash64`]'s word steps.
pub(crate) const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const HASH_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// The atom of a free-tuple occurrence in [`Search::incident`].
const HEAD: u32 = u32::MAX;

/// How many twin classes of its run a candidate is checked against.
const SWAP_CHECKS: usize = 3;

thread_local! {
    /// The search every code on this thread runs in.
    static SEARCH: Cell<Search> = Cell::new(Search::default());
}

/// Runs `f` on this thread's search, taken out of its cell and put back.
fn with_search<T>(f: impl FnOnce(&mut Search) -> T) -> T {
    let mut search = SEARCH.with(Cell::take);
    let out = f(&mut search);
    SEARCH.with(|cell| cell.set(search));
    out
}

/// A fingerprint of a word sequence, one multiply and rotate per word and
/// the SplitMix64 finaliser at the end — the fingerprint used throughout
/// this module.  Several slices hash as one by chaining them, without
/// copying them together.
pub fn hash64(words: impl IntoIterator<Item = u64>) -> u64 {
    mix(words.into_iter().fold(HASH_SEED, step))
}

/// One word step of [`hash64`].
#[inline]
pub(crate) fn step(h: u64, w: u64) -> u64 {
    (h.rotate_left(5) ^ w).wrapping_mul(HASH_MUL)
}

/// The SplitMix64 finaliser: a bijective mix of the bits of `x`.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The canonical code of a CQ: a serialization equal exactly for isomorphic
/// CQs.
///
/// Layout: `[2, num_relations, relations…, num_vars, num_free, free
/// labels…, num_atoms, atoms…]`.  Each relation is `[name length in bytes,
/// the name eight bytes to a word…, arity]`, in `(name, arity)` order; each
/// atom is `[relation rank, argument labels…]`, atoms sorted.
pub fn cq_code(q: &Cq) -> Vec<u64> {
    let mut code = Vec::new();
    with_search(|search| search.code(q, &mut code));
    code
}

/// The canonical code of a UCQ: member codes, sorted, length-prefixed —
/// `[members, (len, member code…)…]`.  Equal exactly for UCQs whose
/// disjunct multisets match up to isomorphism.
pub fn ucq_code(q: &Ucq) -> Vec<u64> {
    with_search(|search| search.ucq_code(q))
}

/// 64-bit fingerprint of [`cq_code`].
pub fn cq_key(q: &Cq) -> u64 {
    hash64(cq_code(q))
}

/// 64-bit fingerprint of [`ucq_code`].
pub fn ucq_key(q: &Ucq) -> u64 {
    hash64(ucq_code(q))
}

/// Whether `q` has an automorphism that moves some variable: a renaming of
/// its variables onto themselves that fixes the head positionally and maps
/// the atom multiset onto itself.  Two twins answer at once.  Otherwise the
/// coding search finds one exactly when one exists: it prunes only with
/// automorphisms it has found, so without one it reaches every leaf, the
/// least leaf's image under an automorphism among them, and that image
/// serializes like the least leaf.  On a member of a complete description,
/// whose variables all differ, this is the non-trivial automorphism that
/// the covering criterion `⇉₂` asks about (Sec. 5.4).
pub fn has_nontrivial_automorphism<Q: QueryView>(q: &Q) -> bool {
    with_search(|search| search.automorphic(q))
}

/// The least discrete partition the search has reached.
#[derive(Default)]
struct Best {
    /// Whether a leaf was reached yet.
    found: bool,
    /// The variables individualized on the way, in order.
    path: Vec<u32>,
    /// `label[v]`: the number variable `v` gets at this leaf.
    label: Vec<u32>,
    /// The label-dependent part of the code: free labels, then atoms.
    body: Vec<u64>,
}

/// The individualization–refinement search, with the buffers it reuses
/// from one query to the next.  A variable's colour is the position where
/// its cell starts in the ordered partition; refinement splits cells in
/// place, so a variable alone in its cell keeps its position, which is its
/// label at every leaf below.
#[derive(Default)]
pub(crate) struct Search {
    /// The query's relations in `(name, arity)` order.
    relations: Vec<RelId>,
    /// Per atom: the rank of its relation in `relations`.
    rank: Vec<u32>,
    /// Where each variable's words start in `signature`; `n + 1` entries.
    offsets: Vec<u32>,
    /// Per variable, at its offset: its sorted `(atom class << 32) |
    /// position` words, rewritten by every refinement round.
    signature: Vec<u64>,
    /// Per occurrence, at its variable's offset: the atom holding it, the
    /// free tuple's as [`HEAD`] after the atoms'.
    incident: Vec<u32>,
    /// Atom indices sorted by relation rank and argument colours.
    atoms: Vec<u32>,
    /// Per atom: the position in `atoms` where its run of equals starts.
    class: Vec<u32>,
    /// Variables sorted by colour and signature.
    order: Vec<u32>,
    /// A round's new colours, and the signature fill cursors before that.
    next: Vec<u32>,
    /// The colours of every node on the current path, `n` per depth.
    colours: Vec<u32>,
    /// Per variable: a hash of its incident atoms, which twins share.
    hashes: Vec<u64>,
    /// Per variable: the least variable of its twin class.
    twin: Vec<u32>,
    /// Per twin class, at its least variable: whether an atom holds two of
    /// its occurrences beside a variable outside it.
    open: Vec<bool>,
    /// Scratch for swap checks: the atoms at each variable's occurrences.
    at_u: Vec<u32>,
    at_v: Vec<u32>,
    /// The variables individualized on the current path.
    path: Vec<u32>,
    /// The members of each open node's target cell, node after node.
    members: Vec<u32>,
    /// The members each open node has explored, node after node.
    explored: Vec<u32>,
    /// Scratch for orbit closures.
    orbit: Vec<u32>,
    /// Automorphisms found so far, `n` images each.
    automorphisms: Vec<u32>,
    /// Scratch: the body of the leaf being recorded.
    body: Vec<u64>,
    /// Scratch: the variable holding each label at the leaf being recorded.
    by_label: Vec<u32>,
    /// Scratch for [`ucq_code`]: the member codes, and each one's span.
    codes: Vec<u64>,
    spans: Vec<(usize, usize)>,
    best: Best,
    /// Leaves reached: the work the pruning bounds.
    pub(crate) leaves: u64,
}

impl Search {
    /// Runs the search over `q` and appends its code to `out`.
    pub(crate) fn code<Q: QueryView>(&mut self, q: &Q, out: &mut Vec<u64>) {
        let (n, free) = (q.num_vars(), q.head());
        self.prepare(q);
        let schema = q.schema();
        let header: usize = (self.relations.iter())
            .map(|&r| 2 + schema.name(r).len().div_ceil(8))
            .sum();
        // The signature holds one word per argument and per free variable.
        out.reserve(2 + header + 3 + q.num_atoms() + self.signature.len());
        out.extend([CODE_TAG, self.relations.len() as u64]);
        for &r in &self.relations {
            let name = schema.name(r).as_bytes();
            out.push(name.len() as u64);
            out.extend(
                name.chunks(8)
                    .map(|word| word.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b))),
            );
            out.push(schema.arity(r) as u64);
        }

        let cells = self.refine(q, 0, usize::from(n > 0));
        self.find_twins(q, cells);
        self.descend(q, 0, cells);

        let (labels, atoms) = self.best.body.split_at(free.len());
        out.extend([n as u64, free.len() as u64]);
        out.extend_from_slice(labels);
        out.push(q.num_atoms() as u64);
        out.extend_from_slice(atoms);
    }

    /// The code of the UCQ `q`, as [`ucq_code`] lays it out.
    fn ucq_code(&mut self, q: &Ucq) -> Vec<u64> {
        let mut codes = std::mem::take(&mut self.codes);
        let mut spans = std::mem::take(&mut self.spans);
        codes.clear();
        spans.clear();
        for member in q.disjuncts() {
            let start = codes.len();
            self.code(member, &mut codes);
            spans.push((start, codes.len()));
        }
        spans.sort_unstable_by(|&(a, b), &(c, d)| codes[a..b].cmp(&codes[c..d]));
        let mut out = Vec::with_capacity(1 + spans.len() + codes.len());
        out.push(q.len() as u64);
        for &(start, end) in &spans {
            out.push((end - start) as u64);
            out.extend_from_slice(&codes[start..end]);
        }
        (self.codes, self.spans) = (codes, spans);
        out
    }

    /// Whether `q` has an automorphism that moves some variable (see
    /// [`has_nontrivial_automorphism`]).
    fn automorphic<Q: QueryView>(&mut self, q: &Q) -> bool {
        self.prepare(q);
        let cells = self.refine(q, 0, usize::from(q.num_vars() > 0));
        if self.find_twins(q, cells) {
            return true;
        }
        self.descend(q, 0, cells);
        !self.automorphisms.is_empty()
    }

    /// Resets the buffers for `q`: its relation table, the fixed offsets of
    /// its variables' signatures, and the uniform root colouring.
    fn prepare<Q: QueryView>(&mut self, q: &Q) {
        let (n, m) = (q.num_vars(), q.num_atoms());
        let schema = q.schema();
        let spelled = |r: RelId| (schema.name(r), schema.arity(r));
        self.relations.clear();
        self.relations.extend((0..m).map(|a| q.relation(a)));
        self.relations
            .sort_unstable_by(|&a, &b| spelled(a).cmp(&spelled(b)));
        self.relations.dedup();
        let relations = &self.relations;
        self.rank.clear();
        self.rank.extend((0..m).map(|a| {
            let r = relations.binary_search_by(|&r| spelled(r).cmp(&spelled(q.relation(a))));
            r.unwrap_or_default() as u32
        }));

        // The free tuple counts as one more atom, so its variables occur
        // in it too.
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for v in (0..m).flat_map(|a| q.args(a)).chain(q.head()) {
            self.offsets[v.0 as usize + 1] += 1;
        }
        for v in 0..n {
            self.offsets[v + 1] += self.offsets[v];
        }
        self.signature.clear();
        self.signature.resize(self.offsets[n] as usize, 0);
        self.class.clear();
        self.class.resize(m, 0);
        self.colours.clear();
        self.colours.resize(n, 0);
        self.automorphisms.clear();
        self.best.found = false;
    }

    /// Refines the colours at depth `level`, holding `cells` cells, until
    /// no cell splits, and returns the number of cells.
    fn refine<Q: QueryView>(&mut self, q: &Q, level: usize, mut cells: usize) -> usize {
        let n = q.num_vars();
        let Search {
            rank,
            offsets,
            signature,
            atoms,
            class,
            order,
            next,
            colours,
            ..
        } = self;
        let colour = &mut colours[level * n..(level + 1) * n];
        while cells < n {
            sort_atoms(q, rank, colour, atoms);
            runs(
                atoms,
                |a, b| compare_atoms(q, rank, colour, a, b).is_eq(),
                class,
            );
            // Write each occurrence's word at its variable's cursor, then
            // sort every variable's words.  The free tuple is an atom of a
            // class of its own.
            next.clear();
            next.extend_from_slice(&offsets[..n]);
            let head = (u32::MAX, q.head());
            let body = (0..q.num_atoms()).map(|a| (class[a], q.args(a)));
            for (class, args) in body.chain([head]) {
                for (pos, v) in args.iter().enumerate() {
                    let cursor = &mut next[v.0 as usize];
                    signature[*cursor as usize] = (u64::from(class) << 32) | pos as u64;
                    *cursor += 1;
                }
            }
            for v in 0..n {
                signature[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
            }
            // Split every cell by signature, in place.
            let key = |v: usize| {
                let words = &signature[offsets[v] as usize..offsets[v + 1] as usize];
                (colour[v], words)
            };
            order.clear();
            order.extend(0..n as u32);
            order.sort_unstable_by(|&a, &b| key(a as usize).cmp(&key(b as usize)));
            let split = runs(order, |a, b| key(a) == key(b), next);
            colour.copy_from_slice(next);
            if split == cells {
                break;
            }
            cells = split;
        }
        cells
    }

    /// Finds the twin classes once the root refinement has left `cells`
    /// cells, filling `twin` and `open`, and returns whether some class has
    /// two members.
    ///
    /// Twins share a root cell, so the candidates are the non-free members
    /// of cells with several variables.  Each gets a hash of its incident
    /// atoms, seen from it with the other members of its cell blurred into
    /// one symbol, which twins share; candidates of equal colour and hash
    /// form a run, and each is swap-checked against at most
    /// [`SWAP_CHECKS`] of its run's classes, the latest first.  A candidate
    /// that matches none starts a class, which only loses pruning.
    fn find_twins<Q: QueryView>(&mut self, q: &Q, cells: usize) -> bool {
        let n = q.num_vars();
        let Search {
            rank,
            offsets,
            incident,
            order,
            next,
            colours,
            hashes,
            twin,
            open,
            ..
        } = self;
        twin.clear();
        twin.extend(0..n as u32);
        open.clear();
        open.resize(n, false);
        if cells == n {
            return false;
        }
        // Each occurrence's atom at its variable's cursor; the free tuple's
        // occurrences come last and stay `HEAD`.
        next.clear();
        next.extend_from_slice(&offsets[..n]);
        incident.clear();
        incident.resize(offsets[n] as usize, HEAD);
        for a in 0..q.num_atoms() {
            for v in q.args(a) {
                let cursor = &mut next[v.0 as usize];
                incident[*cursor as usize] = a as u32;
                *cursor += 1;
            }
        }
        let colour = &colours[..n];
        next.clear();
        next.resize(n, 0);
        for &c in colour {
            next[c as usize] += 1;
        }
        let span = |v: usize| offsets[v] as usize..offsets[v + 1] as usize;
        let free = |v: usize| span(v).next_back().is_some_and(|o| incident[o] == HEAD);
        let candidate = |v: &usize| next[colour[*v] as usize] > 1 && !free(*v);
        order.clear();
        order.extend((0..n).filter(candidate).map(|v| v as u32));
        hashes.clear();
        hashes.resize(n, 0);
        for &v in order.iter() {
            let blurred = |x: &QVar| match x.0 {
                x if x == v => 0,
                x if colour[x as usize] == colour[v as usize] => 1,
                x => u64::from(x) + 2,
            };
            let atoms = incident[span(v as usize)].iter();
            hashes[v as usize] = atoms.fold(0, |sum: u64, &a| {
                let args = q.args(a as usize).iter();
                let seen = args.fold(u64::from(rank[a as usize]), |h, x| step(h, blurred(x)));
                sum.wrapping_add(mix(seen))
            });
        }
        order.sort_unstable_by_key(|&v| (colour[v as usize], hashes[v as usize], v));

        let mut twinned = false;
        let mut start = 0;
        while start < self.order.len() {
            let key = |v: u32| (self.colours[v as usize], self.hashes[v as usize]);
            let run = key(self.order[start]);
            let end = start + self.order[start..].partition_point(|&v| key(v) == run);
            // The least members of the run's latest classes, latest first.
            let mut classes = [0; SWAP_CHECKS];
            let mut found = 0;
            for i in start..end {
                let v = self.order[i];
                let class = classes[..found]
                    .iter()
                    .copied()
                    .find(|&t| self.swaps(q, t, v));
                if let Some(t) = class {
                    self.twin[v as usize] = t;
                    twinned = true;
                } else {
                    classes.copy_within(..SWAP_CHECKS - 1, 1);
                    classes[0] = v;
                    found = (found + 1).min(SWAP_CHECKS);
                }
            }
            start = end;
        }
        if twinned {
            let (twin, open) = (&self.twin, &mut self.open);
            for a in 0..q.num_atoms() {
                let args = q.args(a);
                for (i, x) in args.iter().enumerate() {
                    let t = twin[x.0 as usize];
                    let of_t = |y: &QVar| twin[y.0 as usize] == t;
                    if args[i + 1..].iter().any(of_t) && !args.iter().all(of_t) {
                        open[t as usize] = true;
                    }
                }
            }
        }
        twinned
    }

    /// Whether swapping the non-free variables `u` and `v` maps the atom
    /// multiset of `q` onto itself.  It does exactly when the atoms at `u`'s
    /// occurrences, seen from `u`, match those at `v`'s seen from `v`, each
    /// seeing itself and the other as two fixed symbols: the swap then maps
    /// the one multiset onto the other and fixes every other atom.  The
    /// occurrence order often pairs them already; otherwise both are sorted.
    fn swaps<Q: QueryView>(&mut self, q: &Q, u: u32, v: u32) -> bool {
        let Search {
            rank,
            offsets,
            incident,
            at_u,
            at_v,
            ..
        } = self;
        let span =
            |w: u32| &incident[offsets[w as usize] as usize..offsets[w as usize + 1] as usize];
        let (of_u, of_v) = (span(u), span(v));
        if of_u.len() != of_v.len() {
            return false;
        }
        let seen = |a: u32, me: u32, other: u32| {
            let args = q.args(a as usize).iter().map(move |x| match x.0 {
                x if x == me => 0,
                x if x == other => 1,
                x => u64::from(x) + 2,
            });
            (rank[a as usize], args)
        };
        let matched = |a: &u32, b: &u32| {
            let ((r, mine), (s, theirs)) = (seen(*a, u, v), seen(*b, v, u));
            r == s && mine.eq(theirs)
        };
        if of_u.iter().zip(of_v).all(|(a, b)| matched(a, b)) {
            return true;
        }
        let order = |me: u32, other: u32| {
            move |a: &u32, b: &u32| {
                let ((r, x), (s, y)) = (seen(*a, me, other), seen(*b, me, other));
                r.cmp(&s).then_with(|| x.cmp(y))
            }
        };
        at_u.clear();
        at_u.extend_from_slice(of_u);
        at_u.sort_unstable_by(order(u, v));
        at_v.clear();
        at_v.extend_from_slice(of_v);
        at_v.sort_unstable_by(order(v, u));
        at_u.iter().zip(at_v.iter()).all(|(a, b)| matched(a, b))
    }

    /// Explores the subtree below the node at depth `level`, reached by
    /// individualizing `path`.  Returns the depth of the node to jump back
    /// to when a leaf below matched an earlier leaf.
    fn descend<Q: QueryView>(&mut self, q: &Q, level: usize, cells: usize) -> Option<usize> {
        let n = q.num_vars();
        if cells == n {
            return self.leaf(q, level);
        }
        // The target cell is the first with several members: the least
        // colour that several variables hold.
        let colour = &self.colours[level * n..(level + 1) * n];
        self.next.clear();
        self.next.resize(n, 0);
        for &c in colour {
            self.next[c as usize] += 1;
        }
        let cell = self.next.iter().position(|&size| size > 1);
        let cell = cell.unwrap_or_default() as u32;
        let first = self.members.len();
        self.members
            .extend((0..n as u32).filter(|&v| colour[v as usize] == cell));
        let (last, explored) = (self.members.len(), self.explored.len());
        if self.colours.len() < (level + 2) * n {
            self.colours.resize((level + 2) * n, 0);
        }
        // A cell of twins, of a class that no atom holds twice beside an
        // outside variable, is individualized in one step, in variable
        // order, with no refinement: individualizing one of them splits no
        // other cell, so the partition stays equitable, and this is the
        // node the one-at-a-time route reaches.
        let twin = &self.twin;
        let t = twin[self.members[first] as usize];
        let at_once = !self.open[t as usize]
            && (self.members[first..last].iter()).all(|&u| twin[u as usize] == t);
        let mut jump = None;
        for i in first..last {
            let v = self.members[i];
            // Swapping v with a twin explored here maps that subtree onto
            // v's, as does an automorphism mapping an explored member to v.
            let twin = &self.twin;
            let explored_twin =
                (self.explored[explored..].iter()).any(|&u| twin[u as usize] == twin[v as usize]);
            if explored_twin || self.in_explored_orbit(v, explored, n) {
                continue;
            }
            // Individualize v: it keeps the cell's start, the rest of the
            // cell moves one position up — or, at once, every member takes
            // the next position.
            let (parent, child) = self.colours.split_at_mut((level + 1) * n);
            let child = &mut child[..n];
            child.copy_from_slice(&parent[level * n..]);
            let depth = self.path.len();
            let cells = if at_once {
                for (position, &u) in (cell..).zip(&self.members[first..last]) {
                    child[u as usize] = position;
                }
                self.path.extend_from_slice(&self.members[first..last]);
                cells + (last - first - 1)
            } else {
                for &u in &self.members[first..last] {
                    child[u as usize] += u32::from(u != v);
                }
                self.path.push(v);
                self.refine(q, level + 1, cells + 1)
            };
            let below = self.descend(q, level + 1, cells);
            self.path.truncate(depth);
            self.explored.push(v);
            if below.is_some_and(|target| target < self.path.len()) {
                jump = below;
                break;
            }
        }
        self.members.truncate(first);
        self.explored.truncate(explored);
        jump
    }

    /// Records the leaf at depth `level`.  One that serializes like the
    /// best leaf yields an automorphism, mapping each variable to the one
    /// with the same label here; it maps the explored subtree below the
    /// node where the two paths diverge onto the current one, so the search
    /// returns to that node.  A smaller leaf becomes the best.
    fn leaf<Q: QueryView>(&mut self, q: &Q, level: usize) -> Option<usize> {
        self.leaves += 1;
        let n = q.num_vars();
        let label = &self.colours[level * n..(level + 1) * n];
        sort_atoms(q, &self.rank, label, &mut self.atoms);
        let labelled = |v: &QVar| u64::from(label[v.0 as usize]);
        self.body.clear();
        // One word per free variable and argument, and a rank per atom.
        self.body.reserve(self.signature.len() + self.rank.len());
        self.body.extend(q.head().iter().map(labelled));
        for &a in &self.atoms {
            self.body.push(u64::from(self.rank[a as usize]));
            self.body.extend(q.args(a as usize).iter().map(labelled));
        }
        let best = &mut self.best;
        match best.body.cmp(&self.body) {
            Ordering::Equal if best.found => {
                self.by_label.clear();
                self.by_label.resize(n, 0);
                for (v, &l) in label.iter().enumerate() {
                    self.by_label[l as usize] = v as u32;
                }
                let image = best.label.iter().map(|&l| self.by_label[l as usize]);
                self.automorphisms.extend(image);
                let diverge = best.path.iter().zip(&self.path);
                Some(diverge.take_while(|(a, b)| a == b).count())
            }
            Ordering::Less if best.found => None,
            _ => {
                best.found = true;
                std::mem::swap(&mut best.body, &mut self.body);
                best.label.clear();
                best.label.extend_from_slice(label);
                best.path.clear();
                best.path.extend_from_slice(&self.path);
                None
            }
        }
    }

    /// Whether `v` lies in the orbit of a variable explored at the current
    /// node — `explored[from..]` — under the automorphisms found so far
    /// that fix every variable of the current path.
    fn in_explored_orbit(&mut self, v: u32, from: usize, n: usize) -> bool {
        let explored = &self.explored[from..];
        if explored.is_empty() {
            return false;
        }
        let path = &self.path;
        let fixing = |image: &&[u32]| path.iter().all(|&p| image[p as usize] == p);
        self.orbit.clear();
        self.orbit.push(v);
        let mut next = 0;
        while let Some(&u) = self.orbit.get(next) {
            next += 1;
            for image in self.automorphisms.chunks_exact(n).filter(fixing) {
                if !self.orbit.contains(&image[u as usize]) {
                    self.orbit.push(image[u as usize]);
                }
            }
        }
        self.orbit.iter().any(|u| explored.contains(u))
    }
}

/// Orders atoms by relation rank, then by their arguments' colours.
fn compare_atoms<Q: QueryView>(
    q: &Q,
    rank: &[u32],
    colour: &[u32],
    a: usize,
    b: usize,
) -> Ordering {
    let coloured = |a: usize| q.args(a).iter().map(|v| colour[v.0 as usize]);
    rank[a]
        .cmp(&rank[b])
        .then_with(|| coloured(a).cmp(coloured(b)))
}

/// Fills `atoms` with the atom indices of `q` in [`compare_atoms`] order.
fn sort_atoms<Q: QueryView>(q: &Q, rank: &[u32], colour: &[u32], atoms: &mut Vec<u32>) {
    atoms.clear();
    atoms.extend(0..rank.len() as u32);
    atoms.sort_unstable_by(|&a, &b| compare_atoms(q, rank, colour, a as usize, b as usize));
}

/// Numbers the runs of equal items in `sorted`: each item gets, in `out`,
/// the position of the first item equal to it.  Returns the number of runs.
fn runs(sorted: &[u32], equal: impl Fn(usize, usize) -> bool, out: &mut [u32]) -> usize {
    let mut count = 0;
    for (i, &x) in sorted.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| sorted[p] as usize);
        out[x as usize] = match prev {
            Some(prev) if equal(prev, x as usize) => out[prev],
            _ => {
                count += 1;
                i as u32
            }
        };
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parser, Cq, Schema};

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    #[test]
    fn renaming_and_reordering_preserve_codes() {
        let a = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("S", &["v"])
            .build();
        let b = Cq::builder(&schema())
            .atom("S", &["q"])
            .atom("R", &["p", "q"])
            .build();
        assert_eq!(cq_code(&a), cq_code(&b));
        assert_eq!(cq_key(&a), cq_key(&b));
    }

    #[test]
    fn structurally_different_queries_get_different_codes() {
        let path = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let fork = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["x", "z"])
            .build();
        let double = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["x", "y"])
            .build();
        assert_ne!(cq_code(&path), cq_code(&fork));
        assert_ne!(cq_code(&path), cq_code(&double));
        assert_ne!(cq_code(&fork), cq_code(&double));
    }

    #[test]
    fn free_variable_positions_are_pinned() {
        let first = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .build();
        let second = Cq::builder(&schema())
            .free(&["y"])
            .atom("R", &["x", "y"])
            .build();
        assert_ne!(cq_code(&first), cq_code(&second));
        // … but renaming a free variable together with its position is fine.
        let renamed = Cq::builder(&schema())
            .free(&["a"])
            .atom("R", &["a", "b"])
            .build();
        assert_eq!(cq_code(&first), cq_code(&renamed));
    }

    #[test]
    fn symmetric_queries_are_stable_under_renaming() {
        // R(x,y), R(y,x) has a non-trivial automorphism: the colour classes
        // are non-singleton, exercising the search.
        let a = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "x"])
            .build();
        let b = Cq::builder(&schema())
            .atom("R", &["q", "p"])
            .atom("R", &["p", "q"])
            .build();
        assert_eq!(cq_code(&a), cq_code(&b));
    }

    #[test]
    fn ucq_codes_ignore_disjunct_order() {
        let s = schema();
        let m1 = Cq::builder(&s).atom("R", &["x", "y"]).build();
        let m2 = Cq::builder(&s).atom("S", &["x"]).build();
        let u1 = Ucq::new(vec![m1.clone(), m2.clone()]);
        let u2 = Ucq::new(vec![m2, m1]);
        assert_eq!(ucq_code(&u1), ucq_code(&u2));
        assert_eq!(ucq_key(&u1), ucq_key(&u2));
    }

    #[test]
    fn relation_identity_is_by_name_not_id() {
        // Same query spelled against two schemas that register the
        // relations in a different order.
        let s1 = Schema::with_relations([("R", 2), ("S", 1)]);
        let s2 = Schema::with_relations([("S", 1), ("R", 2)]);
        let a = Cq::builder(&s1)
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build();
        let b = Cq::builder(&s2)
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build();
        assert_eq!(cq_code(&a), cq_code(&b));
    }

    fn leaves(q: &Cq) -> u64 {
        let mut search = Search::default();
        search.code(q, &mut Vec::new());
        search.leaves
    }

    #[test]
    fn symmetric_shapes_take_linearly_many_leaves() {
        let s = Schema::with_relations([("R", 2)]);
        for k in 2..=8usize {
            let names: Vec<String> = (0..k).map(|i| format!("v{i}")).collect();
            // A k-leaf star: k! labelings, and its leaves are twins.
            let star = names
                .iter()
                .fold(Cq::builder(&s), |b, leaf| b.atom("R", &["c", leaf]))
                .build();
            assert_eq!(leaves(&star), 1, "{k}-star");
            // K_k with both directions of every edge: all twins.
            let mut clique = Cq::builder(&s);
            for a in &names {
                for b in &names {
                    if a != b {
                        clique = clique.atom("R", &[a, b]);
                    }
                }
            }
            assert_eq!(leaves(&clique.build()), 1, "K_{k}");
        }
        // A directed cycle has no twins: one rotation prunes every other
        // start.
        let mut cycle = Cq::builder(&s);
        for i in 0..6 {
            cycle = cycle.atom("R", &[&format!("v{i}"), &format!("v{}", (i + 1) % 6)]);
        }
        assert_eq!(leaves(&cycle.build()), 2);
    }

    /// The twin classes of `q` with two or more members, each as its
    /// variables' names.
    fn twins(q: &Cq) -> Vec<Vec<&str>> {
        let mut search = Search::default();
        search.code(q, &mut Vec::new());
        let names = q.var_names();
        let classes = (0..names.len() as u32).map(|t| {
            let members = (0..names.len()).filter(|&v| search.twin[v] == t);
            members.map(|v| names[v].as_str()).collect::<Vec<_>>()
        });
        classes.filter(|class| class.len() > 1).collect()
    }

    #[test]
    fn twin_classes_of_small_shapes() {
        let parse = |q: &str| parser::parse_cq(&mut Schema::new(), q).unwrap();
        // K_{2,3}: each side is a class, and each is the first cell in turn.
        let k23 = parse("Q() :- R(a1, b1), R(a1, b2), R(a1, b3), R(a2, b1), R(a2, b2), R(a2, b3)");
        assert_eq!(twins(&k23), [&["a1", "a2"][..], &["b1", "b2", "b3"]]);
        // A centre with R-leaves and S-leaves: a class per relation.
        // Refinement already splits them, so each class is a cell.
        let two_kinds = parse("Q() :- R(c, a1), R(c, a2), R(c, a3), S(c, b1), S(c, b2)");
        assert_eq!(twins(&two_kinds), [&["a1", "a2", "a3"][..], &["b1", "b2"]]);
        // u and v share both atoms, swapped.
        let pair = parse("Q() :- S(c, u, v), S(c, v, u)");
        assert_eq!(twins(&pair), [["u", "v"]]);
        // The undirected K_{3,3}: two classes in one cell.
        let mut edges = Vec::new();
        for a in ["a1", "a2", "a3"] {
            for b in ["b1", "b2", "b3"] {
                edges.extend([format!("R({a}, {b})"), format!("R({b}, {a})")]);
            }
        }
        let k33 = parse(&format!("Q() :- {}", edges.join(", ")));
        assert_eq!(twins(&k33), [["a1", "a2", "a3"], ["b1", "b2", "b3"]]);
        for q in [&k23, &two_kinds, &pair] {
            assert_eq!(leaves(q), 1, "{q}");
            assert!(has_nontrivial_automorphism(q), "{q}");
        }
        // One leaf per class of the shared cell.
        assert_eq!(leaves(&k33), 2);
        assert!(has_nontrivial_automorphism(&k33));
        // Free leaves are never twins: the head pins them.
        let free = parse("Q(a, b, d) :- R(c, a), R(c, b), R(c, d)");
        assert!(twins(&free).is_empty());
        assert_eq!(leaves(&free), 1);
        assert!(!has_nontrivial_automorphism(&free));
    }

    #[test]
    fn open_twin_classes_keep_the_one_at_a_time_code() {
        // t0, t1 and t2 are twins, and atoms hold two of them beside d0 or
        // d1: individualizing one splits the cell {d0, d1}, so the class is
        // individualized one member at a time.  All three at once orders
        // that cell otherwise and serializes differently.  Each d has six
        // atoms W(·, ·, ·, d) and six W(·, d, ·, ·) over the twins: d0 in
        // the patterns (a, b, b) and (a, a, b), d1 in (a, b, c) and twice
        // (a, a, a).
        let t = ["t0", "t1", "t2"];
        let mut atoms: Vec<String> = t.iter().map(|x| format!("A({x})")).collect();
        for a in t {
            for b in t {
                for c in t {
                    let (ab, bc, ac) = (a == b, b == c, a == c);
                    if !ab && bc {
                        atoms.push(format!("W({a}, {b}, {c}, d0)"));
                    }
                    if ab && !bc {
                        atoms.push(format!("W({a}, d0, {b}, {c})"));
                    }
                    if !ab && !bc && !ac {
                        atoms.push(format!("W({a}, {b}, {c}, d1)"));
                    }
                    if ab && bc {
                        let loop_atom = format!("W({a}, d1, {b}, {c})");
                        atoms.extend([loop_atom.clone(), loop_atom]);
                    }
                }
            }
        }
        let q = parser::parse_cq(&mut Schema::new(), &format!("Q() :- {}", atoms.join(", ")));
        let q = q.unwrap();
        assert_eq!(twins(&q), [["t0", "t1", "t2"]]);
        assert_eq!(
            cq_code(&q),
            [
                2, 2, 1, 65, 1, 1, 87, 4, 5, 0, 27, 0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 4, 1, 0, 1, 2, 3,
                1, 0, 2, 1, 3, 1, 0, 2, 2, 4, 1, 0, 3, 0, 0, 1, 0, 3, 0, 0, 1, 0, 4, 0, 1, 1, 0, 4,
                0, 2, 1, 1, 0, 0, 4, 1, 1, 0, 2, 3, 1, 1, 2, 0, 3, 1, 1, 2, 2, 4, 1, 1, 3, 1, 1, 1,
                1, 3, 1, 1, 1, 1, 4, 1, 0, 1, 1, 4, 1, 2, 1, 2, 0, 0, 4, 1, 2, 0, 1, 3, 1, 2, 1, 0,
                3, 1, 2, 1, 1, 4, 1, 2, 3, 2, 2, 1, 2, 3, 2, 2, 1, 2, 4, 2, 0, 1, 2, 4, 2, 1
            ]
        );
    }

    #[test]
    fn code_words_are_pinned() {
        // Cache entries hold these words, so a layout change must be
        // deliberate.
        let code = |q: &str| cq_code(&parser::parse_cq(&mut Schema::new(), q).unwrap());
        // One relation `R` (name length 1, "R" = 82, arity 2); six
        // variables, none free; five atoms `R(centre, leaf)`.
        assert_eq!(
            code("Q() :- R(x, a), R(x, b), R(x, c), R(x, d), R(x, e)"),
            [2, 1, 1, 82, 2, 6, 0, 5, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5]
        );
        // Two free variables, labelled 2 and 1, ahead of the atoms.
        assert_eq!(
            code("Q(x, w) :- R(x, y), R(y, w), R(w, w)"),
            [2, 1, 1, 82, 2, 3, 2, 2, 1, 3, 0, 0, 1, 0, 1, 1, 0, 2, 0]
        );
        // Two relations in name order, each spelled eight bytes to a
        // little-endian word: "keyword", then "person_info".
        assert_eq!(
            code("Q() :- person_info(v606, v237), person_info(v237, v331), keyword(v331, v545)"),
            [
                2,
                2,
                7,
                0x0064_726f_7779_656b,
                2,
                11,
                0x695f_6e6f_7372_6570,
                0x006f_666e,
                2,
                4,
                0,
                3,
                0,
                0,
                1,
                1,
                2,
                3,
                1,
                3,
                0
            ]
        );
    }

    #[test]
    fn codes_spell_relation_names_and_arities() {
        let on = |name: &str, args: &[&str]| {
            let s = Schema::with_relations([(name, args.len())]);
            Cq::builder(&s).atom(name, args).build()
        };
        let r2 = cq_code(&on("R", &["x", "y"]));
        assert_eq!(r2[0], CODE_TAG);
        assert_ne!(r2, cq_code(&on("T", &["x", "y"])));
        assert_ne!(r2, cq_code(&on("R", &["x", "y", "y"])));
    }

    /// Whether a permutation of `q`'s variables other than the identity
    /// fixes the head positionally and maps the atom multiset onto itself,
    /// by trying every permutation.
    fn automorphic_by_permutations(q: &Cq) -> bool {
        fn next(perm: &mut [u32]) -> bool {
            let Some(i) = (1..perm.len()).rev().find(|&i| perm[i - 1] < perm[i]) else {
                return false;
            };
            let j = (i..perm.len())
                .rev()
                .find(|&j| perm[i - 1] < perm[j])
                .unwrap_or(i);
            perm.swap(i - 1, j);
            perm[i..].reverse();
            true
        }
        let atoms = q.sorted_atoms();
        let mut perm: Vec<u32> = (0..q.num_vars() as u32).collect();
        while next(&mut perm) {
            let image = |v: QVar| QVar(perm[v.0 as usize]);
            if q.free_vars().iter().any(|&v| image(v) != v) {
                continue;
            }
            let mut mapped: Vec<_> = q.atoms().iter().map(|a| a.map_vars(&image)).collect();
            mapped.sort();
            if mapped == atoms {
                return true;
            }
        }
        false
    }

    #[test]
    fn automorphisms_of_symmetric_queries() {
        let s = schema();
        // R(x,y), R(y,x): swapping x and y is a non-trivial automorphism.
        let symmetric = Cq::builder(&s)
            .atom("R", &["x", "y"])
            .atom("R", &["y", "x"])
            .build();
        assert!(has_nontrivial_automorphism(&symmetric));
        // A path R(x,y), R(y,z) has only the identity automorphism.
        let path = Cq::builder(&s)
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        assert!(!has_nontrivial_automorphism(&path));
        // A 7-leaf star has 7! automorphisms; any leaf swap answers.
        let leaves = ["a", "b", "c", "d", "e", "f", "g"];
        let star = (leaves.iter()).fold(Cq::builder(&s), |b, leaf| b.atom("R", &["x", leaf]));
        assert!(has_nontrivial_automorphism(&star.build()));
        // Fixing the leaves as free variables leaves only the identity.
        let pinned = (leaves.iter()).fold(Cq::builder(&s).free(&leaves), |b, leaf| {
            b.atom("R", &["x", leaf])
        });
        assert!(!has_nontrivial_automorphism(&pinned.build()));
    }

    #[test]
    fn automorphism_flag_matches_every_permutation() {
        use crate::complete::Description;
        use crate::generator::{GeneratorConfig, QueryGenerator, QueryShape};
        let (mut automorphic, mut rigid) = (0, 0);
        for seed in 0..30 {
            for shape in [QueryShape::Chain, QueryShape::Star, QueryShape::Random] {
                let mut generator = QueryGenerator::new(GeneratorConfig {
                    num_atoms: 1 + seed as usize % 5,
                    shape,
                    num_relations: 1 + seed as usize % 2,
                    var_pool: 5,
                    free_vars: seed as usize % 3,
                    seed,
                });
                let q = generator.cq();
                for member in Description::new(std::slice::from_ref(&q)).members() {
                    let flag = has_nontrivial_automorphism(&member);
                    let ccq = member.to_ccq();
                    assert_eq!(flag, automorphic_by_permutations(ccq.cq()), "{ccq}");
                    assert_eq!(flag, has_nontrivial_automorphism(ccq.cq()), "{ccq}");
                    automorphic += flag as usize;
                    rigid += !flag as usize;
                }
            }
        }
        assert!(automorphic > 100 && rigid > 100, "{automorphic} / {rigid}");
    }
}
