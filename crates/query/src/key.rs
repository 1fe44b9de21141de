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
//! explored sibling: a k-leaf star or a k-clique takes k leaves, not k!.
//!
//! Relation identity is spelled exactly: each member code carries the
//! sorted `(name, arity)` table of the relations it uses, and atoms refer to
//! ranks in it.  Equal codes therefore mean isomorphic queries by
//! construction, whatever schemas the queries were parsed into.
//!
//! The search allocates per query, not per refinement round or search
//! node.  A variable's occurrences never change, so its signature words sit
//! in one flat buffer at fixed offsets and are rewritten in place each
//! round; the atom order, class, partition and colour buffers are reused
//! across rounds, search nodes and the members of a UCQ.

use crate::{Cq, QVar, QueryView, RelId, Ucq};
use std::cmp::Ordering;

/// First word of every member code (the layout [`cq_code`] documents).
const CODE_TAG: u64 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a word sequence, each word as its eight little-endian bytes
/// — the fingerprint used throughout this module.  Several slices hash as
/// one by chaining them, without copying them together.
pub fn hash64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
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
    Search::default().code(q, &mut code);
    code
}

/// The canonical code of a UCQ: member codes, sorted, length-prefixed —
/// `[members, (len, member code…)…]`.  Equal exactly for UCQs whose
/// disjunct multisets match up to isomorphism.
pub fn ucq_code(q: &Ucq) -> Vec<u64> {
    let mut search = Search::default();
    let mut codes = Vec::new();
    let mut spans = Vec::with_capacity(q.len());
    for member in q.disjuncts() {
        let start = codes.len();
        search.code(member, &mut codes);
        spans.push((start, codes.len()));
    }
    spans.sort_unstable_by(|&(a, b), &(c, d)| codes[a..b].cmp(&codes[c..d]));
    let mut out = Vec::with_capacity(1 + spans.len() + codes.len());
    out.push(q.len() as u64);
    for (start, end) in spans {
        out.push((end - start) as u64);
        out.extend_from_slice(&codes[start..end]);
    }
    out
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
/// the atom multiset onto itself.  The coding search finds one exactly when
/// one exists.  It prunes only with automorphisms it has found, so without
/// one it reaches every leaf, the least leaf's image under an automorphism
/// among them, and that image serializes like the least leaf.  On a member
/// of a complete description, whose variables all differ, this is the
/// non-trivial automorphism that the covering criterion `⇉₂` asks about
/// (Sec. 5.4).
pub fn has_nontrivial_automorphism<Q: QueryView>(q: &Q) -> bool {
    let mut search = Search::default();
    search.code(q, &mut Vec::new());
    !search.automorphisms.is_empty()
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
        self.descend(q, 0, cells);

        let (labels, atoms) = self.best.body.split_at(free.len());
        out.extend([n as u64, free.len() as u64]);
        out.extend_from_slice(labels);
        out.push(q.num_atoms() as u64);
        out.extend_from_slice(atoms);
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
        let mut jump = None;
        for i in first..last {
            let v = self.members[i];
            if self.in_explored_orbit(v, explored, n) {
                continue;
            }
            // Individualize v: it keeps the cell's start, the rest of the
            // cell moves one position up.
            let (parent, child) = self.colours.split_at_mut((level + 1) * n);
            let child = &mut child[..n];
            child.copy_from_slice(&parent[level * n..]);
            for &u in &self.members[first..last] {
                child[u as usize] += u32::from(u != v);
            }
            let cells = self.refine(q, level + 1, cells + 1);
            self.path.push(v);
            let below = self.descend(q, level + 1, cells);
            self.path.pop();
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
            // A k-leaf star: k! labelings, k leaves.
            let star = names
                .iter()
                .fold(Cq::builder(&s), |b, leaf| b.atom("R", &["c", leaf]))
                .build();
            let star_leaves = leaves(&star);
            assert!(
                star_leaves <= 2 * k as u64,
                "{k}-star took {star_leaves} leaves"
            );
            // K_k with both directions of every edge.
            let mut clique = Cq::builder(&s);
            for a in &names {
                for b in &names {
                    if a != b {
                        clique = clique.atom("R", &[a, b]);
                    }
                }
            }
            let clique_leaves = leaves(&clique.build());
            assert!(
                clique_leaves <= 2 * k as u64,
                "K_{k} took {clique_leaves} leaves"
            );
        }
        // A directed cycle: one rotation prunes every other start.
        let mut cycle = Cq::builder(&s);
        for i in 0..6 {
            cycle = cycle.atom("R", &[&format!("v{i}"), &format!("v{}", (i + 1) % 6)]);
        }
        assert_eq!(leaves(&cycle.build()), 2);
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
