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

use crate::{Cq, QVar, RelId, Ucq};
use std::cmp::Ordering;

/// First word of every member code (the layout [`cq_code`] documents).
const CODE_TAG: u64 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a word slice — the fingerprint used throughout this module.
pub fn hash64(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
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
    Search::new(q).code()
}

/// The canonical code of a UCQ: member codes, sorted, length-prefixed —
/// `[members, (len, member code…)…]`.  Equal exactly for UCQs whose
/// disjunct multisets match up to isomorphism.
pub fn ucq_code(q: &Ucq) -> Vec<u64> {
    let mut members: Vec<Vec<u64>> = q.disjuncts().iter().map(cq_code).collect();
    members.sort();
    let mut out = vec![q.len() as u64];
    for member in members {
        out.push(member.len() as u64);
        out.extend(member);
    }
    out
}

/// 64-bit fingerprint of [`cq_code`].
pub fn cq_key(q: &Cq) -> u64 {
    hash64(&cq_code(q))
}

/// 64-bit fingerprint of [`ucq_code`].
pub fn ucq_key(q: &Ucq) -> u64 {
    hash64(&ucq_code(q))
}

/// A discrete partition the search reached.
struct Leaf {
    /// The variables individualized on the way, in order.
    path: Vec<u32>,
    /// `label[v]`: the number variable `v` gets at this leaf.
    label: Vec<u32>,
    /// The label-dependent part of the code: free labels, then atoms.
    body: Vec<u64>,
}

/// The individualization–refinement search over one CQ.  A variable's
/// colour is the position where its cell starts in the ordered partition;
/// refinement splits cells in place, so a variable alone in its cell keeps
/// its position, which is its label at every leaf below.
pub(crate) struct Search<'q> {
    q: &'q Cq,
    /// The code words every leaf shares: tag and relation table.
    header: Vec<u64>,
    /// Per atom: the rank of its relation in the table.
    rank: Vec<u64>,
    /// Per variable: its sorted `(atom class << 32) | position` words,
    /// rebuilt by every refinement round.
    signature: Vec<Vec<u64>>,
    /// Automorphisms found so far, each as the image of every variable.
    automorphisms: Vec<Vec<u32>>,
    best: Option<Leaf>,
    /// Leaves reached: the work the pruning bounds.
    pub(crate) leaves: u64,
}

impl<'q> Search<'q> {
    pub(crate) fn new(q: &'q Cq) -> Search<'q> {
        let schema = q.schema();
        let spelled = |r: RelId| (schema.name(r), schema.arity(r));
        let mut relations: Vec<RelId> = q.atoms().iter().map(|a| a.relation).collect();
        relations.sort_by(|&a, &b| spelled(a).cmp(&spelled(b)));
        relations.dedup();
        let mut header = vec![CODE_TAG, relations.len() as u64];
        for &r in &relations {
            let name = schema.name(r).as_bytes();
            header.push(name.len() as u64);
            header.extend(
                name.chunks(8)
                    .map(|word| word.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b))),
            );
            header.push(schema.arity(r) as u64);
        }
        let rank = q.atoms().iter().map(|a| {
            let r = relations.binary_search_by(|&r| spelled(r).cmp(&spelled(a.relation)));
            r.unwrap_or_default() as u64
        });
        Search {
            q,
            header,
            rank: rank.collect(),
            signature: vec![Vec::new(); q.num_vars()],
            automorphisms: Vec::new(),
            best: None,
            leaves: 0,
        }
    }

    /// Runs the search and assembles the code from the least leaf.
    pub(crate) fn code(&mut self) -> Vec<u64> {
        let (n, free) = (self.q.num_vars(), self.q.free_vars());
        let mut colour = vec![0; n];
        let cells = self.refine(&mut colour, usize::from(n > 0));
        self.descend(colour, cells, &mut Vec::new());

        let body = self.best.take().map(|leaf| leaf.body).unwrap_or_default();
        let (labels, atoms) = body.split_at(free.len());
        let mut code = std::mem::take(&mut self.header);
        code.extend([n as u64, free.len() as u64]);
        code.extend_from_slice(labels);
        code.push(self.q.num_atoms() as u64);
        code.extend_from_slice(atoms);
        code
    }

    /// Orders atoms by relation rank, then by their arguments' colours.
    fn compare_atoms(&self, colour: &[u32], a: usize, b: usize) -> Ordering {
        let coloured = |a: usize| self.q.atoms()[a].args.iter().map(|v| colour[v.0 as usize]);
        self.rank[a]
            .cmp(&self.rank[b])
            .then_with(|| coloured(a).cmp(coloured(b)))
    }

    fn sorted_atoms(&self, colour: &[u32]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.rank.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| self.compare_atoms(colour, a as usize, b as usize));
        order
    }

    /// Refines `colour`, holding `cells` cells, until no cell splits, and
    /// returns the number of cells.
    fn refine(&mut self, colour: &mut Vec<u32>, mut cells: usize) -> usize {
        let n = colour.len();
        while cells < n {
            let atoms = self.sorted_atoms(colour);
            let mut class = vec![0; atoms.len()];
            runs(
                &atoms,
                |a, b| self.compare_atoms(colour, a, b).is_eq(),
                &mut class,
            );
            for signature in &mut self.signature {
                signature.clear();
            }
            // The free tuple counts as one more atom, of a class of its own.
            let head = (u32::MAX, self.q.free_vars());
            let body = self.q.atoms().iter().enumerate();
            for (class, args) in body
                .map(|(a, atom)| (class[a], &atom.args[..]))
                .chain([head])
            {
                for (pos, v) in args.iter().enumerate() {
                    let word = (u64::from(class) << 32) | pos as u64;
                    self.signature[v.0 as usize].push(word);
                }
            }
            for signature in &mut self.signature {
                signature.sort_unstable();
            }
            // Split every cell by signature, in place.
            let key = |v: usize| (colour[v], &self.signature[v]);
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by(|&a, &b| key(a as usize).cmp(&key(b as usize)));
            let mut next = vec![0; n];
            let split = runs(&order, |a, b| key(a) == key(b), &mut next);
            *colour = next;
            if split == cells {
                break;
            }
            cells = split;
        }
        cells
    }

    /// Explores the subtree below `colour`, reached by individualizing
    /// `path`.  Returns the depth of the node to jump back to when a leaf
    /// below matched an earlier leaf.
    fn descend(&mut self, colour: Vec<u32>, cells: usize, path: &mut Vec<u32>) -> Option<usize> {
        let n = colour.len();
        if cells == n {
            return self.leaf(colour, path);
        }
        let size = |c: u32| colour.iter().filter(|&&x| x == c).count();
        let cell = (0..n as u32).find(|&c| size(c) > 1).unwrap_or_default();
        let members: Vec<u32> = (0..n as u32)
            .filter(|&v| colour[v as usize] == cell)
            .collect();
        let mut explored: Vec<u32> = Vec::new();
        for &v in &members {
            if self.in_explored_orbit(v, &explored, path) {
                continue;
            }
            // Individualize v: it keeps the cell's start, the rest of the
            // cell moves one position up.
            let mut child = colour.clone();
            for &u in &members {
                child[u as usize] += u32::from(u != v);
            }
            let cells = self.refine(&mut child, cells + 1);
            path.push(v);
            let jump = self.descend(child, cells, path);
            path.pop();
            explored.push(v);
            if jump.is_some_and(|target| target < path.len()) {
                return jump;
            }
        }
        None
    }

    /// Records a leaf.  One that serializes like the best leaf yields an
    /// automorphism, mapping each variable to the one with the same label
    /// here; it maps the explored subtree below the node where the two
    /// paths diverge onto the current one, so the search returns to that
    /// node.  A smaller leaf becomes the best.
    fn leaf(&mut self, label: Vec<u32>, path: &[u32]) -> Option<usize> {
        self.leaves += 1;
        let labelled = |v: &QVar| u64::from(label[v.0 as usize]);
        let mut body: Vec<u64> = self.q.free_vars().iter().map(labelled).collect();
        for a in self.sorted_atoms(&label) {
            body.push(self.rank[a as usize]);
            body.extend(self.q.atoms()[a as usize].args.iter().map(labelled));
        }
        match &self.best {
            Some(best) if best.body == body => {
                let mut by_label = vec![0; label.len()];
                for (v, &l) in label.iter().enumerate() {
                    by_label[l as usize] = v as u32;
                }
                let image = best.label.iter().map(|&l| by_label[l as usize]);
                let diverge = best.path.iter().zip(path).take_while(|(a, b)| a == b);
                let diverge = diverge.count();
                self.automorphisms.push(image.collect());
                return Some(diverge);
            }
            Some(best) if best.body < body => {}
            _ => {
                let path = path.to_vec();
                self.best = Some(Leaf { path, label, body });
            }
        }
        None
    }

    /// Whether `v` lies in the orbit of an `explored` variable under the
    /// automorphisms found so far that fix every variable of `prefix`.
    fn in_explored_orbit(&self, v: u32, explored: &[u32], prefix: &[u32]) -> bool {
        let fixing: Vec<&Vec<u32>> = (self.automorphisms.iter())
            .filter(|image| prefix.iter().all(|&p| image[p as usize] == p))
            .collect();
        let mut orbit = vec![v];
        let mut next = 0;
        while let Some(&u) = orbit.get(next) {
            next += 1;
            for image in &fixing {
                if !orbit.contains(&image[u as usize]) {
                    orbit.push(image[u as usize]);
                }
            }
        }
        orbit.iter().any(|u| explored.contains(u))
    }
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
    use crate::{Cq, Schema};

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
        let mut search = Search::new(q);
        search.code();
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
}
