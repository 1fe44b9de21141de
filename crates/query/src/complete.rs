//! Complete descriptions ⟨Q⟩ of CQs and UCQs (Sec. 4.6 and 5 of the paper).
//!
//! The complete description of a CQ `Q` is the multiset of CCQs obtained as
//! follows: for every partition `π` of the variables of `Q`, free ones
//! included, identify the variables within each block and attach an
//! inequality between every pair of variables that remain distinct.  A block
//! that holds a free variable keeps its name, so a member may let existential
//! variables take a free variable's value.  A member in which two free
//! variables merged repeats a variable in its head; homomorphisms bind heads
//! positionally, so such members only map onto each other.  A CQ with `n`
//! distinct variables has `B(n)` members, and a Boolean query's members are
//! those of the partitions of its existential variables.
//!
//! The CCQs partition the valuation space of `Q` according to which
//! variables coincide, so the result is equivalent to `Q` over every
//! semiring (`Q ≡_K ⟨Q⟩`): `Q(t) = ⟨Q⟩(t)` for every output tuple `t`.
//!
//! Complete descriptions are the key device behind the UCQ-containment
//! criteria `↪_∞`, `↪_k`, `↠_∞` and `⇉₂` (Sec. 5.2–5.4).
//!
//! The partitions are walked as restricted growth strings, and each member
//! is collapsed through dense per-variable arrays that the walk reuses, so
//! building ⟨Q⟩ allocates only the members' own vectors and names.

use crate::ccq::Ccq;
use crate::cq::{Atom, Cq, QVar};
use crate::ucq::{Ducq, Ucq};

/// Computes the complete description ⟨Q⟩ of a CQ, one CCQ per set partition
/// of its variables.
pub fn complete_description_cq(query: &Cq) -> Ducq {
    let mut members = Vec::new();
    Walk::default().describe(query, &mut members);
    Ducq::new(members)
}

/// Computes the complete description ⟨Q⟩ of a UCQ: the multiset union of the
/// complete descriptions of its members, in member order.
pub fn complete_description_ucq(query: &Ucq) -> Ducq {
    let mut members = Vec::new();
    let mut walk = Walk::default();
    for cq in query.disjuncts() {
        walk.describe(cq, &mut members);
    }
    Ducq::new(members)
}

/// Marks an unset entry of the walk's arrays.
const UNSET: u32 = u32::MAX;

/// The walk over the set partitions of a query's variables, with the dense
/// arrays it reuses from one partition, and one query, to the next.
#[derive(Default)]
struct Walk {
    /// The variables in partition order: the existential ones, then the
    /// free ones, each ascending.  So a Boolean or one-free-variable
    /// query's members come in the order of the partitions of its
    /// existential variables.
    vars: Vec<u32>,
    /// The partition as a restricted growth string: `block[i]` numbers the
    /// block of `vars[i]`, blocks numbered in order of their first element.
    block: Vec<u32>,
    /// `most[i]`: the largest number in `block[..=i]`.
    most: Vec<u32>,
    /// Per block: the position in `vars` of its representative.
    rep: Vec<u32>,
    /// Per variable: its index in the member if it represents its block.
    index: Vec<u32>,
    /// Per variable: the member index of its block's representative.
    image: Vec<u32>,
}

impl Walk {
    /// Appends ⟨query⟩ to `members`, one CCQ per set partition of its
    /// variables.  The strings come in lexicographic order, which puts each
    /// element into every existing block before a new one.
    fn describe(&mut self, query: &Cq, members: &mut Vec<Ccq>) {
        let n = query.num_vars();
        let free = |v: &u32| query.is_free(QVar(*v));
        self.vars.clear();
        self.vars.extend((0..n as u32).filter(|v| !free(v)));
        let existential = self.vars.len();
        self.vars.extend((0..n as u32).filter(free));
        self.block.clear();
        self.block.resize(n, 0);
        self.most.clear();
        self.most.resize(n, 0);
        self.image.resize(n, 0);
        loop {
            members.push(self.collapse(query, existential));
            // The next string raises the last entry that may grow and
            // resets every entry after it.
            let Some(i) = (1..n).rev().find(|&i| self.block[i] <= self.most[i - 1]) else {
                break;
            };
            self.block[i] += 1;
            self.most[i] = self.most[i - 1].max(self.block[i]);
            for j in i + 1..n {
                self.block[j] = 0;
                self.most[j] = self.most[i];
            }
        }
    }

    /// The CCQ of the current partition.  The variables of each block are
    /// identified with its representative: the least free variable of the
    /// block if there is one, else its least variable.  The survivors keep
    /// their names and their order, and every two of them get an
    /// inequality.
    fn collapse(&mut self, query: &Cq, existential: usize) -> Ccq {
        let blocks = self.most.last().map_or(0, |&most| most as usize + 1);
        self.rep.clear();
        self.rep.resize(blocks, UNSET);
        for (i, &b) in self.block.iter().enumerate() {
            // `vars` lists the existential variables and then the free
            // ones, each ascending: the first variable seen represents its
            // block until a free one is seen.
            let rep = &mut self.rep[b as usize];
            if *rep == UNSET || (i >= existential && (*rep as usize) < existential) {
                *rep = i as u32;
            }
        }
        self.index.clear();
        self.index.resize(self.vars.len(), UNSET);
        for &rep in &self.rep {
            self.index[self.vars[rep as usize] as usize] = 0;
        }
        let mut names = Vec::with_capacity(blocks);
        for (v, index) in self.index.iter_mut().enumerate() {
            if *index != UNSET {
                *index = names.len() as u32;
                names.push(query.var_name(QVar(v as u32)).to_string());
            }
        }
        for (&v, &b) in self.vars.iter().zip(&self.block) {
            let rep = self.vars[self.rep[b as usize] as usize];
            self.image[v as usize] = self.index[rep as usize];
        }
        let image = |v: &QVar| QVar(self.image[v.0 as usize]);
        let atoms = (query.atoms().iter())
            .map(|a| Atom::new(a.relation, a.args.iter().map(image).collect()))
            .collect();
        let free = query.free_vars().iter().map(image).collect();
        let cq = Cq::new(query.schema().clone(), free, atoms, names);
        let k = blocks as u32;
        let pairs = (0..k).flat_map(|a| (a + 1..k).map(move |b| (QVar(a), QVar(b))));
        Ccq::new(cq, pairs)
    }
}

/// The Bell number `B(n)` (number of CCQs in the complete description of a
/// CQ with `n` distinct variables) — useful for sizing benchmarks.
pub fn bell_number(n: usize) -> u64 {
    // Bell triangle.
    let mut row = vec![1u64];
    for _ in 0..n {
        let mut next = Vec::with_capacity(row.len() + 1);
        // invariant: rows of a positive-arity relation are non-empty
        next.push(*row.last().expect("non-empty"));
        for &x in &row {
            // invariant: `next` was just pushed to
            let prev = *next.last().expect("non-empty");
            next.push(prev + x);
        }
        row = next;
    }
    row[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, QueryGenerator, QueryShape};
    use crate::schema::Schema;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The reference enumeration: every set partition of `{0, …, n-1}` as
    /// nested vectors, blocks and elements in a canonical order.  The
    /// number of partitions is the Bell number `B(n)`.
    fn set_partitions(n: usize) -> Vec<Vec<Vec<usize>>> {
        let mut result = Vec::new();
        let mut current: Vec<Vec<usize>> = Vec::new();
        partition_rec(0, n, &mut current, &mut result);
        result
    }

    fn partition_rec(
        element: usize,
        n: usize,
        current: &mut Vec<Vec<usize>>,
        result: &mut Vec<Vec<Vec<usize>>>,
    ) {
        if element == n {
            result.push(current.clone());
            return;
        }
        for i in 0..current.len() {
            current[i].push(element);
            partition_rec(element + 1, n, current, result);
            current[i].pop();
        }
        current.push(vec![element]);
        partition_rec(element + 1, n, current, result);
        current.pop();
    }

    /// The reference CCQ for one partition of `vars`: identify the
    /// variables in each block and add inequalities between all remaining
    /// distinct variables.
    fn collapse(query: &Cq, vars: &[QVar], partition: &[Vec<usize>]) -> Ccq {
        // representative of each variable = the smallest free variable of
        // its block if there is one, else the smallest variable of the block.
        let mut repr: BTreeMap<QVar, QVar> = BTreeMap::new();
        for block in partition {
            let members = || block.iter().map(|&i| vars[i]);
            let rep = members()
                .filter(|&v| query.is_free(v))
                .min()
                .or_else(|| members().min())
                .expect("non-empty block");
            for v in members() {
                repr.insert(v, rep);
            }
        }
        let rename = |v: QVar| -> QVar { *repr.get(&v).unwrap_or(&v) };

        // Re-index the surviving variables compactly, keeping the names.
        let survivors: Vec<QVar> = {
            let mut s: Vec<QVar> = query
                .all_vars()
                .into_iter()
                .filter(|v| rename(*v) == *v)
                .collect();
            s.sort();
            s
        };
        let new_index: BTreeMap<QVar, QVar> = survivors
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, QVar(i as u32)))
            .collect();
        let var_names: Vec<String> = survivors
            .iter()
            .map(|&v| query.var_name(v).to_string())
            .collect();
        let to_new = |v: QVar| -> QVar { new_index[&rename(v)] };

        let atoms: Vec<Atom> = query.atoms().iter().map(|a| a.map_vars(&to_new)).collect();
        let free: Vec<QVar> = query.free_vars().iter().map(|&v| to_new(v)).collect();
        let cq = Cq::new(query.schema().clone(), free, atoms, var_names);

        // inequalities between every pair of distinct surviving variables.
        let all = cq.all_vars();
        let mut inequalities = Vec::new();
        for (i, &a) in all.iter().enumerate() {
            for &b in &all[i + 1..] {
                inequalities.push((a, b));
            }
        }
        Ccq::new(cq, inequalities)
    }

    /// ⟨Q⟩ by the reference enumeration: the existential variables, then
    /// the distinct free ones, partitioned and collapsed partition by
    /// partition.
    fn reference_cq(query: &Cq) -> Vec<Ccq> {
        let mut vars = query.existential_vars();
        let mut free = query.free_vars().to_vec();
        free.sort();
        free.dedup();
        vars.extend(free);
        (set_partitions(vars.len()).iter())
            .map(|partition| collapse(query, &vars, partition))
            .collect()
    }

    fn schema() -> Schema {
        Schema::with_relations([("R", 2)])
    }

    #[test]
    fn set_partitions_counts_are_bell_numbers() {
        assert_eq!(set_partitions(0).len(), 1);
        assert_eq!(set_partitions(1).len(), 1);
        assert_eq!(set_partitions(2).len(), 2);
        assert_eq!(set_partitions(3).len(), 5);
        assert_eq!(set_partitions(4).len(), 15);
        assert_eq!(bell_number(0), 1);
        assert_eq!(bell_number(3), 5);
        assert_eq!(bell_number(5), 52);
        assert_eq!(bell_number(6), 203);
    }

    /// A seeded CQ with `arity` head variables drawn from its own
    /// variables, repeats allowed.
    fn seeded(seed: u64, shape: QueryShape, num_atoms: usize, arity: usize) -> Cq {
        let mut generator = QueryGenerator::new(GeneratorConfig {
            num_atoms,
            shape,
            num_relations: 2,
            var_pool: 5,
            free_vars: 0,
            seed,
        });
        let q = generator.cq();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = q.num_vars() as u32;
        let free = (0..arity).map(|_| QVar(rng.gen_range(0..n))).collect();
        Cq::new(
            q.schema().clone(),
            free,
            q.atoms().to_vec(),
            q.var_names().to_vec(),
        )
    }

    #[test]
    fn walk_matches_the_reference_enumeration() {
        let shapes = [QueryShape::Chain, QueryShape::Star, QueryShape::Random];
        // CQs with 0–3 free variables and up to 7 variables.
        for num_atoms in 1..=6 {
            for seed in 0..if num_atoms < 6 { 4 } else { 1 } {
                for shape in shapes {
                    for arity in 0..=3 {
                        let q = seeded(seed, shape, num_atoms, arity);
                        let walked = complete_description_cq(&q);
                        assert_eq!(walked.disjuncts(), reference_cq(&q), "{q}");
                    }
                }
            }
        }
        // UCQs of width 1–3, their members' descriptions in member order.
        for seed in 0..8 {
            for width in 1..=3 {
                let arity = seed as usize % 3;
                let members = (0..width as u64).map(|i| {
                    let shape = shapes[(seed + i) as usize % 3];
                    seeded(seed * 7 + i, shape, 1 + (seed + i) as usize % 4, arity)
                });
                let u = Ucq::new(members.collect::<Vec<_>>());
                let reference: Vec<Ccq> = u.disjuncts().iter().flat_map(reference_cq).collect();
                assert_eq!(complete_description_ucq(&u).disjuncts(), reference, "{u}");
            }
        }
    }

    #[test]
    fn example_4_6_complete_description() {
        // ⟨Q1⟩ for Q1 = ∃u,v,w R(u,v), R(u,w) has 5 CCQs (the paper lists
        // Q11 … Q15).
        let q1 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "w"])
            .build();
        let desc = complete_description_cq(&q1);
        assert_eq!(desc.len(), 5);
        // Every member is complete and equivalent in atom count (2 atoms).
        for ccq in desc.disjuncts() {
            assert!(ccq.is_complete());
            assert_eq!(ccq.cq().num_atoms(), 2);
        }
        // Exactly one member has a single variable (u = v = w): Q15.
        let singletons = desc
            .disjuncts()
            .iter()
            .filter(|c| c.cq().num_vars() == 1)
            .count();
        assert_eq!(singletons, 1);
        // Exactly one member keeps all three variables distinct: Q11.
        let full = desc
            .disjuncts()
            .iter()
            .filter(|c| c.cq().num_vars() == 3)
            .count();
        assert_eq!(full, 1);
        // The three-variable member carries all three inequalities.
        let q11 = desc
            .disjuncts()
            .iter()
            .find(|c| c.cq().num_vars() == 3)
            .unwrap();
        assert_eq!(q11.inequalities().len(), 3);
    }

    #[test]
    fn free_variables_join_the_partition() {
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let desc = complete_description_cq(&q);
        // two existential variables and one free one → B(3) = 5 CCQs
        assert_eq!(desc.len(), 5);
        for ccq in desc.disjuncts() {
            let cq = ccq.cq();
            assert_eq!(cq.free_vars().len(), 1);
            let x = cq.free_vars()[0];
            assert_eq!(cq.var_name(x), "x");
            assert!(ccq.is_complete());
            // every surviving existential variable differs from x
            assert!(cq.existential_vars().iter().all(|&v| ccq.must_differ(v, x)));
        }
        // Two free variables also merge with each other: B(3) = 5 CCQs, two
        // of them with the head (x, x) and three with x ≠ w.
        let q = Cq::builder(&schema())
            .free(&["x", "w"])
            .atom("R", &["x", "y"])
            .atom("R", &["y", "w"])
            .build();
        let desc = complete_description_cq(&q);
        assert_eq!(desc.len(), 5);
        let mut merged = 0;
        for ccq in desc.disjuncts() {
            let free = ccq.cq().free_vars();
            assert_eq!(free.len(), 2);
            assert_eq!(ccq.cq().var_name(free[0]), "x");
            if free[0] == free[1] {
                merged += 1;
            } else {
                assert_eq!(ccq.cq().var_name(free[1]), "w");
                assert!(ccq.must_differ(free[0], free[1]));
            }
            let n = ccq.cq().num_vars();
            assert_eq!(ccq.inequalities().len(), n * (n - 1) / 2);
        }
        assert_eq!(merged, 2);
    }

    #[test]
    fn existential_blocks_take_a_free_variables_value() {
        // ⟨Q(x) :- R(x, y), R(x, y)⟩ has the member R(x, x), R(x, x), which
        // ↪_∞ needs to see that Q(x) :- R(x, x), R(x, x) is contained in Q.
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .atom("R", &["x", "y"])
            .build();
        let desc = complete_description_cq(&q);
        assert_eq!(desc.len(), 2);
        let merged = (desc.disjuncts().iter())
            .find(|c| c.cq().num_vars() == 1)
            .expect("y merged into x");
        assert_eq!(merged.cq().atoms()[0].args, vec![QVar(0), QVar(0)]);
        assert!(merged.inequalities().is_empty());
    }

    #[test]
    fn description_preserves_every_output() {
        use crate::eval::{eval_cq_all_outputs, eval_ducq_all_outputs};
        use crate::instance::Instance;
        use annot_semiring::Natural;
        let preserved = |q: &Cq, db: &Instance<Natural>| {
            let desc = complete_description_cq(q);
            let expected = eval_cq_all_outputs(q, db);
            assert_eq!(expected, eval_ducq_all_outputs(&desc, db), "{q}");
            expected
        };
        let mut db: Instance<Natural> = Instance::new(schema());
        db.insert_named("R", vec![0.into(), 1.into()], Natural(2));
        db.insert_named("R", vec![1.into(), 1.into()], Natural(3));
        db.insert_named("R", vec![1.into(), 0.into()], Natural(5));
        db.insert_named("R", vec![0.into(), 0.into()], Natural(7));
        let one = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        preserved(&one, &db);
        // Two free variables, with outputs (a, a) among the results.
        for atoms in [[["x", "y"], ["y", "w"]], [["x", "x"], ["x", "w"]]] {
            let q = Cq::builder(&schema())
                .free(&["x", "w"])
                .atom("R", &atoms[0])
                .atom("R", &atoms[1])
                .build();
            assert!(preserved(&q, &db).keys().any(|t| t[0] == t[1]));
        }
        // Seeded queries with 0–2 free variables on random instances.
        for seed in 0..12 {
            for shape in [QueryShape::Chain, QueryShape::Star, QueryShape::Random] {
                for free_vars in 0..=2 {
                    let mut generator = QueryGenerator::new(GeneratorConfig {
                        num_atoms: 3,
                        shape,
                        num_relations: 1,
                        var_pool: 4,
                        free_vars,
                        seed,
                    });
                    let q = generator.cq();
                    preserved(&q, &generator.instance(2, 4));
                }
            }
        }
    }

    #[test]
    fn ucq_description_is_union_of_member_descriptions() {
        let q1 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        let q2 = Cq::builder(&schema()).atom("R", &["u", "u"]).build();
        let ucq = Ucq::new([q1, q2]);
        let desc = complete_description_ucq(&ucq);
        // B(2) + B(1) = 2 + 1 = 3
        assert_eq!(desc.len(), 3);
    }

    #[test]
    fn variable_names_survive_collapsing() {
        let q1 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        let desc = complete_description_cq(&q1);
        let collapsed = desc
            .disjuncts()
            .iter()
            .find(|c| c.cq().num_vars() == 1)
            .unwrap();
        // the surviving variable keeps one of the original names
        assert_eq!(collapsed.cq().var_name(QVar(0)), "u");
        assert_eq!(collapsed.cq().atoms()[0].args, vec![QVar(0), QVar(0)]);
    }
}
