//! Conjunctive queries (CQs).
//!
//! A CQ `Q = ∃v φ(u, v)` (Sec. 2 of the paper) has a list `u` of free
//! variables, a list `v` of existential variables, and a **multiset** `φ` of
//! relational atoms over `u ∪ v`.  Multiset semantics matters: repeated atoms
//! change the annotation of query results in non-idempotent semirings (e.g.
//! `∃v R(v), R(v)` squares annotations under bag semantics).

use crate::schema::{RelId, Schema};
use std::collections::BTreeSet;
use std::fmt;

/// A query variable, local to the query it belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct QVar(pub u32);

/// A relational atom `R(x₁, …, xₘ)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Atom {
    /// The relation symbol.
    pub relation: RelId,
    /// The argument variables (length = arity of the relation).
    pub args: Vec<QVar>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(relation: RelId, args: Vec<QVar>) -> Self {
        Atom { relation, args }
    }

    /// The set of variables occurring in the atom.
    pub fn variables(&self) -> BTreeSet<QVar> {
        self.args.iter().copied().collect()
    }

    /// Applies a variable renaming to the atom.
    pub fn map_vars(&self, f: &dyn Fn(QVar) -> QVar) -> Atom {
        Atom {
            relation: self.relation,
            args: self.args.iter().map(|&v| f(v)).collect(),
        }
    }
}

/// A conjunctive query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cq {
    schema: Schema,
    free: Vec<QVar>,
    atoms: Vec<Atom>,
    var_names: Vec<String>,
}

impl Cq {
    /// Creates a CQ from parts.  `var_names[i]` names variable `QVar(i)`.
    ///
    /// Every variable (free or existential) must occur in some atom — the
    /// usual safety condition, required for evaluations to be finite sums.
    pub fn new(schema: Schema, free: Vec<QVar>, atoms: Vec<Atom>, var_names: Vec<String>) -> Self {
        let cq = Cq {
            schema,
            free,
            atoms,
            var_names,
        };
        cq.validate();
        cq
    }

    fn validate(&self) {
        let mut used = vec![false; self.var_names.len()];
        for v in self.atoms.iter().flat_map(|a| &a.args) {
            if let Some(used) = used.get_mut(v.0 as usize) {
                *used = true;
            }
        }
        if let Some(v) = used.iter().position(|&used| !used) {
            // invariant: documented panic — an unsafe query is a caller bug (see `Cq::new`)
            panic!(
                "unsafe query: variable {} occurs in no atom",
                self.var_names[v]
            );
        }
        for f in &self.free {
            assert!(
                (f.0 as usize) < self.var_names.len(),
                "free variable out of range"
            );
        }
        for a in &self.atoms {
            assert_eq!(
                a.args.len(),
                self.schema.arity(a.relation),
                "atom arity mismatch for {}",
                self.schema.name(a.relation)
            );
        }
    }

    /// The schema the query is formulated over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The free (head) variables, in head order.
    pub fn free_vars(&self) -> &[QVar] {
        &self.free
    }

    /// The atoms (a multiset, in syntactic order).
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// All variables of the query, in index order.
    pub fn all_vars(&self) -> Vec<QVar> {
        (0..self.var_names.len() as u32).map(QVar).collect()
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The existential variables (all variables that are not free).
    pub fn existential_vars(&self) -> Vec<QVar> {
        let free: BTreeSet<QVar> = self.free.iter().copied().collect();
        self.all_vars()
            .into_iter()
            .filter(|v| !free.contains(v))
            .collect()
    }

    /// Whether a variable is free.
    pub fn is_free(&self, v: QVar) -> bool {
        self.free.contains(&v)
    }

    /// Whether the query is Boolean (has no free variables).
    pub fn is_boolean(&self) -> bool {
        self.free.is_empty()
    }

    /// The name of a variable.
    pub fn var_name(&self, v: QVar) -> &str {
        &self.var_names[v.0 as usize]
    }

    /// All variable names, indexed by `QVar`.
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// A builder for constructing queries programmatically.
    pub fn builder(schema: &Schema) -> CqBuilder {
        CqBuilder::new(schema.clone())
    }

    /// Returns the multiset of atoms as a sorted vector (useful for
    /// multiset comparisons in homomorphism checks).
    pub fn sorted_atoms(&self) -> Vec<Atom> {
        let mut atoms = self.atoms.clone();
        atoms.sort();
        atoms
    }
}

/// Read access to a query's atoms, head and variables: what the
/// homomorphism search and the canonical code read.  A [`Cq`] implements
/// it, and so does a member of a flat complete description
/// ([`crate::complete::Member`]), which has no atom vectors of its own.
pub trait QueryView {
    /// The schema the relations belong to.
    fn schema(&self) -> &Schema;
    /// The number of variables, numbered `0..num_vars()`.
    fn num_vars(&self) -> usize;
    /// The number of atoms.
    fn num_atoms(&self) -> usize;
    /// The relation of atom `atom`.
    fn relation(&self, atom: usize) -> RelId;
    /// The arguments of atom `atom`.
    fn args(&self, atom: usize) -> &[QVar];
    /// The free variables, in head order.
    fn head(&self) -> &[QVar];
}

impl QueryView for Cq {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    fn relation(&self, atom: usize) -> RelId {
        self.atoms[atom].relation
    }

    fn args(&self, atom: usize) -> &[QVar] {
        &self.atoms[atom].args
    }

    fn head(&self) -> &[QVar] {
        &self.free
    }
}

impl fmt::Display for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q(")?;
        for (i, v) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.var_name(*v))?;
        }
        write!(f, ") :- ")?;
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", self.schema.name(atom.relation))?;
            for (j, v) in atom.args.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.var_name(*v))?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A fluent builder for [`Cq`]s (and, via [`crate::ccq::Ccq`], for CQs with
/// inequalities).
#[derive(Clone, Debug)]
pub struct CqBuilder {
    schema: Schema,
    free: Vec<QVar>,
    atoms: Vec<Atom>,
    var_names: Vec<String>,
    inequalities: Vec<(QVar, QVar)>,
}

impl CqBuilder {
    /// Creates a builder over a schema.
    pub fn new(schema: Schema) -> Self {
        CqBuilder {
            schema,
            free: Vec::new(),
            atoms: Vec::new(),
            var_names: Vec::new(),
            inequalities: Vec::new(),
        }
    }

    /// Interns a variable by name, creating it on first use.
    pub fn var(&mut self, name: &str) -> QVar {
        if let Some(pos) = self.var_names.iter().position(|n| n == name) {
            return QVar(pos as u32);
        }
        let v = QVar(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        v
    }

    /// Declares the free (head) variables, in order.
    pub fn free(mut self, names: &[&str]) -> Self {
        let vars: Vec<QVar> = names.iter().map(|n| self.var(n)).collect();
        self.free = vars;
        self
    }

    /// Adds an atom `relation(args…)`.  The relation must exist in the
    /// schema (it is *not* created implicitly, so typos surface early).
    pub fn atom(mut self, relation: &str, args: &[&str]) -> Self {
        let rel = self
            .schema
            .relation(relation)
            // invariant: documented panic — unknown relation names are a caller bug (see the docs)
            .unwrap_or_else(|| panic!("unknown relation {}", relation));
        let vars: Vec<QVar> = args.iter().map(|n| self.var(n)).collect();
        self.atoms.push(Atom::new(rel, vars));
        self
    }

    /// Adds an inequality `a ≠ b` (only meaningful when building a
    /// [`crate::ccq::Ccq`]).
    pub fn inequality(mut self, a: &str, b: &str) -> Self {
        let va = self.var(a);
        let vb = self.var(b);
        self.inequalities.push((va, vb));
        self
    }

    /// Finishes building a plain CQ.  Panics if inequalities were added.
    pub fn build(self) -> Cq {
        assert!(
            self.inequalities.is_empty(),
            "use build_ccq() for queries with inequalities"
        );
        Cq::new(self.schema, self.free, self.atoms, self.var_names)
    }

    /// Finishes building a CQ with inequalities.
    pub fn build_ccq(self) -> crate::ccq::Ccq {
        let cq = Cq::new(self.schema, self.free, self.atoms, self.var_names);
        crate::ccq::Ccq::new(cq, self.inequalities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    #[test]
    fn builder_builds_paper_example_4_6() {
        // Q1 = ∃u,v,w R(u,v), R(u,w)
        let q1 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "w"])
            .build();
        assert_eq!(q1.num_atoms(), 2);
        assert_eq!(q1.num_vars(), 3);
        assert!(q1.is_boolean());
        assert_eq!(q1.existential_vars().len(), 3);
        assert_eq!(format!("{}", q1), "Q() :- R(u, v), R(u, w)");
    }

    #[test]
    fn free_variables_are_tracked() {
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .atom("S", &["y"])
            .build();
        assert_eq!(q.free_vars().len(), 1);
        assert!(!q.is_boolean());
        assert!(q.is_free(QVar(0)));
        assert!(!q.is_free(QVar(1)));
        assert_eq!(q.existential_vars(), vec![QVar(1)]);
        assert_eq!(q.var_name(QVar(0)), "x");
        assert_eq!(q.var_names().len(), 2);
    }

    #[test]
    fn repeated_atoms_form_a_multiset() {
        // Q2 = ∃u,v R(u,v), R(u,v) — both copies are kept.
        let q2 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "v"])
            .build();
        assert_eq!(q2.num_atoms(), 2);
        assert_eq!(q2.atoms()[0], q2.atoms()[1]);
        assert_eq!(q2.sorted_atoms().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown relation")]
    fn unknown_relation_panics() {
        let _ = Cq::builder(&schema()).atom("T", &["x"]).build();
    }

    #[test]
    #[should_panic(expected = "unsafe query")]
    fn unsafe_query_panics() {
        // A free variable that occurs in no atom is rejected.
        let mut b = Cq::builder(&schema());
        let _ = b.var("lonely");
        let _ = b.atom("S", &["x"]).free(&["lonely"]).build();
    }

    #[test]
    fn atom_helpers() {
        let s = schema();
        let r = s.relation("R").unwrap();
        let atom = Atom::new(r, vec![QVar(0), QVar(1)]);
        assert_eq!(atom.variables().len(), 2);
        let renamed = atom.map_vars(&|v| QVar(v.0 + 10));
        assert_eq!(renamed.args, vec![QVar(10), QVar(11)]);
        assert_eq!(renamed.relation, r);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_is_checked() {
        let s = schema();
        let r = s.relation("R").unwrap();
        let _ = Cq::new(
            s,
            vec![],
            vec![Atom::new(r, vec![QVar(0)])],
            vec!["x".into()],
        );
    }
}
