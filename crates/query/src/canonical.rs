//! Canonical instances ⟦Q⟧ (Sec. 4.6 of the paper).
//!
//! The canonical instance of a CQ (or CCQ) `Q` is the `N[X]`-instance whose
//! domain is the set of variables of `Q` and in which, for every relation `R`
//! and tuple of variables `(u, v)`, the annotation is `x₁ + ⋯ + xₙ` where `n`
//! is the number of atoms of `Q` of the form `R(u, v)` and the `xᵢ` are
//! globally fresh provenance variables (one per atom occurrence).  Canonical
//! instances are "abstractly tagged" databases in the sense of
//! [Green et al., PODS 2007]; evaluating queries over them produces exactly
//! the CQ-admissible polynomials of Sec. 4.5, the ones the small-model
//! containment procedure of Thm. 4.17 compares.
//!
//! The procedure itself (`annot_core::small_model`) builds no instance: it
//! counts the ways to send a query's atoms onto the member's atoms, which
//! gives the same polynomials as exponent rows.  [`CanonicalInstance`] is
//! the paper's ⟦Q⟧ for examples and tests, and the reference those rows are
//! tested against.

use crate::ccq::Ccq;
use crate::cq::{Cq, QVar};
use crate::instance::Instance;
use crate::schema::{DbValue, IdTuple, Tuple, ValueId};
use annot_polynomial::Var;
use annot_semiring::NatPoly;

/// The canonical instance of a query, together with the bookkeeping linking
/// provenance variables back to atom occurrences.
#[derive(Clone, Debug)]
pub struct CanonicalInstance {
    instance: Instance<NatPoly>,
    atom_vars: Vec<Var>,
    /// Interned domain id of each query variable, indexed by `QVar`.
    var_rows: Vec<ValueId>,
}

impl CanonicalInstance {
    /// Builds ⟦Q⟧ for a plain CQ.
    ///
    /// Construction is fully interned: each query variable's fresh domain
    /// value is interned once up front, and every atom occurrence is written
    /// through the id-level [`Instance::add_annotation_row`] — no `DbValue`
    /// tuples are materialised on this path.
    pub fn of_cq(query: &Cq) -> Self {
        let mut instance = Instance::new(query.schema().clone());
        let var_rows: Vec<ValueId> = (0..query.num_vars() as u32)
            .map(|v| query.schema().intern_value(&Self::value_of(QVar(v))))
            .collect();
        let mut atom_vars = Vec::with_capacity(query.num_atoms());
        let mut row: IdTuple = IdTuple::new();
        for (i, atom) in query.atoms().iter().enumerate() {
            let var = Var(i as u32);
            atom_vars.push(var);
            row.clear();
            row.extend(atom.args.iter().map(|&v| var_rows[v.0 as usize]));
            instance.add_annotation_row(atom.relation, &row, NatPoly::var(var));
        }
        CanonicalInstance {
            instance,
            atom_vars,
            var_rows,
        }
    }

    /// Builds ⟦Q⟧ for a CCQ.  The inequalities do not affect the instance
    /// itself (they constrain valuations of queries *evaluated over* it).
    pub fn of_ccq(query: &Ccq) -> Self {
        Self::of_cq(query.cq())
    }

    /// The underlying `N[X]`-instance.
    pub fn instance(&self) -> &Instance<NatPoly> {
        &self.instance
    }

    /// The provenance variable associated with the `i`-th atom of the query.
    pub fn atom_var(&self, atom_index: usize) -> Var {
        self.atom_vars[atom_index]
    }

    /// Number of provenance variables (= number of atoms of the query).
    pub fn num_vars(&self) -> usize {
        self.atom_vars.len()
    }

    /// The domain value representing a query variable.
    pub fn value_of(v: QVar) -> DbValue {
        DbValue::Fresh(v.0)
    }

    /// The interned domain id representing a query variable.
    pub fn row_of(&self, v: QVar) -> ValueId {
        self.var_rows[v.0 as usize]
    }

    /// All domain values of the canonical instance (one per query variable),
    /// in variable order.  This is the candidate set for components of output
    /// tuples in Thm. 4.17.
    pub fn domain(&self) -> Vec<DbValue> {
        (0..self.var_rows.len() as u32)
            .map(DbValue::Fresh)
            .collect()
    }

    /// The output tuple corresponding to binding each free variable of the
    /// query to "itself" (its own domain value).
    pub fn identity_tuple(&self, query: &Cq) -> Tuple {
        query
            .free_vars()
            .iter()
            .map(|&v| Self::value_of(v))
            .collect()
    }

    /// Interned counterpart of [`CanonicalInstance::identity_tuple`].
    pub fn identity_row(&self, query: &Cq) -> IdTuple {
        query.free_vars().iter().map(|&v| self.row_of(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_boolean_cq, eval_cq};
    use crate::schema::Schema;
    use annot_polynomial::Polynomial;

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    #[test]
    fn example_4_6_canonical_instances() {
        // ⟦Q11⟧ for Q11 = ∃u,v,w R(u,v), R(u,w), u≠v, u≠w, v≠w:
        //   R(u,v) ↦ x₁  and  R(u,w) ↦ x₂ (distinct variables).
        let q11 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "w"])
            .build();
        let canon = CanonicalInstance::of_ccq(&Ccq::completion_of(q11.clone()));
        assert_eq!(canon.num_vars(), 2);
        assert_eq!(canon.instance().support_size(), 2);
        let r = schema().relation("R").unwrap();
        let uv = vec![
            CanonicalInstance::value_of(QVar(0)),
            CanonicalInstance::value_of(QVar(1)),
        ];
        let ann = canon.instance().annotation(r, &uv);
        assert_eq!(ann.polynomial(), &Polynomial::var(Var(0)));

        // ⟦Q12⟧ for Q12 = ∃u,v R(u,v), R(u,v), u≠v: single tuple annotated
        // x₁ + x₂.
        let q12 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "v"])
            .build();
        let canon12 = CanonicalInstance::of_cq(&q12);
        assert_eq!(canon12.instance().support_size(), 1);
        let ann12 = canon12.instance().annotation(r, &uv);
        assert_eq!(
            ann12.polynomial(),
            &Polynomial::var(Var(0)).plus(&Polynomial::var(Var(1)))
        );
    }

    #[test]
    fn evaluating_the_query_over_its_own_canonical_instance() {
        // Example 4.6 (continued): Q1^⟦Q11⟧() = x₁² + 2x₁x₂ + x₂²,
        // Q2^⟦Q11⟧() = x₁² + x₂².
        let q1 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "w"])
            .build();
        let q2 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "v"])
            .build();
        let canon = CanonicalInstance::of_cq(&q1);
        let x1 = Polynomial::var(Var(0));
        let x2 = Polynomial::var(Var(1));
        let p1 = eval_boolean_cq(&q1, canon.instance());
        assert_eq!(p1.polynomial(), &x1.plus(&x2).pow(2));
        let p2 = eval_boolean_cq(&q2, canon.instance());
        assert_eq!(p2.polynomial(), &x1.pow(2).plus(&x2.pow(2)));
    }

    #[test]
    fn identity_tuple_binds_free_variables_to_themselves() {
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .build();
        let canon = CanonicalInstance::of_cq(&q);
        let t = canon.identity_tuple(&q);
        assert_eq!(t, vec![DbValue::Fresh(0)]);
        // Q(x) :- R(x, y) over its own canonical instance at x = "x": the
        // single atom matches itself, yielding its own provenance variable.
        let val = eval_cq(&q, canon.instance(), &t);
        assert_eq!(val.polynomial(), &Polynomial::var(Var(0)));
        assert_eq!(canon.domain().len(), 2);
        assert_eq!(canon.atom_var(0), Var(0));
    }
}
