//! Conjunctive queries with inequalities (and complete CQs).
//!
//! A CQ with inequalities (Sec. 4.6 of the paper) is a CQ together with a set
//! of disequations `u ≠ v` on its variables; its valuations are required to
//! respect the disequations.  It is **complete** (a CCQ) when
//! every pair of distinct existential variables is bounded by an inequality —
//! the building block of *complete descriptions* (Sec. 4.6 and 5), where the
//! key property is that all endomorphisms of a CCQ are automorphisms.
//!
//! `Ccq` is not on the decide path: the deciders read the members of a flat
//! [`crate::complete::Description`], in which every two variables differ.
//! `Ccq` is the general form, with any set of inequalities, for tests,
//! examples, the oracle's [`crate::Ducq`] and the materialised members of a
//! description.

use crate::cq::{Cq, QVar, QueryView};
use crate::schema::{RelId, Schema};
use std::collections::BTreeSet;
use std::fmt;

/// A CQ with inequalities on its variables.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ccq {
    cq: Cq,
    /// Normalised: each pair stored once with the smaller variable first.
    inequalities: BTreeSet<(QVar, QVar)>,
}

impl Ccq {
    /// Wraps a CQ with a set of inequalities.
    ///
    /// Pairs are normalised (unordered, deduplicated); reflexive pairs
    /// `v ≠ v` are rejected since they would make the query unsatisfiable in
    /// a trivial way.
    pub fn new(cq: Cq, inequalities: impl IntoIterator<Item = (QVar, QVar)>) -> Self {
        let mut set = BTreeSet::new();
        for (a, b) in inequalities {
            assert_ne!(a, b, "inequality between a variable and itself");
            set.insert(normalise(a, b));
        }
        Ccq {
            cq,
            inequalities: set,
        }
    }

    /// A CCQ with no inequalities (equivalent to the plain CQ).
    pub fn from_cq(cq: Cq) -> Self {
        Ccq {
            cq,
            inequalities: BTreeSet::new(),
        }
    }

    /// The underlying CQ.
    pub fn cq(&self) -> &Cq {
        &self.cq
    }

    /// The inequality pairs (normalised).
    pub fn inequalities(&self) -> &BTreeSet<(QVar, QVar)> {
        &self.inequalities
    }

    /// Whether two variables are required to be different.
    pub fn must_differ(&self, a: QVar, b: QVar) -> bool {
        a != b && self.inequalities.contains(&normalise(a, b))
    }

    /// Whether the query is *complete*: every pair of distinct existential
    /// variables is bounded by an inequality.
    pub fn is_complete(&self) -> bool {
        let ex = self.cq.existential_vars();
        for (i, &a) in ex.iter().enumerate() {
            for &b in &ex[i + 1..] {
                if !self.must_differ(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Turns a CQ into the complete CCQ over the *same* atoms by attaching an
    /// inequality between every pair of distinct existential variables.
    pub fn completion_of(cq: Cq) -> Self {
        let ex = cq.existential_vars();
        let mut ineqs = Vec::new();
        for (i, &a) in ex.iter().enumerate() {
            for &b in &ex[i + 1..] {
                ineqs.push((a, b));
            }
        }
        Ccq::new(cq, ineqs)
    }

    /// A valuation respects the inequalities if every constrained pair is
    /// mapped to distinct values.  `lookup` maps variables to an arbitrary
    /// comparable image (database values, other variables, …).
    pub fn respects_inequalities<T: PartialEq>(&self, lookup: &dyn Fn(QVar) -> T) -> bool {
        self.inequalities
            .iter()
            .all(|&(a, b)| lookup(a) != lookup(b))
    }
}

fn normalise(a: QVar, b: QVar) -> (QVar, QVar) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl QueryView for Ccq {
    fn schema(&self) -> &Schema {
        self.cq.schema()
    }

    fn num_vars(&self) -> usize {
        self.cq.num_vars()
    }

    fn num_atoms(&self) -> usize {
        self.cq.num_atoms()
    }

    fn relation(&self, atom: usize) -> RelId {
        self.cq.atoms()[atom].relation
    }

    fn args(&self, atom: usize) -> &[QVar] {
        &self.cq.atoms()[atom].args
    }

    fn head(&self) -> &[QVar] {
        self.cq.free_vars()
    }
}

impl fmt::Display for Ccq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.cq)?;
        for &(a, b) in &self.inequalities {
            write!(f, ", {} != {}", self.cq.var_name(a), self.cq.var_name(b))?;
        }
        Ok(())
    }
}

impl From<Cq> for Ccq {
    fn from(cq: Cq) -> Self {
        Ccq::from_cq(cq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::with_relations([("R", 2)])
    }

    #[test]
    fn inequalities_are_normalised() {
        let ccq = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .inequality("v", "u")
            .inequality("u", "v")
            .build_ccq();
        assert_eq!(ccq.inequalities().len(), 1);
        assert!(ccq.must_differ(QVar(0), QVar(1)));
        assert!(ccq.must_differ(QVar(1), QVar(0)));
        assert!(!ccq.must_differ(QVar(0), QVar(0)));
    }

    #[test]
    #[should_panic]
    fn reflexive_inequality_rejected() {
        let _ = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .inequality("u", "u")
            .build_ccq();
    }

    #[test]
    fn completeness_detection() {
        // Q11 from Example 4.6: ∃u,v,w R(u,v), R(u,w) with all pairs distinct.
        let q = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "w"])
            .build();
        let partial = Ccq::new(q.clone(), [(QVar(0), QVar(1))]);
        assert!(!partial.is_complete());
        let complete = Ccq::completion_of(q);
        assert!(complete.is_complete());
        assert_eq!(complete.inequalities().len(), 3);
    }

    #[test]
    fn from_cq_has_no_inequalities_but_may_be_complete_when_few_vars() {
        let q = Cq::builder(&schema()).atom("R", &["u", "u"]).build();
        let ccq = Ccq::from_cq(q.clone());
        assert!(ccq.is_complete()); // only one existential variable
        let q2 = Cq::builder(&schema()).atom("R", &["u", "v"]).build();
        assert!(!Ccq::from_cq(q2.clone()).is_complete());
        let conv: Ccq = q2.into();
        assert!(conv.inequalities().is_empty());
    }

    #[test]
    fn respects_inequalities_checks_images() {
        let ccq = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .inequality("u", "v")
            .build_ccq();
        assert!(ccq.respects_inequalities(&|v: QVar| v.0)); // identity: distinct
        assert!(!ccq.respects_inequalities(&|_| 0u32)); // collapses u and v
    }

    #[test]
    fn free_variables_are_not_constrained_by_completion() {
        let q = Cq::builder(&schema())
            .free(&["x"])
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let complete = Ccq::completion_of(q);
        // only the existential pair (y, z) is constrained
        assert_eq!(complete.inequalities().len(), 1);
        assert!(complete.is_complete());
        assert!(complete.must_differ(QVar(1), QVar(2)));
    }

    #[test]
    fn display_appends_inequalities() {
        let ccq = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .inequality("u", "v")
            .build_ccq();
        assert_eq!(format!("{}", ccq), "Q() :- R(u, v), u != v");
    }
}
