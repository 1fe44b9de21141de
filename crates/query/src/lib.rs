//! # annot-query
//!
//! Conjunctive queries over annotated (K-)relations: the data model and query
//! language layer of the reproduction of *"Classification of Annotation
//! Semirings over Query Containment"* (Kostylev, Reutter, Salamon;
//! PODS 2012).
//!
//! Provided here:
//!
//! * [`Schema`], [`DbValue`], [`Tuple`] — schemas and database values, plus
//!   the shared [`Domain`] interner mapping values to dense [`ValueId`]s
//!   (the representation every hot path joins on);
//! * [`Cq`], [`Ucq`], [`Ccq`], [`Ducq`] — conjunctive queries, unions, CQs
//!   with inequalities, and unions of those (Sec. 2, 4.6);
//! * [`Instance`] — K-instances over any [`annot_semiring::Semiring`];
//! * [`rowtable`] — the shared flat row-table machinery (arity-chunked
//!   row arenas + open-addressed row index) both [`Instance`] and
//!   [`eval::EvalState`] store relations with;
//! * [`eval`] — semiring evaluation of CQs/CCQs/UCQs (Sec. 2);
//! * [`CanonicalInstance`] — canonical instances ⟦Q⟧ (Sec. 4.6);
//! * [`complete`] — complete descriptions ⟨Q⟩ (Sec. 4.6, 5), flat, and
//!   their members' isomorphism classes;
//! * [`parser`] — a Datalog-style concrete syntax;
//! * [`generator`] — random query/instance workload generators.
//!
//! ## Example
//!
//! ```
//! use annot_query::{parser, Instance, Schema};
//! use annot_query::eval::eval_cq;
//! use annot_semiring::Natural;
//!
//! let mut schema = Schema::new();
//! let q = parser::parse_cq(&mut schema, "Q(x) :- R(x, y), S(y)").unwrap();
//!
//! let mut db: Instance<Natural> = Instance::new(schema);
//! db.insert_named("R", vec!["a".into(), "b".into()], Natural(2));
//! db.insert_named("S", vec!["b".into()], Natural(3));
//!
//! // Under bag semantics the answer ⟨a⟩ has multiplicity 2·3 = 6.
//! assert_eq!(eval_cq(&q, &db, &vec!["a".into()]), Natural(6));
//! ```

#![warn(missing_docs)]

pub mod canonical;
pub mod ccq;
pub mod complete;
pub mod cq;
pub mod eval;
pub mod generator;
pub mod instance;
pub mod key;
pub mod parser;
pub mod rowtable;
pub mod schema;
pub mod ucq;

pub use canonical::CanonicalInstance;
pub use ccq::Ccq;
pub use cq::{Atom, Cq, CqBuilder, QVar, QueryView};
pub use instance::Instance;
pub use schema::{DbValue, Domain, IdTuple, RelId, Schema, SchemaError, Tuple, ValueId};
pub use ucq::{Ducq, Ucq};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use crate::complete::complete_description_ucq;
    use crate::eval::{eval_boolean_ucq, eval_ducq};
    use annot_semiring::{Natural, Semiring, Tropical};

    /// Complete descriptions are semantically equivalent to the original
    /// query: Q ≡_K ⟨Q⟩ (Sec. 5).  We check it on concrete instances for a
    /// non-idempotent (N) and an idempotent (T⁺) semiring.
    #[test]
    fn complete_description_preserves_semantics() {
        let mut schema = Schema::new();
        let ucq = parser::parse_ucq(
            &mut schema,
            "Q() :- R(u, v), R(v, w) ; Q() :- R(u, u), R(u, v)",
        )
        .unwrap();
        let desc = complete_description_ucq(&ucq);

        let mut db_n: Instance<Natural> = Instance::new(schema.clone());
        db_n.insert_named("R", vec![0.into(), 1.into()], Natural(2));
        db_n.insert_named("R", vec![1.into(), 1.into()], Natural(3));
        db_n.insert_named("R", vec![1.into(), 0.into()], Natural(1));
        assert_eq!(
            eval_boolean_ucq(&ucq, &db_n),
            eval_ducq(&desc, &db_n, &vec![])
        );

        let db_t: Instance<Tropical> = db_n.map_annotations(&|n| Tropical::Finite(n.0));
        assert_eq!(
            eval_boolean_ucq(&ucq, &db_t),
            eval_ducq(&desc, &db_t, &vec![])
        );
    }

    /// The empty UCQ evaluates to 0 on every instance (Sec. 2).
    #[test]
    fn empty_ucq_evaluates_to_zero() {
        let schema = Schema::with_relations([("R", 2)]);
        let mut db: Instance<Natural> = Instance::new(schema);
        db.insert_named("R", vec![0.into(), 1.into()], Natural(5));
        assert_eq!(eval_boolean_ucq(&Ucq::empty(), &db), Natural::zero());
    }
}
