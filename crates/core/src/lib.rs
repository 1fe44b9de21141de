//! # annot-core
//!
//! The primary contribution of *"Classification of Annotation Semirings over
//! Query Containment"* (Kostylev, Reutter, Salamon; PODS 2012), implemented
//! as a library: the classification of positive semirings by which syntactic
//! criterion decides K-containment of conjunctive queries and unions thereof,
//! together with the decision procedures themselves.
//!
//! | module | contents | paper |
//! |--------|----------|-------|
//! | [`classes`] | the class taxonomy (`C_hom`, `C_hcov`, `C_in`, `C_sur`, `C_bi`, offsets, `C^k_bi`, …) and declared profiles of the shipped semirings | Sec. 3–5, Table 1 |
//! | [`classify`](mod@classify) | empirical classification by axiom sampling | Sec. 3.3–4.4 |
//! | [`cq`] | CQ containment deciders, one per Table 1 row | Sec. 3.3, 4.1–4.4 |
//! | [`ucq`] | UCQ containment deciders (local, counting `↪_k`/`↪_∞`, unique-surjection `↠_∞`, coverings `⇉₁`/`⇉₂`) | Sec. 5 |
//! | [`small_model`] | the canonical-instance procedure of Thm. 4.17 (and its UCQ extension) | Sec. 4.6 |
//! | [`poly_order`] | decidable polynomial orders `¹_K` backing the small-model procedure | Sec. 3.2, 4.6 |
//! | [`matching`] | bipartite matching (Hall's theorem) used by `↠_∞` | Sec. 5.3 |
//! | [`brute_force`] | semantic baseline used for cross-validation | — |
//! | [`steal`] | the work-stealing task pool driving the baseline's parallel walk | — |
//! | [`decide`] | the unified, class-dispatching containment solver | Table 1 |
//! | [`registry`] | runtime dispatch by semiring name ([`SemiringId`], `decide_*_dyn`) | Table 1 |
//!
//! ## Quick example
//!
//! ```
//! use annot_core::decide::decide_cq;
//! use annot_core::registry::{decide_cq_dyn, SemiringId};
//! use annot_query::{parser, Schema};
//! use annot_semiring::{Bool, NatPoly, Tropical};
//!
//! let mut schema = Schema::new();
//! // Example 4.6 of the paper:
//! let q1 = parser::parse_cq(&mut schema, "Q() :- R(u, v), R(u, w)").unwrap();
//! let q2 = parser::parse_cq(&mut schema, "Q() :- R(u, v), R(u, v)").unwrap();
//!
//! // Over set semantics the queries are equivalent …
//! assert_eq!(decide_cq::<Bool>(&q1, &q2).decided(), Some(true));
//! // … over provenance polynomials Q1 is NOT contained in Q2 …
//! assert_eq!(decide_cq::<NatPoly>(&q1, &q2).decided(), Some(false));
//! // … and over the tropical semiring it is contained again — the same
//! // entry point reaches the small-model procedure via the class profile.
//! assert_eq!(decide_cq::<Tropical>(&q1, &q2).decided(), Some(true));
//!
//! // Runtime dispatch by name returns the identical Decision:
//! let why = SemiringId::from_name("Why").unwrap();
//! assert_eq!(decide_cq_dyn(why, &q1, &q2).decided(), Some(false));
//! ```

#![warn(missing_docs)]

pub mod brute_force;
pub mod classes;
pub mod classify;
pub mod cq;
pub mod decide;
pub mod matching;
pub mod poly_order;
pub mod registry;
pub mod small_model;
pub mod steal;
pub mod sync;
pub mod ucq;

pub use classes::{
    ClassProfile, ClassifiedSemiring, Complexity, CqCriterion, Offset, PolyLeqFn, UcqCriterion,
};
pub use classify::{classify, EmpiricalClassification};
pub use decide::{decide_cq, decide_ucq, Decision, Verdict};
pub use poly_order::PolynomialOrder;
pub use registry::{decide_cq_dyn, decide_ucq_dyn, SemiringId};
