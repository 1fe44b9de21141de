//! Decision procedures for K-containment of unions of conjunctive queries
//! (Sec. 5 of the paper).
//!
//! * [`local`] — the member-wise ("local") criteria of Prop. 5.1 and its
//!   refinements for `C_hom`, `C¹_in`, `C¹_sur`, `C¹_bi`;
//! * [`bijective`] — the counting criteria `↪_∞` / `↪_k` over complete
//!   descriptions (Sec. 5.2, `C^∞_bi` and `C^k_bi`);
//! * [`surjective`] — the unique-surjection criterion `↠_∞` (Sec. 5.3,
//!   `C^∞_sur`) as a maximum flow;
//! * [`covering`] — the covering criteria `⇉₁` / `⇉₂` (Sec. 5.4, `C¹_hcov`
//!   and `C²_hcov`).
//!
//! The criteria over complete descriptions read the isomorphism classes of
//! their members (`annot_query::complete::Classes`), each with a
//! multiplicity per side, not the members one by one.

pub mod bijective;
pub mod covering;
pub mod local;
pub mod surjective;
