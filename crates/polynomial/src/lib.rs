//! # annot-polynomial
//!
//! Provenance polynomials `N[X]` and the algebraic machinery built on them,
//! as used by *"Classification of Annotation Semirings over Query
//! Containment"* (Kostylev, Reutter, Salamon; PODS 2012).
//!
//! The crate provides:
//!
//! * [`Var`] — polynomial variables (provenance tokens);
//! * [`Monomial`] and [`Polynomial`] — the free commutative semiring `N[X]`
//!   (Sec. 3.2 of the paper), with a generic evaluation realising the
//!   universal property of Prop. 3.2;
//! * [`Terms`] — the same polynomials as flat exponent rows, the input of
//!   every polynomial order;
//! * [`admissible`] — the CQ-admissible polynomials `N^cq[X]` of Sec. 4.5,
//!   characterised via o-monomial representations (Prop. 4.16);
//! * [`tropical`] — exact decision of the polynomial orders `¹_{T⁺}` and
//!   `¹_{T⁻}` needed by the small-model containment procedure of Sec. 4.6
//!   (Prop. 4.19), via
//! * [`linear`] — Fourier–Motzkin feasibility of linear-inequality systems
//!   over exact [`rational::Rational`] arithmetic.
//!
//! The crate has no dependencies and is usable on its own; the sibling crates
//! `annot-semiring`, `annot-query` and `annot-core` build the semiring
//! hierarchy, the query language and the containment procedures on top of it.
//!
//! ## Example
//!
//! ```
//! use annot_polynomial::{Polynomial, Var};
//! use annot_polynomial::admissible::is_cq_admissible;
//!
//! let x = Polynomial::var(Var(0));
//! let y = Polynomial::var(Var(1));
//!
//! // (x + y)² = x² + 2xy + y² is a CQ-admissible polynomial ...
//! let square = x.plus(&y).pow(2);
//! assert!(is_cq_admissible(&square));
//!
//! // ... but x² + xy + y² is not (Sec. 4.5 of the paper).
//! let partial = x.pow(2).plus(&x.times(&y)).plus(&y.pow(2));
//! assert!(!is_cq_admissible(&partial));
//! ```

#![warn(missing_docs)]

pub mod admissible;
pub mod linear;
pub mod monomial;
pub mod poly;
pub mod rational;
pub mod terms;
pub mod tropical;
pub mod var;

pub use admissible::{find_admissible_representation, is_cq_admissible};
pub use monomial::Monomial;
pub use poly::Polynomial;
pub use rational::Rational;
pub use terms::Terms;
pub use tropical::{leq_tropical, TropicalKind};
pub use var::Var;

#[cfg(test)]
mod integration_tests {
    use super::*;

    #[test]
    fn universal_evaluation_into_booleans() {
        // Prop. 3.2: evaluating N[X] into B (set semantics) is a semiring
        // morphism; e.g. (x + y)·x evaluates to true iff x is true.
        let x = Polynomial::var(Var(0));
        let y = Polynomial::var(Var(1));
        let p = x.plus(&y).times(&x);
        let into_bool = |vx: bool, vy: bool| {
            p.eval_generic(false, true, &|a, b| *a || *b, &|a, b| *a && *b, &|v| {
                if v == Var(0) {
                    vx
                } else {
                    vy
                }
            })
        };
        assert!(into_bool(true, false));
        assert!(into_bool(true, true));
        assert!(!into_bool(false, true));
        assert!(!into_bool(false, false));
    }

    #[test]
    fn reexports_are_usable() {
        let (zero, one) = (
            Terms::from(&Polynomial::zero()),
            Terms::from(&Polynomial::one()),
        );
        assert!(leq_tropical(&zero, &one, TropicalKind::MinPlus));
        assert!(leq_tropical(&zero, &one, TropicalKind::MaxPlus));
        assert!(is_cq_admissible(&Polynomial::var(Var(3))));
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        let m = Monomial::var(Var(1));
        assert_eq!(m.degree(), 1);
        assert!(leq_tropical(&one, &one, TropicalKind::MinPlus));
        assert!(find_admissible_representation(&Polynomial::one()).is_some());
    }
}
