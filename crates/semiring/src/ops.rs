//! The commutative-semiring abstraction used for database annotations.
//!
//! A (commutative) semiring `K = ⟨K, ⊕, ⊗, 0, 1⟩` consists of two commutative
//! monoids sharing a carrier, with `⊗` distributing over `⊕` and `0`
//! annihilating `⊗` (Sec. 2 of the paper).  For the study of query
//! containment the paper additionally equips every semiring with a partial
//! order `¹_K` and restricts attention to **positive** semirings
//! (Prop. 3.1): `0 ¹ a` for every `a`, and `⊕` is monotone in the order.
//!
//! The [`Semiring`] trait below captures exactly that package: operations,
//! constants and the order.  The trait deliberately uses `&self` methods and
//! associated constructor functions (rather than operator overloading) so
//! that heap-carrying annotation domains — polynomials, why-provenance sets,
//! Trio bags — fit as comfortably as `Copy` scalars.

use annot_polynomial::poly::n_fold_sum;
use std::fmt::Debug;

/// A positive, partially ordered commutative semiring.
///
/// Implementations must satisfy the semiring laws *and* positivity with
/// respect to [`Semiring::leq`]; the [`crate::axioms`] module provides
/// sampling-based checkers used by the test-suite to validate every
/// implementation shipped in this crate.
///
/// `Send + Sync` are supertraits so that annotated instances can be
/// evaluated from multiple threads (the brute-force oracle splits its
/// enumeration across a scoped thread pool); annotation domains are plain
/// values, so every implementation in this crate satisfies them
/// automatically.
pub trait Semiring: Clone + PartialEq + Debug + Send + Sync {
    /// Human-readable name of the semiring, e.g. `"N[X]"` or `"T+"`.
    const NAME: &'static str;

    /// The additive identity `0` (annotation of absent tuples).
    fn zero() -> Self;

    /// The multiplicative identity `1`.
    fn one() -> Self;

    /// Semiring addition `⊕` (combining alternative derivations).
    fn add(&self, other: &Self) -> Self;

    /// Semiring multiplication `⊗` (combining joint derivations).
    fn mul(&self, other: &Self) -> Self;

    /// The partial order `¹_K` used to define K-containment.
    ///
    /// For all naturally ordered semirings in this crate this is the natural
    /// order `a ¹ b ⇔ ∃c. a ⊕ c = b`; positivity (Prop. 3.1) is required of
    /// every implementation.
    fn leq(&self, other: &Self) -> bool;

    /// Whether this element is the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Whether this element is the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// A finite, representative sample of elements of the semiring.
    ///
    /// The sample is used by the axiom checkers ([`crate::axioms`]), by
    /// property-based tests, and by the brute-force containment baseline in
    /// `annot-core`.  It should contain `0`, `1`, and enough further elements
    /// to distinguish the semiring's algebraic behaviour (for infinite
    /// carriers a small informative slice suffices).
    fn sample_elements() -> Vec<Self>;

    /// The subset of [`Semiring::sample_elements`] the brute-force
    /// containment oracle draws non-zero annotations from.
    ///
    /// The contract is *decisiveness*: for every pair of provenance
    /// polynomials `p₁, p₂ ∈ N[X]`, if some assignment of full sample
    /// elements to the variables refutes `Eval(p₁) ¹_K Eval(p₂)`, then some
    /// assignment of decisive elements refutes it too.  Since query
    /// annotations enter containment only through such evaluations
    /// (Prop. 3.2), a decisive subset preserves exactly the oracle's
    /// refutation power while shrinking its `sᵏ` enumeration factor.
    ///
    /// The default — the full sample set — is always decisive.  Overrides
    /// must justify every dropped element inline and are certified
    /// empirically by the repository's decisiveness suite
    /// (`tests/decisive_samples.rs`), which also exercises the reduced sets
    /// end-to-end against the full-sample naive oracle.
    fn decisive_samples() -> Vec<Self> {
        Self::sample_elements()
    }

    /// `n`-fold sum of `1`, i.e. the canonical image of a natural number,
    /// in O(log n) additions ([`annot_polynomial::poly::n_fold_sum`]).
    fn from_natural(n: u64) -> Self {
        n_fold_sum(n, &Self::one(), Self::zero(), &|a: &Self, b: &Self| {
            a.add(b)
        })
    }

    /// `self` raised to the `k`-th power (with `x⁰ = 1`).
    fn pow(&self, k: u32) -> Self {
        let mut acc = Self::one();
        for _ in 0..k {
            acc = acc.mul(self);
        }
        acc
    }

    /// Sum of an iterator of elements (`0` for the empty iterator).
    fn sum<'a, I>(iter: I) -> Self
    where
        Self: 'a,
        I: IntoIterator<Item = &'a Self>,
    {
        iter.into_iter().fold(Self::zero(), |acc, x| acc.add(x))
    }

    /// Product of an iterator of elements (`1` for the empty iterator).
    fn product<'a, I>(iter: I) -> Self
    where
        Self: 'a,
        I: IntoIterator<Item = &'a Self>,
    {
        iter.into_iter().fold(Self::one(), |acc, x| acc.mul(x))
    }

    /// Equality in the order sense: `a =_K b ⇔ a ¹ b ∧ b ¹ a`.
    ///
    /// For antisymmetric orders this coincides with `==`; it is exposed
    /// separately so that axiom checks mirror the paper's `=_K` notation.
    fn order_eq(&self, other: &Self) -> bool {
        self.leq(other) && other.leq(self)
    }
}

/// Convenience: evaluate a provenance polynomial in any semiring, realising
/// the universal property of `N[X]` (Prop. 3.2).
///
/// The valuation `ν : X → K` is extended to the unique semiring morphism
/// `Eval_ν : N[X] → K`.
pub fn eval_polynomial<K: Semiring>(
    p: &annot_polynomial::Polynomial,
    valuation: &dyn Fn(annot_polynomial::Var) -> K,
) -> K {
    p.eval_generic(
        K::zero(),
        K::one(),
        &|a: &K, b: &K| a.add(b),
        &|a: &K, b: &K| a.mul(b),
        valuation,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::Bool;
    use crate::natural::Natural;
    use annot_polynomial::{Polynomial, Var};

    #[test]
    fn from_natural_counts_in_n() {
        assert_eq!(Natural::from_natural(0), Natural::zero());
        assert_eq!(Natural::from_natural(1), Natural::one());
        assert_eq!(Natural::from_natural(5), Natural(5));
    }

    #[test]
    fn from_natural_saturates_in_bool() {
        assert_eq!(Bool::from_natural(0), Bool(false));
        assert_eq!(Bool::from_natural(1), Bool(true));
        assert_eq!(Bool::from_natural(17), Bool(true));
    }

    #[test]
    fn pow_sum_product_helpers() {
        let three = Natural(3);
        assert_eq!(three.pow(0), Natural::one());
        assert_eq!(three.pow(3), Natural(27));
        let xs = [Natural(1), Natural(2), Natural(3)];
        assert_eq!(Natural::sum(xs.iter()), Natural(6));
        assert_eq!(Natural::product(xs.iter()), Natural(6));
        assert_eq!(Natural::sum(std::iter::empty()), Natural::zero());
        assert_eq!(Natural::product(std::iter::empty()), Natural::one());
    }

    #[test]
    fn eval_polynomial_universal_property() {
        // Eval is a morphism: it maps sums to sums and products to products.
        let x = Polynomial::var(Var(0));
        let y = Polynomial::var(Var(1));
        let p = x.plus(&y);
        let q = x.times(&y);
        let val = |v: Var| if v == Var(0) { Natural(2) } else { Natural(3) };
        let ep = eval_polynomial(&p, &val);
        let eq = eval_polynomial(&q, &val);
        assert_eq!(ep, Natural(5));
        assert_eq!(eq, Natural(6));
        // morphism property on a composite
        let composite = p.times(&q).plus(&p);
        assert_eq!(eval_polynomial(&composite, &val), ep.mul(&eq).add(&ep));
    }

    #[test]
    fn order_eq_mirrors_equality_for_antisymmetric_orders() {
        assert!(Natural(4).order_eq(&Natural(4)));
        assert!(!Natural(4).order_eq(&Natural(5)));
    }
}
