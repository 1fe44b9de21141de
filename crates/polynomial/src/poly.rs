//! The provenance-polynomial semiring `N[X]` (Sec. 3.2).
//!
//! A [`Polynomial`] is a finite formal sum of [`Monomial`]s with natural
//! number coefficients.  `⟨N[X], +, ×, 0, 1⟩` is the free (most general)
//! commutative semiring over `X`: by Prop. 3.2 it is universal for the class
//! of all positive semirings, which is why polynomial identities and
//! inequalities (`P₁ =_K P₂`, `P₁ ¹_K P₂`) can express axioms of arbitrary
//! semirings.

use crate::monomial::Monomial;
use crate::var::Var;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul};

/// A polynomial in `N[X]`: a map from monomials to positive coefficients.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Polynomial {
    /// Invariant: all stored coefficients are strictly positive.
    terms: BTreeMap<Monomial, u64>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial {
            terms: BTreeMap::new(),
        }
    }

    /// The unit polynomial `1`.
    pub fn one() -> Self {
        Polynomial::constant(1)
    }

    /// A constant polynomial `c`.
    pub fn constant(c: u64) -> Self {
        let mut terms = BTreeMap::new();
        if c > 0 {
            terms.insert(Monomial::one(), c);
        }
        Polynomial { terms }
    }

    /// The polynomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        Polynomial::from_monomial(Monomial::var(v), 1)
    }

    /// A polynomial with a single term `c·M`.
    pub fn from_monomial(m: Monomial, c: u64) -> Self {
        let mut terms = BTreeMap::new();
        if c > 0 {
            terms.insert(m, c);
        }
        Polynomial { terms }
    }

    /// Builds a polynomial from `(monomial, coefficient)` pairs, merging
    /// duplicates and dropping zero coefficients.
    pub fn from_terms(terms: impl IntoIterator<Item = (Monomial, u64)>) -> Self {
        let mut p = Polynomial::zero();
        for (m, c) in terms {
            p.add_term(m, c);
        }
        p
    }

    /// Adds `c · m` to the polynomial in place.
    pub fn add_term(&mut self, m: Monomial, c: u64) {
        if c == 0 {
            return;
        }
        *self.terms.entry(m).or_insert(0) += c;
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether this is the unit polynomial.
    pub fn is_one(&self) -> bool {
        self.terms.len() == 1 && self.coefficient(&Monomial::one()) == 1
    }

    /// The coefficient of a monomial (0 if absent).
    pub fn coefficient(&self, m: &Monomial) -> u64 {
        self.terms.get(m).copied().unwrap_or(0)
    }

    /// Whether the polynomial contains the monomial `m` (with any positive
    /// coefficient).  This is the notion of "contains the monomial" used in
    /// the axioms of `N_in`, `N_sur`, `C_bi` (Sec. 4.2–4.4).
    pub fn contains_monomial(&self, m: &Monomial) -> bool {
        self.terms.contains_key(m)
    }

    /// Iterates over `(monomial, coefficient)` pairs in graded-lex order.
    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, u64)> + '_ {
        self.terms.iter().map(|(m, &c)| (m, c))
    }

    /// Number of distinct monomials.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Sum of all coefficients (the value of the polynomial with every
    /// variable set to `1` in `N`).
    pub fn coefficient_sum(&self) -> u64 {
        self.terms.values().sum()
    }

    /// The constant term.
    pub fn constant_term(&self) -> u64 {
        self.coefficient(&Monomial::one())
    }

    /// Whether the polynomial has no constant term; required by the axioms of
    /// the classes `N¹_in`, `N¹_sur`, `C^∞_bi`, `Nᵏ_hcov` (Sec. 5).
    pub fn has_no_constant_term(&self) -> bool {
        self.constant_term() == 0
    }

    /// Total degree (maximum degree over monomials); `None` for the zero
    /// polynomial.
    pub fn degree(&self) -> Option<u32> {
        self.terms.keys().map(|m| m.degree()).max()
    }

    /// Whether the polynomial is homogeneous of some degree (all monomials
    /// share the same total degree).  Every CQ-admissible polynomial is
    /// homogeneous (Sec. 4.5).
    pub fn is_homogeneous(&self) -> bool {
        let mut degrees = self.terms.keys().map(|m| m.degree());
        match degrees.next() {
            None => true,
            Some(d) => degrees.all(|d2| d2 == d),
        }
    }

    /// The set of variables occurring in the polynomial, sorted.
    pub fn variables(&self) -> Vec<Var> {
        let mut vars: Vec<Var> = self
            .terms
            .keys()
            .flat_map(|m| m.variables().collect::<Vec<_>>())
            .collect();
        vars.sort();
        vars.dedup();
        vars
    }

    /// Whether the polynomial uses all the given variables (each appears in
    /// at least one monomial) — used by the `Nᵏ_hcov` axioms (Sec. 5.4).
    pub fn uses_all_variables(&self, vars: &[Var]) -> bool {
        vars.iter()
            .all(|v| self.terms.keys().any(|m| m.exponent(*v) > 0))
    }

    /// Polynomial addition.
    pub fn plus(&self, other: &Polynomial) -> Polynomial {
        let mut result = self.clone();
        for (m, c) in other.terms() {
            result.add_term(m.clone(), c);
        }
        result
    }

    /// Polynomial multiplication.
    pub fn times(&self, other: &Polynomial) -> Polynomial {
        let mut result = Polynomial::zero();
        for (m1, c1) in self.terms() {
            for (m2, c2) in other.terms() {
                result.add_term(m1.mul(m2), c1.saturating_mul(c2));
            }
        }
        result
    }

    /// `self` raised to the power `k` (with `P⁰ = 1`).
    pub fn pow(&self, k: u32) -> Polynomial {
        let mut result = Polynomial::one();
        for _ in 0..k {
            result = result.times(self);
        }
        result
    }

    /// The sum of a set of distinct variables, `x₁ + … + xₙ`.
    pub fn sum_of_vars(vars: &[Var]) -> Polynomial {
        Polynomial::from_terms(vars.iter().map(|&v| (Monomial::var(v), 1)))
    }

    /// The product of a list of variables (with repetitions allowed),
    /// `x₁ × … × xₙ`.
    pub fn product_of_vars(vars: &[Var]) -> Polynomial {
        Polynomial::from_monomial(Monomial::from_vars(vars.iter().copied()), 1)
    }

    /// Evaluates the polynomial in `N` under an assignment `Var → u64`.
    /// Missing variables evaluate to `0`.
    pub fn eval_nat(&self, assignment: &dyn Fn(Var) -> u64) -> u64 {
        let mut total: u64 = 0;
        for (m, c) in self.terms() {
            let mut prod: u64 = c;
            for &(v, e) in m.factors() {
                for _ in 0..e {
                    prod = prod.saturating_mul(assignment(v));
                }
            }
            total = total.saturating_add(prod);
        }
        total
    }

    /// Evaluates the polynomial in an arbitrary commutative semiring given by
    /// its operations.  This is the universal property `Eval_ν` of Prop. 3.2:
    /// any map `ν : X → K` extends uniquely to a semiring morphism
    /// `N[X] → K`.
    ///
    /// The caller supplies `zero`, `one`, `add`, `mul` and the valuation of
    /// each variable; a monomial with coefficient `c` contributes the
    /// `c`-fold sum of its value ([`n_fold_sum`]), and the exponent `e` of a
    /// variable is the `e`-fold product.
    pub fn eval_generic<T: Clone>(
        &self,
        zero: T,
        one: T,
        add: &dyn Fn(&T, &T) -> T,
        mul: &dyn Fn(&T, &T) -> T,
        valuation: &dyn Fn(Var) -> T,
    ) -> T {
        let mut total = zero.clone();
        for (m, c) in self.terms() {
            // coefficient as repeated addition of `one`
            let mut term = one.clone();
            // product of variables
            for &(v, e) in m.factors() {
                let val = valuation(v);
                for _ in 0..e {
                    term = mul(&term, &val);
                }
            }
            // multiply by the coefficient: term + term + ... (c times)
            let ctimes = n_fold_sum(c, &term, zero.clone(), add);
            total = add(&total, &ctimes);
        }
        total
    }
}

/// `n·x`, the `n`-fold sum `x + ⋯ + x` (`zero` when `n = 0`), by doubling
/// and adding: O(log n) additions instead of `n`.  It equals the repeated
/// sum whenever `add` is associative, as every semiring's `⊕` is, saturating
/// ones included.
pub fn n_fold_sum<T: Clone>(n: u64, x: &T, zero: T, add: &dyn Fn(&T, &T) -> T) -> T {
    let (mut total, mut power, mut n) = (zero, x.clone(), n);
    // Invariant: the result is `total + n·power`.
    while n > 0 {
        if n & 1 == 1 {
            total = add(&total, &power);
        }
        n >>= 1;
        if n > 0 {
            power = add(&power, &power);
        }
    }
    total
}

impl Add for &Polynomial {
    type Output = Polynomial;
    fn add(self, rhs: &Polynomial) -> Polynomial {
        self.plus(rhs)
    }
}

impl Mul for &Polynomial {
    type Output = Polynomial;
    fn mul(self, rhs: &Polynomial) -> Polynomial {
        self.times(rhs)
    }
}

impl Add for Polynomial {
    type Output = Polynomial;
    fn add(self, rhs: Polynomial) -> Polynomial {
        self.plus(&rhs)
    }
}

impl Mul for Polynomial {
    type Output = Polynomial;
    fn mul(self, rhs: Polynomial) -> Polynomial {
        self.times(&rhs)
    }
}

impl fmt::Debug for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (m, c) in self.terms() {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            if m.is_one() {
                write!(f, "{}", c)?;
            } else if c == 1 {
                write!(f, "{}", m)?;
            } else {
                write!(f, "{}·{}", c, m)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Polynomial {
        Polynomial::var(Var(0))
    }
    fn y() -> Polynomial {
        Polynomial::var(Var(1))
    }
    fn z() -> Polynomial {
        Polynomial::var(Var(2))
    }

    #[test]
    fn zero_and_one_identities() {
        let p = x().plus(&y());
        assert_eq!(p.plus(&Polynomial::zero()), p);
        assert_eq!(p.times(&Polynomial::one()), p);
        assert!(p.times(&Polynomial::zero()).is_zero());
        assert!(Polynomial::zero().is_zero());
        assert!(Polynomial::one().is_one());
        assert!(!p.is_one());
    }

    #[test]
    fn addition_merges_coefficients() {
        let p = x().plus(&x());
        assert_eq!(p.coefficient(&Monomial::var(Var(0))), 2);
        assert_eq!(p.num_terms(), 1);
        assert_eq!(format!("{}", p), "2·x0");
    }

    #[test]
    fn multiplication_distributes() {
        // (x + y)² = x² + 2xy + y²
        let p = x().plus(&y()).pow(2);
        assert_eq!(p.coefficient(&Monomial::var_pow(Var(0), 2)), 1);
        assert_eq!(p.coefficient(&Monomial::var_pow(Var(1), 2)), 1);
        assert_eq!(p.coefficient(&Monomial::from_vars([Var(0), Var(1)])), 2);
        assert_eq!(p.num_terms(), 3);
    }

    #[test]
    fn ring_axioms_hold_on_examples() {
        let a = x().plus(&Polynomial::constant(2));
        let b = y().times(&y());
        let c = z().plus(&x());
        // commutativity
        assert_eq!(a.plus(&b), b.plus(&a));
        assert_eq!(a.times(&b), b.times(&a));
        // associativity
        assert_eq!(a.plus(&b).plus(&c), a.plus(&b.plus(&c)));
        assert_eq!(a.times(&b).times(&c), a.times(&b.times(&c)));
        // distributivity
        assert_eq!(a.times(&b.plus(&c)), a.times(&b).plus(&a.times(&c)));
    }

    #[test]
    fn degree_and_homogeneity() {
        let p = x().times(&x()).plus(&x().times(&y()));
        assert!(p.is_homogeneous());
        assert_eq!(p.degree(), Some(2));
        let q = p.plus(&x());
        assert!(!q.is_homogeneous());
        assert!(Polynomial::zero().is_homogeneous());
        assert_eq!(Polynomial::zero().degree(), None);
        assert_eq!(Polynomial::constant(5).degree(), Some(0));
    }

    #[test]
    fn constant_term_detection() {
        let p = x().plus(&Polynomial::constant(3));
        assert_eq!(p.constant_term(), 3);
        assert!(!p.has_no_constant_term());
        assert!(x().has_no_constant_term());
    }

    #[test]
    fn variables_listed_once() {
        let p = x().times(&y()).plus(&y().times(&z()));
        assert_eq!(p.variables(), vec![Var(0), Var(1), Var(2)]);
        assert!(p.uses_all_variables(&[Var(0), Var(1), Var(2)]));
        assert!(!p.uses_all_variables(&[Var(3)]));
    }

    #[test]
    fn sum_and_product_of_vars() {
        let s = Polynomial::sum_of_vars(&[Var(0), Var(1)]);
        assert_eq!(s, x().plus(&y()));
        let p = Polynomial::product_of_vars(&[Var(0), Var(0), Var(1)]);
        assert_eq!(p, x().times(&x()).times(&y()));
    }

    #[test]
    fn eval_nat_evaluates() {
        // P = x² + 2xy at x=3, y=5 → 9 + 30 = 39
        let p = x().times(&x()).plus(&Polynomial::from_monomial(
            Monomial::from_vars([Var(0), Var(1)]),
            2,
        ));
        let val = p.eval_nat(&|v| if v == Var(0) { 3 } else { 5 });
        assert_eq!(val, 39);
    }

    #[test]
    fn eval_generic_matches_nat() {
        let p = x().plus(&y()).pow(3);
        let by_nat = p.eval_nat(&|v| if v == Var(0) { 2 } else { 7 });
        let by_generic = p.eval_generic(0u64, 1u64, &|a, b| a + b, &|a, b| a * b, &|v| {
            if v == Var(0) {
                2
            } else {
                7
            }
        });
        assert_eq!(by_nat, by_generic);
    }

    #[test]
    fn eval_generic_respects_min_plus() {
        // In the tropical semiring (min, +): x + y ↦ min(a, b); x·y ↦ a + b.
        let p = x().times(&y()).plus(&x().times(&x()));
        // valuation x=4, y=1: min(4+1, 4+4) = 5
        let val = p.eval_generic(
            u64::MAX,
            0u64,
            &|a, b| *a.min(b),
            &|a, b| a.saturating_add(*b),
            &|v| if v == Var(0) { 4 } else { 1 },
        );
        assert_eq!(val, 5);
    }

    #[test]
    fn n_fold_sums_double_and_add() {
        let add = |a: &u64, b: &u64| a.saturating_add(*b);
        for n in 0..200 {
            assert_eq!(n_fold_sum(n, &3, 0, &add), 3 * n);
        }
        assert_eq!(n_fold_sum(u64::MAX, &1, 0, &add), u64::MAX);
        assert_eq!(n_fold_sum(u64::MAX, &2, 0, &add), u64::MAX);
        // A huge coefficient takes log₂ of it additions.
        let big = Polynomial::constant(1 << 40);
        let value = big.eval_generic(0u64, 1, &add, &|a, b| a * b, &|_| 0);
        assert_eq!(value, 1 << 40);
    }

    #[test]
    fn display_zero_and_mixed() {
        assert_eq!(format!("{}", Polynomial::zero()), "0");
        let p = Polynomial::constant(2).plus(&x());
        assert_eq!(format!("{}", p), "2 + x0");
    }

    #[test]
    fn operator_overloads() {
        let p = x() + y();
        let q = &p * &p;
        assert_eq!(q, x().plus(&y()).pow(2));
    }

    #[test]
    fn coefficient_sum_counts_all() {
        let p = x().plus(&y()).pow(2);
        assert_eq!(p.coefficient_sum(), 4);
    }
}
