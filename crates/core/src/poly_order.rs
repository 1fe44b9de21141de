//! Decidable polynomial orders `¹_K` on `N[X]`-polynomials.
//!
//! The small-model containment procedure (Thm. 4.17) reduces containment over
//! an ⊕-idempotent semiring `K` to finitely many comparisons `P₁ ¹_K P₂`
//! between CQ-admissible polynomials, where `P ¹_K Q` means
//! `P(a) ¹ Q(a)` for *every* valuation of the variables in `K`
//! (Sec. 3.2).  This module provides the comparison for the semirings where
//! it is decidable and implemented:
//!
//! * `T⁺` and `T⁻` — exact linear-programming procedure
//!   ([`annot_polynomial::tropical`], Prop. 4.19);
//! * finite semirings (`B`, the clearance lattice, `B_k`, `Fuzzy` on its
//!   sample grid) — exhaustive evaluation over the full carrier;
//! * `N[X]` and `B[X]` — the free/universal semirings, where the comparison
//!   reduces to the natural order of the polynomials themselves (evaluate at
//!   the generic point).
//!
//! Every order reads both polynomials as exponent rows ([`Terms`]), the form
//! in which the small-model procedure evaluates them: `N[X]` compares
//! coefficients row by row, `B[X]` compares the sets of rows, and the finite
//! semirings evaluate each row at each point of their carrier.  A
//! [`Polynomial`](annot_polynomial::Polynomial) converts with `Terms::from(&p)`.

use annot_polynomial::poly::n_fold_sum;
use annot_polynomial::{leq_tropical, Terms, TropicalKind};
use annot_semiring::{
    BoolPoly, BoundedNat, Clearance, NatPoly, Schedule, Semiring, Tropical, Viterbi,
};

/// A semiring for which the universally-quantified polynomial order
/// `P₁ ¹_K P₂` is decidable (and implemented).
pub trait PolynomialOrder: Semiring {
    /// Decides `p1 ¹_K p2` on exponent rows: for every valuation
    /// `ν : Var → K`, `Eval_ν(p1) ¹ Eval_ν(p2)`.
    fn terms_leq(p1: &Terms, p2: &Terms) -> bool;
}

impl PolynomialOrder for Tropical {
    fn terms_leq(p1: &Terms, p2: &Terms) -> bool {
        leq_tropical(p1, p2, TropicalKind::MinPlus)
    }
}

impl PolynomialOrder for Schedule {
    fn terms_leq(p1: &Terms, p2: &Terms) -> bool {
        leq_tropical(p1, p2, TropicalKind::MaxPlus)
    }
}

impl PolynomialOrder for Viterbi {
    /// The Viterbi semiring `⟨[0,1], max, ×⟩` is isomorphic to the tropical
    /// semiring over the non-negative reals via `x ↦ −ln x` (sums become
    /// mins, products become sums, and the order is carried over:
    /// `x ≤_V y ⟺ −ln x ≤_{T⁺} −ln y`).  A valuation of the variables in
    /// `[0,1]` therefore corresponds exactly to a valuation in `[0,∞]`, so
    /// `P₁ ¹_V P₂` iff `P₁ ¹_{T⁺} P₂` — and the min-plus LP decides the
    /// latter (its Fourier–Motzkin systems are scale-invariant, so
    /// feasibility over the non-negative rationals, reals and naturals
    /// coincide).
    fn terms_leq(p1: &Terms, p2: &Terms) -> bool {
        leq_tropical(p1, p2, TropicalKind::MinPlus)
    }
}

impl PolynomialOrder for NatPoly {
    fn terms_leq(p1: &Terms, p2: &Terms) -> bool {
        // N[X] is free: the inequality holds for every valuation iff it holds
        // at the generic point, i.e. iff p1 ¹ p2 in the natural
        // (coefficient-wise) order of N[X].
        p1.terms().all(|(row, c)| c <= p2.coefficient(row))
    }
}

impl PolynomialOrder for BoolPoly {
    fn terms_leq(p1: &Terms, p2: &Terms) -> bool {
        // B[X] is free for ⊕-idempotent semirings; same argument at the
        // generic point, where only the sets of monomials count.
        p1.rows().all(|row| p2.coefficient(row) > 0)
    }
}

/// Exhaustive check of the polynomial order over all valuations into a finite
/// carrier (given explicitly).  Exact whenever `carrier` really is the whole
/// semiring.
pub fn poly_leq_by_enumeration<K: Semiring>(carrier: &[K], p1: &Terms, p2: &Terms) -> bool {
    let mut values = vec![K::zero(); p1.width().max(p2.width())];
    check_rec(carrier, p1, p2, &p1.occurring(p2), &mut values)
}

/// Whether the order holds at every assignment of `carrier` elements to the
/// columns `vars`, the other columns keeping their `values`.
fn check_rec<K: Semiring>(
    carrier: &[K],
    p1: &Terms,
    p2: &Terms,
    vars: &[usize],
    values: &mut [K],
) -> bool {
    let Some((&var, rest)) = vars.split_first() else {
        return eval_terms(p1, values).leq(&eval_terms(p2, values));
    };
    for value in carrier {
        values[var] = value.clone();
        if !check_rec(carrier, p1, p2, rest, values) {
            return false;
        }
    }
    true
}

/// Evaluates `p` with the variable of column `i` set to `values[i]`, in the
/// order of [`annot_polynomial::Polynomial::eval_generic`]: each monomial's
/// powers from the lowest column up, then its coefficient as an `n`-fold
/// sum.
fn eval_terms<K: Semiring>(p: &Terms, values: &[K]) -> K {
    let add = |a: &K, b: &K| a.add(b);
    let mut total = K::zero();
    for (row, c) in p.terms() {
        let mut term = K::one();
        for (value, &e) in values.iter().zip(row) {
            for _ in 0..e {
                term = term.mul(value);
            }
        }
        total = total.add(&n_fold_sum(c, &term, K::zero(), &add));
    }
    total
}

impl PolynomialOrder for annot_semiring::Bool {
    fn terms_leq(p1: &Terms, p2: &Terms) -> bool {
        // full-samples: `B`'s sample set is its entire (two-element)
        // carrier, so the enumeration is an exact decision, not a search.
        poly_leq_by_enumeration(&Self::sample_elements(), p1, p2)
    }
}

impl PolynomialOrder for Clearance {
    fn terms_leq(p1: &Terms, p2: &Terms) -> bool {
        // full-samples: the clearance lattice's sample set is its entire
        // finite carrier — an exact decision over every valuation.
        poly_leq_by_enumeration(&Self::sample_elements(), p1, p2)
    }
}

impl<const K: u64> PolynomialOrder for BoundedNat<K> {
    fn terms_leq(p1: &Terms, p2: &Terms) -> bool {
        let carrier: Vec<Self> = (0..=K).map(BoundedNat::new).collect();
        poly_leq_by_enumeration(&carrier, p1, p2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_polynomial::{Monomial, Polynomial, Var};
    use annot_semiring::{eval_polynomial, Bool};

    fn x() -> Polynomial {
        Polynomial::var(Var(0))
    }
    fn y() -> Polynomial {
        Polynomial::var(Var(1))
    }

    /// `K`'s order on the rows of two polynomials.
    fn leq<K: PolynomialOrder>(p1: &Polynomial, p2: &Polynomial) -> bool {
        K::terms_leq(&p1.into(), &p2.into())
    }

    #[test]
    fn tropical_orders_delegate() {
        let lhs = x().plus(&y()).pow(2);
        let rhs = x().pow(2).plus(&y().pow(2));
        assert!(leq::<Tropical>(&lhs, &rhs));
        assert!(leq::<Tropical>(&rhs, &lhs));
        assert!(!leq::<Schedule>(&x(), &x().times(&y())));
        assert!(leq::<Schedule>(&x(), &x().plus(&y())));
    }

    #[test]
    fn viterbi_order_matches_tropical_through_the_isomorphism() {
        // x ↦ −ln x carries ¹_V to ¹_{T⁺} exactly, so the two deciders
        // agree on every comparison.
        let pairs = [
            (x().plus(&y()).pow(2), x().pow(2).plus(&y().pow(2))),
            (x(), x().times(&y())),
            (x().times(&y()), x()),
            (x(), x().plus(&y())),
            (x().pow(2), x()),
        ];
        for (p, q) in &pairs {
            assert_eq!(leq::<Viterbi>(p, q), leq::<Tropical>(p, q));
            assert_eq!(leq::<Viterbi>(q, p), leq::<Tropical>(q, p));
        }
        // Spot-check against direct enumeration over the Viterbi samples:
        // the universal order implies the sampled order.
        for (p, q) in &pairs {
            if leq::<Viterbi>(p, q) {
                let (p, q) = (p.into(), q.into());
                assert!(poly_leq_by_enumeration(&Viterbi::sample_elements(), &p, &q));
            }
        }
    }

    #[test]
    fn nat_poly_order_is_coefficientwise() {
        assert!(leq::<NatPoly>(&x(), &x().plus(&y())));
        assert!(!leq::<NatPoly>(&x().plus(&x()), &x()));
        assert!(leq::<NatPoly>(&x(), &x().plus(&x())));
        // x ⋠ x² in N[X] (no monomial containment)
        assert!(!leq::<NatPoly>(&x(), &x().pow(2)));
    }

    #[test]
    fn bool_poly_order_forgets_coefficients() {
        assert!(leq::<BoolPoly>(&x().plus(&x()), &x()));
        assert!(leq::<BoolPoly>(&x(), &x().plus(&y())));
        assert!(!leq::<BoolPoly>(&y(), &x()));
    }

    #[test]
    fn boolean_enumeration_is_logical_implication() {
        // x·y ¹_B x + y  (conjunction implies disjunction)
        assert!(leq::<Bool>(&x().times(&y()), &x().plus(&y())));
        // x + y ⋠_B x·y
        assert!(!leq::<Bool>(&x().plus(&y()), &x().times(&y())));
        // x ¹_B x²  (idempotence)
        assert!(leq::<Bool>(&x(), &x().pow(2)));
        assert!(leq::<Bool>(&x().pow(2), &x()));
    }

    #[test]
    fn bounded_nat_enumeration_sees_saturation() {
        // In B₂, x + x ¹ 2·x trivially and 3·x =_K 2·x, so 3x ¹ 2x holds.
        let three_x = x().plus(&x()).plus(&x());
        let two_x = x().plus(&x());
        assert!(leq::<BoundedNat<2>>(&three_x, &two_x));
        // In N[X] this fails.
        assert!(!leq::<NatPoly>(&three_x, &two_x));
        // x² ¹ x fails in B₃ (x = 1 gives 1 ≤ 1, x = 2 gives 3 vs 2? 2²=4→3 > 2) — so not ≤.
        assert!(!leq::<BoundedNat<3>>(&x().pow(2), &x()));
        // Clearance (a lattice): x·y ¹ x.
        assert!(leq::<Clearance>(&x().times(&y()), &x()));
    }

    /// The enumeration order on `Polynomial`s, through `eval_polynomial`:
    /// the reference for the row evaluation.
    fn leq_by_enumerating_polynomials<K: Semiring>(
        carrier: &[K],
        p1: &Polynomial,
        p2: &Polynomial,
    ) -> bool {
        let mut vars = p1.variables();
        vars.extend(p2.variables());
        vars.sort();
        vars.dedup();
        let mut choice = vec![0; vars.len()];
        loop {
            let valuation = |v: Var| {
                let i = vars
                    .iter()
                    .position(|&w| w == v)
                    .expect("occurring variable");
                carrier[choice[i]].clone()
            };
            if !eval_polynomial(p1, &valuation).leq(&eval_polynomial(p2, &valuation)) {
                return false;
            }
            let Some(i) = (0..vars.len()).find(|&i| choice[i] + 1 < carrier.len()) else {
                return true;
            };
            choice[i] += 1;
            choice[..i].iter_mut().for_each(|c| *c = 0);
        }
    }

    /// A seeded polynomial (SplitMix64 over `state`) over up to 3 variables:
    /// at most 3 monomials, exponents up to 2, coefficients 1–3.
    fn polynomial(state: &mut u64) -> Polynomial {
        let mut below = |n: u64| {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (*state ^ (*state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let vars = 1 + below(3) as u32;
        let terms = below(4);
        Polynomial::from_terms((0..terms).map(|_| {
            let pairs: Vec<(Var, u32)> = (0..vars).map(|v| (Var(v), below(3) as u32)).collect();
            (Monomial::from_pairs(pairs), 1 + below(3))
        }))
    }

    #[test]
    fn row_orders_agree_with_their_polynomial_forms_on_seeded_pairs() {
        let mut state = 2718;
        let mut holds = [0usize; 6];
        for _ in 0..2_000 {
            let (p1, p2) = (polynomial(&mut state), polynomial(&mut state));
            let context = || format!("{p1} vs {p2}");
            let verdicts = [
                (
                    leq::<NatPoly>(&p1, &p2),
                    NatPoly::new(p1.clone()).leq(&NatPoly::new(p2.clone())),
                ),
                (
                    leq::<BoolPoly>(&p1, &p2),
                    BoolPoly::from_nat_poly(&p1).leq(&BoolPoly::from_nat_poly(&p2)),
                ),
                (
                    leq::<Bool>(&p1, &p2),
                    leq_by_enumerating_polynomials(&Bool::sample_elements(), &p1, &p2),
                ),
                (
                    leq::<Clearance>(&p1, &p2),
                    leq_by_enumerating_polynomials(&Clearance::sample_elements(), &p1, &p2),
                ),
                (
                    leq::<BoundedNat<2>>(&p1, &p2),
                    leq_by_enumerating_polynomials(&[0, 1, 2].map(BoundedNat::<2>::new), &p1, &p2),
                ),
                (
                    leq::<BoundedNat<3>>(&p1, &p2),
                    leq_by_enumerating_polynomials(
                        &[0, 1, 2, 3].map(BoundedNat::<3>::new),
                        &p1,
                        &p2,
                    ),
                ),
            ];
            for (row, (rows, reference)) in verdicts.into_iter().enumerate() {
                assert_eq!(rows, reference, "order {row}: {}", context());
                holds[row] += rows as usize;
            }
        }
        // Every order holds on some pairs and fails on others.
        assert!(holds.iter().all(|&n| n > 100 && n < 1_900), "{holds:?}");
    }
}
