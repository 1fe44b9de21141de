//! Deciding the polynomial orders `¹_{T⁺}` and `¹_{T⁻}` of the tropical
//! semirings (Sec. 4.6 of the paper).
//!
//! The small-model decision procedure of Thm. 4.17 reduces CQ containment
//! over an ⊕-idempotent semiring `K` to a finite number of comparisons
//! `P₁ ¹_K P₂` between CQ-admissible polynomials.  The paper shows
//! (Prop. 4.19) that for the tropical semiring `T⁺ = ⟨N∪{∞}, min, +, ∞, 0⟩`
//! and the schedule algebra `T⁻ = ⟨N∪{−∞}, max, +, −∞, 0⟩` these comparisons
//! are decidable (in PSPACE).  Here we decide them *exactly*:
//!
//! * In `T⁺`, a polynomial `P = Σ c_j·M_j` evaluates to `min_j ⟨e_j, a⟩`
//!   where `e_j` is the exponent vector of `M_j` (coefficients are irrelevant
//!   because `min` is idempotent).  The natural order of `T⁺` is the
//!   *reverse* numeric order, so `P₁ ¹_{T⁺} P₂` holds iff for every
//!   assignment `a` we have `P₂(a) ≤ P₁(a)` numerically.  A failure witness
//!   exists iff for some monomial `e` of `P₁` the linear system
//!   `{⟨e₂_j − e, a⟩ > 0 for all monomials e₂_j of P₂, a ≥ 0}` is feasible —
//!   an exact rational LP solved by Fourier–Motzkin ([`crate::linear`]).
//!   Assignments using `∞` are subsumed by large finite values.
//!
//! * In `T⁻` the natural order is the numeric order and the evaluation is a
//!   `max`; assignments may map variables to `−∞`, which *removes* monomials
//!   containing them.  A failure at some assignment, with `P₁`'s maximum at
//!   `e`, is also a failure at the assignment that keeps only `vars(e)`
//!   finite: `e` keeps its value, and the monomials of `P₂` that stay alive
//!   are exactly those over `vars(e)`, a subset of the ones alive before.
//!   So one support per monomial `e` of `P₁` decides: the order fails iff
//!   no monomial of `P₂` lies over `vars(e)`, or the LP
//!   `{⟨e − f, a⟩ > 0 for all such f, a ≥ 0}` is feasible.
//!
//! Most monomials need no LP.  In `T⁺`, when a monomial `f` of `P₂` divides
//! `e`, `⟨f − e, a⟩ ≤ 0` at every `a ≥ 0`, so the system is infeasible; in
//! `T⁻` the same holds when `e` divides some monomial of `P₂` over
//! `vars(e)`.  On the polynomials the small-model procedure compares, the
//! divisibility test settles over 90 % of the monomials.
//!
//! [`leq_tropical`] reads both polynomials as [`Terms`]: monomials are
//! exponent rows, divisibility compares two row slices, and an LP is built
//! straight from row differences over the variables that occur.  The
//! small-model procedure hands it rows it evaluated directly; a
//! [`Polynomial`] converts with `Terms::from(&p)`.

use crate::linear::{Constraint, System};
use crate::poly::Polynomial;
use crate::terms::{divides, exponent, support_within, Terms};
use crate::var::Var;

/// Which tropical semiring's order to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TropicalKind {
    /// `T⁺ = ⟨N ∪ {∞}, min, +, ∞, 0⟩` — the tropical (min-plus) semiring,
    /// used e.g. for shortest-path / "minimum cost of derivation" provenance.
    MinPlus,
    /// `T⁻ = ⟨N ∪ {−∞}, max, +, −∞, 0⟩` — the schedule (max-plus) algebra.
    MaxPlus,
}

/// Decides `p1 ¹_K p2` where `K` is the chosen tropical semiring, one
/// monomial `e` of `p1` at a time.
pub fn leq_tropical(p1: &Terms, p2: &Terms, kind: TropicalKind) -> bool {
    // The zero polynomial evaluates to the semiring zero, the least element
    // of ¹: 0 ¹ P always; P ¹ 0 only if P = 0.
    if p1.is_zero() {
        return true;
    }
    if p2.is_zero() {
        return false;
    }
    match kind {
        TropicalKind::MinPlus => {
            // Failure ⟺ every monomial of P2 can be made strictly larger
            // than e simultaneously.  The LP ranges over the variables that
            // occur, found the first time one runs.
            let mut vars = None;
            p1.rows().all(|e| {
                p2.rows().any(|f| divides(f, e)) || {
                    let vars = vars.get_or_insert_with(|| p1.occurring(p2));
                    !strictly_separable(vars, p2.rows().map(|f| (f, e)))
                }
            })
        }
        TropicalKind::MaxPlus => p1.rows().all(|e| {
            // The monomials of P2 that stay alive when only vars(e) is
            // finite; failure ⟺ none does, or e can exceed them all.
            let alive = || p2.rows().filter(|f| support_within(f, e));
            if alive().next().is_none() {
                return false;
            }
            alive().any(|f| divides(e, f)) || {
                let vars: Vec<usize> = (0..e.len()).filter(|&v| e[v] > 0).collect();
                !strictly_separable(&vars, alive().map(|f| (e, f)))
            }
        }),
    }
}

/// Whether some point `a ≥ 0` over the columns `vars` makes
/// `⟨hi − lo, a⟩ > 0` for every pair of rows `(hi, lo)`: an exact LP,
/// solved by Fourier–Motzkin.
fn strictly_separable<'r>(
    vars: &[usize],
    pairs: impl Iterator<Item = (&'r [u32], &'r [u32])>,
) -> bool {
    let mut system = System::new(vars.len());
    for (hi, lo) in pairs {
        let diff: Vec<i64> = (vars.iter())
            .map(|&v| exponent(hi, v) as i64 - exponent(lo, v) as i64)
            .collect();
        system.push(Constraint::gt(&diff, 0));
    }
    system.is_feasible()
}

/// Evaluates a polynomial in the min-plus semiring at a concrete finite
/// assignment (`None` in the result denotes `∞`).  Used in tests and the
/// brute-force cross-validation harness.
pub fn eval_min_plus(p: &Polynomial, assignment: &dyn Fn(Var) -> Option<u64>) -> Option<u64> {
    if p.is_zero() {
        return None; // ∞
    }
    let mut best: Option<u64> = None;
    for (m, _) in p.terms() {
        let mut total: Option<u64> = Some(0);
        for &(v, e) in m.factors() {
            match (total, assignment(v)) {
                (Some(t), Some(a)) => total = Some(t + a * e as u64),
                _ => {
                    total = None;
                    break;
                }
            }
        }
        best = match (best, total) {
            (None, t) => t,
            (b, None) => b,
            (Some(b), Some(t)) => Some(b.min(t)),
        };
    }
    best
}

/// Evaluates a polynomial in the max-plus semiring at a concrete assignment
/// (`None` denotes `−∞`).
pub fn eval_max_plus(p: &Polynomial, assignment: &dyn Fn(Var) -> Option<u64>) -> Option<u64> {
    if p.is_zero() {
        return None; // −∞
    }
    let mut best: Option<u64> = None;
    for (m, _) in p.terms() {
        let mut total: Option<u64> = Some(0);
        for &(v, e) in m.factors() {
            match (total, assignment(v)) {
                (Some(t), Some(a)) => total = Some(t + a * e as u64),
                _ => {
                    total = None;
                    break;
                }
            }
        }
        if let Some(t) = total {
            best = Some(best.map_or(t, |b: u64| b.max(t)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;

    fn x() -> Polynomial {
        Polynomial::var(Var(0))
    }
    fn y() -> Polynomial {
        Polynomial::var(Var(1))
    }

    /// `p1 ¹_{T⁺} p2` on the polynomials' rows.
    fn min_plus(p1: &Polynomial, p2: &Polynomial) -> bool {
        leq_tropical(&p1.into(), &p2.into(), TropicalKind::MinPlus)
    }

    /// `p1 ¹_{T⁻} p2` on the polynomials' rows.
    fn max_plus(p1: &Polynomial, p2: &Polynomial) -> bool {
        leq_tropical(&p1.into(), &p2.into(), TropicalKind::MaxPlus)
    }

    fn union_vars(p1: &Polynomial, p2: &Polynomial) -> Vec<Var> {
        let mut vars = p1.variables();
        vars.extend(p2.variables());
        vars.sort();
        vars.dedup();
        vars
    }

    fn exponent_vector(m: &Monomial, vars: &[Var]) -> Vec<i64> {
        vars.iter().map(|&v| m.exponent(v) as i64).collect()
    }

    /// Whether `{⟨sign·(f − e), a⟩ > 0 for every f of others, a ≥ 0}` is
    /// feasible, over exponent vectors.
    fn lp_fails(e: &[i64], others: &[Vec<i64>], sign: i64) -> bool {
        let mut sys = System::new(e.len());
        for f in others {
            let diff: Vec<i64> = f.iter().zip(e).map(|(f, e)| sign * (f - e)).collect();
            sys.push(Constraint::gt(&diff, 0));
        }
        sys.is_feasible()
    }

    /// The reference for `¹_{T⁺}`: one LP per monomial of `p1`, with no
    /// divisibility test.
    fn leq_min_plus_by_lp(p1: &Polynomial, p2: &Polynomial) -> bool {
        if p1.is_zero() {
            return true;
        }
        if p2.is_zero() {
            return false;
        }
        let vars = union_vars(p1, p2);
        let e2: Vec<Vec<i64>> = p2.terms().map(|(m, _)| exponent_vector(m, &vars)).collect();
        !p1.terms()
            .any(|(m, _)| lp_fails(&exponent_vector(m, &vars), &e2, 1))
    }

    /// The reference for `¹_{T⁻}`: every subset of variables sent to `−∞`,
    /// then one LP per surviving monomial of `p1`.  Exponential, and only
    /// for fewer than 32 variables.
    fn leq_max_plus_by_subsets(p1: &Polynomial, p2: &Polynomial) -> bool {
        if p1.is_zero() {
            return true;
        }
        if p2.is_zero() {
            return false;
        }
        let vars = union_vars(p1, p2);
        let n = vars.len();
        for mask in 0..(1u32 << n) {
            let alive =
                |m: &Monomial| (0..n).all(|i| (mask >> i) & 1 == 0 || m.exponent(vars[i]) == 0);
            let surviving = |p: &Polynomial| -> Vec<Vec<i64>> {
                (p.terms().filter(|(m, _)| alive(m)))
                    .map(|(m, _)| exponent_vector(m, &vars))
                    .collect()
            };
            let (e1, e2) = (surviving(p1), surviving(p2));
            if e1.is_empty() {
                continue;
            }
            if e2.is_empty() || e1.iter().any(|e| lp_fails(e, &e2, -1)) {
                return false;
            }
        }
        true
    }

    /// A seeded stream of pseudo-random numbers (SplitMix64).
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// A polynomial over `vars` variables with at most 3 monomials and
        /// exponents up to 2.
        fn polynomial(&mut self, vars: u32) -> Polynomial {
            let terms = self.below(4);
            Polynomial::from_terms((0..terms).map(|_| {
                let pairs: Vec<(Var, u32)> =
                    (0..vars).map(|v| (Var(v), self.below(3) as u32)).collect();
                (Monomial::from_pairs(pairs), 1 + self.below(2))
            }))
        }
    }

    #[test]
    fn orders_agree_with_their_references_on_seeded_pairs() {
        let mut stream = Stream(2718);
        let mut outcomes = [[0usize; 2]; 2];
        for _ in 0..20_000 {
            let vars = 1 + stream.below(4) as u32;
            let (p1, p2) = (stream.polynomial(vars), stream.polynomial(vars));
            // Rows of unequal widths when p1's or p2's last variables
            // do not occur.
            let (t1, t2) = (Terms::from(&p1), Terms::from(&p2));
            let min_plus = leq_tropical(&t1, &t2, TropicalKind::MinPlus);
            assert_eq!(min_plus, leq_min_plus_by_lp(&p1, &p2), "T+: {p1} vs {p2}");
            let max_plus = leq_tropical(&t1, &t2, TropicalKind::MaxPlus);
            assert_eq!(
                max_plus,
                leq_max_plus_by_subsets(&p1, &p2),
                "T-: {p1} vs {p2}"
            );
            outcomes[0][min_plus as usize] += 1;
            outcomes[1][max_plus as usize] += 1;
        }
        // Both verdicts occur often on both orders.
        assert!(
            outcomes.iter().flatten().all(|&n| n > 2_000),
            "{outcomes:?}"
        );
    }

    #[test]
    fn max_plus_at_33_variables() {
        // Setting x₁ = −∞ kills the right side only, so x₀ ¹_{T⁻} x₀x₁⋯x₃₂
        // fails.  A subset loop over 2³³ masks overflows its shift here.
        let x0 = Polynomial::var(Var(0));
        let product = Polynomial::product_of_vars(&(0..33).map(Var).collect::<Vec<_>>());
        assert!(!max_plus(&x0, &product));
        assert!(!max_plus(&product, &x0));
        assert!(max_plus(&product, &product));
        assert!(max_plus(&x0, &x0.plus(&product)));
    }

    #[test]
    fn paper_example_4_6_min_plus() {
        // Example 4.6 (continued): x₁² + 2x₁x₂ + x₂² =_{T⁺} x₁² + x₂².
        let lhs = x().plus(&y()).pow(2); // x² + 2xy + y²
        let rhs = x().pow(2).plus(&y().pow(2));
        assert!(min_plus(&lhs, &rhs));
        assert!(min_plus(&rhs, &lhs));
    }

    #[test]
    fn min_plus_strict_failures() {
        // x ¹_{T⁺} x·y fails: at y large, min of RHS = a_x + a_y > a_x.
        // (Recall ¹_{T⁺} requires RHS ≤ LHS numerically at every point.)
        assert!(!min_plus(&x(), &x().times(&y())));
        // Conversely x·y ¹_{T⁺} x holds: a_x ≤ a_x + a_y always.
        assert!(min_plus(&x().times(&y()), &x()));
        // x ¹_{T⁺} x holds.
        assert!(min_plus(&x(), &x()));
    }

    #[test]
    fn min_plus_sum_behaviour() {
        // x + y evaluates to min(a_x, a_y) ≤ a_x, so x ¹_{T⁺} x + y.
        assert!(min_plus(&x(), &x().plus(&y())));
        // And x + y ¹_{T⁺} x fails (at a_x = 5, a_y = 0 the LHS min is 0 < 5).
        assert!(!min_plus(&x().plus(&y()), &x()));
    }

    #[test]
    fn min_plus_zero_polynomial() {
        assert!(min_plus(&Polynomial::zero(), &x()));
        assert!(!min_plus(&x(), &Polynomial::zero()));
        assert!(min_plus(&Polynomial::zero(), &Polynomial::zero()));
    }

    #[test]
    fn min_plus_constant_terms() {
        // A constant term makes the min-plus value 0, the top of ¹_{T⁺};
        // so P ¹_{T⁺} (1 + x) for any P.
        let one_plus_x = Polynomial::one().plus(&x());
        assert!(min_plus(&x(), &one_plus_x));
        assert!(min_plus(&x().times(&y()), &one_plus_x));
        // but (1 + x) ¹_{T⁺} x fails (at a_x = 1: lhs value 0, rhs 1 — need 1 ≤ 0).
        assert!(!min_plus(&one_plus_x, &x()));
    }

    #[test]
    fn max_plus_basics() {
        // x ¹_{T⁻} x + y: max(a_x, a_y) ≥ a_x always... but with y ↦ −∞ the
        // monomial y drops and we compare a_x ≤ a_x, still fine.
        assert!(max_plus(&x(), &x().plus(&y())));
        // x ¹_{T⁻} x·y FAILS because of the −∞ assignment to y (the paper's
        // semiring includes −∞): rhs becomes −∞ while lhs stays finite.
        assert!(!max_plus(&x(), &x().times(&y())));
        // x·y ¹_{T⁻} x fails at finite points already (a_y > 0).
        assert!(!max_plus(&x().times(&y()), &x()));
        // x·y ¹_{T⁻} x·y + x²y² holds: the bigger monomial only helps the max,
        // and −∞ assignments kill both sides together.
        let xy = x().times(&y());
        let big = xy.plus(&x().pow(2).times(&y().pow(2)));
        assert!(max_plus(&xy, &big));
    }

    #[test]
    fn max_plus_semi_idempotence_axiom() {
        // T⁻ satisfies ⊗-semi-idempotence: x·y ¹ x·x·y (Sec. 4.4).
        let xy = x().times(&y());
        let xxy = x().times(&x()).times(&y());
        assert!(max_plus(&xy, &xxy));
        // T⁺ does not satisfy it: ¹_{T⁺} is the reverse numeric order, so
        // x·y ¹_{T⁺} x·x·y would need 2a_x + a_y ≤ a_x + a_y at every point,
        // which fails as soon as a_x > 0.  The opposite direction does hold.
        assert!(!min_plus(&xy, &xxy));
        assert!(min_plus(&xxy, &xy));
    }

    #[test]
    fn max_plus_zero_polynomial() {
        assert!(max_plus(&Polynomial::zero(), &x()));
        assert!(!max_plus(&x(), &Polynomial::zero()));
    }

    #[test]
    fn example_5_4_tropical_ucq() {
        // Example 5.4: over T⁺, with Q11 = ∃v R(v),S(v), Q21 = ∃v R(v),R(v),
        // Q22 = ∃v S(v),S(v): on the canonical instances the comparison
        // r·s ¹_{T⁺} r² + s² holds (r·s evaluates to r+s ≥ min(2r, 2s) is
        // false in general -- the real containment uses the UCQ machinery; here
        // we verify the single polynomial fact used there:
        // r·s ¹_{T⁺} r² + s², i.e. min(2r,2s) ≤ r+s for all r,s. )
        let r = Polynomial::var(Var(0));
        let s = Polynomial::var(Var(1));
        let lhs = r.times(&s);
        let rhs = r.pow(2).plus(&s.pow(2));
        assert!(min_plus(&lhs, &rhs));
        // But r·s is not ¹_{T⁺}-below r² alone, nor s² alone:
        assert!(!min_plus(&lhs, &r.pow(2)));
        assert!(!min_plus(&lhs, &s.pow(2)));
    }

    #[test]
    fn eval_helpers_agree_with_order() {
        let lhs = x().plus(&y()).pow(2);
        let rhs = x().pow(2).plus(&y().pow(2));
        // Sample a grid of assignments and confirm numeric agreement with the
        // symbolic decision (they are =_{T⁺}).
        for a in 0..5u64 {
            for b in 0..5u64 {
                let f = move |v: Var| if v == Var(0) { Some(a) } else { Some(b) };
                assert_eq!(eval_min_plus(&lhs, &f), eval_min_plus(&rhs, &f));
            }
        }
        assert_eq!(eval_min_plus(&Polynomial::zero(), &|_| Some(0)), None);
        assert_eq!(eval_max_plus(&Polynomial::zero(), &|_| Some(0)), None);
        // max-plus evaluation with a −∞ input drops monomials.
        let p = x().times(&y()).plus(&x());
        let g = |v: Var| if v == Var(0) { Some(3) } else { None };
        assert_eq!(eval_max_plus(&p, &g), Some(3));
        assert_eq!(eval_min_plus(&p, &g), Some(3));
    }

    #[test]
    fn monomial_coefficients_do_not_matter_in_tropical() {
        // 2xy and xy are =_{T⁺} and =_{T⁻} since ⊕ is idempotent.
        let xy = x().times(&y());
        let two_xy = Polynomial::from_monomial(Monomial::from_vars([Var(0), Var(1)]), 2);
        assert!(min_plus(&xy, &two_xy) && min_plus(&two_xy, &xy));
        assert!(max_plus(&xy, &two_xy) && max_plus(&two_xy, &xy));
    }
}
