//! # annot-semiring
//!
//! Commutative semirings for annotated relations, as studied in
//! *"Classification of Annotation Semirings over Query Containment"*
//! (Kostylev, Reutter, Salamon; PODS 2012).
//!
//! The central abstraction is the [`Semiring`] trait — a positive,
//! partially-ordered commutative semiring — together with sampling-based
//! checkers ([`axioms`]) for the axioms the paper uses to classify semirings
//! (⊗-idempotence, 1-annihilation, ⊗-semi-idempotence, ⊕-idempotence,
//! offsets).
//!
//! The crate ships every annotation semiring the paper mentions, plus a few
//! standard extras used by the examples and benchmarks:
//!
//! | type | semiring | class (CQ containment criterion) |
//! |------|----------|----------------------------------|
//! | [`Bool`] | `B` — set semantics | `C_hom` (homomorphism) |
//! | [`PosBool`] | `PosBool[X]` — positive Boolean expressions | `C_hom` |
//! | [`Fuzzy`] | `⟨[0,1], max, min⟩` | `C_hom` |
//! | [`Clearance`] | access-control lattice | `C_hom` |
//! | [`Lineage`] | `Lin[X]` — lineage | `C_hcov` (homomorphic covering) |
//! | [`Tropical`] | `T⁺` — min-plus | `S_in` (small-model procedure) |
//! | [`Viterbi`] | `⟨[0,1], max, ×⟩` | `S_in` |
//! | [`Why`] | `Why[X]` — why-provenance | `C_sur` (surjective hom.) |
//! | [`Trio`] | `Trio[X]` — Trio lineage | `C_sur` |
//! | [`Schedule`] | `T⁻` — max-plus | `S_sur` (small-model procedure) |
//! | [`NatPoly`] | `N[X]` — provenance polynomials | `C_bi` (bijective hom.) |
//! | [`BoolPoly`] | `B[X]` — Boolean provenance polynomials | `C_bi` |
//! | [`Natural`] | `N` — bag semantics | open (necessary/sufficient bounds) |
//! | [`BoundedNat`] | `B_k` — saturating bags | offset-`k` family (`S^k`) |

#![warn(missing_docs)]

pub mod access;
pub mod axioms;
pub mod boolean;
pub mod bounded;
pub mod fuzzy;
pub mod lineage;
pub mod natural;
pub mod ops;
pub mod posbool;
pub mod provenance;
pub mod trio;
pub mod tropical;
pub mod why;

pub use access::Clearance;
pub use axioms::AxiomProfile;
pub use boolean::Bool;
pub use bounded::BoundedNat;
pub use fuzzy::{Fuzzy, Viterbi};
pub use lineage::Lineage;
pub use natural::Natural;
pub use ops::{eval_polynomial, Semiring};
pub use posbool::PosBool;
pub use provenance::{BoolPoly, NatPoly};
pub use trio::Trio;
pub use tropical::{Schedule, Tropical};
pub use why::Why;

#[cfg(test)]
mod cross_semiring_tests {
    use super::*;
    use annot_polynomial::{Polynomial, Var};

    /// Prop. 3.2: evaluation of N[X] into any semiring is a morphism.  We
    /// verify additivity/multiplicativity on a non-trivial pair of
    /// polynomials for several target semirings.
    fn morphism_property<K: Semiring>(val0: K, val1: K) {
        let x = Polynomial::var(Var(0));
        let y = Polynomial::var(Var(1));
        let p = x.plus(&y).times(&x); // (x+y)·x
        let q = x.times(&y).plus(&y); // xy + y
        let valuation = move |v: Var| {
            if v == Var(0) {
                val0.clone()
            } else {
                val1.clone()
            }
        };
        let ep = eval_polynomial(&p, &valuation);
        let eq = eval_polynomial(&q, &valuation);
        let esum = eval_polynomial(&p.plus(&q), &valuation);
        let eprod = eval_polynomial(&p.times(&q), &valuation);
        assert_eq!(esum, ep.add(&eq), "additivity failed in {}", K::NAME);
        assert_eq!(eprod, ep.mul(&eq), "multiplicativity failed in {}", K::NAME);
    }

    #[test]
    fn universal_property_across_semirings() {
        morphism_property::<Bool>(Bool(true), Bool(false));
        morphism_property::<Natural>(Natural(3), Natural(2));
        morphism_property::<Tropical>(Tropical::Finite(2), Tropical::Finite(5));
        morphism_property::<Schedule>(Schedule::Finite(2), Schedule::Finite(5));
        morphism_property::<Lineage>(Lineage::var(Var(0)), Lineage::var(Var(1)));
        morphism_property::<Why>(Why::var(Var(0)), Why::var(Var(1)));
        morphism_property::<Trio>(Trio::var(Var(0)), Trio::var(Var(1)));
        morphism_property::<PosBool>(PosBool::var(Var(0)), PosBool::var(Var(1)));
        morphism_property::<BoolPoly>(BoolPoly::var(Var(0)), BoolPoly::var(Var(1)));
        morphism_property::<NatPoly>(NatPoly::var(Var(0)), NatPoly::var(Var(1)));
        morphism_property::<BoundedNat<2>>(BoundedNat::new(1), BoundedNat::new(2));
    }

    /// Evaluating a polynomial into N[X] with the identity valuation is the
    /// identity — N[X] is free over X (Prop. 3.2).
    #[test]
    fn nat_poly_is_free() {
        let x = Polynomial::var(Var(0));
        let y = Polynomial::var(Var(1));
        let p = x.plus(&y).pow(2).plus(&x.times(&y));
        let back = eval_polynomial(&p, &|v| NatPoly::var(v));
        assert_eq!(back.polynomial(), &p);
    }

    /// `n·1` by `n` additions: the reference for `Semiring::from_natural`.
    fn repeated_sum<K: Semiring>(n: u64) -> K {
        (0..n).fold(K::zero(), |acc, _| acc.add(&K::one()))
    }

    #[test]
    fn from_natural_matches_repeated_addition() {
        // Seeded n < 200 (SplitMix64), plus the smallest values.
        let mut state: u64 = 2718;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % 200
        };
        let ns: Vec<u64> = (0..3).chain((0..40).map(|_| next())).collect();
        macro_rules! check {
            ($($k:ty),* $(,)?) => {
                $(
                    for &n in &ns {
                        assert_eq!(<$k>::from_natural(n), repeated_sum::<$k>(n),
                                   "{} at n = {n}", <$k as Semiring>::NAME);
                    }
                )*
            };
        }
        check!(
            Bool,
            Natural,
            Tropical,
            Schedule,
            Fuzzy,
            Viterbi,
            Clearance,
            Lineage,
            Why,
            Trio,
            PosBool,
            BoolPoly,
            NatPoly,
            BoundedNat<1>,
            BoundedNat<2>,
            BoundedNat<3>,
            BoundedNat<5>,
        );
        // Sums that saturate, and ones that n additions would never finish.
        assert_eq!(Natural::from_natural(u64::MAX), Natural(u64::MAX));
        assert_eq!(BoundedNat::<3>::from_natural(u64::MAX), BoundedNat::new(3));
        let big = eval_polynomial(&Polynomial::constant(1 << 40), &|_| Natural(0));
        assert_eq!(big, Natural(1 << 40));
    }

    #[test]
    fn all_shipped_semirings_are_lawful_and_positive() {
        macro_rules! check {
            ($($k:ty),* $(,)?) => {
                $(
                    assert!(axioms::check_semiring_laws::<$k>().is_ok(),
                            "laws fail for {}", <$k as Semiring>::NAME);
                    assert!(axioms::is_positive::<$k>(),
                            "positivity fails for {}", <$k as Semiring>::NAME);
                )*
            };
        }
        check!(
            Bool,
            Natural,
            Tropical,
            Schedule,
            Fuzzy,
            Viterbi,
            Clearance,
            Lineage,
            Why,
            Trio,
            PosBool,
            BoolPoly,
            NatPoly,
            BoundedNat<1>,
            BoundedNat<2>,
            BoundedNat<3>,
            BoundedNat<5>,
        );
    }
}
