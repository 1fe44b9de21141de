//! The semiring-class taxonomy of the paper (Table 1) and the declared
//! placement of every shipped semiring in it.
//!
//! Two kinds of classes appear in the paper:
//!
//! * **Sufficient-condition classes** (`S_hcov`, `S_in`, `S_sur`, `S¹`,
//!   `S^k`), defined by element-level axioms (⊗-idempotence, 1-annihilation,
//!   ⊗-semi-idempotence, ⊕-idempotence, offsets).  These are checkable by
//!   sampling ([`annot_semiring::axioms`]) and are re-derived empirically in
//!   [`crate::classify`](mod@crate::classify).
//!
//! * **Necessary-condition classes** (`N_hcov`, `N_in`, `N_sur`, and the
//!   intersections `C_hom`, `C_hcov`, `C_in`, `C_sur`, `C_bi`, `C^k_bi`, …),
//!   defined by universally-quantified conditions over (CQ-admissible)
//!   polynomials.  Membership of the concrete semirings is established in the
//!   paper; the [`ClassifiedSemiring`] trait records those facts so the
//!   decision procedures can dispatch on them, and the test-suite
//!   cross-validates the resulting procedures against brute-force semantic
//!   checks.

use annot_polynomial::Terms;
use annot_semiring::{
    Bool, BoolPoly, BoundedNat, Clearance, Fuzzy, Lineage, NatPoly, Natural, PosBool, Schedule,
    Semiring, Trio, Tropical, Viterbi, Why,
};

/// The signature of a decidable polynomial-order comparison `P₁ ¹_K P₂` on
/// exponent rows (see [`crate::poly_order::PolynomialOrder`]).  Stored as a
/// plain function pointer so the runtime-dispatch registry
/// ([`crate::registry`]) can carry it without a generic parameter.
pub type PolyLeqFn = fn(&Terms, &Terms) -> bool;

/// The smallest offset of a semiring (Sec. 5.2): the least `k` with
/// `k·x =_K ℓ·x` for all `ℓ ≥ k`, or `Infinite` if there is none (e.g. `N`,
/// `N[X]`, `Trio[X]`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offset {
    /// A finite smallest offset `k ≥ 1`; `Finite(1)` means ⊕-idempotent.
    Finite(u64),
    /// No finite offset.
    Infinite,
}

impl Offset {
    /// Whether the offset is 1 (the semiring is ⊕-idempotent, class `S¹`).
    pub fn is_idempotent(self) -> bool {
        self == Offset::Finite(1)
    }
}

/// The syntactic criterion characterising CQ containment for a semiring
/// (the "homomorphism type" column of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqCriterion {
    /// `Q₂ → Q₁` (class `C_hom`, Thm. 3.3).
    Homomorphism,
    /// `Q₂ ⇉ Q₁` (class `C_hcov`, Thm. 4.3).
    Covering,
    /// `Q₂ ↪ Q₁` (class `C_in`, Thm. 4.9).
    Injective,
    /// `Q₂ ↠ Q₁` (class `C_sur`, Thm. 4.14).
    Surjective,
    /// `Q₂ ⤖ Q₁` (class `C_bi`, Thm. 4.10).
    Bijective,
    /// No homomorphism criterion is exact; the small-model procedure of
    /// Thm. 4.17 applies (⊕-idempotent semirings with a decidable polynomial
    /// order, e.g. `T⁺`, `T⁻`).
    SmallModel,
    /// No complete procedure is known (e.g. bag semantics `N`); only the
    /// sufficient and necessary bounds of Sec. 4 are available.
    OpenProblem,
}

/// The syntactic criterion characterising UCQ containment for a semiring
/// (the right half of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UcqCriterion {
    /// Member-wise `Q₂ → Q₁` (class `C_hom`, Thm. 5.2).
    LocalHomomorphism,
    /// Member-wise `Q₂ ↪ Q₁` (class `C¹_in`, Thm. 5.6).
    LocalInjective,
    /// Member-wise `Q₂ ↠ Q₁` (class `C¹_sur`, Cor. 5.18).
    LocalSurjective,
    /// Member-wise `Q₂ ⤖ Q₁` (class `C¹_bi`, Thm. 5.13 with k = 1).
    LocalBijective,
    /// The covering `⇉₁` (class `C¹_hcov`, Thm. 5.24).
    Covering1,
    /// The complete-description covering `⇉₂` (class `C²_hcov`, Thm. 5.24).
    Covering2,
    /// The counting criterion `↪_k` over complete descriptions
    /// (classes `C^k_bi`, Thm. 5.13).
    CountingOffset(u64),
    /// The counting criterion `↪_∞` over complete descriptions
    /// (class `C^∞_bi`, Prop. 5.10 — e.g. `N[X]`).
    CountingInfinite,
    /// The unique-surjection criterion `↠_∞` over complete descriptions
    /// (class `C^∞_sur`, Thm. 5.17).
    UniqueSurjective,
    /// The small-model procedure extended to UCQs (⊕-idempotent semirings
    /// with decidable polynomial order).
    SmallModel,
    /// No complete procedure is known (e.g. `N`, where UCQ containment is
    /// undecidable, Ioannidis–Ramakrishnan).
    OpenProblem,
}

/// The complexity upper bound the paper assigns to the decision procedure
/// (the "compl." columns of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Complexity {
    /// NP-complete.
    NpComplete,
    /// In Πᵖ₂.
    PiP2,
    /// In coNP^{#P}.
    CoNpSharpP,
    /// In EXPTIME.
    ExpTime,
    /// In PSPACE (small-model / polynomial-order procedures).
    PSpace,
    /// Undecidable or open.
    OpenOrUndecidable,
}

/// The declared placement of a semiring in the paper's taxonomy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassProfile {
    /// Human-readable semiring name.
    pub name: &'static str,
    /// ⊗-idempotence (`S_hcov`).
    pub in_s_hcov: bool,
    /// 1-annihilation (`S_in`).
    pub in_s_in: bool,
    /// ⊗-semi-idempotence (`S_sur`).
    pub in_s_sur: bool,
    /// Homomorphic covering necessary (`N_hcov`).
    pub in_n_hcov: bool,
    /// Injective homomorphism necessary (`N_in`).
    pub in_n_in: bool,
    /// Surjective homomorphism necessary (`N_sur`).
    pub in_n_sur: bool,
    /// Smallest offset.
    pub offset: Offset,
    /// The exact criterion for CQ containment.
    pub cq_criterion: CqCriterion,
    /// The exact criterion for UCQ containment.
    pub ucq_criterion: UcqCriterion,
    /// Complexity of CQ containment per Table 1.
    pub cq_complexity: Complexity,
    /// Complexity of UCQ containment per Table 1.
    pub ucq_complexity: Complexity,
}

impl ClassProfile {
    /// Whether the semiring lies in `C_hom = S_hcov ∩ S_in` (by Thm. 3.3 the
    /// two axioms are exactly ⊗-idempotence and 1-annihilation).
    pub fn in_c_hom(&self) -> bool {
        self.in_s_hcov && self.in_s_in
    }

    /// Whether the semiring lies in `C_hcov = S_hcov ∩ N_hcov`.
    pub fn in_c_hcov(&self) -> bool {
        self.in_s_hcov && self.in_n_hcov
    }

    /// Whether the semiring lies in `C_in = S_in ∩ N_in`.
    pub fn in_c_in(&self) -> bool {
        self.in_s_in && self.in_n_in
    }

    /// Whether the semiring lies in `C_sur = S_sur ∩ N_sur`.
    pub fn in_c_sur(&self) -> bool {
        self.in_s_sur && self.in_n_sur
    }

    /// Whether the semiring lies in `C_bi = N_in ∩ N_sur` (Sec. 4.4).
    pub fn in_c_bi(&self) -> bool {
        self.in_n_in && self.in_n_sur
    }
}

/// A semiring whose placement in the paper's taxonomy is known.
///
/// The profile records facts *proved in the paper* (or immediate from its
/// axioms) — it is metadata, not a computation.  `annot-core`'s deciders
/// dispatch on it, and the cross-validation test-suite checks the dispatch
/// against brute-force semantics.
pub trait ClassifiedSemiring: Semiring {
    /// The declared class profile.
    fn class_profile() -> ClassProfile;

    /// The decidable polynomial order `¹_K` of this semiring, when one is
    /// implemented ([`crate::poly_order::PolynomialOrder`]).  On a
    /// `SmallModel`-criterion row, the decide pass ([`crate::decide`]) runs
    /// the small-model procedure of Thm. 4.17 with it on every pair the
    /// pass's bounds leave open.  A row without one (the default, `None`)
    /// has no exact ⟨Q⟩ criterion, like `N`.
    fn poly_order() -> Option<PolyLeqFn> {
        None
    }
}

impl ClassifiedSemiring for Bool {
    fn class_profile() -> ClassProfile {
        chom_profile("B")
    }
}

impl ClassifiedSemiring for PosBool {
    fn class_profile() -> ClassProfile {
        chom_profile("PosBool[X]")
    }
}

impl ClassifiedSemiring for Fuzzy {
    fn class_profile() -> ClassProfile {
        chom_profile("Fuzzy")
    }
}

impl ClassifiedSemiring for Clearance {
    fn class_profile() -> ClassProfile {
        chom_profile("Access")
    }
}

/// Distributive lattices (and, more generally, all members of `C_hom`).
fn chom_profile(name: &'static str) -> ClassProfile {
    ClassProfile {
        name,
        in_s_hcov: true,
        in_s_in: true,
        in_s_sur: true,
        // C_hom ⊆ every necessary class is *not* true in general; for the
        // lattice semirings the homomorphism criterion is exact, and the
        // other criteria are strictly stronger syntactic conditions, hence
        // still sufficient but not necessary.
        in_n_hcov: false,
        in_n_in: false,
        in_n_sur: false,
        offset: Offset::Finite(1),
        cq_criterion: CqCriterion::Homomorphism,
        ucq_criterion: UcqCriterion::LocalHomomorphism,
        cq_complexity: Complexity::NpComplete,
        ucq_complexity: Complexity::NpComplete,
    }
}

impl ClassifiedSemiring for Lineage {
    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "Lin[X]",
            in_s_hcov: true,
            in_s_in: false,
            in_s_sur: true,
            in_n_hcov: true,
            in_n_in: false,
            in_n_sur: false,
            offset: Offset::Finite(1),
            cq_criterion: CqCriterion::Covering,
            ucq_criterion: UcqCriterion::Covering1,
            cq_complexity: Complexity::NpComplete,
            ucq_complexity: Complexity::NpComplete,
        }
    }
}

impl ClassifiedSemiring for Tropical {
    fn poly_order() -> Option<PolyLeqFn> {
        Some(<Tropical as crate::poly_order::PolynomialOrder>::terms_leq)
    }

    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "T+",
            in_s_hcov: false,
            in_s_in: true,
            in_s_sur: false,
            in_n_hcov: false,
            in_n_in: false,
            in_n_sur: false,
            offset: Offset::Finite(1),
            cq_criterion: CqCriterion::SmallModel,
            ucq_criterion: UcqCriterion::SmallModel,
            cq_complexity: Complexity::PSpace,
            ucq_complexity: Complexity::PSpace,
        }
    }
}

impl ClassifiedSemiring for Viterbi {
    fn poly_order() -> Option<PolyLeqFn> {
        Some(<Viterbi as crate::poly_order::PolynomialOrder>::terms_leq)
    }

    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "Viterbi",
            in_s_hcov: false,
            in_s_in: true,
            in_s_sur: false,
            in_n_hcov: false,
            in_n_in: false,
            in_n_sur: false,
            offset: Offset::Finite(1),
            // Isomorphic to T⁺ via x ↦ −ln x, which carries the polynomial
            // order across ([`crate::poly_order`] ships the decider), so the
            // small-model procedure of Thm. 4.17 applies verbatim.
            cq_criterion: CqCriterion::SmallModel,
            ucq_criterion: UcqCriterion::SmallModel,
            cq_complexity: Complexity::PSpace,
            ucq_complexity: Complexity::PSpace,
        }
    }
}

impl ClassifiedSemiring for Schedule {
    fn poly_order() -> Option<PolyLeqFn> {
        Some(<Schedule as crate::poly_order::PolynomialOrder>::terms_leq)
    }

    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "T-",
            in_s_hcov: false,
            in_s_in: false,
            in_s_sur: true,
            in_n_hcov: true,
            in_n_in: false,
            in_n_sur: false,
            offset: Offset::Finite(1),
            cq_criterion: CqCriterion::SmallModel,
            ucq_criterion: UcqCriterion::SmallModel,
            cq_complexity: Complexity::PSpace,
            ucq_complexity: Complexity::PSpace,
        }
    }
}

impl ClassifiedSemiring for Why {
    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "Why[X]",
            in_s_hcov: false,
            in_s_in: false,
            in_s_sur: true,
            in_n_hcov: true,
            in_n_in: false,
            in_n_sur: true,
            offset: Offset::Finite(1),
            cq_criterion: CqCriterion::Surjective,
            ucq_criterion: UcqCriterion::LocalSurjective,
            cq_complexity: Complexity::NpComplete,
            ucq_complexity: Complexity::NpComplete,
        }
    }
}

impl ClassifiedSemiring for Trio {
    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "Trio[X]",
            in_s_hcov: false,
            in_s_in: false,
            in_s_sur: true,
            in_n_hcov: true,
            in_n_in: false,
            in_n_sur: true,
            offset: Offset::Infinite,
            cq_criterion: CqCriterion::Surjective,
            // Trio[X] ∈ N_sur but ∉ N¹_sur (Sec. 5.3); the paper leaves its
            // exact UCQ criterion open (the ↠_∞ condition is sufficient).
            ucq_criterion: UcqCriterion::UniqueSurjective,
            cq_complexity: Complexity::NpComplete,
            ucq_complexity: Complexity::ExpTime,
        }
    }
}

impl ClassifiedSemiring for NatPoly {
    fn poly_order() -> Option<PolyLeqFn> {
        Some(<NatPoly as crate::poly_order::PolynomialOrder>::terms_leq)
    }

    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "N[X]",
            in_s_hcov: false,
            in_s_in: false,
            in_s_sur: false,
            in_n_hcov: true,
            in_n_in: true,
            in_n_sur: true,
            offset: Offset::Infinite,
            cq_criterion: CqCriterion::Bijective,
            ucq_criterion: UcqCriterion::CountingInfinite,
            cq_complexity: Complexity::NpComplete,
            ucq_complexity: Complexity::CoNpSharpP,
        }
    }
}

impl ClassifiedSemiring for BoolPoly {
    fn poly_order() -> Option<PolyLeqFn> {
        Some(<BoolPoly as crate::poly_order::PolynomialOrder>::terms_leq)
    }

    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "B[X]",
            in_s_hcov: false,
            in_s_in: false,
            in_s_sur: false,
            in_n_hcov: true,
            in_n_in: true,
            in_n_sur: true,
            offset: Offset::Finite(1),
            cq_criterion: CqCriterion::Bijective,
            ucq_criterion: UcqCriterion::LocalBijective,
            cq_complexity: Complexity::NpComplete,
            ucq_complexity: Complexity::NpComplete,
        }
    }
}

impl ClassifiedSemiring for Natural {
    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "N",
            in_s_hcov: false,
            in_s_in: false,
            in_s_sur: true,
            in_n_hcov: true,
            in_n_in: false,
            in_n_sur: false,
            offset: Offset::Infinite,
            cq_criterion: CqCriterion::OpenProblem,
            ucq_criterion: UcqCriterion::OpenProblem,
            cq_complexity: Complexity::OpenOrUndecidable,
            ucq_complexity: Complexity::OpenOrUndecidable,
        }
    }
}

impl<const K: u64> ClassifiedSemiring for BoundedNat<K> {
    fn class_profile() -> ClassProfile {
        ClassProfile {
            name: "B_k",
            // B₁ and B₂ happen to be ⊗-idempotent on their small carriers;
            // larger cutoffs are not.
            in_s_hcov: K <= 2,
            in_s_in: K <= 1,
            in_s_sur: true,
            // The saturation means no assignment can separate the product
            // from high powers of sums, so B_k ∉ N_hcov for every k.
            in_n_hcov: false,
            in_n_in: false,
            in_n_sur: false,
            offset: Offset::Finite(K.max(1)),
            // B₁ ≅ B is in C_hom; for k ≥ 2 the paper gives sufficient
            // conditions (offset-k counting ↪_k, coverings) but no exact
            // characterisation, so the dispatcher treats it as open and the
            // ↪_k procedure is exposed separately (`ucq::bijective`).
            cq_criterion: if K <= 1 {
                CqCriterion::Homomorphism
            } else {
                CqCriterion::OpenProblem
            },
            ucq_criterion: if K <= 1 {
                UcqCriterion::LocalHomomorphism
            } else {
                UcqCriterion::OpenProblem
            },
            cq_complexity: if K <= 1 {
                Complexity::NpComplete
            } else {
                Complexity::OpenOrUndecidable
            },
            ucq_complexity: if K <= 1 {
                Complexity::NpComplete
            } else {
                Complexity::OpenOrUndecidable
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_semiring::axioms::AxiomProfile;

    /// The declared sufficient-class memberships must agree with the
    /// element-level axiom checks (they are the same axioms).
    fn consistent_with_axioms<K: ClassifiedSemiring>() {
        let declared = K::class_profile();
        let empirical = AxiomProfile::of::<K>(8);
        assert_eq!(
            declared.in_s_hcov, empirical.mul_idempotent,
            "{}: S_hcov mismatch",
            declared.name
        );
        assert_eq!(
            declared.in_s_in, empirical.one_annihilating,
            "{}: S_in mismatch",
            declared.name
        );
        assert_eq!(
            declared.in_s_sur, empirical.mul_semi_idempotent,
            "{}: S_sur mismatch",
            declared.name
        );
        let declared_offset = match declared.offset {
            Offset::Finite(k) => Some(k),
            Offset::Infinite => None,
        };
        assert_eq!(
            declared_offset, empirical.offset,
            "{}: offset mismatch",
            declared.name
        );
    }

    #[test]
    fn declared_profiles_match_axiom_checks() {
        consistent_with_axioms::<Bool>();
        consistent_with_axioms::<PosBool>();
        consistent_with_axioms::<Fuzzy>();
        consistent_with_axioms::<Clearance>();
        consistent_with_axioms::<Lineage>();
        consistent_with_axioms::<Tropical>();
        consistent_with_axioms::<Viterbi>();
        consistent_with_axioms::<Schedule>();
        consistent_with_axioms::<Why>();
        consistent_with_axioms::<Trio>();
        consistent_with_axioms::<NatPoly>();
        consistent_with_axioms::<BoolPoly>();
        consistent_with_axioms::<Natural>();
        consistent_with_axioms::<BoundedNat<1>>();
        consistent_with_axioms::<BoundedNat<2>>();
        consistent_with_axioms::<BoundedNat<3>>();
    }

    #[test]
    fn intersection_classes() {
        assert!(Bool::class_profile().in_c_hom());
        assert!(!Tropical::class_profile().in_c_hom());
        assert!(Lineage::class_profile().in_c_hcov());
        assert!(Why::class_profile().in_c_sur());
        assert!(Trio::class_profile().in_c_sur());
        assert!(NatPoly::class_profile().in_c_bi());
        assert!(BoolPoly::class_profile().in_c_bi());
        assert!(!Natural::class_profile().in_c_sur());
        assert!(!Natural::class_profile().in_c_hcov());
    }

    #[test]
    fn table1_criteria() {
        assert_eq!(
            Bool::class_profile().cq_criterion,
            CqCriterion::Homomorphism
        );
        assert_eq!(Lineage::class_profile().cq_criterion, CqCriterion::Covering);
        assert_eq!(Why::class_profile().cq_criterion, CqCriterion::Surjective);
        assert_eq!(
            NatPoly::class_profile().cq_criterion,
            CqCriterion::Bijective
        );
        assert_eq!(
            Tropical::class_profile().cq_criterion,
            CqCriterion::SmallModel
        );
        assert_eq!(
            Natural::class_profile().cq_criterion,
            CqCriterion::OpenProblem
        );
        assert_eq!(
            NatPoly::class_profile().ucq_criterion,
            UcqCriterion::CountingInfinite
        );
        assert_eq!(
            NatPoly::class_profile().ucq_complexity,
            Complexity::CoNpSharpP
        );
        assert_eq!(
            Why::class_profile().ucq_criterion,
            UcqCriterion::LocalSurjective
        );
        assert_eq!(
            BoundedNat::<3>::class_profile().ucq_criterion,
            UcqCriterion::OpenProblem
        );
        assert_eq!(
            BoundedNat::<1>::class_profile().cq_criterion,
            CqCriterion::Homomorphism
        );
        assert!(Offset::Finite(1).is_idempotent());
        assert!(!Offset::Infinite.is_idempotent());
    }
}
