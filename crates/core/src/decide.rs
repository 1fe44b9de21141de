//! The unified containment API: one decide pass per Table 1 row.
//!
//! [`decide_ucq`] decides `Q₁ ⊆_K Q₂` by `K`'s row of Table 1 and reports
//! a [`Decision`]: the verdict, the *method* that produced it, and, for a
//! verdict settled by one homomorphism, the witnessing variable mapping.
//! [`decide_cq`] is the same decision on singleton unions, so the two
//! entry points never disagree on single CQs.  The small-model procedure
//! of Thm. 4.17 is reached through the [`ClassifiedSemiring::poly_order`]
//! hook, so one entry point per query type serves every registered
//! semiring.
//!
//! # The pass
//!
//! A row whose UCQ criterion is member-wise (`C_hom`, `C¹_in`, `C¹_sur`,
//! `C¹_bi`) or the covering `⇉₁` (`C¹_hcov`) answers with its criterion;
//! on single CQs that is its CQ criterion, with the witness.  A row whose
//! procedure reads the complete descriptions ⟨Q₁⟩ and ⟨Q₂⟩ (`N[X]`,
//! `Trio[X]`, `T+`, `T-`, `Viterbi`, `N`, `B_k`) first tries the bounds the
//! paper proves sound for it, cheapest first, and builds ⟨Q⟩ only for a
//! pair none of them settles:
//!
//! 1. **Exact CQ criterion.**  On single CQs, a row whose CQ criterion is a
//!    homomorphism kind answers with it and its witness: `N[X]` with `⤖`
//!    and `Trio[X]` with `↠`.  On single CQs `↪_∞` is `⤖` and `↠_∞` is `↠`.
//! 2. **Sufficient bounds.**  Distinct bijective witnesses, on every row
//!    ([`local::sufficient_for_all_semirings`]).  Then the row's CQ
//!    sufficient bound (`S_hcov` `⇉`, else `S_in` `↪`, else `S_sur` `↠`):
//!    on single CQs that bound itself, with its witness; on ⊕-idempotent
//!    rows, every member of `Q₁` in some member of `Q₂` by it (Prop. 5.1).
//! 3. **Necessary bounds.**  Member-wise homomorphism, necessary on every
//!    positive semiring; on single CQs, the row's CQ necessary bound
//!    instead (`N_in ∩ N_sur` `⤖`, `N_sur` `↠`, `N_in` `↪`, `N_hcov` `⇉`,
//!    else `→`), which implies it.
//! 4. **⟨Q⟩.**  The row's criterion over complete descriptions: `↪_∞`,
//!    `↠_∞`, `↪_k`, `⇉₂` or the small-model procedure.  A row with none
//!    (`N`, `B_k`) reads one set of joint classes for `↠_∞`, sufficient on
//!    `S_sur`, and `⇉₂`, necessary on `N²_hcov`, and may answer
//!    [`Verdict::Unknown`].
//!
//! Every bound is sound for its row, so on a row with an exact criterion no
//! verdict depends on which step settled it; on `N` and `B_k` a bound can
//! only settle what ⟨Q⟩ leaves `Unknown`.  The method string names the
//! criterion or the bound that settled the pair.  Steps 1–3 allocate
//! nothing on a pair they leave open once the homomorphism searches'
//! per-thread buffers have grown.
//!
//! Runtime dispatch by semiring *name* (for wire protocols and other
//! monomorphization-hostile callers) lives in [`crate::registry`].

use crate::classes::{ClassProfile, ClassifiedSemiring, CqCriterion, UcqCriterion};
use crate::small_model;
use crate::ucq::{bijective, covering, local, surjective};
use annot_hom::{kinds, VarMap};
use annot_query::complete::{Classes, Description};
use annot_query::{Cq, Ucq};
use std::slice;

/// The verdict of a containment question, without the provenance of *how*
/// it was reached (that is [`Decision::method`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Containment holds.
    Contained,
    /// Containment does not hold.
    NotContained,
    /// The available bounds do not settle the question: the row's
    /// sufficient conditions failed and its necessary ones held.
    Unknown,
}

/// The outcome of a containment question: the verdict, the criterion that
/// produced it, and (when the criterion is the existence of a single
/// homomorphism) the witnessing variable mapping from `Q₂`'s variables into
/// `Q₁`'s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The verdict.
    pub answer: Verdict,
    /// Human-readable name of the criterion / procedure used.
    pub method: &'static str,
    /// For `Contained` verdicts on single CQs established by exhibiting one
    /// homomorphism (the `C_hom`, `C_in`, `C_sur`, `C_bi` criteria and the
    /// `S_in`, `S_sur` bounds): the mapping found.  `None` for covering /
    /// counting / small-model procedures, refutations and verdicts on
    /// unions of several CQs.
    pub witness: Option<VarMap>,
}

impl Decision {
    /// The verdict as a `bool`, when decided.
    pub fn decided(&self) -> Option<bool> {
        match self.answer {
            Verdict::Contained => Some(true),
            Verdict::NotContained => Some(false),
            Verdict::Unknown => None,
        }
    }

    fn of(holds: bool, method: &'static str) -> Decision {
        Decision {
            answer: if holds {
                Verdict::Contained
            } else {
                Verdict::NotContained
            },
            method,
            witness: None,
        }
    }

    /// `Contained` with the witness `found` carries, or `NotContained`
    /// when nothing was found.
    fn found(found: Option<Option<VarMap>>, method: &'static str) -> Decision {
        Decision {
            answer: if found.is_some() {
                Verdict::Contained
            } else {
                Verdict::NotContained
            },
            method,
            witness: found.flatten(),
        }
    }
}

/// A homomorphism kind between CQs (Sec. 3–4), from `Q₂` to `Q₁`.
#[derive(Clone, Copy)]
enum Kind {
    /// `Q₂ → Q₁`.
    Hom,
    /// `Q₂ ⇉ Q₁`.
    Covering,
    /// `Q₂ ↪ Q₁`.
    Injective,
    /// `Q₂ ↠ Q₁`.
    Surjective,
    /// `Q₂ ⤖ Q₁`.
    Bijective,
}

impl Kind {
    /// The kind a CQ criterion asks for, when it asks for one.
    fn criterion(criterion: CqCriterion) -> Option<Kind> {
        match criterion {
            CqCriterion::Homomorphism => Some(Kind::Hom),
            CqCriterion::Covering => Some(Kind::Covering),
            CqCriterion::Injective => Some(Kind::Injective),
            CqCriterion::Surjective => Some(Kind::Surjective),
            CqCriterion::Bijective => Some(Kind::Bijective),
            CqCriterion::SmallModel | CqCriterion::OpenProblem => None,
        }
    }

    /// The strongest kind the row's sufficient classes make sufficient for
    /// CQ containment (Sec. 4.1, 4.2, 4.4), with the methods naming it
    /// between single CQs and member-wise between unions (Prop. 5.1).  `⤖`
    /// is left to the distinct bijective witnesses.
    fn sufficient(profile: &ClassProfile) -> Option<(Kind, [&'static str; 2])> {
        if profile.in_s_hcov {
            Some((
                Kind::Covering,
                [
                    "sufficient bound: homomorphic covering (S_hcov)",
                    "sufficient bound: member-wise homomorphic covering (S_hcov, Prop. 5.1)",
                ],
            ))
        } else if profile.in_s_in {
            Some((
                Kind::Injective,
                [
                    "sufficient bound: injective homomorphism (S_in)",
                    "sufficient bound: member-wise injective homomorphism (S_in, Prop. 5.1)",
                ],
            ))
        } else if profile.in_s_sur {
            Some((
                Kind::Surjective,
                [
                    "sufficient bound: surjective homomorphism (S_sur)",
                    "sufficient bound: member-wise surjective homomorphism (S_sur, Prop. 5.1)",
                ],
            ))
        } else {
            None
        }
    }

    /// The strongest kind the row's necessary classes make necessary for CQ
    /// containment; a homomorphism is necessary on every positive semiring.
    fn necessary(profile: &ClassProfile) -> Kind {
        if profile.in_n_in && profile.in_n_sur {
            Kind::Bijective
        } else if profile.in_n_sur {
            Kind::Surjective
        } else if profile.in_n_in {
            Kind::Injective
        } else if profile.in_n_hcov {
            Kind::Covering
        } else {
            Kind::Hom
        }
    }

    /// Whether `q2` relates to `q1` by this kind.
    fn holds(self, q2: &Cq, q1: &Cq) -> bool {
        match self {
            Kind::Hom => kinds::exists_hom(q2, q1),
            Kind::Covering => kinds::homomorphically_covers(slice::from_ref(q2), q1),
            Kind::Injective => kinds::exists_injective_hom(q2, q1),
            Kind::Surjective => kinds::exists_surjective_hom(q2, q1),
            Kind::Bijective => kinds::exists_bijective_hom(q2, q1),
        }
    }

    /// `Some` when `q2` relates to `q1` by this kind, holding the mapping
    /// found when the kind is one homomorphism.
    fn find(self, q2: &Cq, q1: &Cq) -> Option<Option<VarMap>> {
        match self {
            Kind::Hom => kinds::find_hom(q2, q1).map(Some),
            Kind::Covering => self.holds(q2, q1).then_some(None),
            Kind::Injective => kinds::find_injective_hom(q2, q1).map(Some),
            Kind::Surjective => kinds::find_surjective_hom(q2, q1).map(Some),
            Kind::Bijective => kinds::find_bijective_hom(q2, q1).map(Some),
        }
    }

    /// The method of the CQ criterion of this kind.
    fn criterion_method(self) -> &'static str {
        match self {
            Kind::Hom => "homomorphism (C_hom)",
            Kind::Covering => "homomorphic covering (C_hcov)",
            Kind::Injective => "injective homomorphism (C_in)",
            Kind::Surjective => "surjective homomorphism (C_sur)",
            Kind::Bijective => "bijective homomorphism (C_bi)",
        }
    }

    /// The method of a refutation by this kind as a necessary bound.
    fn violated_method(self) -> &'static str {
        match self {
            Kind::Hom => "necessary bound violated: member-wise homomorphism",
            Kind::Covering => "necessary bound violated: homomorphic covering (N_hcov)",
            Kind::Injective => "necessary bound violated: injective homomorphism (N_in)",
            Kind::Surjective => "necessary bound violated: surjective homomorphism (N_sur)",
            Kind::Bijective => "necessary bound violated: bijective homomorphism (N_in ∩ N_sur)",
        }
    }
}

/// Decides `Q₁ ⊆_K Q₂` for CQs: [`decide_ucq`] on singleton unions.
pub fn decide_cq<K: ClassifiedSemiring>(q1: &Cq, q2: &Cq) -> Decision {
    decide_ucq::<K>(&Ucq::single(q1.clone()), &Ucq::single(q2.clone()))
}

/// Decides `Q₁ ⊆_K Q₂` for UCQs by `K`'s Table 1 row, in the pass the
/// module docs describe.
pub fn decide_ucq<K: ClassifiedSemiring>(q1: &Ucq, q2: &Ucq) -> Decision {
    let profile = K::class_profile();
    let single = match (q1.disjuncts(), q2.disjuncts()) {
        ([a], [b]) => Some((a, b)),
        _ => None,
    };
    if let (Some((a, b)), Some(kind)) = (single, Kind::criterion(profile.cq_criterion)) {
        return Decision::found(kind.find(b, a), kind.criterion_method());
    }
    let member_wise = match profile.ucq_criterion {
        UcqCriterion::LocalHomomorphism => Some((
            local::contained_chom(q1, q2),
            "member-wise homomorphism (C_hom)",
        )),
        UcqCriterion::LocalInjective => Some((
            local::contained_c1in(q1, q2),
            "member-wise injective homomorphism (C¹_in)",
        )),
        UcqCriterion::LocalSurjective => Some((
            local::contained_c1sur(q1, q2),
            "member-wise surjective homomorphism (C¹_sur)",
        )),
        UcqCriterion::LocalBijective => Some((
            local::contained_c1bi(q1, q2),
            "member-wise bijective homomorphism (C¹_bi)",
        )),
        UcqCriterion::Covering1 => Some((covering::covering1(q1, q2), "covering ⇉₁ (C¹_hcov)")),
        _ => None,
    };
    if let Some((holds, method)) = member_wise {
        return Decision::of(holds, method);
    }
    bounds(&profile, q1, q2, single).unwrap_or_else(|| complete_descriptions::<K>(&profile, q1, q2))
}

/// Steps 2 and 3 of the pass: the decision of the first bound that settles
/// the pair, if any.  `single` holds the two CQs of a pair of single CQs.
fn bounds(
    profile: &ClassProfile,
    q1: &Ucq,
    q2: &Ucq,
    single: Option<(&Cq, &Cq)>,
) -> Option<Decision> {
    if local::sufficient_for_all_semirings(q1, q2) {
        return Some(Decision::of(
            true,
            "sufficient bound: distinct bijective witnesses",
        ));
    }
    if let Some((kind, [single_method, union_method])) = Kind::sufficient(profile) {
        if let Some((a, b)) = single {
            if let Some(witness) = kind.find(b, a) {
                return Some(Decision {
                    answer: Verdict::Contained,
                    method: single_method,
                    witness,
                });
            }
        } else if profile.offset.is_idempotent()
            && local::locally_contained(q1, q2, &|a, b| kind.holds(b, a))
        {
            return Some(Decision::of(true, union_method));
        }
    }
    let necessary = single.map_or(Kind::Hom, |_| Kind::necessary(profile));
    if !local::locally_contained(q1, q2, &|a, b| necessary.holds(b, a)) {
        return Some(Decision::of(false, necessary.violated_method()));
    }
    None
}

/// Step 4 of the pass: the row's criterion over complete descriptions, or,
/// on a row without one, the bounds ⟨Q⟩ gives.
fn complete_descriptions<K: ClassifiedSemiring>(
    profile: &ClassProfile,
    q1: &Ucq,
    q2: &Ucq,
) -> Decision {
    let exact = match profile.ucq_criterion {
        UcqCriterion::CountingOffset(k) => Some((
            bijective::counting_offset(q1, q2, k),
            "complete-description counting ↪_k (C^k_bi)",
        )),
        UcqCriterion::CountingInfinite => Some((
            bijective::counting_infinite(q1, q2),
            "complete-description counting ↪_∞ (C^∞_bi)",
        )),
        UcqCriterion::UniqueSurjective => Some((
            surjective::unique_surjective(q1, q2),
            "unique surjection ↠_∞ (C^∞_sur)",
        )),
        UcqCriterion::Covering2 => Some((covering::covering2(q1, q2), "covering ⇉₂ (C²_hcov)")),
        UcqCriterion::SmallModel => K::poly_order().map(|leq| {
            let method = if q1.len() == 1 && q2.len() == 1 {
                "small-model / canonical instances (Thm. 4.17)"
            } else {
                "small-model / canonical instances (UCQ extension of Thm. 4.17)"
            };
            (
                small_model::ucq_contained_small_model_with(q1, q2, leq),
                method,
            )
        }),
        _ => None,
    };
    if let Some((holds, method)) = exact {
        return Decision::of(holds, method);
    }
    if profile.in_s_sur || profile.in_n_hcov {
        let (d1, d2) = (
            Description::new(q1.disjuncts()),
            Description::new(q2.disjuncts()),
        );
        let classes = Classes::joint(&d1, &d2);
        if profile.in_s_sur && surjective::unique_surjective_on_classes(&classes) {
            return Decision::of(true, "sufficient bound: unique surjection ↠_∞ (S_sur)");
        }
        if profile.in_n_hcov && !covering::covering2_on_classes(&classes) {
            return Decision::of(false, "necessary bound violated: covering ⇉₂ (N²_hcov)");
        }
    }
    Decision {
        answer: Verdict::Unknown,
        method: "sufficient/necessary bounds",
        witness: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force::{find_counterexample, BruteForceConfig};
    use crate::registry::{decide_cq_dyn, SemiringId};
    use annot_hom::kinds;
    use annot_query::parser;
    use annot_query::Schema;
    use annot_semiring::{Bool, Lineage, NatPoly, Natural, Schedule, Trio, Tropical, Why};

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    /// Example 4.6: Q1 = ∃u,v,w R(u,v),R(u,w);  Q2 = ∃u,v R(u,v),R(u,v).
    fn cqs() -> (Cq, Cq) {
        let mut s = schema();
        let q1 = parser::parse_cq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_cq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        (q1, q2)
    }

    /// `decide_cq::<K>` settles `q1 ⊑ q2` as `expected`, through `method`.
    fn assert_row<K: ClassifiedSemiring>(q1: &Cq, q2: &Cq, expected: bool, method: &str) {
        let d = decide_cq::<K>(q1, q2);
        assert_eq!(d.decided(), Some(expected), "{q1} ⊑ {q2} ({})", d.method);
        assert_eq!(d.method, method, "{q1} ⊑ {q2}");
    }

    #[test]
    fn example_4_6_across_the_taxonomy() {
        let (q1, q2) = cqs();
        // Set semantics: equivalent.
        assert_eq!(decide_cq::<Bool>(&q1, &q2).decided(), Some(true));
        assert_eq!(decide_cq::<Bool>(&q2, &q1).decided(), Some(true));
        // Lineage (covering): still contained.
        assert_eq!(decide_cq::<Lineage>(&q1, &q2).decided(), Some(true));
        // Why-provenance (surjective): not contained.
        assert_eq!(decide_cq::<Why>(&q1, &q2).decided(), Some(false));
        // Provenance polynomials (bijective): not contained.
        assert_eq!(decide_cq::<NatPoly>(&q1, &q2).decided(), Some(false));
        // Tropical semiring: contained, via the small-model procedure reached
        // through the poly_order hook — no separate entry point anymore.
        assert_eq!(decide_cq::<Tropical>(&q1, &q2).decided(), Some(true));
        // Bag semantics: the bounds do not settle it (it is in fact false).
        assert_eq!(decide_cq::<Natural>(&q1, &q2).decided(), None);
        // ... but the reverse direction is settled by the sufficient bound.
        assert_eq!(decide_cq::<Natural>(&q2, &q1).decided(), Some(true));
    }

    #[test]
    fn free_variables_reach_both_entry_points_alike() {
        // Q₂(a) = Σ_b R(a,b)² ≥ R(a,a)² = Q₁(a) over N[X]: Q₂ ⤖ Q₁ maps
        // y ↦ x, and ⟨Q₂⟩ holds the member R(x,x),R(x,x) that ↪_∞ needs.
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_cq(&mut s, "Q(x) :- R(x, x), R(x, x)").unwrap();
        let q2 = parser::parse_cq(&mut s, "Q(x) :- R(x, y), R(x, y)").unwrap();
        assert_eq!(decide_cq::<NatPoly>(&q1, &q2).decided(), Some(true));
        let (u1, u2) = (Ucq::from(q1), Ucq::from(q2));
        assert_eq!(decide_ucq::<NatPoly>(&u1, &u2).decided(), Some(true));
        assert_eq!(decide_ucq::<NatPoly>(&u2, &u1).decided(), Some(false));
    }

    #[test]
    fn two_free_variables_are_counted_once_at_equal_values() {
        // On R = {(a,a) ↦ t}, each member of Q₁ gives t² at (a,a), so
        // Q₁(a,a) = 2t², but Q₂(a,a) = t² from its one valuation y = a.
        // ⟨Q₂⟩ must hold R(x,x),R(x,x) with head (x,x) once, not twice.
        let mut s = Schema::with_relations([("R", 2)]);
        let u1 = parser::parse_ucq(
            &mut s,
            "Q(x, w) :- R(x, x), R(x, w) ; Q(x, w) :- R(x, w), R(w, w)",
        )
        .unwrap();
        let u2 = parser::parse_ucq(&mut s, "Q(x, w) :- R(x, y), R(y, w)").unwrap();
        // `↪_∞`, `↠_∞` and `N`'s bounds read ⟨Q⟩; the oracle confirms each
        // refutation.
        fn refuted<K: ClassifiedSemiring>(u1: &Ucq, u2: &Ucq) {
            assert_eq!(decide_ucq::<K>(u1, u2).decided(), Some(false));
            let config = BruteForceConfig::with_domain_size(1);
            assert!(find_counterexample::<K>(u1, u2, &config).is_some());
        }
        refuted::<NatPoly>(&u1, &u2);
        refuted::<Trio>(&u1, &u2);
        refuted::<Natural>(&u1, &u2);
    }

    #[test]
    fn decisions_carry_method_and_witness() {
        let (q1, q2) = cqs();
        let d = decide_cq::<Bool>(&q1, &q2);
        assert!(d.method.contains("homomorphism"));
        // Homomorphism criterion: a Contained verdict carries its witness.
        let witness = d.witness.expect("hom witness");
        assert!(witness.is_total());
        let t = decide_cq::<Tropical>(&q1, &q2);
        assert!(t.method.contains("small-model"));
        assert!(t.witness.is_none());
        let n = decide_cq::<Natural>(&q1, &q2);
        assert_eq!(n.answer, Verdict::Unknown);
        assert_eq!(n.method, "sufficient/necessary bounds");
        // Refutations have no witness.
        assert!(decide_cq::<Why>(&q1, &q2).witness.is_none());
    }

    #[test]
    fn hom_witnesses_really_map_q2_into_q1() {
        let mut s = Schema::with_relations([("R", 2), ("S", 1)]);
        let q1 = parser::parse_cq(&mut s, "Q(x) :- R(x, y), S(y)").unwrap();
        let q2 = parser::parse_cq(&mut s, "Q(x) :- R(x, z)").unwrap();
        let d = decide_cq::<Bool>(&q1, &q2);
        let map = d.witness.expect("contained with witness");
        for atom in q2.atoms() {
            let image = map.apply_atom(atom);
            assert!(q1.atoms().contains(&image), "image atom not in Q1");
        }
    }

    #[test]
    fn ucq_dispatch() {
        let mut s = Schema::with_relations([("R", 2)]);
        let u1 =
            parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v)").unwrap();
        let u2 =
            parser::parse_ucq(&mut s, "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)").unwrap();
        // N[X]: decided by ↪_∞ (Ex. 5.7).
        assert_eq!(decide_ucq::<NatPoly>(&u1, &u2).decided(), Some(true));
        assert_eq!(decide_ucq::<NatPoly>(&u2, &u1).decided(), Some(false));
        // B (set semantics): member-wise homomorphism.
        assert_eq!(decide_ucq::<Bool>(&u1, &u2).decided(), Some(true));
        // Why[X]: member-wise surjective homomorphisms.
        assert_eq!(decide_ucq::<Why>(&u1, &u2).decided(), Some(true));
        // Bag semantics: sufficient bound (↠_∞) settles this particular pair.
        assert_eq!(decide_ucq::<Natural>(&u1, &u2).decided(), Some(true));
        // Tropical: small-model UCQ procedure on Example 5.4, through the
        // unified entry point.
        let mut s2 = Schema::with_relations([("R", 1), ("S", 1)]);
        let t1 = parser::parse_ucq(&mut s2, "Q() :- R(v), S(v)").unwrap();
        let t2 = parser::parse_ucq(&mut s2, "Q() :- R(v), R(v) ; Q() :- S(v), S(v)").unwrap();
        assert_eq!(decide_ucq::<Tropical>(&t1, &t2).decided(), Some(true));
    }

    #[test]
    fn example_4_6_differs_across_classes() {
        let (q1, q2) = cqs();
        // Over set semantics (C_hom) Q1 ⊆ Q2 (and vice versa): they have the
        // same core.
        assert_row::<Bool>(&q1, &q2, true, "homomorphism (C_hom)");
        assert_row::<Bool>(&q2, &q1, true, "homomorphism (C_hom)");
        // Over C_hcov (lineage) both directions still hold.
        assert_row::<Lineage>(&q1, &q2, true, "homomorphic covering (C_hcov)");
        assert_row::<Lineage>(&q2, &q1, true, "homomorphic covering (C_hcov)");
        // Over C_in, which no shipped semiring reaches, Q1 ⊆ Q2 FAILS (no
        // injective homomorphism Q2 ↪ Q1), while Q2 ⊆ Q1 holds (Q1 ↪ Q2).
        assert!(!kinds::exists_injective_hom(&q2, &q1));
        assert!(kinds::exists_injective_hom(&q1, &q2));
        // Over C_sur (Why[X]) and C_bi (N[X]) Q1 ⊆ Q2 fails as well, while
        // Q2 ⊆ Q1 keeps holding (collapsing v = w gives a bijective
        // homomorphism Q1 ⤖ Q2).
        assert_row::<Why>(&q1, &q2, false, "surjective homomorphism (C_sur)");
        assert_row::<Why>(&q2, &q1, true, "surjective homomorphism (C_sur)");
        assert_row::<NatPoly>(&q1, &q2, false, "bijective homomorphism (C_bi)");
        assert_row::<NatPoly>(&q2, &q1, true, "bijective homomorphism (C_bi)");
        // The tropical semiring lies in none of these classes: its
        // small-model procedure finds Q1 ⊆ Q2, which no bound settles, and
        // the bijective homomorphism Q1 ⤖ Q2 proves Q2 ⊆ Q1 on every
        // semiring before any complete description is built.
        let small_model = "small-model / canonical instances (Thm. 4.17)";
        assert_row::<Tropical>(&q1, &q2, true, small_model);
        let bijective = "sufficient bound: distinct bijective witnesses";
        assert_row::<Tropical>(&q2, &q1, true, bijective);
    }

    #[test]
    fn chain_versus_collapsed_chain() {
        // Q1 = R(x,y),R(y,z); Q2 = R(x,x).  Q2 → Q1 needs a loop in Q1, so
        // Q1 ⊄_B Q2; Q1 → Q2 collapses the chain, so Q2 ⊆_B Q1.
        let q1 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let q2 = Cq::builder(&schema()).atom("R", &["x", "x"]).build();
        assert_row::<Bool>(&q1, &q2, false, "homomorphism (C_hom)");
        assert_row::<Bool>(&q2, &q1, true, "homomorphism (C_hom)");
        // Both atoms of Q1 map onto the loop: Q1 ↠ Q2 …
        assert_row::<Why>(&q2, &q1, true, "surjective homomorphism (C_sur)");
        // … but not bijectively, as the atom counts differ.
        assert_row::<NatPoly>(&q2, &q1, false, "bijective homomorphism (C_bi)");
    }

    #[test]
    fn bag_bounds_behave() {
        let (q1, q2) = cqs();
        // Q2 ⊆_N Q1: the homomorphism Q1 → Q2 mapping u↦u and both v,w ↦ v
        // is bijective on atoms, so the bound of every semiring fires.
        let bijective = "sufficient bound: distinct bijective witnesses";
        assert_row::<Natural>(&q2, &q1, true, bijective);
        // Q1 ⊆_N Q2 is refuted by neither bound: the covering Q2 ⇉ Q1 holds
        // and no surjective homomorphism exists, so the answer is unknown
        // from the bounds alone (in fact it is false for N).
        assert_eq!(decide_cq::<Natural>(&q1, &q2).decided(), None);
        // A clear refutation: Q3 has an S-atom that no homomorphism from Q1
        // can produce, so the necessary covering condition fails.
        let q3 = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("S", &["x"])
            .build();
        let necessary = "necessary bound violated: homomorphic covering (N_hcov)";
        assert_row::<Natural>(&q3, &q1, false, necessary);
        // A surjective homomorphism that is not bijective: the sufficient
        // bound of S_sur fires, with its witness.
        let single = Cq::builder(&schema()).atom("R", &["x", "y"]).build();
        let surjective = "sufficient bound: surjective homomorphism (S_sur)";
        assert_row::<Natural>(&single, &q2, true, surjective);
        assert!(decide_cq::<Natural>(&single, &q2).witness.is_some());
    }

    #[test]
    fn schedule_algebra_decides_a_forty_variable_polynomial() {
        // The canonical instance of `Q() :- R0(x), …, R39(x)` tags 40 facts,
        // so each side evaluates to one monomial over 40 variables.  The
        // order checks one support per monomial, not each of the 2⁴⁰
        // subsets of variables sent to −∞.
        let atoms: Vec<String> = (0..40).map(|i| format!("R{i}(x)")).collect();
        let text = format!("Q() :- {}", atoms.join(", "));
        // `decide_cq` would settle q ⊑ q by its bijective bound, so the
        // procedure is called directly.
        let q = Ucq::from(parser::parse_cq(&mut Schema::new(), &text).unwrap());
        let leq = Schedule::poly_order().expect("T- has a polynomial order");
        assert!(small_model::ucq_contained_small_model_with(&q, &q, leq));
    }

    #[test]
    fn universal_bounds_bracket_every_semiring() {
        // Q2 ⤖ Q1 is sufficient for Q1 ⊆_K Q2 on every positive semiring
        // (Sec. 4.3, universality of N[X]) and Q2 → Q1 is necessary
        // (Sec. 3.3), so no row may refute the first or accept without the
        // second.
        let (q1, q2) = cqs();
        let chain = Cq::builder(&schema())
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build();
        let lp = Cq::builder(&schema()).atom("R", &["x", "x"]).build();
        let pairs = [
            (&q1, &q2),
            (&q2, &q1),
            (&q2, &q2),
            (&chain, &lp),
            (&lp, &chain),
        ];
        for (a, b) in pairs {
            let sufficient = kinds::exists_bijective_hom(b, a);
            let necessary = kinds::exists_hom(b, a);
            // sufficient ⇒ necessary on every pair.
            assert!(!sufficient || necessary, "{a} ⊑ {b}");
            for id in SemiringId::all() {
                let d = decide_cq_dyn(id, a, b);
                let context = || format!("semiring {}: {a} ⊑ {b} ({})", id.name(), d.method);
                if sufficient {
                    assert_ne!(d.decided(), Some(false), "{}", context());
                }
                if !necessary {
                    assert_ne!(d.decided(), Some(true), "{}", context());
                }
            }
        }
        // Q2 ⤖ Q2 trivially, so Q2 ⊆_K Q2 for every K.
        assert!(kinds::exists_bijective_hom(&q2, &q2));
        assert!(kinds::exists_hom(&q2, &q2));
    }
}
