//! The unified containment API: dispatch on a semiring's class profile.
//!
//! [`decide_cq`] and [`decide_ucq`] pick, for a given
//! [`ClassifiedSemiring`], the decision procedure Table 1 assigns to it
//! (homomorphism, covering, injective, surjective, bijective, small-model,
//! or the local / counting / unique-surjection UCQ criteria) and report a
//! [`Decision`]: the verdict, the *method* that produced it, and — for the
//! single-homomorphism criteria — the witnessing variable mapping.
//!
//! The former `decide_*` / `decide_*_with_poly_order` split is gone: the
//! small-model procedure of Thm. 4.17 is reached through the
//! [`ClassifiedSemiring::poly_order`] hook, so one entry point per query
//! type serves every registered semiring.  For semirings with no known
//! exact procedure (bag semantics `N`, `Trio[X]` at the UCQ level, …) the
//! dispatcher falls back to the paper's sufficient and necessary bounds and
//! may answer [`Verdict::Unknown`].
//!
//! Runtime dispatch by semiring *name* (for wire protocols and other
//! monomorphization-hostile callers) lives in [`crate::registry`].

use crate::classes::{ClassifiedSemiring, CqCriterion, UcqCriterion};
use crate::{small_model, ucq};
use annot_hom::{kinds, VarMap};
use annot_query::complete::{Classes, Description};
use annot_query::{Cq, Ucq};
use std::cell::OnceCell;
use std::slice;

/// The verdict of a containment question, without the provenance of *how*
/// it was reached (that is [`Decision::method`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Containment holds.
    Contained,
    /// Containment does not hold.
    NotContained,
    /// The available bounds do not settle the question.
    Unknown {
        /// Whether the strongest known sufficient condition held.
        sufficient_holds: bool,
        /// Whether the strongest known necessary condition held.
        necessary_holds: bool,
    },
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
    /// For `Contained` verdicts established by exhibiting one homomorphism
    /// (the `C_hom`, `C_in`, `C_sur`, `C_bi` rows): the mapping found.
    /// `None` for covering / counting / small-model procedures, refutations
    /// and UCQ-level verdicts.
    pub witness: Option<VarMap>,
}

impl Decision {
    /// The verdict as a `bool`, when decided.
    pub fn decided(&self) -> Option<bool> {
        match self.answer {
            Verdict::Contained => Some(true),
            Verdict::NotContained => Some(false),
            Verdict::Unknown { .. } => None,
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

    /// A decision settled by searching for one homomorphism: `Contained`
    /// with the witness if found, `NotContained` otherwise.
    fn of_witness(witness: Option<VarMap>, method: &'static str) -> Decision {
        Decision {
            answer: if witness.is_some() {
                Verdict::Contained
            } else {
                Verdict::NotContained
            },
            method,
            witness,
        }
    }
}

/// Decides `Q₁ ⊆_K Q₂` for CQs, dispatching on `K`'s Table 1 row.
pub fn decide_cq<K: ClassifiedSemiring>(q1: &Cq, q2: &Cq) -> Decision {
    let profile = K::class_profile();
    match profile.cq_criterion {
        CqCriterion::Homomorphism => {
            Decision::of_witness(kinds::find_hom(q2, q1), "homomorphism (C_hom)")
        }
        CqCriterion::Covering => Decision::of(
            kinds::homomorphically_covers(slice::from_ref(q2), q1),
            "homomorphic covering (C_hcov)",
        ),
        CqCriterion::Injective => Decision::of_witness(
            kinds::find_injective_hom(q2, q1),
            "injective homomorphism (C_in)",
        ),
        CqCriterion::Surjective => Decision::of_witness(
            kinds::find_surjective_hom(q2, q1),
            "surjective homomorphism (C_sur)",
        ),
        CqCriterion::Bijective => Decision::of_witness(
            kinds::find_bijective_hom(q2, q1),
            "bijective homomorphism (C_bi)",
        ),
        // Thm. 4.17 is the UCQ procedure on singleton unions.
        CqCriterion::SmallModel => match K::poly_order() {
            Some(leq) => Decision::of(
                small_model::ucq_contained_small_model_with(
                    &Ucq::from(q1.clone()),
                    &Ucq::from(q2.clone()),
                    leq,
                ),
                "small-model / canonical instances (Thm. 4.17)",
            ),
            None => bounds_cq(q1, q2, &profile),
        },
        CqCriterion::OpenProblem => bounds_cq(q1, q2, &profile),
    }
}

fn bounds_cq(q1: &Cq, q2: &Cq, profile: &crate::classes::ClassProfile) -> Decision {
    // Strongest sufficient condition available from the profile; the
    // single-homomorphism bounds carry their witness.
    let sufficient = if profile.in_s_hcov {
        Decision::of(
            kinds::homomorphically_covers(slice::from_ref(q2), q1),
            "sufficient homomorphism bound",
        )
    } else if profile.in_s_in {
        Decision::of_witness(
            kinds::find_injective_hom(q2, q1),
            "sufficient homomorphism bound",
        )
    } else if profile.in_s_sur {
        Decision::of_witness(
            kinds::find_surjective_hom(q2, q1),
            "sufficient homomorphism bound",
        )
    } else {
        Decision::of_witness(
            kinds::find_bijective_hom(q2, q1),
            "sufficient homomorphism bound",
        )
    };
    if sufficient.answer == Verdict::Contained {
        return sufficient;
    }
    // Strongest necessary condition.
    let necessary = if profile.in_n_in && profile.in_n_sur {
        kinds::exists_bijective_hom(q2, q1)
    } else if profile.in_n_sur {
        kinds::exists_surjective_hom(q2, q1)
    } else if profile.in_n_in {
        kinds::exists_injective_hom(q2, q1)
    } else if profile.in_n_hcov {
        kinds::homomorphically_covers(slice::from_ref(q2), q1)
    } else {
        kinds::exists_hom(q2, q1)
    };
    if !necessary {
        return Decision::of(false, "necessary homomorphism bound violated");
    }
    Decision {
        answer: Verdict::Unknown {
            sufficient_holds: false,
            necessary_holds: necessary,
        },
        method: "sufficient/necessary homomorphism bounds",
        witness: None,
    }
}

/// Decides `Q₁ ⊆_K Q₂` for UCQs, dispatching on `K`'s Table 1 row.
pub fn decide_ucq<K: ClassifiedSemiring>(q1: &Ucq, q2: &Ucq) -> Decision {
    let profile = K::class_profile();
    match profile.ucq_criterion {
        UcqCriterion::LocalHomomorphism => Decision::of(
            ucq::local::contained_chom(q1, q2),
            "member-wise homomorphism (C_hom)",
        ),
        UcqCriterion::LocalInjective => Decision::of(
            ucq::local::contained_c1in(q1, q2),
            "member-wise injective homomorphism (C¹_in)",
        ),
        UcqCriterion::LocalSurjective => Decision::of(
            ucq::local::contained_c1sur(q1, q2),
            "member-wise surjective homomorphism (C¹_sur)",
        ),
        UcqCriterion::LocalBijective => Decision::of(
            ucq::local::contained_c1bi(q1, q2),
            "member-wise bijective homomorphism (C¹_bi)",
        ),
        UcqCriterion::Covering1 => {
            Decision::of(ucq::covering::covering1(q1, q2), "covering ⇉₁ (C¹_hcov)")
        }
        UcqCriterion::Covering2 => {
            Decision::of(ucq::covering::covering2(q1, q2), "covering ⇉₂ (C²_hcov)")
        }
        UcqCriterion::CountingOffset(k) => Decision::of(
            ucq::bijective::counting_offset(q1, q2, k),
            "complete-description counting ↪_k (C^k_bi)",
        ),
        UcqCriterion::CountingInfinite => Decision::of(
            ucq::bijective::counting_infinite(q1, q2),
            "complete-description counting ↪_∞ (C^∞_bi)",
        ),
        UcqCriterion::UniqueSurjective => Decision::of(
            ucq::surjective::unique_surjective(q1, q2),
            "unique surjection ↠_∞ (C^∞_sur)",
        ),
        UcqCriterion::SmallModel => match K::poly_order() {
            Some(leq) => Decision::of(
                small_model::ucq_contained_small_model_with(q1, q2, leq),
                "small-model / canonical instances (UCQ extension of Thm. 4.17)",
            ),
            None => bounds_ucq(q1, q2, &profile),
        },
        UcqCriterion::OpenProblem => bounds_ucq(q1, q2, &profile),
    }
}

fn bounds_ucq(q1: &Ucq, q2: &Ucq, profile: &crate::classes::ClassProfile) -> Decision {
    // Both bounds of a row in S_sur ∩ N²_hcov (bag semantics) read the
    // joint classes of the complete descriptions: build them once, on
    // first use.
    let descriptions = OnceCell::new();
    let classes = OnceCell::new();
    let classed = || {
        classes.get_or_init(|| {
            let (d1, d2) = descriptions.get_or_init(|| {
                (
                    Description::new(q1.disjuncts()),
                    Description::new(q2.disjuncts()),
                )
            });
            Classes::joint(d1, d2)
        })
    };
    // Sufficient: the unique-witness bijective condition works for every
    // semiring; for S_sur semirings the ↠_∞ criterion is stronger.
    let sufficient = if profile.in_s_sur {
        ucq::surjective::unique_surjective_on_classes(classed())
    } else {
        ucq::local::sufficient_for_all_semirings(q1, q2)
    };
    if sufficient {
        return Decision::of(
            true,
            "sufficient UCQ bound (↠_∞ / distinct bijective witnesses)",
        );
    }
    // Necessary: member-wise homomorphism is necessary for every positive
    // semiring; for semirings in N²_hcov (e.g. bag semantics) the covering
    // ⇉₂ is stronger (Cor. 5.23).
    let necessary = if profile.in_n_hcov {
        ucq::covering::covering2_on_classes(classed())
    } else {
        q1.disjuncts()
            .iter()
            .all(|m1| q2.disjuncts().iter().any(|m2| kinds::exists_hom(m2, m1)))
    };
    if !necessary {
        return Decision::of(false, "necessary UCQ bound violated");
    }
    Decision {
        answer: Verdict::Unknown {
            sufficient_holds: sufficient,
            necessary_holds: necessary,
        },
        method: "sufficient/necessary UCQ bounds",
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
        match n.answer {
            Verdict::Unknown {
                sufficient_holds,
                necessary_holds,
            } => {
                assert!(!sufficient_holds);
                assert!(necessary_holds);
            }
            other => panic!("unexpected answer {:?}", other),
        }
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
        // small-model procedure finds both directions contained.
        let small_model = "small-model / canonical instances (Thm. 4.17)";
        assert_row::<Tropical>(&q1, &q2, true, small_model);
        assert_row::<Tropical>(&q2, &q1, true, small_model);
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
        // Q2 ⊆_N Q1: a surjective homomorphism Q1 ↠ Q2 exists (map u↦u, and
        // both v,w ↦ v), so the sufficient bound fires.
        assert_row::<Natural>(&q2, &q1, true, "sufficient homomorphism bound");
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
        let necessary = "necessary homomorphism bound violated";
        assert_row::<Natural>(&q3, &q1, false, necessary);
    }

    #[test]
    fn schedule_algebra_decides_a_forty_variable_polynomial() {
        // The canonical instance of `Q() :- R0(x), …, R39(x)` tags 40 facts,
        // so each side evaluates to one monomial over 40 variables.  The
        // order checks one support per monomial, not each of the 2⁴⁰
        // subsets of variables sent to −∞.
        let atoms: Vec<String> = (0..40).map(|i| format!("R{i}(x)")).collect();
        let text = format!("Q() :- {}", atoms.join(", "));
        let q = parser::parse_cq(&mut Schema::new(), &text).unwrap();
        let small_model = "small-model / canonical instances (Thm. 4.17)";
        assert_row::<Schedule>(&q, &q, true, small_model);
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
