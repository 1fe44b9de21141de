//! Per-row checks of the CQ procedures of Table 1.  The procedures live in
//! [`crate::decide::decide_cq`], which calls the homomorphism notions of
//! `annot_hom::kinds`; this module only tests them.

mod tests {
    use crate::decide::decide_cq;
    use crate::registry::{decide_cq_dyn, SemiringId};
    use crate::ClassifiedSemiring;
    use annot_hom::kinds;
    use annot_query::{Cq, Schema};
    use annot_semiring::{Bool, Lineage, NatPoly, Natural, Tropical, Why};

    fn schema() -> Schema {
        Schema::with_relations([("R", 2), ("S", 1)])
    }

    /// Example 4.6: Q1 = ∃u,v,w R(u,v),R(u,w);  Q2 = ∃u,v R(u,v),R(u,v).
    fn example_4_6() -> (Cq, Cq) {
        let q1 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "w"])
            .build();
        let q2 = Cq::builder(&schema())
            .atom("R", &["u", "v"])
            .atom("R", &["u", "v"])
            .build();
        (q1, q2)
    }

    /// `decide_cq::<K>` settles `q1 ⊑ q2` as `expected`, through `method`.
    fn assert_row<K: ClassifiedSemiring>(q1: &Cq, q2: &Cq, expected: bool, method: &str) {
        let d = decide_cq::<K>(q1, q2);
        assert_eq!(d.decided(), Some(expected), "{q1} ⊑ {q2} ({})", d.method);
        assert_eq!(d.method, method, "{q1} ⊑ {q2}");
    }

    #[test]
    fn example_4_6_differs_across_classes() {
        let (q1, q2) = example_4_6();
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
        let (q1, q2) = example_4_6();
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
    fn universal_bounds_bracket_every_semiring() {
        // Q2 ⤖ Q1 is sufficient for Q1 ⊆_K Q2 on every positive semiring
        // (Sec. 4.3, universality of N[X]) and Q2 → Q1 is necessary
        // (Sec. 3.3), so no row may refute the first or accept without the
        // second.
        let (q1, q2) = example_4_6();
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
