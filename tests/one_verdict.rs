//! One verdict per question: the decide pass that tries the paper's sound
//! bounds before building any complete description answers as the rows'
//! procedures do.
//!
//! Over all 15 registered rows, on seeded CQ and UCQ pairs (widths 1–3,
//! 1–3 atoms, 0–2 free variables, one or two relations) and on the paper's
//! examples, each in both directions and against itself:
//!
//! * on a row with an exact criterion, `decide_ucq_dyn` gives the verdict
//!   of that criterion called directly: the member-wise criteria, `⇉₁`,
//!   `↪_∞` (`bijective::counting_infinite`), `↠_∞`
//!   (`surjective::unique_surjective`) or the small-model procedure with the
//!   row's order (`small_model::ucq_contained_small_model_with`);
//! * on `N`, `B_2` and `B_3`, which have none, it is decided whenever the
//!   ⟨Q⟩ bounds alone decide (`↠_∞` sufficient; `⇉₂` necessary on `N`,
//!   member-wise homomorphism on `B_k`), and then agrees with them;
//! * no `Contained` verdict has a counterexample in the brute-force oracle
//!   at domain 2, support 3.
//!
//! The last test pins, by method string, that the requests which took
//! seconds when every ⟨Q⟩ row built ⟨Q⟩ first now stop at a bound.

use annot_core::brute_force::{find_counterexample, BruteForceConfig};
use annot_core::classes::ClassifiedSemiring;
use annot_core::registry::{decide_ucq_dyn, SemiringId};
use annot_core::small_model::ucq_contained_small_model_with;
use annot_core::ucq::{bijective, covering, local, surjective};
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{parser, Schema, Ucq};
use annot_semiring::{
    Bool, BoolPoly, BoundedNat, Clearance, Fuzzy, Lineage, NatPoly, Natural, PosBool, Schedule,
    Trio, Tropical, Viterbi, Why,
};

/// The small-model procedure with the polynomial order of `K`, as the
/// registry's row holds it.
fn small_model<K: ClassifiedSemiring>(q1: &Ucq, q2: &Ucq) -> bool {
    let leq = K::poly_order().expect("a small-model row has a polynomial order");
    ucq_contained_small_model_with(q1, q2, leq)
}

/// The verdict of `row`'s exact criterion, called directly; `None` on the
/// rows without one.
fn exact(row: &str, q1: &Ucq, q2: &Ucq) -> Option<bool> {
    Some(match row {
        "B" | "PosBool[X]" | "Fuzzy" | "Access" => local::contained_chom(q1, q2),
        "Lin[X]" => covering::covering1(q1, q2),
        "Why[X]" => local::contained_c1sur(q1, q2),
        "B[X]" => local::contained_c1bi(q1, q2),
        "N[X]" => bijective::counting_infinite(q1, q2),
        "Trio[X]" => surjective::unique_surjective(q1, q2),
        "T+" => small_model::<Tropical>(q1, q2),
        "T-" => small_model::<Schedule>(q1, q2),
        "Viterbi" => small_model::<Viterbi>(q1, q2),
        "N" | "B_2" | "B_3" => return None,
        other => panic!("registry row {other:?} missing from the reference"),
    })
}

/// What the ⟨Q⟩ bounds alone decide on `N` and `B_k`: `↠_∞` proves
/// containment on these `S_sur` rows, and `⇉₂` (`N`) or member-wise
/// homomorphism (`B_k`) refutes it.
fn complete_description_bounds(row: &str, q1: &Ucq, q2: &Ucq) -> Option<bool> {
    if surjective::unique_surjective(q1, q2) {
        return Some(true);
    }
    let necessary = if row == "N" {
        covering::covering2(q1, q2)
    } else {
        local::contained_chom(q1, q2)
    };
    (!necessary).then_some(false)
}

/// Whether the brute-force oracle finds a counterexample to `q1 ⊑ q2` on
/// `row` at domain 2, support 3.
fn refuted(row: &str, q1: &Ucq, q2: &Ucq) -> bool {
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };
    macro_rules! oracle {
        ($($name:literal => $ty:ty),* $(,)?) => {
            match row {
                $($name => find_counterexample::<$ty>(q1, q2, &config).is_some(),)*
                other => panic!("registry row {other:?} missing from the oracle"),
            }
        };
    }
    oracle!(
        "B" => Bool,
        "PosBool[X]" => PosBool,
        "Fuzzy" => Fuzzy,
        "Access" => Clearance,
        "Lin[X]" => Lineage,
        "Why[X]" => Why,
        "Trio[X]" => Trio,
        "B[X]" => BoolPoly,
        "N[X]" => NatPoly,
        "N" => Natural,
        "T+" => Tropical,
        "T-" => Schedule,
        "Viterbi" => Viterbi,
        "B_2" => BoundedNat<2>,
        "B_3" => BoundedNat<3>,
    )
}

/// Per row: the pairs decided each way, and the pairs the ⟨Q⟩ bounds of an
/// open row left open that the pass decided.
#[derive(Default)]
struct Tally {
    decided: [usize; 2],
    newly_decided: usize,
}

/// Checks `q1 ⊑ q2` on every row.
fn check_pair(q1: &Ucq, q2: &Ucq, context: &str, tallies: &mut [Tally]) {
    for (id, tally) in SemiringId::all().zip(tallies.iter_mut()) {
        let row = id.name();
        let decision = decide_ucq_dyn(id, q1, q2);
        let verdict = decision.decided();
        let case = || format!("{row}, {context}: {q1} ⊑ {q2} ({})", decision.method);
        match exact(row, q1, q2) {
            Some(expected) => assert_eq!(verdict, Some(expected), "{}", case()),
            None => match complete_description_bounds(row, q1, q2) {
                Some(bound) => assert_eq!(verdict, Some(bound), "{}", case()),
                None => tally.newly_decided += verdict.is_some() as usize,
            },
        }
        if let Some(holds) = verdict {
            tally.decided[holds as usize] += 1;
        }
        if verdict == Some(true) {
            assert!(!refuted(row, q1, q2), "oracle refutes {}", case());
        }
    }
}

/// Two seeded UCQs in one schema with 0–2 free variables: each of width
/// 1–3, its members of 1–3 atoms over one or two binary relations and a
/// pool of 2–4 variables, so small pools repeat atoms.  Width 1 on both
/// sides gives a CQ pair.
fn ucq_pair(seed: u64) -> (Ucq, Ucq) {
    let free = (seed % 3) as usize;
    let ucq = |shift: u64| {
        let bits = seed >> shift;
        let mut generator = QueryGenerator::new(GeneratorConfig {
            num_atoms: 1 + bits as usize % 3,
            shape: QueryShape::Random,
            num_relations: 1 + (seed / 3 % 2) as usize,
            var_pool: 2 + (bits >> 2) as usize % 3,
            free_vars: free,
            seed: seed + shift,
        });
        let width = 1 + (bits >> 4) as usize % 3;
        // A member with fewer variables than the head asks for gets fewer
        // free variables; a UCQ keeps the members with all of them.
        let members = std::iter::repeat_with(|| generator.cq())
            .filter(|q| q.free_vars().len() == free)
            .take(width);
        Ucq::new(members.collect::<Vec<_>>())
    };
    (ucq(1), ucq(5))
}

#[test]
fn the_pass_decides_as_each_rows_procedure() {
    let mut tallies: Vec<Tally> = SemiringId::all().map(|_| Tally::default()).collect();
    let mut singles = 0;
    for seed in 0..100 {
        let (u1, u2) = ucq_pair(seed);
        singles += (u1.len() == 1 && u2.len() == 1) as usize;
        for (q1, q2) in [(&u1, &u2), (&u2, &u1), (&u1, &u1)] {
            check_pair(q1, q2, &format!("seed {seed}"), &mut tallies);
        }
    }
    // The stream holds CQ pairs and unions, and every row both proves and
    // refutes containment on some of its pairs.
    assert!(singles >= 5, "{singles} CQ pairs");
    for (id, tally) in SemiringId::all().zip(&tallies) {
        assert!(
            tally.decided.iter().all(|&n| n >= 10),
            "{}: {:?}",
            id.name(),
            tally.decided
        );
        eprintln!(
            "{}: {:?} decided, {} beyond the ⟨Q⟩ bounds",
            id.name(),
            tally.decided,
            tally.newly_decided
        );
    }
}

#[test]
fn the_pass_decides_the_paper_examples_as_each_rows_procedure() {
    let pairs = [
        // Example 4.6.
        ("Q() :- R(u, v), R(u, w)", "Q() :- R(u, v), R(u, v)"),
        // Example 5.4.
        ("Q() :- P(v), S(v)", "Q() :- P(v), P(v) ; Q() :- S(v), S(v)"),
        // Example 5.7, and its extension by a third copy of Q'22.
        (
            "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v)",
            "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)",
        ),
        (
            "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v) ; Q() :- R(u, u), R(u, u)",
            "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)",
        ),
        // Example 5.20.
        ("Q() :- S(v), T(v)", "Q() :- S(v) ; Q() :- T(v)"),
        // Free variables.
        ("Q(x) :- R(x, x), R(x, x)", "Q(x) :- R(x, y), R(x, y)"),
        (
            "Q(x, w) :- R(x, x), R(x, w) ; Q(x, w) :- R(x, w), R(w, w)",
            "Q(x, w) :- R(x, y), R(y, w)",
        ),
        ("Q(x) :- R(x, y), R(y, z)", "Q(x) :- R(x, y)"),
    ];
    let mut tallies: Vec<Tally> = SemiringId::all().map(|_| Tally::default()).collect();
    for (q1, q2) in pairs {
        let mut schema = Schema::new();
        let u1 = parser::parse_ucq(&mut schema, q1).expect("q1 parses");
        let u2 = parser::parse_ucq(&mut schema, q2).expect("q2 parses");
        check_pair(&u1, &u2, "paper example", &mut tallies);
        check_pair(&u2, &u1, "paper example, reversed", &mut tallies);
    }
}

/// `Q() :- R(x0, x1), …, R(x(k-1), xk)`.
fn chain(k: usize) -> String {
    let atoms: Vec<String> = (0..k).map(|i| format!("R(x{i}, x{})", i + 1)).collect();
    format!("Q() :- {}", atoms.join(", "))
}

/// `Q() :- R(c, y0), …, R(c, y(k-1))`.
fn star(k: usize) -> String {
    let atoms: Vec<String> = (0..k).map(|i| format!("R(c, y{i})")).collect();
    format!("Q() :- {}", atoms.join(", "))
}

/// The method `row` settles `q1 ⊑ q2` by, asserting it is contained.
fn contained_by(row: &str, q1: &str, q2: &str) -> &'static str {
    let mut schema = Schema::new();
    let u1 = parser::parse_ucq(&mut schema, q1).expect("q1 parses");
    let u2 = parser::parse_ucq(&mut schema, q2).expect("q2 parses");
    let id = SemiringId::from_name(row).expect("a registered row");
    let decision = decide_ucq_dyn(id, &u1, &u2);
    assert_eq!(decision.decided(), Some(true), "{row}: {}", decision.method);
    decision.method
}

#[test]
fn the_worst_requests_stop_at_a_bound() {
    // Building ⟨Q⟩ for the 7-chain takes 0.4–1.7 s on seven of these rows;
    // a bijective homomorphism of the chain onto itself settles it first.
    let chain7 = chain(7);
    let bijective = "sufficient bound: distinct bijective witnesses";
    for row in ["N", "T+", "T-", "Viterbi", "B_2", "B_3"] {
        assert_eq!(contained_by(row, &chain7, &chain7), bijective, "{row}");
    }
    assert_eq!(
        contained_by("N[X]", &chain7, &chain7),
        "bijective homomorphism (C_bi)"
    );
    assert_eq!(
        contained_by("Trio[X]", &chain7, &chain7),
        "surjective homomorphism (C_sur)"
    );
    // The 8-chain holds the 2-chain injectively, which settles T+ and
    // Viterbi (S_in) where their small-model procedure read ⟨8-chain⟩'s
    // 5,829 classes; B_2 (S_hcov) settles the 8-chain and the 7-star by
    // covering where ⟨Q⟩ left them Unknown.
    let injective = "sufficient bound: injective homomorphism (S_in)";
    let covering = "sufficient bound: homomorphic covering (S_hcov)";
    for row in ["T+", "Viterbi"] {
        assert_eq!(contained_by(row, &chain(8), &chain(2)), injective, "{row}");
    }
    assert_eq!(contained_by("B_2", &chain(8), &chain(2)), covering);
    assert_eq!(contained_by("B_2", &star(7), &star(2)), covering);
}
