//! Cost-based annotations: containment over the tropical semirings via the
//! small-model (canonical instance) procedure of Thm. 4.17.
//!
//! Run with `cargo run --example tropical_smallmodel`.

use annot_core::decide::decide_cq;
use annot_core::small_model::ucq_contained_small_model;
use annot_hom::kinds;
use annot_query::complete::complete_description_cq;
use annot_query::eval::eval_boolean_cq;
use annot_query::{parser, CanonicalInstance, Schema};
use annot_semiring::{Schedule, Tropical};

fn main() {
    let mut schema = Schema::new();
    // Example 4.6 of the paper.
    let q1 = parser::parse_cq(&mut schema, "Q() :- R(u, v), R(u, w)").unwrap();
    let q2 = parser::parse_cq(&mut schema, "Q() :- R(u, v), R(u, v)").unwrap();
    println!("Q1 = {}\nQ2 = {}", q1, q2);
    println!(
        "\ninjective homomorphism Q2 ↪ Q1 exists: {}",
        kinds::exists_injective_hom(&q2, &q1)
    );

    // The complete description of Q1 and the canonical-instance polynomials.
    let description = complete_description_cq(&q1);
    println!(
        "\ncomplete description ⟨Q1⟩ has {} CCQs:",
        description.len()
    );
    for ccq in description.disjuncts() {
        let canonical = CanonicalInstance::of_ccq(ccq);
        let p1 = eval_boolean_cq(&q1, canonical.instance());
        let p2 = eval_boolean_cq(&q2, canonical.instance());
        println!(
            "  {}\n      Q1^[[.]] = {:?}   Q2^[[.]] = {:?}",
            ccq,
            p1.polynomial(),
            p2.polynomial()
        );
    }

    println!(
        "\nQ1 ⊆ Q2 over T+ (min-plus costs):   {:?}",
        decide_cq::<Tropical>(&q1, &q2)
    );
    println!(
        "Q1 ⊆ Q2 over T- (max-plus schedule): {:?}",
        decide_cq::<Schedule>(&q1, &q2)
    );

    // Example 5.4: a UCQ containment where the member-wise method fails.
    let mut schema2 = Schema::new();
    let u1 = parser::parse_ucq(&mut schema2, "Q() :- R(v), S(v)").unwrap();
    let u2 = parser::parse_ucq(&mut schema2, "Q() :- R(v), R(v) ; Q() :- S(v), S(v)").unwrap();
    println!("\nExample 5.4:  U1 = {}   U2 = {}", u1, u2);
    println!(
        "  member-wise containments: {:?} {:?}",
        decide_cq::<Tropical>(&u1.disjuncts()[0], &u2.disjuncts()[0]).answer,
        decide_cq::<Tropical>(&u1.disjuncts()[0], &u2.disjuncts()[1]).answer,
    );
    println!(
        "  union containment over T+: {}",
        ucq_contained_small_model::<Tropical>(&u1, &u2)
    );
}
