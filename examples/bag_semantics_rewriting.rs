//! Bag semantics: what the paper's bounds can (and cannot) tell an optimiser.
//!
//! CQ containment under bag semantics is a long-standing open problem
//! (Chaudhuri–Vardi); the paper contributes improved sufficient and necessary
//! conditions.  This example exercises them on a family of SQL-ish queries
//! and cross-checks against explicit multiset evaluation.
//!
//! Run with `cargo run --example bag_semantics_rewriting`.

use annot_core::brute_force::{find_counterexample, BruteForceConfig};
use annot_core::decide::decide_cq;
use annot_core::ucq::{covering, surjective};
use annot_query::eval::eval_boolean_cq;
use annot_query::{parser, Instance, Schema, Ucq};
use annot_semiring::Natural;

fn main() {
    let mut schema = Schema::new();
    // A "friends of friends" style workload under SELECT ALL (bag) semantics.
    let path2 = parser::parse_cq(&mut schema, "Q() :- Knows(x, y), Knows(y, z)").unwrap();
    let edge = parser::parse_cq(&mut schema, "Q() :- Knows(x, y)").unwrap();
    let double_edge = parser::parse_cq(&mut schema, "Q() :- Knows(x, y), Knows(x, y)").unwrap();

    println!("bag-semantics containment bounds (Some(true)/Some(false)/None = open):");
    for (name, q1, q2) in [
        ("path2 ⊆ edge", &path2, &edge),
        ("edge ⊆ path2", &edge, &path2),
        ("double_edge ⊆ path2", &double_edge, &path2),
        ("path2 ⊆ double_edge", &path2, &double_edge),
        ("edge ⊆ double_edge", &edge, &double_edge),
        ("double_edge ⊆ edge", &double_edge, &edge),
    ] {
        let bounds = decide_cq::<Natural>(q1, q2).decided();
        println!("  {:24} -> {:?}", name, bounds);
    }

    // Cross-check one of the refutations with an explicit counterexample.
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 4,
        ..Default::default()
    };
    if let Some(ce) = find_counterexample::<Natural>(&path2, &edge, &config) {
        println!("\ncounterexample to `path2 ⊆ edge` under bag semantics:");
        println!("{}", ce.instance);
        println!("  path2 count = {:?}, edge count = {:?}", ce.lhs, ce.rhs);
    }

    // A concrete multiplicity calculation.
    let mut db: Instance<Natural> = Instance::new(schema.clone());
    db.insert_named("Knows", vec!["ann".into(), "bob".into()], Natural(2));
    db.insert_named("Knows", vec!["bob".into(), "cat".into()], Natural(3));
    db.insert_named("Knows", vec!["bob".into(), "dan".into()], Natural(1));
    println!("\nmultiplicities on a sample database:");
    println!("  |path2| = {:?}", eval_boolean_cq(&path2, &db));
    println!("  |edge|  = {:?}", eval_boolean_cq(&edge, &db));

    // The paper's new UCQ-level conditions for bags (Cor. 5.16 and 5.23).
    let u1 = Ucq::new([path2.clone(), double_edge.clone()]);
    let u2 = Ucq::new([path2.clone(), edge.clone()]);
    println!("\nUCQ-level bag conditions for U1 ⊆ U2:");
    println!("  U1 = {}", u1);
    println!("  U2 = {}", u2);
    println!(
        "  sufficient  ↠_∞ (Cor. 5.16): {}",
        surjective::unique_surjective(&u1, &u2)
    );
    println!(
        "  necessary   ⇉₂ (Cor. 5.23): {}",
        covering::covering2(&u1, &u2)
    );
}
