//! Annotated RDF-style data (Sec. 4.2 of the paper): the class `S_in` of
//! 1-annihilating semirings is exactly the class that can safely annotate
//! RDFS data, and optimisation of queries over such data needs containment
//! procedures for those semirings.
//!
//! We model a small annotated triple store with three different annotation
//! domains — access-control clearances, fuzzy trust scores, and tropical
//! "staleness" costs — and compare query rewritings under each.
//!
//! Run with `cargo run --example rdf_annotation`.

use annot_core::decide::decide_cq;
use annot_query::eval::answers;
use annot_query::{parser, Instance, Schema, ValueId};
use annot_semiring::{Clearance, Fuzzy, Tropical};

fn main() {
    let mut schema = Schema::new();
    // triple(s, p, o) encoded as one relation per predicate.
    let q_direct = parser::parse_cq(&mut schema, "Q(x) :- WorksAt(x, y), LocatedIn(y, z)").unwrap();
    let q_loose = parser::parse_cq(&mut schema, "Q(x) :- WorksAt(x, y)").unwrap();
    println!("Q_direct = {}", q_direct);
    println!("Q_loose  = {}", q_loose);

    // The constants are shared by all three annotated stores below: intern
    // each one once into the schema's domain and reuse the `ValueId`s, so
    // no insertion re-allocates (or re-hashes) a string.
    let [alice, bob, acme, gov, paris, london] = ["alice", "bob", "acme", "gov", "paris", "london"]
        .map(|name| schema.intern_value(&name.into()));
    let works_at = schema.relation("WorksAt").unwrap();
    let located_in = schema.relation("LocatedIn").unwrap();
    let works_at_rows: [[ValueId; 2]; 2] = [[alice, acme], [bob, gov]];
    let located_in_rows: [[ValueId; 2]; 2] = [[acme, paris], [gov, london]];

    // Clearance-annotated triples.
    let mut acl: Instance<Clearance> = Instance::new(schema.clone());
    for (row, clearance) in works_at_rows
        .iter()
        .zip([Clearance::Public, Clearance::Secret])
    {
        acl.insert_row(works_at, row, clearance);
    }
    for (row, clearance) in located_in_rows
        .iter()
        .zip([Clearance::Public, Clearance::TopSecret])
    {
        acl.insert_row(located_in, row, clearance);
    }
    println!("\nclearance needed to see each answer of Q_direct:");
    for (tuple, clearance) in answers(&q_direct, &acl) {
        println!("  {:?} -> {:?}", tuple, clearance);
    }

    // Fuzzy trust scores for the same triples (same interned rows).
    let mut trust: Instance<Fuzzy> = Instance::new(schema.clone());
    for (row, score) in works_at_rows.iter().zip([0.9, 0.6]) {
        trust.insert_row(works_at, row, Fuzzy::new(score));
    }
    for (row, score) in located_in_rows.iter().zip([0.8, 0.95]) {
        trust.insert_row(located_in, row, Fuzzy::new(score));
    }
    println!("\ntrust in each answer of Q_direct:");
    for (tuple, score) in answers(&q_direct, &trust) {
        println!("  {:?} -> {:?}", tuple, score);
    }

    // Tropical staleness: how out-of-date is the best derivation?
    let mut staleness: Instance<Tropical> = Instance::new(schema.clone());
    for (row, cost) in works_at_rows.iter().zip([3, 10]) {
        staleness.insert_row(works_at, row, Tropical::Finite(cost));
    }
    for (row, cost) in located_in_rows.iter().zip([1, 0]) {
        staleness.insert_row(located_in, row, Tropical::Finite(cost));
    }
    println!("\nstaleness of each answer of Q_direct:");
    for (tuple, cost) in answers(&q_direct, &staleness) {
        println!("  {:?} -> {:?}", tuple, cost);
    }

    // May the optimiser replace Q_direct by Q_loose (drop the join)?
    println!("\nis Q_direct ⊆ Q_loose?");
    println!(
        "  clearances (C_hom, homomorphism criterion): {:?}",
        decide_cq::<Clearance>(&q_direct, &q_loose)
    );
    println!(
        "  fuzzy trust (C_hom):                        {:?}",
        decide_cq::<Fuzzy>(&q_direct, &q_loose)
    );
    println!(
        "  staleness costs (T+, small-model row):      {:?}",
        decide_cq::<Tropical>(&q_direct, &q_loose)
    );
    println!("\nand the reverse, Q_loose ⊆ Q_direct?");
    println!(
        "  clearances: {:?}",
        decide_cq::<Clearance>(&q_loose, &q_direct)
    );
    println!(
        "  staleness:  {:?}",
        decide_cq::<Tropical>(&q_loose, &q_direct)
    );
}
