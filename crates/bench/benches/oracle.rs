//! Benchmarks pinning the two containment hot paths overhauled in this
//! repository: the brute-force semantic oracle (support-bounded instance
//! enumeration + all-outputs evaluation) and the indexed, forward-checking
//! homomorphism search.
//!
//! The oracle benches time the full counterexample searches the
//! cross-validation harness runs thousands of times, on both a refutable pair
//! (bag semantics, stops at the first counterexample) and an irrefutable one
//! (set semantics, walks the whole support-bounded instance space — the worst
//! case).  The enumeration bench isolates the instance generator itself.

use annot_core::brute_force::{find_counterexample, for_each_instance, BruteForceConfig};
use annot_hom::{AtomOrder, HomSearch, SearchOptions};
use annot_query::parser;
use annot_query::{Cq, Schema};
use annot_semiring::{Bool, Lineage, Natural, Why};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn example_4_6() -> (Schema, Cq, Cq) {
    let mut schema = Schema::with_relations([("R", 2)]);
    let q1 = parser::parse_cq(&mut schema, "Q() :- R(u, v), R(u, w)").unwrap();
    let q2 = parser::parse_cq(&mut schema, "Q() :- R(u, v), R(u, v)").unwrap();
    (schema, q1, q2)
}

fn oracle(c: &mut Criterion) {
    let (schema, q1, q2) = example_4_6();
    let config = BruteForceConfig {
        domain_size: 2,
        max_support: 3,
        ..Default::default()
    };

    let mut group = c.benchmark_group("oracle/counterexample_search");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    // Refutable over N (the search stops at the first counterexample).
    group.bench_function("bag/refutable", |b| {
        b.iter(|| black_box(find_counterexample::<Natural>(&q1, &q2, &config).is_some()))
    });
    // Irrefutable over B (full walk of the support-bounded instance space).
    group.bench_function("set/irrefutable", |b| {
        b.iter(|| black_box(find_counterexample::<Bool>(&q1, &q2, &config).is_none()))
    });
    group.finish();

    // Deep factorized walks: support caps the PR 4 oracle could not reach
    // interactively (cap 6 ≈ 511 k accounted instances, cap 8 ≈ 1.69 M over
    // the 9 tuple slots of a binary relation on a 3-value domain).  The pair
    // `R(u,v) ⊆ R(u,v)·R(u,v)` holds over `Lin[X]` (idempotent ⊗) but its
    // output polynomials are *not* coefficient-wise ordered in `N[X]`, so
    // every node runs the substitution odometer — exactly the path the
    // sibling-sharing caches of PR 5 accelerate (~2.7× at caps 6–8 over
    // the per-node odometer restart).
    let mut group = c.benchmark_group("oracle/deep_counterexample_search");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1000));
    let mut deep_schema = Schema::with_relations([("R", 2)]);
    let dq1 = parser::parse_cq(&mut deep_schema, "Q() :- R(u, v)").unwrap();
    let dq2 = parser::parse_cq(&mut deep_schema, "Q() :- R(u, v), R(u, v)").unwrap();
    for cap in [6usize, 8] {
        let config = BruteForceConfig {
            domain_size: 3,
            max_support: cap,
            ..Default::default()
        };
        group.bench_function(format!("lineage/cap{cap}"), |b| {
            b.iter(|| black_box(find_counterexample::<Lineage>(&dq1, &dq2, &config).is_none()))
        });
        // The same irrefutable pair over Why[X] (`w ∪ w = w`, so `a ⊆ a²`
        // element-wise): the priciest shipped deep walk, since Why[X] has the
        // largest decisive sample set of the factorized semirings.
        group.bench_function(format!("why/cap{cap}"), |b| {
            b.iter(|| black_box(find_counterexample::<Why>(&dq1, &dq2, &config).is_none()))
        });
    }
    group.finish();

    // The search-space quotient (PR 9) on both walk strategies: the same
    // deep irrefutable workloads with value-symmetry orbit pruning and
    // decisive sample subsets on their default settings.  `why/*` exercises
    // the factorized strategy, `natural/cap6` the direct one (`a ≤ a²` holds
    // in `N`, so the pair is irrefutable there too and the walk is full).
    let mut group = c.benchmark_group("oracle/quotient");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1000));
    for cap in [6usize, 8] {
        let config = BruteForceConfig {
            domain_size: 3,
            max_support: cap,
            ..Default::default()
        };
        group.bench_function(format!("why/cap{cap}"), |b| {
            b.iter(|| black_box(find_counterexample::<Why>(&dq1, &dq2, &config).is_none()))
        });
    }
    let config = BruteForceConfig {
        domain_size: 3,
        max_support: 6,
        ..Default::default()
    };
    group.bench_function("natural/cap6", |b| {
        b.iter(|| black_box(find_counterexample::<Natural>(&dq1, &dq2, &config).is_none()))
    });
    group.finish();

    let mut group = c.benchmark_group("oracle/instance_enumeration");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for cap in [1usize, 2, 4] {
        let config = BruteForceConfig {
            domain_size: 2,
            max_support: cap,
            ..Default::default()
        };
        group.bench_function(format!("natural/cap{cap}"), |b| {
            b.iter(|| {
                let mut count = 0u64;
                for_each_instance::<Natural>(&schema, &config, &mut |_| {
                    count += 1;
                    false
                });
                black_box(count)
            })
        });
    }
    group.finish();
}

fn search_engine(c: &mut Criterion) {
    // A dense target with many same-relation occurrences: the regime where
    // the per-relation index and forward checking pay off.
    let schema = Schema::with_relations([("R", 2), ("S", 1)]);
    let target = Cq::builder(&schema)
        .atom("R", &["a", "b"])
        .atom("R", &["b", "c"])
        .atom("R", &["c", "d"])
        .atom("R", &["d", "e"])
        .atom("R", &["e", "f"])
        .atom("S", &["f"])
        .build();
    let source = Cq::builder(&schema)
        .atom("R", &["x", "y"])
        .atom("R", &["y", "z"])
        .atom("R", &["z", "w"])
        .atom("S", &["w"])
        .build();

    let mut group = c.benchmark_group("oracle/search_ordering");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for (order, name) in [
        (AtomOrder::Syntactic, "syntactic"),
        (AtomOrder::MostConstrained, "dynamic-mcn"),
    ] {
        group.bench_function(format!("exists/{name}"), |b| {
            let options = SearchOptions {
                occurrence_injective: false,
                order,
            };
            b.iter(|| {
                black_box(
                    HomSearch::new(&source, &target)
                        .with_options(options.clone())
                        .exists(),
                )
            })
        });
        group.bench_function(format!("enumerate/{name}"), |b| {
            let options = SearchOptions {
                occurrence_injective: false,
                order,
            };
            b.iter(|| {
                let mut count = 0usize;
                HomSearch::new(&source, &target)
                    .with_options(options.clone())
                    .for_each(&mut |_| count += 1);
                black_box(count)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, oracle, search_engine);
criterion_main!(benches);
