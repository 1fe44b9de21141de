//! Experiment E3/E7: the small-model (canonical instance) procedure of
//! Thm. 4.17 for the tropical semirings, including its Bell-number growth in
//! the number of existential variables (the flat walk of ⟨Q⟩), a comparison
//! of its Fourier–Motzkin polynomial-order backend against the brute-force
//! evaluation baseline on the paper's Example 4.6, and the 7-leaf star
//! against a 2-leaf star, whose 4,140 ⟨Q₁⟩ members fall into 45 classes.
//! The procedure is called directly, since the decide pass settles the
//! star and some workload pairs by a homomorphism bound first; the
//! comparison with brute force goes through `decide_cq`, which reaches the
//! procedure on that pair.

use annot_bench::{cq_workload, example_4_6};
use annot_core::brute_force::{find_counterexample, BruteForceConfig};
use annot_core::classes::ClassifiedSemiring;
use annot_core::decide::decide_cq;
use annot_core::small_model::ucq_contained_small_model_with;
use annot_query::complete::Description;
use annot_query::{parser, Schema, Ucq};
use annot_semiring::{Schedule, Tropical};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::slice;
use std::time::Duration;

fn small_model(c: &mut Criterion) {
    // invariant: T⁺ and T⁻ are small-model rows, which carry their order
    let tropical = Tropical::poly_order().expect("T+ has a polynomial order");
    // invariant: as above
    let schedule = Schedule::poly_order().expect("T- has a polynomial order");
    let cases = {
        let mut cases = cq_workload(&[2, 3, 4]);
        cases.push(example_4_6());
        cases
    };

    let mut group = c.benchmark_group("small_model/tropical_containment");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(700));
    for case in &cases {
        let (q1, q2) = (Ucq::from(case.q1.clone()), Ucq::from(case.q2.clone()));
        group.bench_function(format!("T+/{}", case.name), |b| {
            b.iter(|| black_box(ucq_contained_small_model_with(&q1, &q2, tropical)))
        });
        group.bench_function(format!("T-/{}", case.name), |b| {
            b.iter(|| black_box(ucq_contained_small_model_with(&q1, &q2, schedule)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("small_model/complete_description_growth");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for case in &cases {
        group.bench_function(&case.name, |b| {
            b.iter(|| black_box(Description::new(slice::from_ref(&case.q1)).len()))
        });
    }
    group.finish();

    let mut schema = Schema::new();
    let leaves: Vec<String> = (1..=7).map(|i| format!("R(x, a{i})")).collect();
    let star = parser::parse_ucq(&mut schema, &format!("Q() :- {}", leaves.join(", ")));
    let fork = parser::parse_ucq(&mut schema, "Q() :- R(x, y), R(x, z)");
    // invariant: both queries are spelled in the parser's syntax
    let (star, fork) = (
        star.expect("the star parses"),
        fork.expect("the fork parses"),
    );
    let mut group = c.benchmark_group("small_model/classes");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    group.bench_function("T+/star-7-vs-star-2", |b| {
        b.iter(|| black_box(ucq_contained_small_model_with(&star, &fork, tropical)))
    });
    group.finish();

    // Baseline comparison on the paper's example: symbolic procedure vs
    // brute-force search over small instances.
    let example = example_4_6();
    let mut group = c.benchmark_group("small_model/vs_brute_force_example_4_6");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    group.bench_function("symbolic(Thm 4.17)", |b| {
        b.iter(|| black_box(decide_cq::<Tropical>(&example.q1, &example.q2).answer))
    });
    group.bench_function("brute-force(domain=2)", |b| {
        let config = BruteForceConfig {
            domain_size: 2,
            max_support: 4,
            ..Default::default()
        };
        b.iter(|| {
            black_box(find_counterexample::<Tropical>(&example.q1, &example.q2, &config).is_none())
        })
    });
    group.finish();
}

criterion_group!(benches, small_model);
criterion_main!(benches);
