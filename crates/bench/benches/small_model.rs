//! Experiment E3/E7: the small-model (canonical instance) procedure of
//! Thm. 4.17 for the tropical semirings, including its Bell-number growth in
//! the number of existential variables, and a comparison of its
//! Fourier–Motzkin polynomial-order backend against the brute-force
//! evaluation baseline on the paper's Example 4.6.

use annot_bench::{cq_workload, example_4_6};
use annot_core::brute_force::{find_counterexample_cq, BruteForceConfig};
use annot_core::decide::decide_cq;
use annot_query::complete::complete_description_cq;
use annot_semiring::{Schedule, Tropical};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn small_model(c: &mut Criterion) {
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
        group.bench_function(format!("T+/{}", case.name), |b| {
            b.iter(|| black_box(decide_cq::<Tropical>(&case.q1, &case.q2).answer))
        });
        group.bench_function(format!("T-/{}", case.name), |b| {
            b.iter(|| black_box(decide_cq::<Schedule>(&case.q1, &case.q2).answer))
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
            b.iter(|| black_box(complete_description_cq(&case.q1).len()))
        });
    }
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
            black_box(
                find_counterexample_cq::<Tropical>(&example.q1, &example.q2, &config).is_none(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, small_model);
criterion_main!(benches);
