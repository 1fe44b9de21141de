//! Experiment E7: scaling of the NP-complete homomorphism searches with query
//! width, and the atom-ordering ablation called out in DESIGN.md.
//!
//! All Table-1 CQ rows share the same backtracking engine; this bench sweeps
//! the number of atoms to exhibit the (expected) super-linear growth and
//! compares the syntactic vs most-constrained-first atom orderings.

use annot_bench::{cq_homomorphic_workload, cq_workload};
use annot_hom::{kinds, AtomOrder, HomSearch, SearchOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn hom_scaling(c: &mut Criterion) {
    let sizes = [2usize, 4, 6, 8, 10];
    let cases = cq_workload(&sizes);
    // The surjectivity check enumerates all homomorphisms, so the per-variant
    // comparison uses smaller yes-instances to keep the run time bounded.
    let hom_cases = cq_homomorphic_workload(&[2, 4, 6]);

    let mut group = c.benchmark_group("hom_scaling/exists_hom");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for case in &cases {
        group.bench_function(&case.name, |b| {
            b.iter(|| black_box(kinds::exists_hom(&case.q2, &case.q1)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("hom_scaling/variants_on_yes_instances");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for case in &hom_cases {
        group.bench_function(format!("plain/{}", case.name), |b| {
            b.iter(|| black_box(kinds::exists_hom(&case.q2, &case.q1)))
        });
        group.bench_function(format!("injective/{}", case.name), |b| {
            b.iter(|| black_box(kinds::exists_injective_hom(&case.q2, &case.q1)))
        });
        group.bench_function(format!("surjective/{}", case.name), |b| {
            b.iter(|| black_box(kinds::exists_surjective_hom(&case.q2, &case.q1)))
        });
        group.bench_function(format!("covering/{}", case.name), |b| {
            b.iter(|| {
                black_box(kinds::homomorphically_covers(
                    std::slice::from_ref(&case.q2),
                    &case.q1,
                ))
            })
        });
    }
    group.finish();

    // Ablation: syntactic vs most-constrained-first atom ordering.
    let mut group = c.benchmark_group("hom_scaling/ordering_ablation");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for case in &cases {
        for (order, label) in [
            (AtomOrder::Syntactic, "syntactic"),
            (AtomOrder::MostConstrained, "most-constrained"),
        ] {
            group.bench_function(format!("{}/{}", label, case.name), |b| {
                b.iter(|| {
                    let options = SearchOptions {
                        occurrence_injective: false,
                        order,
                    };
                    black_box(
                        HomSearch::new(&case.q2, &case.q1)
                            .with_options(options)
                            .exists(),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, hom_scaling);
criterion_main!(benches);
