//! Experiment E1: the CQ half of Table 1.
//!
//! One benchmark group per row (C_hom, C_hcov, C_in, C_sur, C_bi), timing the
//! `annot_hom::kinds` predicate the row prescribes on a common workload of chain- and
//! random-shaped CQ pairs of growing size, plus the paper's Example 4.6 pair.
//! All rows are NP-complete in theory; the measurements show how the shared
//! backtracking search behaves per criterion at practical sizes.

use annot_bench::{cq_workload, example_4_6, CqCase};
use annot_core::classes::ClassifiedSemiring;
use annot_core::small_model::ucq_contained_small_model_with;
use annot_hom::kinds;
use annot_query::{Cq, Ucq};
use annot_semiring::Tropical;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn workload() -> Vec<CqCase> {
    let mut cases = cq_workload(&[2, 4, 6]);
    cases.push(example_4_6());
    cases
}

fn bench_row(c: &mut Criterion, row: &str, procedure: &dyn Fn(&Cq, &Cq) -> bool, cases: &[CqCase]) {
    let mut group = c.benchmark_group(row);
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for case in cases {
        group.bench_function(&case.name, |b| {
            b.iter(|| black_box(procedure(black_box(&case.q1), black_box(&case.q2))))
        });
    }
    group.finish();
}

fn table1_cq(c: &mut Criterion) {
    let cases = workload();
    bench_row(
        c,
        "table1_cq/C_hom(homomorphism)",
        &|q1, q2| kinds::exists_hom(q2, q1),
        &cases,
    );
    bench_row(
        c,
        "table1_cq/C_hcov(covering)",
        &|q1, q2| kinds::homomorphically_covers(std::slice::from_ref(q2), q1),
        &cases,
    );
    bench_row(
        c,
        "table1_cq/C_in(injective)",
        &|q1, q2| kinds::exists_injective_hom(q2, q1),
        &cases,
    );
    bench_row(
        c,
        "table1_cq/C_sur(surjective)",
        &|q1, q2| kinds::exists_surjective_hom(q2, q1),
        &cases,
    );
    bench_row(
        c,
        "table1_cq/C_bi(bijective)",
        &|q1, q2| kinds::exists_bijective_hom(q2, q1),
        &cases,
    );
    // The small-model row (T⁺) is only benchmarked on the smaller cases: its
    // complete-description blow-up is Bell-number-sized by design.  It
    // calls the procedure with T⁺'s order on singleton unions, as a
    // decide that no bound settles does.
    // invariant: T⁺ is a small-model row, which carries its order
    let leq = Tropical::poly_order().expect("T+ has a polynomial order");
    let small_cases: Vec<CqCase> = cq_workload(&[2, 3, 4])
        .into_iter()
        .chain([example_4_6()])
        .collect();
    bench_row(
        c,
        "table1_cq/S1(small-model,T+)",
        &|q1, q2| {
            ucq_contained_small_model_with(&Ucq::from(q1.clone()), &Ucq::from(q2.clone()), leq)
        },
        &small_cases,
    );
}

criterion_group!(benches, table1_cq);
criterion_main!(benches);
