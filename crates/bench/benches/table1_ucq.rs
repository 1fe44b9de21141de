//! Experiment E2: the UCQ half of Table 1.
//!
//! Benchmarks the member-wise criteria (C_hom, C¹_in, C¹_sur, C¹_bi), the
//! covering criteria ⇉₁/⇉₂, the counting criteria ↪_k/↪_∞ and the
//! unique-surjection criterion ↠_∞ on unions of growing width, plus the
//! paper's Example 5.7 pair.  The complete-description-based criteria are
//! visibly more expensive (Πᵖ₂ / coNP^#P vs NP in Table 1).  The `classes`
//! group times two requests whose descriptions are large but have few
//! classes for their size: the 6-atom chain against itself over `N[X]`
//! (877 members, 425 classes) and the 7-leaf star against a 2-leaf star
//! over `N` (4,140 members, 45 classes).

use annot_bench::{example_5_7, ucq_workload, UcqCase};
use annot_core::decide::decide_ucq;
use annot_core::ucq::{bijective, covering, local, surjective};
use annot_query::{parser, Schema, Ucq};
use annot_semiring::Natural;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn workload() -> Vec<UcqCase> {
    let mut cases = ucq_workload(&[1, 2, 3], 2);
    cases.push(example_5_7());
    cases
}

fn bench_row(
    c: &mut Criterion,
    row: &str,
    procedure: &dyn Fn(&Ucq, &Ucq) -> bool,
    cases: &[UcqCase],
) {
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

fn table1_ucq(c: &mut Criterion) {
    let cases = workload();
    bench_row(
        c,
        "table1_ucq/C_hom(member-wise hom)",
        &local::contained_chom,
        &cases,
    );
    bench_row(
        c,
        "table1_ucq/C1_in(member-wise injective)",
        &local::contained_c1in,
        &cases,
    );
    bench_row(
        c,
        "table1_ucq/C1_sur(member-wise surjective)",
        &local::contained_c1sur,
        &cases,
    );
    bench_row(
        c,
        "table1_ucq/C1_bi(member-wise bijective)",
        &local::contained_c1bi,
        &cases,
    );
    bench_row(
        c,
        "table1_ucq/C1_hcov(covering-1)",
        &covering::covering1,
        &cases,
    );
    bench_row(
        c,
        "table1_ucq/C2_hcov(covering-2)",
        &covering::covering2,
        &cases,
    );
    bench_row(
        c,
        "table1_ucq/Ck_bi(counting,k=2)",
        &|q1, q2| bijective::counting_offset(q1, q2, 2),
        &cases,
    );
    bench_row(
        c,
        "table1_ucq/Cinf_bi(counting-infinite)",
        &bijective::counting_infinite,
        &cases,
    );
    bench_row(
        c,
        "table1_ucq/Cinf_sur(unique-surjection)",
        &surjective::unique_surjective,
        &cases,
    );

    // invariant: the queries below are spelled in the parser's syntax
    let parse = |q: &str| parser::parse_ucq(&mut Schema::new(), q).expect("the query parses");
    let join = |atoms: Vec<String>| format!("Q() :- {}", atoms.join(", "));
    let chain = parse(&join(
        (0..6).map(|i| format!("R(x{i}, x{})", i + 1)).collect(),
    ));
    let star = join((1..=7).map(|i| format!("R(x, a{i})")).collect());
    let mut schema = Schema::new();
    // invariant: as above
    let star = parser::parse_ucq(&mut schema, &star).expect("the star parses");
    let fork = parser::parse_ucq(&mut schema, "Q() :- R(x, y), R(x, z)").expect("the fork parses");
    let mut group = c.benchmark_group("table1_ucq/classes");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    group.bench_function("N[X]/chain-6-vs-itself", |b| {
        b.iter(|| black_box(bijective::counting_infinite(&chain, &chain)))
    });
    group.bench_function("N/star-7-vs-star-2", |b| {
        b.iter(|| black_box(decide_ucq::<Natural>(&star, &fork).answer))
    });
    group.finish();
}

criterion_group!(benches, table1_ucq);
criterion_main!(benches);
