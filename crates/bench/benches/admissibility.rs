//! Experiment E4: CQ-admissibility checking (Prop. 4.16) and the tropical
//! polynomial-order decisions (Prop. 4.19) that power the small-model
//! procedure.

use annot_polynomial::admissible::is_cq_admissible;
use annot_polynomial::{leq_tropical, Polynomial, Terms, TropicalKind, Var};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn named_polynomials() -> Vec<(&'static str, Polynomial)> {
    let x = Polynomial::var(Var(0));
    let y = Polynomial::var(Var(1));
    let z = Polynomial::var(Var(2));
    vec![
        ("x^2", x.pow(2)),
        ("x+y", x.plus(&y)),
        ("(x+y)^2", x.plus(&y).pow(2)),
        ("x^2+xy+y^2", x.pow(2).plus(&x.times(&y)).plus(&y.pow(2))),
        ("(x+y+z)^2", x.plus(&y).plus(&z).pow(2)),
        ("(x+y)^3", x.plus(&y).pow(3)),
        ("(x+y+z)^3", x.plus(&y).plus(&z).pow(3)),
        ("xy+yz", x.times(&y).plus(&y.times(&z))),
    ]
}

fn admissibility(c: &mut Criterion) {
    let polynomials = named_polynomials();

    let mut group = c.benchmark_group("admissibility/is_cq_admissible");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for (name, p) in &polynomials {
        group.bench_function(*name, |b| {
            b.iter(|| black_box(is_cq_admissible(black_box(p))))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("admissibility/tropical_order");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for (name, p) in &polynomials {
        for (other_name, q) in &polynomials {
            if name == other_name {
                continue;
            }
            // Only a few representative comparisons to keep the run short.
            if !(name.starts_with("(x+y)") || other_name.starts_with("(x+y)")) {
                continue;
            }
            // Convert once: the benches time the order, not the conversion.
            let (p, q) = (Terms::from(p), Terms::from(q));
            for (kind, label) in [
                (TropicalKind::MinPlus, "minplus"),
                (TropicalKind::MaxPlus, "maxplus"),
            ] {
                group.bench_function(format!("{label}/{name}<={other_name}"), |b| {
                    b.iter(|| black_box(leq_tropical(black_box(&p), black_box(&q), kind)))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, admissibility);
criterion_main!(benches);
