//! The canonical key on symmetric shapes: `annot_query::key::ucq_code` on
//! queries whose search trees the individualization–refinement search must
//! prune.
//!
//! A star's leaves, a clique's vertices and each side of a complete
//! bipartite graph are twin classes, which the search individualizes in one
//! step.  Disjoint directed triangles have no twins, so each triangle still
//! costs the search a subtree.  The first case codes both sides of a
//! `DECIDE`, as the service's cache does.  No group here is gated.

use annot_query::key::ucq_code;
use annot_query::{parser, Schema, Ucq};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn parse(atoms: impl Iterator<Item = String>) -> Ucq {
    let src = format!("Q() :- {}", atoms.collect::<Vec<_>>().join(", "));
    parser::parse_ucq(&mut Schema::new(), &src).expect("bench query parses")
}

fn star(leaves: usize) -> Ucq {
    parse((0..leaves).map(|i| format!("R(c, l{i})")))
}

/// `K_k` with both directions of every edge.
fn clique(k: usize) -> Ucq {
    let edges = (0..k).flat_map(|a| (0..k).filter(move |&b| b != a).map(move |b| (a, b)));
    parse(edges.map(|(a, b)| format!("R(v{a}, v{b})")))
}

/// `K_{left,right}`, every edge directed from the left side.
fn bipartite(left: usize, right: usize) -> Ucq {
    let edges = (0..left).flat_map(|a| (0..right).map(move |b| (a, b)));
    parse(edges.map(|(a, b)| format!("R(a{a}, b{b})")))
}

fn triangles(copies: usize) -> Ucq {
    let edge = |c: usize, i: usize| format!("R(t{c}v{i}, t{c}v{})", (i + 1) % 3);
    parse((0..copies).flat_map(|c| (0..3).map(move |i| edge(c, i))))
}

fn key(c: &mut Criterion) {
    let mut group = c.benchmark_group("key/ucq_code");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let (six, five) = (star(6), star(5));
    group.bench_function("6-star+5-star", |b| {
        b.iter(|| black_box((ucq_code(black_box(&six)), ucq_code(black_box(&five)))))
    });
    let shapes = [
        ("24-star", star(24)),
        ("K_6", clique(6)),
        ("K_2_3", bipartite(2, 3)),
        ("12-triangles", triangles(12)),
    ];
    for (name, q) in &shapes {
        group.bench_function(*name, |b| b.iter(|| black_box(ucq_code(black_box(q)))));
    }
    group.finish();
}

criterion_group!(benches, key);
criterion_main!(benches);
