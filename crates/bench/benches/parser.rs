//! The query parser, `annot_query::parser::parse_ucq`, on what a server
//! reads.  The fixed pair and the longest request of servebench's
//! seed-2718 hit-serial stream (621 bytes) are parsed as a `DECIDE` parses
//! them: both sides into one fresh schema.  Three lines of about 60 KiB,
//! under the server's default 64 KiB line cap, are where a lookup that is
//! not constant-time per occurrence would show: a star with 5,000 leaves, a
//! chain of 3,700 links and 5,000 atoms over distinct relations.  No group
//! here is gated.

use annot_query::{parser, Schema, Ucq};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// The first timed request of the seed-2718 hit-serial stream.
const FIXED: (&str, &str) = (
    "Q() :- person_info(v606, v237), person_info(v237, v331), keyword(v331, v545) ; \
     Q() :- kind_type(v944, v184), kind_type(v620, v944), keyword(v184, v245)",
    "Q() :- keyword(v763, v64), person_info(v310, v9) ; \
     Q() :- kind_type(v947, v822), kind_type(v822, v5), keyword(v5, v513)",
);

/// The longest request of the seed-2718 hit-serial stream.
const LONGEST: (&str, &str) = (
    "Q() :- title(v664, v485), title(v664, v469) ; \
     Q() :- keyword(v968, v817), title(v968, v773), title(v968, v401), \
     customer_address(v968, v676), customer_address(v968, v562) ; \
     Q() :- title(v862, v248), customer_address(v862, v253), title(v862, v281), \
     customer_address(v862, v732)",
    "Q() :- title(v803, v253), customer_address(v803, v144), keyword(v803, v563), \
     keyword(v803, v136), title(v803, v358) ; \
     Q() :- title(v655, v817), customer_address(v655, v570), customer_address(v655, v286) ; \
     Q() :- title(v700, v336), customer_address(v700, v764), title(v700, v153), \
     title(v700, v767), customer_address(v700, v523)",
);

/// Both sides of a `DECIDE`, parsed into one fresh schema.
fn decide_pair((q1, q2): (&str, &str)) -> (Ucq, Ucq) {
    let mut schema = Schema::new();
    let u1 = parser::parse_ucq(&mut schema, q1).expect("bench query parses");
    let u2 = parser::parse_ucq(&mut schema, q2).expect("bench query parses");
    (u1, u2)
}

/// A Boolean query over the given atoms.
fn line(atoms: impl Iterator<Item = String>) -> String {
    format!("Q() :- {}", atoms.collect::<Vec<_>>().join(", "))
}

fn parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("parser/parse_ucq");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    for (name, pair) in [("fixed-pair", FIXED), ("longest-hit-serial", LONGEST)] {
        group.bench_function(name, |b| b.iter(|| black_box(decide_pair(black_box(pair)))));
    }
    let lines = [
        ("5000-star", line((0..5_000).map(|i| format!("R(c, l{i})")))),
        (
            "3700-chain",
            line((0..3_700).map(|i| format!("R(x{i}, x{})", i + 1))),
        ),
        (
            "5000-relations",
            line((0..5_000).map(|i| format!("R{i}(x, y)"))),
        ),
    ];
    for (name, text) in &lines {
        assert!(text.len() < 64 * 1024, "{name} is {} bytes", text.len());
        group.bench_function(*name, |b| {
            b.iter(|| black_box(parser::parse_ucq(&mut Schema::new(), black_box(text))))
        });
    }
    group.finish();
}

criterion_group!(benches, parse);
criterion_main!(benches);
