//! Equivalence suite for the iso-canonical cache keys of [`annot_query::key`].
//!
//! The service cache treats two `DECIDE` requests as the same question
//! exactly when their canonical codes are equal, so the code must be
//!
//! * **invariant** under everything isomorphism ignores — α-renaming of
//!   variables, reordering of atoms, reordering of UCQ disjuncts — and the
//!   decisions behind equal keys must agree (randomized checks below), and
//! * **exact**: equal codes only for isomorphic queries.  The differentials
//!   below hold code equality against `are_isomorphic_ucq`, in both
//!   directions, over seeded random queries and high-symmetry shapes
//!   (stars, cycles, cliques, disjoint copies), whose colour refinement
//!   alone cannot tell apart.

use annot_core::registry::{decide_cq_dyn, decide_ucq_dyn, SemiringId};
use annot_hom::iso::are_isomorphic_ucq;
use annot_hom::kinds::exists_hom;
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::key::{cq_code, cq_key, ucq_code, ucq_key};
use annot_query::{parser, Atom, Cq, QVar, Schema, Ucq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fisher–Yates over the vendored rand shim (which has no `seq` module).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// An α-renamed, atom-reordered copy of `q`: variables are permuted by a
/// random bijection and given fresh names, atoms are shuffled.  By
/// construction the result is isomorphic to `q`.
fn iso_variant(q: &Cq, rng: &mut StdRng) -> Cq {
    let n = q.num_vars();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    shuffle(&mut perm, rng);
    let rename = |v: QVar| QVar(perm[v.0 as usize]);
    let mut atoms: Vec<Atom> = q.atoms().iter().map(|a| a.map_vars(&rename)).collect();
    shuffle(&mut atoms, rng);
    let free: Vec<QVar> = q.free_vars().iter().copied().map(rename).collect();
    let mut names = vec![String::new(); n];
    for (old, &new) in perm.iter().enumerate() {
        names[new as usize] = format!("w{old}");
    }
    Cq::new(q.schema().clone(), free, atoms, names)
}

/// An iso variant of a UCQ: each disjunct renamed independently, disjunct
/// order shuffled.
fn iso_variant_ucq(q: &Ucq, rng: &mut StdRng) -> Ucq {
    let mut members: Vec<Cq> = q
        .disjuncts()
        .iter()
        .map(|cq| iso_variant(cq, rng))
        .collect();
    shuffle(&mut members, rng);
    Ucq::new(members)
}

fn generator(seed: u64, free_vars: usize) -> QueryGenerator {
    QueryGenerator::new(GeneratorConfig {
        num_atoms: 3,
        shape: QueryShape::Random,
        var_pool: 4,
        num_relations: 2,
        free_vars,
        seed,
    })
}

/// Representative semirings for the decision-agreement check: one per
/// CQ-criterion family that the cache actually serves.
fn probe_semirings() -> Vec<SemiringId> {
    ["B", "Why[X]", "N[X]", "N", "T+"]
        .iter()
        .map(|name| SemiringId::from_name(name).expect("registered"))
        .collect()
}

#[test]
fn cq_keys_are_invariant_under_renaming_and_reordering() {
    for seed in 0..40u64 {
        let mut gen = generator(seed, (seed % 3) as usize);
        let q = gen.cq();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let v = iso_variant(&q, &mut rng);
        assert_eq!(
            cq_code(&q),
            cq_code(&v),
            "seed {seed}: iso variant changed the canonical code"
        );
        assert_eq!(
            cq_key(&q),
            cq_key(&v),
            "seed {seed}: iso variant changed the key"
        );
    }
}

#[test]
fn equal_keys_answer_alike_across_the_registry() {
    // A pair with equal keys must get the same decision — the property the
    // cache relies on when it serves a renamed repeat without re-deciding.
    for seed in 0..20u64 {
        let mut gen = generator(seed, 0);
        let q1 = gen.cq();
        let q2 = gen.cq();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
        let (v1, v2) = (iso_variant(&q1, &mut rng), iso_variant(&q2, &mut rng));
        assert_eq!(cq_key(&q1), cq_key(&v1));
        assert_eq!(cq_key(&q2), cq_key(&v2));
        for id in probe_semirings() {
            let original = decide_cq_dyn(id, &q1, &q2);
            let renamed = decide_cq_dyn(id, &v1, &v2);
            assert_eq!(
                original.answer,
                renamed.answer,
                "seed {seed}, {}: decision not invariant under isomorphism",
                id.name()
            );
        }
    }
}

#[test]
fn ucq_keys_are_invariant_under_member_iso_and_disjunct_order() {
    for seed in 0..30u64 {
        let mut gen = generator(seed, 0);
        let q = gen.ucq(2 + (seed % 2) as usize);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let v = iso_variant_ucq(&q, &mut rng);
        assert!(
            are_isomorphic_ucq(&q, &v),
            "seed {seed}: variant not isomorphic"
        );
        assert_eq!(
            ucq_code(&q),
            ucq_code(&v),
            "seed {seed}: UCQ iso variant changed the canonical code"
        );
        assert_eq!(ucq_key(&q), ucq_key(&v));
        for id in probe_semirings() {
            assert_eq!(
                decide_ucq_dyn(id, &q, &v).answer,
                decide_ucq_dyn(id, &v, &q).answer,
                "seed {seed}, {}: UCQ decision not symmetric under isomorphism",
                id.name()
            );
        }
    }
}

#[test]
fn hom_equivalent_but_not_isomorphic_pairs_get_distinct_keys() {
    // Q_a() :- R(u,v), R(u,w)  and  Q_b() :- R(u,v)  are homomorphically
    // equivalent (collapse w ↦ v one way, include the other), yet not
    // isomorphic — and over Why[X] the pairs (Q_a ⊑ Q_b) and (Q_b ⊑ Q_b)
    // have different answers, so conflating their keys would poison the
    // cache.
    let schema = Schema::with_relations([("R", 2)]);
    let fork = Cq::builder(&schema)
        .atom("R", &["u", "v"])
        .atom("R", &["u", "w"])
        .build();
    let edge = Cq::builder(&schema).atom("R", &["u", "v"]).build();

    assert!(exists_hom(&fork, &edge) && exists_hom(&edge, &fork));
    let (fork_u, edge_u) = (Ucq::single(fork.clone()), Ucq::single(edge.clone()));
    assert!(!are_isomorphic_ucq(&fork_u, &edge_u));

    assert_ne!(cq_code(&fork), cq_code(&edge));
    assert_ne!(cq_key(&fork), cq_key(&edge));

    let why = SemiringId::from_name("Why").expect("registered");
    let conflated = decide_cq_dyn(why, &fork, &edge);
    let reflexive = decide_cq_dyn(why, &edge, &edge);
    assert_ne!(
        conflated.answer, reflexive.answer,
        "the negative pair must actually be decision-relevant"
    );
}

#[test]
fn keys_do_not_depend_on_unused_schema_relations() {
    // The same query formulated over two schemas that register extra
    // relations in different orders must key identically: codes spell the
    // relations a query uses by name and arity, never by schema position,
    // so the service can parse every request into a schema of its own.
    let lean = Schema::with_relations([("R", 2)]);
    let fat = Schema::with_relations([("S", 1), ("T", 3), ("R", 2)]);
    let on = |schema: &Schema| {
        Cq::builder(schema)
            .atom("R", &["x", "y"])
            .atom("R", &["y", "z"])
            .build()
    };
    assert_eq!(cq_code(&on(&lean)), cq_code(&on(&fat)));
    assert_eq!(cq_key(&on(&lean)), cq_key(&on(&fat)));
}

/// A seeded random CQ over `schema`'s relations `R` and `S`: 2–6 atoms
/// over one or two relation names, a small variable pool (so isomorphic
/// and near-isomorphic pairs are common), and 0–2 free variables.
fn random_cq(schema: &Schema, rng: &mut StdRng) -> Cq {
    let atoms = rng.gen_range(2..7usize);
    let pool = rng.gen_range(2..atoms + 2);
    let names: &[&str] = if rng.gen_bool(0.5) {
        &["R"]
    } else {
        &["R", "S"]
    };
    let mut builder = Cq::builder(schema);
    let mut used: Vec<String> = Vec::new();
    for _ in 0..atoms {
        let name = names[rng.gen_range(0..names.len())];
        let (a, b) = (
            format!("v{}", rng.gen_range(0..pool)),
            format!("v{}", rng.gen_range(0..pool)),
        );
        builder = builder.atom(name, &[&a, &b]);
        used.extend([a, b]);
    }
    let free: Vec<&str> = (0..rng.gen_range(0..3usize))
        .map(|_| used[rng.gen_range(0..used.len())].as_str())
        .collect();
    builder.free(&free).build()
}

/// Asserts that code equality coincides with isomorphism on every pair of
/// `pool`, and that the judge agrees with itself in both directions.
fn assert_codes_decide_isomorphism(pool: &[Ucq]) -> usize {
    let codes: Vec<Vec<u64>> = pool.iter().map(ucq_code).collect();
    let mut isomorphic_pairs = 0;
    for i in 0..pool.len() {
        for j in (i + 1)..pool.len() {
            let iso = are_isomorphic_ucq(&pool[i], &pool[j]);
            assert_eq!(
                iso,
                are_isomorphic_ucq(&pool[j], &pool[i]),
                "the judge is not symmetric on {} vs {}",
                pool[i],
                pool[j]
            );
            assert_eq!(
                codes[i] == codes[j],
                iso,
                "code equality disagrees with isomorphism on {} vs {}",
                pool[i],
                pool[j]
            );
            isomorphic_pairs += usize::from(iso);
        }
    }
    isomorphic_pairs
}

#[test]
fn random_nonisomorphic_pairs_rarely_collide() {
    // The two-way differential: over 420 seeded CQs built on one schema
    // (the judge compares relation ids), two codes are equal exactly when
    // the queries are isomorphic.
    let schema = Schema::with_relations([("R", 2), ("S", 2)]);
    let mut rng = StdRng::seed_from_u64(0x15_0c0de);
    let pool: Vec<Ucq> = (0..420)
        .map(|_| Ucq::single(random_cq(&schema, &mut rng)))
        .collect();
    let isomorphic = assert_codes_decide_isomorphism(&pool);
    assert!(
        isomorphic >= 20,
        "the pool must contain isomorphic pairs to test the ⇐ direction, found {isomorphic}"
    );
}

#[test]
fn codes_survive_random_isomorphic_variants() {
    let schema = Schema::with_relations([("R", 2), ("S", 2)]);
    let mut rng = StdRng::seed_from_u64(0x15_7a71a);
    let mut queries: Vec<Cq> = (0..200).map(|_| random_cq(&schema, &mut rng)).collect();
    queries.extend(symmetric_shapes(&schema));
    for q in &queries {
        let code = cq_code(q);
        for _ in 0..3 {
            let v = iso_variant(q, &mut rng);
            assert_eq!(
                code,
                cq_code(&v),
                "{q} and its variant {v} got different codes"
            );
        }
    }
}

/// Parses `Q() :- body` over `schema`.
fn query(schema: &Schema, body: &str) -> Cq {
    let mut schema = schema.clone();
    parser::parse_cq(&mut schema, &format!("Q() :- {body}")).expect("test query parses")
}

fn star(schema: &Schema, leaves: usize) -> Cq {
    let body: Vec<String> = (0..leaves).map(|i| format!("R(c, l{i})")).collect();
    query(schema, &body.join(", "))
}

/// A directed cycle of `len` edges whose relation names repeat `names`.
fn cycle(len: usize, names: &[&str], copy: usize) -> Vec<String> {
    (0..len)
        .map(|i| {
            let name = names[i % names.len()];
            format!("{name}(c{copy}v{i}, c{copy}v{})", (i + 1) % len)
        })
        .collect()
}

fn clique(schema: &Schema, size: usize) -> Cq {
    let mut body = Vec::new();
    for a in 0..size {
        for b in 0..size {
            if a != b {
                body.push(format!("R(v{a}, v{b})"));
            }
        }
    }
    query(schema, &body.join(", "))
}

/// Stars with 2–8 leaves, cycles C3–C8, cliques K3–K6, two triangles and a
/// hexagon, and disjoint copies of R/S-alternating cycles: shapes whose
/// colour refinement leaves large cells for the search to split.
fn symmetric_shapes(schema: &Schema) -> Vec<Cq> {
    let mut shapes = Vec::new();
    for leaves in 2..=8 {
        shapes.push(star(schema, leaves));
    }
    for len in 3..=8 {
        shapes.push(query(schema, &cycle(len, &["R"], 0).join(", ")));
    }
    for size in 3..=6 {
        shapes.push(clique(schema, size));
    }
    let two_triangles = [cycle(3, &["R"], 0), cycle(3, &["R"], 1)].concat();
    shapes.push(query(schema, &two_triangles.join(", ")));
    let alternating_pairs = [cycle(4, &["R", "S"], 0), cycle(4, &["R", "S"], 1)];
    shapes.push(query(schema, &alternating_pairs.concat().join(", ")));
    shapes.push(query(schema, &cycle(8, &["R", "S"], 0).join(", ")));
    let alternating_triple = [
        cycle(4, &["R", "S"], 0),
        cycle(4, &["R", "S"], 1),
        cycle(4, &["R", "S"], 2),
    ];
    shapes.push(query(schema, &alternating_triple.concat().join(", ")));
    shapes.push(query(schema, &cycle(12, &["R", "S"], 0).join(", ")));
    // Mixed components that refinement alone cannot tell apart: the
    // search must split them at several depths, with automorphisms found
    // in some subtrees and smaller leaves waiting in others.
    let mixed = [
        cycle(3, &["R"], 0),
        cycle(3, &["R"], 1),
        cycle(6, &["R"], 2),
    ];
    shapes.push(query(schema, &mixed.concat().join(", ")));
    let mixed = [
        cycle(3, &["R"], 0),
        cycle(6, &["R"], 1),
        cycle(4, &["R", "S"], 2),
    ];
    shapes.push(query(schema, &mixed.concat().join(", ")));
    let mut mixed = cycle(4, &["R"], 0);
    mixed.extend(cycle(4, &["R"], 1));
    mixed.extend(["R(c0v0, c1v0)".to_string(), "S(c1v2, c0v1)".to_string()]);
    shapes.push(query(schema, &mixed.join(", ")));
    shapes
}

#[test]
fn codes_decide_isomorphism_on_symmetric_shapes() {
    let schema = Schema::with_relations([("R", 2), ("S", 2)]);
    let shapes = symmetric_shapes(&schema);
    // Each shape, an isomorphic variant of it, and the shape with its first
    // free variable pinned: the pool then holds isomorphic pairs as well as
    // regular look-alikes (two triangles vs the hexagon, two alternating
    // 4-cycles vs one 8-cycle, three vs one 12-cycle).
    let mut rng = StdRng::seed_from_u64(0x15_5a9e);
    let mut pool: Vec<Ucq> = Vec::new();
    for shape in &shapes {
        pool.push(Ucq::single(shape.clone()));
        pool.push(Ucq::single(iso_variant(shape, &mut rng)));
        let pinned = Cq::new(
            shape.schema().clone(),
            vec![QVar(0)],
            shape.atoms().to_vec(),
            shape.var_names().to_vec(),
        );
        pool.push(Ucq::single(pinned));
    }
    let isomorphic = assert_codes_decide_isomorphism(&pool);
    assert!(
        isomorphic >= shapes.len(),
        "found {isomorphic} isomorphic pairs"
    );
}

#[test]
fn the_same_shape_over_another_name_or_arity_gets_another_code() {
    let binary = Schema::with_relations([("R", 2), ("T", 2)]);
    let ternary = Schema::with_relations([("R", 3)]);
    let r = query(&binary, "R(x, y), R(y, z)");
    let t = query(&binary, "T(x, y), T(y, z)");
    let r3 = query(&ternary, "R(x, y, y), R(y, z, z)");
    assert_ne!(cq_code(&r), cq_code(&t));
    assert_ne!(cq_code(&r), cq_code(&r3));
    assert_ne!(cq_key(&r), cq_key(&t));
    assert_ne!(cq_key(&r), cq_key(&r3));
    // The name is spelled, not hashed: a star over R and one over T differ,
    // however many leaves they share.
    let star_t = query(&binary, "T(c, a), T(c, b), T(c, d)");
    assert_ne!(cq_code(&star(&binary, 3)), cq_code(&star_t));
    // The arity is spelled too: these two label their atoms alike, and
    // only the arity table tells `R/1, S/3` from `R/3, S/1`.
    let mixed = Schema::with_relations([("R", 1), ("S", 3)]);
    let swapped = Schema::with_relations([("R", 3), ("S", 1)]);
    let a = query(&mixed, "R(a), S(a, b, c)");
    let b = query(&swapped, "R(a, b, a), S(c)");
    assert_ne!(cq_code(&a), cq_code(&b));
}
