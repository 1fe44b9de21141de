//! Deterministic allocation counts for building, coding and deciding small
//! queries.
//!
//! A counting global allocator tallies `alloc` and `realloc` calls made by
//! the measuring thread while it parses, codes, completes and decides one
//! fixed query pair — the first timed request of servebench's hit-serial
//! stream at seed 2718 — checks it against a renamed copy, and completes
//! the 5-leaf star.  The counts repeat exactly on one toolchain, so they
//! are work counters: a change that allocates per identifier, occurrence,
//! refinement round, ⟨Q⟩ member or search again, or that searches where a
//! count settles the question, fails here whatever the hardware.  Each
//! bound is half the count of the implementation a stage replaced, not the
//! current count, so allocator-visible differences between the stable and
//! MSRV standard libraries do not flip it.  The replaced counts, on stable
//! Rust:
//!
//! * 184 and 93 for parsing and coding the pair;
//! * 292 for building ⟨q1⟩ and 7,715 for ⟨5-leaf star⟩, which materialised
//!   every member as a `Ccq`;
//! * 3,512 for `↠_∞` on built descriptions, and 4,081 and 5,681 for the
//!   `Trio[X]` and `B_2` decides, which searched or built relation maps per
//!   ⟨Q⟩ pair;
//! * 2,523 and 2,520 for the `T+` and `Viterbi` decides, which built a
//!   canonical instance and `N[X]` polynomials per ⟨Q⟩ member, and then 66
//!   for each of them and for the `B_2` decide, which built ⟨Q⟩ before
//!   trying the bounds that settle those pairs;
//! * 6,769 and 1,077 for the `N` and `N[X]` decides, which materialised
//!   every member and gave every search fresh buffers;
//! * 20 for a `B` decide after a warm-up decide on the same thread, whose
//!   searches each allocated their buffers;
//! * 115 for a warmed `are_isomorphic_ucq` of both sides of the pair
//!   against renamed copies, which cloned both CQs into `Ccq`s for every
//!   disjunct pair it tried.
//!
//! The `N`, `N[X]` and `Trio[X]` decides leave the fixed pair to their ⟨Q⟩
//! procedures.  Their stages also pin, after a warm-up on the same thread,
//! that the decide allocates no more than that procedure called alone: the
//! bounds the decide tries first allocate nothing on a pair they leave
//! open.  A relative bound holds on every toolchain.

use annot_core::decide::Decision;
use annot_core::registry::{decide_ucq_dyn, SemiringId};
use annot_core::ucq::bijective::counting_infinite;
use annot_core::ucq::covering::covering2_on_classes;
use annot_core::ucq::surjective::{unique_surjective, unique_surjective_on_classes};
use annot_hom::are_isomorphic_ucq;
use annot_query::complete::{Classes, Description};
use annot_query::key::ucq_code;
use annot_query::{parser, Schema, Ucq};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Forwards to the system allocator, counting `alloc` and `realloc` calls
/// per thread.
struct Counting;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates and needs no registration, so the allocator may use it.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

const Q1: &str = "Q() :- person_info(v606, v237), person_info(v237, v331), \
                  keyword(v331, v545) ; Q() :- kind_type(v944, v184), \
                  kind_type(v620, v944), keyword(v184, v245)";
const Q2: &str = "Q() :- keyword(v763, v64), person_info(v310, v9) ; \
                  Q() :- kind_type(v947, v822), kind_type(v822, v5), keyword(v5, v513)";
const STAR: &str = "Q() :- R(x, a), R(x, b), R(x, c), R(x, d), R(x, e)";

/// `Schema::new()` and both parses of the fixed pair, as the server runs
/// them for one `DECIDE`.
fn parse_pair() -> (Ucq, Ucq) {
    let mut schema = Schema::new();
    let u1 = parser::parse_ucq(&mut schema, Q1).expect("q1 parses");
    let u2 = parser::parse_ucq(&mut schema, Q2).expect("q2 parses");
    (u1, u2)
}

/// Asserts `count` is at most half of `parent`, the count before the
/// allocation-free rewrite.
fn assert_halved(stage: &str, count: u64, parent: u64) {
    eprintln!("{stage}: {count} allocations (bound {})", parent / 2);
    assert!(
        count <= parent / 2,
        "{stage}: {count} allocations, more than half of {parent}"
    );
}

#[test]
fn parsing_the_fixed_pair() {
    let (pair, count) = counted(|| black_box(parse_pair()));
    assert_eq!((pair.0.len(), pair.1.len()), (2, 2));
    assert_halved("Schema::new + parse_ucq × 2", count, 184);
}

#[test]
fn coding_the_fixed_pair() {
    let (u1, u2) = parse_pair();
    let (codes, count) = counted(|| black_box((ucq_code(&u1), ucq_code(&u2))));
    assert_ne!(codes.0, codes.1);
    assert_halved("ucq_code × 2", count, 93);
}

#[test]
fn completing_the_fixed_pair() {
    let (u1, _) = parse_pair();
    let (description, count) = counted(|| black_box(Description::new(u1.disjuncts())));
    assert_eq!(description.len(), 30);
    assert_halved("Description::new(q1)", count, 292);
}

#[test]
fn completing_the_five_leaf_star() {
    let star = parser::parse_ucq(&mut Schema::new(), STAR).expect("star parses");
    let (description, count) = counted(|| black_box(Description::new(star.disjuncts())));
    assert_eq!(description.len(), 203);
    assert_halved("Description::new(5-leaf star)", count, 7_715);
}

/// `decide_ucq_dyn` on the fixed pair for the named row.
fn decide(row: &str, q1: &Ucq, q2: &Ucq) -> Option<bool> {
    decision(row, q1, q2).decided()
}

fn decision(row: &str, q1: &Ucq, q2: &Ucq) -> Decision {
    let id = SemiringId::from_name(row).expect("registered row");
    decide_ucq_dyn(id, q1, q2)
}

/// Asserts that, once both have run on this thread, `decide_ucq_dyn` for
/// `row` on a pair its bounds leave open allocates no more than
/// `procedure`, the row's ⟨Q⟩ procedure called alone.
fn assert_open_pair_costs_its_procedure(
    row: &str,
    q1: &Ucq,
    q2: &Ucq,
    procedure: impl Fn() -> bool,
) {
    procedure();
    decide(row, q1, q2);
    let (_, alone) = counted(|| black_box(procedure()));
    let (_, decided) = counted(|| black_box(decide(row, q1, q2)));
    eprintln!("{row}, warmed up: decide {decided} allocations, its procedure alone {alone}");
    assert!(
        decided <= alone,
        "{row}: the decide allocates {decided} times, its ⟨Q⟩ procedure {alone}"
    );
}

#[test]
fn unique_surjection_on_the_fixed_pair() {
    let (u1, u2) = parse_pair();
    let (d1, d2) = (
        Description::new(u1.disjuncts()),
        Description::new(u2.disjuncts()),
    );
    let (holds, count) = counted(|| {
        let classes = Classes::joint(&d1, &d2);
        black_box(unique_surjective_on_classes(&classes))
    });
    assert!(!holds);
    assert_halved(
        "Classes::joint + unique_surjective_on_classes",
        count,
        3_512,
    );
}

#[test]
fn deciding_the_fixed_pair_over_trio() {
    let (u1, u2) = parse_pair();
    let (verdict, count) = counted(|| black_box(decide("Trio[X]", &u1, &u2)));
    assert_eq!(verdict, Some(false));
    assert_halved("decide_ucq_dyn(Trio[X], q1, q2)", count, 4_081);
    assert_open_pair_costs_its_procedure("Trio[X]", &u1, &u2, || unique_surjective(&u1, &u2));
}

#[test]
fn deciding_the_reversed_pair_over_b2() {
    let (u1, u2) = parse_pair();
    let (decided, count) = counted(|| black_box(decision("B_2", &u2, &u1)));
    assert_eq!(decided.decided(), Some(false));
    let refuted = "necessary bound violated: member-wise homomorphism";
    assert_eq!(decided.method, refuted);
    assert_halved("decide_ucq_dyn(B_2, q2, q1)", count, 66);
}

#[test]
fn deciding_the_fixed_pair_over_t_plus() {
    let (u1, u2) = parse_pair();
    let (decided, count) = counted(|| black_box(decision("T+", &u1, &u2)));
    assert_eq!(decided.decided(), Some(true));
    let prop_5_1 = "sufficient bound: member-wise injective homomorphism (S_in, Prop. 5.1)";
    assert_eq!(decided.method, prop_5_1);
    assert_halved("decide_ucq_dyn(T+, q1, q2)", count, 66);
}

#[test]
fn deciding_the_fixed_pair_over_viterbi() {
    let (u1, u2) = parse_pair();
    let (decided, count) = counted(|| black_box(decision("Viterbi", &u1, &u2)));
    assert_eq!(decided.decided(), Some(true));
    let prop_5_1 = "sufficient bound: member-wise injective homomorphism (S_in, Prop. 5.1)";
    assert_eq!(decided.method, prop_5_1);
    assert_halved("decide_ucq_dyn(Viterbi, q1, q2)", count, 66);
}

#[test]
fn deciding_the_fixed_pair_over_n() {
    let (u1, u2) = parse_pair();
    let (verdict, count) = counted(|| black_box(decide("N", &u1, &u2)));
    assert_eq!(verdict, Some(false));
    assert_halved("decide_ucq_dyn(N, q1, q2)", count, 6_769);
    // N has no exact ⟨Q⟩ criterion: its procedure is the pair of ⟨Q⟩
    // bounds, `↠_∞` sufficient and `⇉₂` necessary, on one set of classes.
    assert_open_pair_costs_its_procedure("N", &u1, &u2, || {
        let (d1, d2) = (
            Description::new(u1.disjuncts()),
            Description::new(u2.disjuncts()),
        );
        let classes = Classes::joint(&d1, &d2);
        unique_surjective_on_classes(&classes) || covering2_on_classes(&classes)
    });
}

#[test]
fn deciding_the_fixed_pair_over_n_x() {
    let (u1, u2) = parse_pair();
    let (verdict, count) = counted(|| black_box(decide("N[X]", &u1, &u2)));
    assert_eq!(verdict, Some(false));
    assert_halved("decide_ucq_dyn(N[X], q1, q2)", count, 1_077);
    assert_open_pair_costs_its_procedure("N[X]", &u1, &u2, || counting_infinite(&u1, &u2));
}

#[test]
fn deciding_the_fixed_pair_over_b_after_a_warm_up() {
    // The first decide on this thread grows the search buffers; the second
    // reuses them.
    let (u1, u2) = parse_pair();
    let warm = decide("B", &u1, &u2);
    let (verdict, count) = counted(|| black_box(decide("B", &u1, &u2)));
    assert_eq!(verdict, warm);
    assert_halved("decide_ucq_dyn(B, q1, q2), warmed up", count, 20);
}

#[test]
fn isomorphism_of_the_fixed_pair_to_a_renamed_copy_after_a_warm_up() {
    // The same pair with every variable renamed and the disjuncts of each
    // side swapped; the first check on this thread grows the search
    // buffers, the second reuses them.
    let rename = |src: &str| {
        let mut disjuncts: Vec<&str> = src.split(" ; ").collect();
        disjuncts.reverse();
        disjuncts
            .join(" ; ")
            .replace("(v", "(w")
            .replace(", v", ", w")
    };
    let mut schema = Schema::new();
    let mut parse = |src: &str| parser::parse_ucq(&mut schema, src).expect("parses");
    let (u1, u2) = (parse(Q1), parse(Q2));
    let (r1, r2) = (parse(&rename(Q1)), parse(&rename(Q2)));
    let check = || are_isomorphic_ucq(&u1, &r1) && are_isomorphic_ucq(&u2, &r2);
    assert!(check());
    let (same, count) = counted(|| black_box(check()));
    assert!(same);
    assert_halved("are_isomorphic_ucq × 2, warmed up", count, 115);
}
