//! Order-invariance of the homomorphism search engine.
//!
//! The atom-selection heuristic ([`AtomOrder`]) must never change *what* the
//! search finds — only how fast it finds it.  This suite generates seeded
//! random CQ and CCQ pairs and asserts that the `Syntactic` order and the
//! dynamic `MostConstrained` order (most-constrained-next with forward
//! checking) agree on
//!
//! * existence (`exists`),
//! * the number of enumerated homomorphisms (`for_each` visits each complete
//!   mapping exactly once, so the counts must be equal),
//!
//! across plain, occurrence-injective, pinned and inequality-preserving
//! (CCQ) searches.

use annot_hom::{AtomOrder, HomSearch, SearchOptions, SearchQuery};
use annot_query::generator::{GeneratorConfig, QueryGenerator, QueryShape};
use annot_query::{Ccq, Cq};

const ORDERS: [AtomOrder; 2] = [AtomOrder::Syntactic, AtomOrder::MostConstrained];

fn generated_pair(seed: u64) -> (Cq, Cq) {
    let mut generator = QueryGenerator::new(GeneratorConfig {
        num_atoms: 2 + (seed % 2) as usize,
        shape: QueryShape::Random,
        var_pool: 3 + (seed % 2) as usize,
        num_relations: 1 + (seed % 2) as usize,
        seed,
        ..Default::default()
    });
    (generator.cq(), generator.cq())
}

fn count_homs<Q: SearchQuery>(search: &HomSearch<'_, Q>) -> usize {
    let mut count = 0usize;
    search.for_each(&mut |_| count += 1);
    count
}

#[test]
fn orders_agree_on_plain_and_injective_searches() {
    for seed in 0..60u64 {
        let (q1, q2) = generated_pair(seed);
        for occurrence_injective in [false, true] {
            let results: Vec<(bool, usize)> = ORDERS
                .iter()
                .map(|&order| {
                    let options = SearchOptions {
                        occurrence_injective,
                        order,
                    };
                    let exists = HomSearch::new(&q2, &q1)
                        .with_options(options.clone())
                        .exists();
                    let count = count_homs(&HomSearch::new(&q2, &q1).with_options(options));
                    (exists, count)
                })
                .collect();
            assert_eq!(
                results[0], results[1],
                "orders disagree (injective={occurrence_injective}) on {} vs {}",
                q2, q1
            );
            // Internal consistency: existence iff the enumeration is
            // non-empty.
            assert_eq!(results[0].0, results[0].1 > 0);
        }
    }
}

#[test]
fn orders_agree_on_pinned_searches() {
    for seed in 100..140u64 {
        let (q1, q2) = generated_pair(seed);
        for source_index in 0..q2.num_atoms() {
            for target_index in 0..q1.num_atoms() {
                let verdicts: Vec<bool> = ORDERS
                    .iter()
                    .map(|&order| {
                        let options = SearchOptions {
                            occurrence_injective: false,
                            order,
                        };
                        HomSearch::new(&q2, &q1)
                            .with_options(options)
                            .with_pin(source_index, target_index)
                            .exists()
                    })
                    .collect();
                assert_eq!(
                    verdicts[0], verdicts[1],
                    "pinned ({source_index} ↦ {target_index}) orders disagree on {} vs {}",
                    q2, q1
                );
            }
        }
    }
}

#[test]
fn orders_agree_on_ccq_searches() {
    for seed in 200..260u64 {
        let (q1, q2) = generated_pair(seed);
        let c1 = Ccq::completion_of(q1);
        let c2 = Ccq::completion_of(q2);
        for occurrence_injective in [false, true] {
            let results: Vec<(bool, usize)> = ORDERS
                .iter()
                .map(|&order| {
                    let options = SearchOptions {
                        occurrence_injective,
                        order,
                    };
                    let exists = HomSearch::new(&c2, &c1)
                        .with_options(options.clone())
                        .exists();
                    let count = count_homs(&HomSearch::new(&c2, &c1).with_options(options));
                    (exists, count)
                })
                .collect();
            assert_eq!(
                results[0],
                results[1],
                "CCQ orders disagree (injective={occurrence_injective}) on {} vs {}",
                c2.cq(),
                c1.cq()
            );
        }
    }
}
