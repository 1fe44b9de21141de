//! The iso-canonical semantic cache, bounded by one byte budget.
//!
//! Containment decisions are keyed by the *canonical form of the query
//! pair up to isomorphism*: a request for `Q₁ ⊑ Q₂` over semiring `K`
//! hits the cache whenever an α-renamed / atom-reordered /
//! disjunct-reordered variant of the same pair was decided before.  The
//! key is exact: an entry holds the semiring and the canonical codes of
//! both queries ([`annot_query::key::ucq_code`], equal exactly for
//! isomorphic queries, relations spelled by name and arity), and a lookup
//! compares them word for word.  A 64-bit fingerprint of the three picks
//! the entry, and the table holds one entry per fingerprint: a pair whose
//! fingerprint another pair's entry holds (odds about n²/2⁶⁵ among n
//! entries) fails the comparison, is decided afresh on every request and
//! is never stored, so no answer is ever shared.
//!
//! An entry holds the verdict and the method of its [`Decision`], not the
//! witness.  Every Table 1 criterion is invariant under isomorphism, so
//! verdict and method are a fixed function of the semiring's row and the
//! pair's isomorphism class; a witness homomorphism names one pair's
//! variables and does not fit an isomorphic variant.  A hit answers with
//! `witness: None`; a miss returns the decider's own decision.
//!
//! One mutex guards the whole table: the entries, the eviction ring and
//! the counters.  The canonical codes and the fingerprint are computed
//! before the lock, so a hit holds it once and a miss twice (the probe,
//! then the insert), each time for one hash probe.  The decider runs
//! *outside* the lock — a decider running under it would serialise the
//! server.  When two clients race on the same fresh pair, both decide (and
//! arrive at the same verdict); the first to take the lock again inserts,
//! and the other finds the fingerprint taken and stores nothing.
//!
//! ## The byte budget and eviction
//!
//! A cached answer never goes stale, so memory is the only reason to drop
//! one, and the cache has one bound, a byte budget that is always on
//! ([`DEFAULT_BYTE_BUDGET`] unless the caller picks another).  The
//! per-entry footprint that `STATS` reports as `approx_bytes` (the entry
//! struct plus its code words) is also the enforcement input: an insert
//! evicts, under the same lock, until the tracked total is back within the
//! budget, so `approx_bytes ≤ budget` and `inserts = entries + evictions`
//! hold at every unlock.  An entry larger than the whole budget is never
//! stored; it counts as one insert and one eviction.
//!
//! Eviction is the classic second-chance (CLOCK) ring over all entries: a
//! new entry's fingerprint joins the back of the ring, and a hit sets the
//! entry's `referenced` bit.  The evictor pops the ring front; a referenced
//! entry loses its bit and goes to the back, the arrival whose insert runs
//! the eviction goes to the back untouched, and the first other
//! unreferenced entry is evicted.  So an arrival survives its own insert
//! while any other entry exists.  This is O(1) amortised with no per-hit
//! reordering, and deterministic for a fixed order of operations: the
//! tests run it beside a sequential reference model of the ring and
//! require equal hits.

use crate::sync::{Mutex, MutexGuard, PoisonError};
use annot_core::decide::{Decision, Verdict};
use annot_core::registry::SemiringId;
use annot_query::key::{hash64, ucq_code};
use annot_query::Ucq;
use std::collections::{hash_map, HashMap, VecDeque};

/// The byte budget of [`Cache::new`] and of the default server: 64 MiB,
/// about 100,000 entries at the ~640 bytes a typical entry takes.
pub const DEFAULT_BYTE_BUDGET: u64 = 64 << 20;

/// One cached answer: the question it answers (semiring and canonical
/// codes of both queries), its verdict and method, and the eviction bit.
struct Entry {
    semiring: SemiringId,
    code1: Box<[u64]>,
    code2: Box<[u64]>,
    answer: Verdict,
    method: &'static str,
    /// Second-chance bit: set on every hit, cleared (once) by the
    /// eviction scan before the entry becomes a victim.
    referenced: bool,
}

/// Everything the cache's one mutex guards.
struct Table {
    /// The entries by fingerprint, one per fingerprint.
    entries: HashMap<u64, Entry>,
    /// The fingerprint of every entry, in the CLOCK scan's order.  Entries
    /// leave the table only through the scan, so every slot names a live
    /// entry.
    ring: VecDeque<u64>,
    /// The counters, updated with the table they count.
    stats: CacheStats,
}

/// Counter snapshot returned by [`Cache::stats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that missed and ran a decider.
    pub misses: u64,
    /// Decider executions, counted when the decider returns.  Every miss
    /// runs the decider, so this equals [`CacheStats::misses`] whenever no
    /// decide is in flight.
    pub decides: u64,
    /// Answers admitted to the cache.  A miss whose fingerprint is taken
    /// when it returns — a racing request inserted the same pair first, or
    /// another pair holds the fingerprint — stores nothing and counts no
    /// insert.  `inserts = entries + evictions` in every snapshot.
    pub inserts: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries evicted to keep within the byte budget, including entries
    /// larger than the whole budget, which are evicted as they arrive.
    pub evictions: u64,
    /// Approximate bytes held by the cached entries: the entry structs plus
    /// their code words.  A capacity-planning number — and the byte-budget
    /// enforcement input — not an allocator audit.
    pub approx_bytes: u64,
}

/// The semantic cache: one table under one mutex.
pub struct Cache {
    byte_budget: u64,
    table: Mutex<Table>,
}

impl Cache {
    /// An empty cache under [`DEFAULT_BYTE_BUDGET`].
    pub fn new() -> Cache {
        Cache::with_byte_budget(DEFAULT_BYTE_BUDGET)
    }

    /// An empty cache whose entries never take more than `byte_budget`
    /// tracked bytes.
    pub fn with_byte_budget(byte_budget: u64) -> Cache {
        Cache {
            byte_budget,
            table: Mutex::new(Table {
                entries: HashMap::new(),
                ring: VecDeque::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// The fingerprint of a request: semiring + canonical codes of the
    /// (ordered) query pair.  It picks the entry to compare with.
    fn fingerprint(semiring: SemiringId, c1: &[u64], c2: &[u64]) -> u64 {
        let name = hash64(semiring.name().bytes().map(u64::from));
        let codes = c1.iter().chain(c2).copied();
        hash64([name, c1.len() as u64].into_iter().chain(codes))
    }

    /// Returns the cached verdict and method for an isomorphic variant of
    /// `(semiring, q1, q2)` with no witness, or runs `decide`, caches its
    /// verdict and method, and returns its decision.  The second component
    /// reports whether this was a cache hit.
    pub fn get_or_decide(
        &self,
        semiring: SemiringId,
        q1: &Ucq,
        q2: &Ucq,
        decide: impl FnOnce(&Ucq, &Ucq) -> Decision,
    ) -> (Decision, bool) {
        let (c1, c2) = (ucq_code(q1), ucq_code(q2));
        let key = Self::fingerprint(semiring, &c1, &c2);
        {
            let mut table = self.lock();
            let stored = table.entries.get_mut(&key);
            if let Some(entry) =
                stored.filter(|e| e.semiring == semiring && *e.code1 == *c1 && *e.code2 == *c2)
            {
                entry.referenced = true; // second chance for the evictor
                let found = Decision {
                    answer: entry.answer,
                    method: entry.method,
                    witness: None,
                };
                table.stats.hits += 1;
                return (found, true);
            }
            table.stats.misses += 1;
        }
        // Decide outside the lock; see the module docs for the race note.
        let decision = decide(q1, q2);
        let entry_bytes = entry_footprint(&c1, &c2);
        let mut table = self.lock();
        table.stats.decides += 1;
        if entry_bytes > self.byte_budget {
            // Storing it would evict every other entry and then itself:
            // count the insert and its eviction, store nothing.
            table.stats.inserts += 1;
            table.stats.evictions += 1;
            return (decision, false);
        }
        let hash_map::Entry::Vacant(slot) = table.entries.entry(key) else {
            // A racing request inserted this pair first, or another pair
            // holds the fingerprint: store nothing.
            return (decision, false);
        };
        slot.insert(Entry {
            semiring,
            code1: c1.into_boxed_slice(),
            code2: c2.into_boxed_slice(),
            answer: decision.answer,
            method: decision.method,
            referenced: false,
        });
        table.ring.push_back(key);
        table.stats.inserts += 1;
        table.stats.entries += 1;
        table.stats.approx_bytes += entry_bytes;
        while table.stats.approx_bytes > self.byte_budget && table.evict_one(key) {}
        (decision, false)
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An exact snapshot of the counters, taken under the lock.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats.clone()
    }
}

impl Table {
    /// Evicts one entry by the second-chance scan: the ring front goes
    /// unless a hit referenced it since its last turn, in which case it
    /// loses the bit and moves to the back.  The `spared` fingerprint, the
    /// arrival whose insert runs the eviction, moves to the back untouched.
    /// Returns `false` when the table holds no other entry.
    fn evict_one(&mut self, spared: u64) -> bool {
        // Each other entry moves to the back at most once before its bit is
        // clear, so two laps of the ring reach a victim if there is one.
        for _ in 0..2 * self.ring.len() {
            let Some(key) = self.ring.pop_front() else {
                break;
            };
            if key == spared {
                self.ring.push_back(key);
                continue;
            }
            let hash_map::Entry::Occupied(mut slot) = self.entries.entry(key) else {
                continue;
            };
            if slot.get().referenced {
                slot.get_mut().referenced = false;
                self.ring.push_back(key);
                continue;
            }
            let entry = slot.remove();
            self.stats.evictions += 1;
            self.stats.entries -= 1;
            self.stats.approx_bytes -= entry_footprint(&entry.code1, &entry.code2);
            return true;
        }
        false
    }
}

/// The tracked footprint of one entry: the entry struct plus both codes'
/// words.  This estimate *is* the byte-budget enforcement input.
fn entry_footprint(c1: &[u64], c2: &[u64]) -> u64 {
    (std::mem::size_of::<Entry>() + std::mem::size_of_val(c1) + std::mem::size_of_val(c2)) as u64
}

impl Default for Cache {
    fn default() -> Self {
        Cache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annot_core::registry::decide_ucq_dyn;
    use annot_hom::VarMap;
    use annot_query::{parser, QVar, Schema};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn decide_with(semiring: SemiringId) -> impl Fn(&Ucq, &Ucq) -> Decision {
        move |a: &Ucq, b: &Ucq| decide_ucq_dyn(semiring, a, b)
    }

    /// `count` pairwise non-isomorphic (pair-wise distinct as *pairs*)
    /// query pairs: the same small shape over `count` distinct relation
    /// symbols, so every pair is its own cache entry, every entry has the
    /// same byte footprint, and every decide stays cheap (3 variables —
    /// growing the queries instead would hand the worst-case-exponential
    /// deciders an exponentially growing job).
    pub(super) fn distinct_pairs(s: &mut Schema, count: usize) -> Vec<(Ucq, Ucq)> {
        (0..count)
            .map(|i| {
                let q1 = parser::parse_ucq(s, &format!("Q() :- C{i}(x, y), C{i}(y, z)")).unwrap();
                let q2 = parser::parse_ucq(s, &format!("Q() :- C{i}(u, v)")).unwrap();
                (q1, q2)
            })
            .collect()
    }

    /// The footprint every pair of [`distinct_pairs`] takes.
    pub(super) fn pair_footprint(pair: &(Ucq, Ucq)) -> u64 {
        entry_footprint(&ucq_code(&pair.0), &ucq_code(&pair.1))
    }

    #[test]
    fn isomorphic_requests_hit_without_redeciding() {
        let cache = Cache::new();
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let why = SemiringId::from_name("Why").unwrap();

        let (first, hit) = cache.get_or_decide(why, &q1, &q2, decide_with(why));
        assert!(!hit);
        // An α-renamed, atom-reordered variant of the same pair.
        let p1 = parser::parse_ucq(&mut s, "Q() :- R(a, c), R(a, b)").unwrap();
        let p2 = parser::parse_ucq(&mut s, "Q() :- R(x, y), R(x, y)").unwrap();
        let (second, hit) =
            cache.get_or_decide(why, &p1, &p2, |_, _| panic!("must be served from cache"));
        assert!(hit);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.decides), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.evictions, 0, "one entry is far under the budget");
    }

    #[test]
    fn different_semirings_do_not_share_entries() {
        let cache = Cache::new();
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let bool_id = SemiringId::from_name("B").unwrap();
        let why = SemiringId::from_name("Why").unwrap();
        let (b, _) = cache.get_or_decide(bool_id, &q1, &q2, decide_with(bool_id));
        let (w, hit) = cache.get_or_decide(why, &q1, &q2, decide_with(why));
        assert!(!hit);
        // B: contained; Why[X]: not — the entries must not be conflated.
        assert_eq!(b.decided(), Some(true));
        assert_eq!(w.decided(), Some(false));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn stats_report_entries_and_bytes() {
        let cache = Cache::new();
        let empty = cache.stats();
        assert_eq!((empty.entries, empty.approx_bytes), (0, 0));

        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v)").unwrap();
        let n = SemiringId::from_name("N").unwrap();
        cache.get_or_decide(n, &q1, &q2, decide_with(n));
        cache.get_or_decide(n, &q2, &q1, decide_with(n));

        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert!(
            stats.approx_bytes > 0,
            "two cached entries must occupy bytes"
        );
    }

    #[test]
    fn ordered_pair_directions_are_distinct() {
        let cache = Cache::new();
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v)").unwrap();
        let n = SemiringId::from_name("N").unwrap();
        let (_, hit1) = cache.get_or_decide(n, &q1, &q2, decide_with(n));
        let (_, hit2) = cache.get_or_decide(n, &q2, &q1, decide_with(n));
        assert!(!hit1 && !hit2);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn byte_budget_is_never_exceeded_and_evictions_are_counted() {
        let mut s = Schema::with_relations([("R", 2)]);
        let pairs = distinct_pairs(&mut s, 12);
        let n = SemiringId::from_name("N").unwrap();
        // A budget that fits roughly two entries.
        let one = pair_footprint(&pairs[0]);
        let budget = one * 2 + one / 2;
        let cache = Cache::with_byte_budget(budget);
        for (q1, q2) in &pairs {
            cache.get_or_decide(n, q1, q2, decide_with(n));
            assert!(
                cache.stats().approx_bytes <= budget,
                "tracked bytes {} broke the budget {budget}",
                cache.stats().approx_bytes
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "{stats:?}");
        assert_eq!(stats.evictions, 10, "churn must evict: {stats:?}");
        assert_eq!(
            stats.inserts,
            stats.entries + stats.evictions,
            "insert/evict bookkeeping must balance: {stats:?}"
        );
    }

    #[test]
    fn a_full_cache_admits_new_pairs() {
        // Under a two-entry budget every insert after the second evicts one
        // entry and spares the arrival: the cache keeps taking new pairs
        // instead of keeping its first two forever, and, as no entry was
        // hit, the ring keeps the two most recent.
        let mut s = Schema::with_relations([("R", 2)]);
        let pairs = distinct_pairs(&mut s, 12);
        let n = SemiringId::from_name("N").unwrap();
        let one = pair_footprint(&pairs[0]);
        let cache = Cache::with_byte_budget(one * 2 + one / 2);
        for (q1, q2) in &pairs {
            let (_, hit) = cache.get_or_decide(n, q1, q2, decide_with(n));
            assert!(!hit);
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 10), "{stats:?}");
        for (q1, q2) in &pairs[10..] {
            let (_, hit) = cache.get_or_decide(n, q1, q2, |_, _| panic!("the last two are cached"));
            assert!(hit);
        }
        let stats = cache.stats();
        assert_eq!(stats.inserts, stats.entries + stats.evictions, "{stats:?}");
    }

    #[test]
    fn an_arrival_survives_its_own_insert() {
        // A seeded stream over 96 distinct pairs under budgets of 2 to 64
        // entries: whenever a miss inserts beside another entry, an
        // immediate re-request of the same pair hits.
        let mut s = Schema::with_relations([("R", 2)]);
        let pairs = distinct_pairs(&mut s, 96);
        let n = SemiringId::from_name("N").unwrap();
        let one = pair_footprint(&pairs[0]);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for entries in [2, 3, 5, 8, 16, 32, 64] {
            let cache = Cache::with_byte_budget(one * entries + one / 2);
            for _ in 0..200 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let (q1, q2) = &pairs[(state % 96) as usize];
                let others = cache.stats().entries;
                let (_, hit) = cache.get_or_decide(n, q1, q2, decide_with(n));
                if hit || others == 0 {
                    continue;
                }
                let (_, again) =
                    cache.get_or_decide(n, q1, q2, |_, _| panic!("the arrival was evicted"));
                assert!(again, "budget of {entries} entries");
                assert!(
                    cache.stats().entries <= entries,
                    "budget of {entries} entries"
                );
            }
            let stats = cache.stats();
            assert!(stats.evictions > 0, "{stats:?}");
            assert_eq!(stats.inserts, stats.entries + stats.evictions, "{stats:?}");
        }
    }

    #[test]
    fn an_entry_larger_than_the_whole_budget_is_never_cached() {
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let cache = Cache::with_byte_budget(8); // smaller than any entry
        let n = SemiringId::from_name("N").unwrap();
        let (_, hit) = cache.get_or_decide(n, &q1, &q2, decide_with(n));
        assert!(!hit);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.approx_bytes, 0);
        assert_eq!(
            (stats.inserts, stats.evictions),
            (1, 1),
            "the refusal counts as an insert evicted at once"
        );
        // The same request decides again — nothing was cached.
        let (_, hit) = cache.get_or_decide(n, &q1, &q2, decide_with(n));
        assert!(!hit);
        let stats = cache.stats();
        assert_eq!(stats.decides, 2);
        assert_eq!(stats.inserts, stats.entries + stats.evictions);
    }

    #[test]
    fn a_pair_whose_fingerprint_another_pair_holds_is_decided_and_not_stored() {
        // Re-key one pair's entry under a second pair's fingerprint, where a
        // 64-bit collision would put it.  The second pair's codes differ, so
        // it misses, gets its own decider's verdict, finds its fingerprint
        // taken and stores nothing: it misses again.
        let mut s = Schema::with_relations([("R", 2)]);
        let parse = |s: &mut Schema, text: &str| parser::parse_ucq(s, text).unwrap();
        let held = (
            parse(&mut s, "Q() :- R(u, v), R(u, w)"),
            parse(&mut s, "Q() :- R(u, v)"),
        );
        let asked = (
            parse(&mut s, "Q() :- R(u, v)"),
            parse(&mut s, "Q() :- R(u, v), R(v, w)"),
        );
        let b = SemiringId::from_name("B").unwrap();
        let key = |(q1, q2): &(Ucq, Ucq)| Cache::fingerprint(b, &ucq_code(q1), &ucq_code(q2));
        let cache = Cache::new();
        let (held_decision, _) = cache.get_or_decide(b, &held.0, &held.1, decide_with(b));
        assert_eq!(held_decision.decided(), Some(true));
        {
            let mut table = cache.lock();
            let entry = table.entries.remove(&key(&held)).expect("inserted");
            table.entries.insert(key(&asked), entry);
            table.ring = VecDeque::from([key(&asked)]);
        }
        for _ in 0..2 {
            let (decision, hit) = cache.get_or_decide(b, &asked.0, &asked.1, decide_with(b));
            assert!(!hit);
            assert_eq!(decision, decide_ucq_dyn(b, &asked.0, &asked.1));
            assert_eq!(decision.decided(), Some(false));
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.decides), (3, 3), "{stats:?}");
        assert_eq!((stats.inserts, stats.entries), (1, 1), "{stats:?}");
        assert_eq!(stats.inserts, stats.entries + stats.evictions, "{stats:?}");
    }

    #[test]
    fn a_hit_carries_the_verdict_and_method_but_no_witness() {
        // B's witness for `R(x, y), S(y)` ⊑ `S(u), R(t, u)` is u ↦ y, t ↦ x.
        // The variant `S(b), R(a, b)` numbers its variables b, a, so that
        // witness would send S(u) to S(a) and R(t, u) to R(b, a), neither an
        // atom of the variant: a hit must not hand it on.
        let mut s = Schema::new();
        let right = parser::parse_ucq(&mut s, "Q() :- S(u), R(t, u)").unwrap();
        let first = parser::parse_ucq(&mut s, "Q() :- R(x, y), S(y)").unwrap();
        let variant = parser::parse_ucq(&mut s, "Q() :- S(b), R(a, b)").unwrap();
        let witness = |images: [u32; 2]| {
            let mut map = VarMap::new(2);
            for (v, image) in images.into_iter().enumerate() {
                map.bind(QVar(v as u32), QVar(image));
            }
            Some(map)
        };
        let b = SemiringId::from_name("B").unwrap();
        let cache = Cache::new();
        let (missed, hit) = cache.get_or_decide(b, &first, &right, decide_with(b));
        assert!(!hit);
        assert_eq!(
            missed,
            decide_ucq_dyn(b, &first, &right),
            "a miss is the decider's"
        );
        assert_eq!(missed.witness, witness([1, 0]));
        let fresh = decide_ucq_dyn(b, &variant, &right);
        assert_eq!(fresh.witness, witness([0, 1]));
        let (found, hit) = cache.get_or_decide(b, &variant, &right, |_, _| panic!("cached"));
        assert!(hit);
        assert_eq!(
            found,
            Decision {
                witness: None,
                ..fresh
            }
        );
    }

    #[test]
    fn recently_hit_entries_survive_capacity_eviction() {
        // Pin the second-chance policy exactly: fill the budget with two
        // pairs, hit one, then insert a third.  The third is the arrival,
        // which the scan spares, the hit one gets its second chance, and
        // the unreferenced one must be the victim.
        let mut s = Schema::with_relations([("R", 2)]);
        let n = SemiringId::from_name("N").unwrap();
        let pairs = distinct_pairs(&mut s, 3);
        let one = pair_footprint(&pairs[0]);
        let cache = Cache::with_byte_budget(one * 2 + one / 2);
        let [(a1, a2), (b1, b2), (c1, c2)] = &pairs[..] else {
            unreachable!("three pairs");
        };
        cache.get_or_decide(n, a1, a2, decide_with(n)); // ring: [A]
        cache.get_or_decide(n, b1, b2, decide_with(n)); // ring: [A, B] — budget full
        let (_, hit) = cache.get_or_decide(n, a1, a2, |_, _| panic!("cached"));
        assert!(hit, "A is cached; the hit sets its second-chance bit");
        cache.get_or_decide(n, c1, c2, decide_with(n)); // over budget: evict one
        assert_eq!(cache.stats().evictions, 1);
        let (_, hit_a) = cache.get_or_decide(n, a1, a2, |_, _| panic!("A must survive"));
        assert!(hit_a, "the referenced entry gets its second chance");
        let (_, hit_c) = cache.get_or_decide(n, c1, c2, |_, _| panic!("C must survive"));
        assert!(hit_c, "the entry just inserted stays");
        let (_, hit_b) = cache.get_or_decide(n, b1, b2, decide_with(n));
        assert!(!hit_b, "the unreferenced entry was the victim");
        let stats = cache.stats();
        assert_eq!(stats.inserts, stats.entries + stats.evictions);
    }

    #[test]
    fn eviction_is_deterministic_for_a_fixed_operation_order() {
        // All eviction state sits under the one lock, so two identical
        // runs hit, miss and evict identically.
        let run = || {
            let mut s = Schema::with_relations([("R", 2)]);
            let pairs = distinct_pairs(&mut s, 10);
            let n = SemiringId::from_name("N").unwrap();
            let cache = Cache::with_byte_budget(pair_footprint(&pairs[0]) * 4);
            let order = [0, 1, 2, 3, 0, 4, 5, 1, 6, 0, 7, 8, 2, 9, 0, 3, 5];
            let hits: Vec<bool> = order
                .iter()
                .map(|&i| {
                    let (q1, q2) = &pairs[i];
                    cache.get_or_decide(n, q1, q2, decide_with(n)).1
                })
                .collect();
            (hits, cache.stats())
        };
        let (hits, stats) = run();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(hits.contains(&true), "{hits:?}");
        assert_eq!(run(), (hits, stats));
    }

    /// The eviction policy's reference: a second-chance ring over pair
    /// indices in which every entry takes one unit of budget.
    struct ClockModel {
        capacity: usize,
        /// `(pair, referenced)` in scan order.
        ring: VecDeque<(usize, bool)>,
    }

    impl ClockModel {
        /// Whether a request for `pair` hits.  A hit sets the pair's bit; a
        /// miss joins the back, then the front is popped until the ring is
        /// back within capacity: the arrival and every referenced pair go to
        /// the back with a clear bit, any other pair is evicted.
        fn request(&mut self, pair: usize) -> bool {
            if let Some(slot) = self.ring.iter_mut().find(|(p, _)| *p == pair) {
                slot.1 = true;
                return true;
            }
            self.ring.push_back((pair, false));
            while self.ring.len() > self.capacity {
                let (front, referenced) = self.ring.pop_front().expect("holds the arrival");
                if front == pair || referenced {
                    self.ring.push_back((front, false));
                }
            }
            false
        }
    }

    #[test]
    fn eviction_matches_a_reference_clock_on_a_skewed_stream() {
        // A seeded stream over 128 pairs, Zipf-skewed (pair i drawn with
        // weight 1/(i+1)), under budgets of 2 to 64 entries: every request
        // hits exactly when the model's does.
        let mut s = Schema::with_relations([("R", 2)]);
        let pairs = distinct_pairs(&mut s, 128);
        let one = pair_footprint(&pairs[0]);
        assert!(pairs.iter().all(|pair| pair_footprint(pair) == one));
        let n = SemiringId::from_name("N").unwrap();
        let cumulative: Vec<u64> = (1..=pairs.len() as u64)
            .scan(0, |sum, rank| {
                *sum += 1_000_000 / rank;
                Some(*sum)
            })
            .collect();
        let total = cumulative[pairs.len() - 1];
        let mut rng = StdRng::seed_from_u64(0x2718);
        for entries in [2, 3, 4, 8, 16, 32, 64] {
            let cache = Cache::with_byte_budget(one * entries as u64 + one / 2);
            let mut model = ClockModel {
                capacity: entries,
                ring: VecDeque::new(),
            };
            let mut hits = 0;
            for step in 0..600 {
                let drawn = rng.gen_range(0..total);
                let i = cumulative.partition_point(|&c| c <= drawn);
                let (q1, q2) = &pairs[i];
                let (_, hit) = cache.get_or_decide(n, q1, q2, decide_with(n));
                assert_eq!(
                    hit,
                    model.request(i),
                    "budget of {entries} entries, step {step}, pair {i}"
                );
                hits += hit as usize;
            }
            let stats = cache.stats();
            assert_eq!(stats.entries, model.ring.len() as u64, "{stats:?}");
            assert!(stats.evictions > 0 && hits > 0, "{stats:?}");
        }
    }
}

/// Exhaustive interleavings of concurrent requests on one cache, run with
/// `cargo test -p annot-service --features annot_loom` (the feature swaps
/// the cache's mutex onto the vendored loom shim).
#[cfg(all(test, feature = "annot_loom"))]
mod loom_model {
    use super::tests::{distinct_pairs, pair_footprint};
    use super::*;
    use crate::sync::thread;
    use annot_core::registry::decide_ucq_dyn;
    use annot_query::Schema;

    fn decide(q1: &Ucq, q2: &Ucq) -> Decision {
        decide_ucq_dyn(SemiringId::from_name("N").unwrap(), q1, q2)
    }

    /// Two clients insert beside a hit under a budget that fits one entry:
    /// one decides a fresh pair and re-requests it, the other decides a
    /// fresh pair of its own.  The two misses, the two inserts and their
    /// evictions race, and the re-request hits or, when the other insert
    /// evicted its entry, decides again.  In every schedule the tracked
    /// bytes end within the budget and equal to the live entries'
    /// footprints, the insert/evict books balance, each of the three
    /// requests counts once as a hit or a miss, and every reply is the
    /// decider's.
    #[test]
    fn inserts_beside_a_hit_keep_the_books_and_the_budget() {
        let n = SemiringId::from_name("N").unwrap();
        let [first, second] = <[_; 2]>::try_from(distinct_pairs(&mut Schema::new(), 2)).unwrap();
        let expected = (decide(&first.0, &first.1), decide(&second.0, &second.1));
        let one = pair_footprint(&first);
        assert_eq!(one, pair_footprint(&second));
        let budget = one + one / 2;
        loom::model(|| {
            let cache = Cache::with_byte_budget(budget);
            let request = |(q1, q2): &(Ucq, Ucq)| cache.get_or_decide(n, q1, q2, decide).0;
            let replies = thread::scope(|scope| {
                let repeat = scope.spawn(|| (request(&first), request(&first)));
                let other = scope.spawn(|| request(&second));
                (repeat.join().unwrap(), other.join().unwrap())
            });
            let want = ((expected.0.clone(), expected.0.clone()), expected.1.clone());
            assert_eq!(replies, want);
            let stats = cache.stats();
            assert!(stats.approx_bytes <= budget, "{stats:?}");
            assert_eq!(stats.approx_bytes, stats.entries * one, "{stats:?}");
            assert_eq!(stats.inserts, stats.entries + stats.evictions, "{stats:?}");
            assert_eq!(stats.hits + stats.misses, 3, "{stats:?}");
        });
    }

    /// Two clients race on the same fresh pair.  Both may miss and decide,
    /// but only the first to take the lock again inserts; a client that
    /// comes after the insert hits.  In every schedule each request counts
    /// once as a hit or a miss, every miss decides, one entry is stored,
    /// and both replies are the decider's; the schedules reach both one
    /// miss and two.
    #[test]
    fn racing_requests_on_one_fresh_pair_insert_once() {
        let n = SemiringId::from_name("N").unwrap();
        let [(q1, q2)] = <[_; 1]>::try_from(distinct_pairs(&mut Schema::new(), 1)).unwrap();
        let expected = decide(&q1, &q2);
        let misses_seen = std::cell::Cell::new([false; 3]);
        loom::model(|| {
            let cache = Cache::new();
            let request = || cache.get_or_decide(n, &q1, &q2, decide).0;
            let replies = thread::scope(|scope| {
                let a = scope.spawn(request);
                let b = scope.spawn(request);
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!(replies, (expected.clone(), expected.clone()));
            let stats = cache.stats();
            assert_eq!(stats.hits + stats.misses, 2, "{stats:?}");
            assert_eq!(stats.decides, stats.misses, "{stats:?}");
            assert_eq!(stats.inserts, stats.entries + stats.evictions, "{stats:?}");
            assert_eq!((stats.inserts, stats.entries), (1, 1), "{stats:?}");
            let mut seen = misses_seen.get();
            seen[stats.misses as usize] = true;
            misses_seen.set(seen);
        });
        assert_eq!(misses_seen.get(), [false, true, true]);
    }
}
