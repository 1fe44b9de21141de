//! The iso-canonical semantic cache, bounded by one byte budget.
//!
//! Containment decisions are keyed by the *canonical form of the query
//! pair up to isomorphism*: a request for `Q₁ ⊑ Q₂` over semiring `K`
//! hits the cache whenever an α-renamed / atom-reordered /
//! disjunct-reordered variant of the same pair was decided before.  The
//! key is exact: an entry holds the semiring and the canonical codes of
//! both queries ([`annot_query::key::ucq_code`], equal exactly for
//! isomorphic queries, relations spelled by name and arity), and a lookup
//! compares them word for word.  A 64-bit fingerprint of the three only
//! picks the shard and the bucket; colliding fingerprints share a bucket
//! and never an answer.
//!
//! The map is sharded: each shard is its own mutex-guarded table, picked
//! by key, so concurrent decisions on different pairs rarely contend.
//! Decisions are computed *outside* the shard lock — a duplicated compute
//! when two clients race on the same fresh pair is benign (both arrive at
//! the same [`Decision`]), a decider running under a shard lock would
//! serialise the server.
//!
//! ## The byte budget and eviction
//!
//! A cached decision never goes stale: it is a fixed function of the
//! semiring's Table 1 row and the isomorphism class of the query pair.  So
//! memory is the only reason to drop one, and the cache has one bound, a
//! global byte budget that is always on ([`DEFAULT_BYTE_BUDGET`] unless the
//! caller picks another).  The per-entry footprint that `STATS` reports as
//! `approx_bytes` (the entry struct plus its code words) is also the
//! enforcement input: after every insert the cache evicts, round-robin
//! across shards and one shard lock at a time, until the tracked total is
//! at or under the budget.  An entry larger than the whole budget is never
//! stored; it counts as one insert and one eviction, so the identity
//! `inserts = entries + evictions` holds whenever the cache is quiescent.
//!
//! Each shard evicts by the classic second-chance (CLOCK) ring: a new
//! entry joins the back of the shard's ring, and a hit sets the entry's
//! `referenced` bit.  The evictor pops the ring front; a referenced entry
//! loses its bit and goes to the back, and the first unreferenced entry is
//! evicted.  This is O(1) amortised with no per-hit reordering, and, since
//! all of it runs under the shard mutex, deterministic for a fixed order
//! of operations.

use annot_core::decide::Decision;
use annot_core::registry::SemiringId;
use annot_core::sync::atomic::{AtomicU64, Ordering};
use annot_core::sync::{Mutex, PoisonError};
use annot_query::key::{hash64, ucq_code};
use annot_query::Ucq;
use std::collections::{HashMap, VecDeque};

/// Number of independently locked shards.  A small power of two well above
/// the worker count keeps contention negligible without wasting memory.
const NUM_SHARDS: usize = 64;

/// The byte budget of [`Cache::new`] and of the default server: 64 MiB,
/// about 100,000 entries at the ~660 bytes a typical entry takes.
pub const DEFAULT_BYTE_BUDGET: u64 = 64 << 20;

/// One cached decision: the question it answers (semiring and canonical
/// codes of both queries), the decision, and the eviction bookkeeping.
struct Entry {
    semiring: SemiringId,
    code1: Box<[u64]>,
    code2: Box<[u64]>,
    decision: Decision,
    /// Shard-unique id linking this entry to its ring slot.
    id: u64,
    /// Second-chance bit: set on every hit, cleared (once) by the
    /// eviction scan before the entry becomes a victim.
    referenced: bool,
}

/// One shard: the fingerprint-keyed table plus the second-chance ring.
/// All fields are guarded by the shard mutex.
struct Shard {
    table: HashMap<u64, Vec<Entry>>,
    /// `(fingerprint, entry id)` of every entry in the shard, in the
    /// CLOCK scan's order.  Entries leave the table only through the scan,
    /// so every slot names a live entry.
    ring: VecDeque<(u64, u64)>,
    /// Source of shard-unique entry ids.
    next_id: u64,
}

/// Counter snapshot returned by [`Cache::stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that missed and ran a decider.
    pub misses: u64,
    /// Decider executions.  Every miss runs the decider, so this equals
    /// [`CacheStats::misses`].
    pub decides: u64,
    /// Decisions admitted to the cache.  When two requests race on the
    /// same fresh pair, both decide but only the first inserts; the other
    /// finds the entry and stores nothing.  At quiescence `inserts =
    /// entries + evictions`.
    pub inserts: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries evicted to keep within the byte budget, including entries
    /// larger than the whole budget, which are evicted as they arrive.
    pub evictions: u64,
    /// Entries per shard, indexed by shard number — the load-balance view
    /// of the fingerprint distribution.  Sums to [`CacheStats::entries`].
    pub shard_entries: Vec<u64>,
    /// Approximate bytes held by the cached entries: the entry structs plus
    /// their code words.  A capacity-planning number — and the byte-budget
    /// enforcement input — not an allocator audit.
    pub approx_bytes: u64,
}

/// The sharded semantic cache.
pub struct Cache {
    byte_budget: u64,
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    decides: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    /// Tracked total of every live entry's footprint — the byte-budget
    /// enforcement input and the `STATS.approx_bytes` source.
    bytes: AtomicU64,
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
            shards: (0..NUM_SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        table: HashMap::new(),
                        ring: VecDeque::new(),
                        next_id: 0,
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            decides: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The fingerprint of a request: semiring + canonical codes of the
    /// (ordered) query pair.  It picks the shard and the bucket only.
    fn fingerprint(semiring: SemiringId, c1: &[u64], c2: &[u64]) -> u64 {
        let name: Vec<u64> = semiring.name().bytes().map(u64::from).collect();
        let mut words = Vec::with_capacity(c1.len() + c2.len() + 2);
        words.push(hash64(&name));
        words.push(c1.len() as u64);
        words.extend_from_slice(c1);
        words.extend_from_slice(c2);
        hash64(&words)
    }

    /// Returns the cached decision for an isomorphic variant of
    /// `(semiring, q1, q2)`, or runs `decide` and caches its result.
    /// The second component reports whether this was a cache hit.
    pub fn get_or_decide(
        &self,
        semiring: SemiringId,
        q1: &Ucq,
        q2: &Ucq,
        decide: impl FnOnce(&Ucq, &Ucq) -> Decision,
    ) -> (Decision, bool) {
        let (c1, c2) = (ucq_code(q1), ucq_code(q2));
        let key = Self::fingerprint(semiring, &c1, &c2);
        let shard_index = (key as usize) % NUM_SHARDS;
        let shard = &self.shards[shard_index];
        let cached = Self::lookup(&mut self.lock(shard), key, semiring, &c1, &c2);
        if let Some(found) = cached {
            // relaxed: monotonic statistics counter, no ordering needed
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (found, true);
        }
        // relaxed: monotonic statistics counter, no ordering needed
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Decide outside the lock; see the module docs for the race note.
        let decision = decide(q1, q2);
        // relaxed: monotonic statistics counter, no ordering needed
        self.decides.fetch_add(1, Ordering::Relaxed);
        let entry_bytes = entry_footprint(&c1, &c2);
        if entry_bytes > self.byte_budget {
            // Storing it would evict every other entry and then itself:
            // count the insert and its eviction, store nothing.
            // relaxed: monotonic statistics counters, no ordering needed
            self.inserts.fetch_add(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            return (decision, false);
        }
        {
            let mut guard = self.lock(shard);
            if Self::lookup(&mut guard, key, semiring, &c1, &c2).is_some() {
                return (decision, false); // a racing request inserted first
            }
            let id = guard.next_id;
            guard.next_id += 1;
            guard.table.entry(key).or_default().push(Entry {
                semiring,
                code1: c1.into_boxed_slice(),
                code2: c2.into_boxed_slice(),
                decision: decision.clone(),
                id,
                referenced: false,
            });
            guard.ring.push_back((key, id));
            // relaxed: monotonic statistics counters, no ordering needed
            self.inserts.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(entry_bytes, Ordering::Relaxed);
        }
        self.enforce_byte_budget(shard_index);
        (decision, false)
    }

    /// Evicts one entry from `shard` by the second-chance scan: the ring
    /// front goes unless a hit referenced it since its last turn, in which
    /// case it loses the bit and moves to the back.  Returns `false` when
    /// the shard is empty.  Caller holds the shard lock.
    fn evict_one(&self, shard: &mut Shard) -> bool {
        // Each entry moves to the back at most once before its bit is
        // clear, so the scan ends within two laps of the ring.
        while let Some((key, id)) = shard.ring.pop_front() {
            let Some(bucket) = shard.table.get_mut(&key) else {
                continue;
            };
            let Some(pos) = bucket.iter().position(|e| e.id == id) else {
                continue;
            };
            if bucket[pos].referenced {
                bucket[pos].referenced = false;
                shard.ring.push_back((key, id));
                continue;
            }
            let entry = bucket.swap_remove(pos);
            if bucket.is_empty() {
                shard.table.remove(&key);
            }
            let freed = entry_footprint(&entry.code1, &entry.code2);
            // relaxed: monotonic statistics counters, no ordering needed
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Brings the tracked byte total back under the budget by evicting
    /// round-robin across shards, starting at the shard just inserted
    /// into.  One shard lock at a time — never two, so no ordering cycle.
    /// Stops early when a full round frees nothing (all remaining bytes
    /// belong to entries raced in by concurrent inserts, each of which
    /// runs its own enforcement after its insert).
    fn enforce_byte_budget(&self, start: usize) {
        // relaxed: approximate pressure reading; the loop re-reads it
        while self.bytes.load(Ordering::Relaxed) > self.byte_budget {
            let mut freed_any = false;
            for offset in 0..NUM_SHARDS {
                // relaxed: approximate pressure reading
                if self.bytes.load(Ordering::Relaxed) <= self.byte_budget {
                    return;
                }
                let shard = &self.shards[(start + offset) % NUM_SHARDS];
                freed_any |= self.evict_one(&mut self.lock(shard));
            }
            if !freed_any {
                return;
            }
        }
    }

    fn lookup(
        shard: &mut Shard,
        key: u64,
        semiring: SemiringId,
        c1: &[u64],
        c2: &[u64],
    ) -> Option<Decision> {
        shard.table.get_mut(&key).and_then(|bucket| {
            bucket
                .iter_mut()
                .find(|e| e.semiring == semiring && *e.code1 == *c1 && *e.code2 == *c2)
                .map(|e| {
                    e.referenced = true; // second chance for the evictor
                    e.decision.clone()
                })
        })
    }

    fn lock<'a>(&self, shard: &'a Mutex<Shard>) -> annot_core::sync::MutexGuard<'a, Shard> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A consistent-enough snapshot of the counters (each counter is read
    /// atomically; the set is not).  The entry count walks the shards one
    /// lock at a time — `STATS` is rare, and holding one shard briefly
    /// never blocks decisions on the others.
    pub fn stats(&self) -> CacheStats {
        let shard_entries: Vec<u64> = self
            .shards
            .iter()
            .map(|shard| self.lock(shard).ring.len() as u64)
            .collect();
        CacheStats {
            // relaxed: statistics snapshot, approximate by design
            hits: self.hits.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            misses: self.misses.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            decides: self.decides.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: shard_entries.iter().sum(),
            // relaxed: statistics snapshot, approximate by design
            evictions: self.evictions.load(Ordering::Relaxed),
            shard_entries,
            // relaxed: statistics snapshot, approximate by design
            approx_bytes: self.bytes.load(Ordering::Relaxed),
        }
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
    use annot_query::{parser, Schema};

    fn decide_with(semiring: SemiringId) -> impl Fn(&Ucq, &Ucq) -> Decision {
        move |a: &Ucq, b: &Ucq| decide_ucq_dyn(semiring, a, b)
    }

    /// `count` pairwise non-isomorphic (pair-wise distinct as *pairs*)
    /// query pairs: the same small shape over `count` distinct relation
    /// symbols, so every pair is its own cache entry, every entry has the
    /// same byte footprint, and every decide stays cheap (3 variables —
    /// growing the queries instead would hand the worst-case-exponential
    /// deciders an exponentially growing job).
    fn distinct_pairs(s: &mut Schema, count: usize) -> Vec<(Ucq, Ucq)> {
        (0..count)
            .map(|i| {
                let q1 = parser::parse_ucq(s, &format!("Q() :- C{i}(x, y), C{i}(y, z)")).unwrap();
                let q2 = parser::parse_ucq(s, &format!("Q() :- C{i}(u, v)")).unwrap();
                (q1, q2)
            })
            .collect()
    }

    /// The footprint every pair of [`distinct_pairs`] takes.
    fn pair_footprint(pair: &(Ucq, Ucq)) -> u64 {
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
    fn stats_report_shard_occupancy_and_bytes() {
        let cache = Cache::new();
        let empty = cache.stats();
        assert_eq!(empty.shard_entries, vec![0; NUM_SHARDS]);
        assert_eq!(empty.approx_bytes, 0);

        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v)").unwrap();
        let n = SemiringId::from_name("N").unwrap();
        cache.get_or_decide(n, &q1, &q2, decide_with(n));
        cache.get_or_decide(n, &q2, &q1, decide_with(n));

        let stats = cache.stats();
        assert_eq!(stats.shard_entries.len(), NUM_SHARDS);
        assert_eq!(stats.entries, 2);
        assert_eq!(
            stats.shard_entries.iter().sum::<u64>(),
            stats.entries,
            "per-shard occupancy must sum to the entry counter"
        );
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
    fn recently_hit_entries_survive_capacity_eviction() {
        // Pin the second-chance policy exactly: find three pairs that
        // land in the SAME shard (by probing the fingerprints, so no
        // hashing luck is involved), fill the budget with two of them, hit
        // one, then insert the third — the sweep starts at that shard, and
        // the unreferenced entry must be the victim.
        let mut s = Schema::with_relations([("R", 2)]);
        let n = SemiringId::from_name("N").unwrap();
        let pairs = distinct_pairs(&mut s, 256);
        let one = pair_footprint(&pairs[0]);
        let cache = Cache::with_byte_budget(one * 2 + one / 2);
        let mut by_shard: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut colliding: Option<Vec<usize>> = None;
        for (i, (q1, q2)) in pairs.iter().enumerate() {
            let key = Cache::fingerprint(n, &ucq_code(q1), &ucq_code(q2));
            let shard = (key as usize) % NUM_SHARDS;
            let bucket = by_shard.entry(shard).or_default();
            bucket.push(i);
            if bucket.len() == 3 {
                colliding = Some(bucket.clone());
                break;
            }
        }
        let idx = colliding.expect("256 distinct pairs must collide 3-deep in some shard");
        let (a1, a2) = &pairs[idx[0]];
        let (b1, b2) = &pairs[idx[1]];
        let (c1, c2) = &pairs[idx[2]];
        cache.get_or_decide(n, a1, a2, decide_with(n)); // shard: [A]
        cache.get_or_decide(n, b1, b2, decide_with(n)); // shard: [A, B] — budget full
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
        // All eviction state sits under the shard locks, so two identical
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
}
