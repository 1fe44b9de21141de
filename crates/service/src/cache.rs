//! The iso-canonical semantic cache, bounded for long-lived processes.
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
//! ## Bounds and eviction
//!
//! A long-lived server cannot let the shards grow without bound, so the
//! cache takes a [`CacheConfig`] with three independent, all-optional
//! limits:
//!
//! * **per-shard capacity** — each shard holds at most `shard_capacity`
//!   entries; inserting past it evicts via a CLOCK-style second-chance
//!   scan (below);
//! * **TTL** — entries older than `ttl` *logical ticks* are expired
//!   lazily: on any probe of their bucket, and preferentially during
//!   eviction scans;
//! * **global byte budget** — the per-entry footprint that `STATS`
//!   reports as `approx_bytes` (the entry struct plus its code words) is
//!   also the *enforcement input*:
//!   after every insert the cache evicts (round-robin across shards,
//!   one lock at a time) until the tracked total is at or under
//!   `byte_budget`.  An entry that alone exceeds the budget is never
//!   cached at all.
//!
//! Time is a [`LogicalClock`] from the `annot_core::sync` facade — one
//! tick per decision request, never a wall clock — so a fixed operation
//! sequence ages and evicts identically on every run, and the clock's
//! atomics are schedulable by the vendored loom model checker like any
//! other facade primitive.
//!
//! The eviction policy is the classic second-chance ring: every shard
//! keeps its entries in an insertion-ordered ring; a hit sets the entry's
//! `referenced` bit; the evictor pops the ring front, expires TTL-stale
//! entries outright, grants one more round to referenced entries
//! (clearing the bit, pushing them to the back), and evicts the first
//! unreferenced entry it meets.  O(1) amortised, no per-hit reordering,
//! and — because all state is under the shard mutex and aged by the
//! logical clock — deterministic for a fixed operation order.

use annot_core::decide::Decision;
use annot_core::registry::SemiringId;
use annot_core::sync::atomic::{AtomicU64, Ordering};
use annot_core::sync::clock::LogicalClock;
use annot_core::sync::{Mutex, PoisonError};
use annot_query::key::{hash64, ucq_code};
use annot_query::Ucq;
use std::collections::{HashMap, VecDeque};

/// Number of independently locked shards.  A small power of two well above
/// the worker count keeps contention negligible without wasting memory.
const NUM_SHARDS: usize = 64;

/// Size/age limits for the cache.  Every field is optional; the default
/// (`CacheConfig::default()`) is the unbounded PR 8 behaviour, which the
/// exact-counter smoke tests pin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum entries per shard (`None` = unbounded).  The whole cache
    /// holds at most `64 × shard_capacity` entries.
    pub shard_capacity: Option<usize>,
    /// Entry time-to-live in logical ticks (`None` = entries never
    /// expire).  The clock advances once per decision request.
    pub ttl: Option<u64>,
    /// Global cap on the tracked approximate byte footprint (`None` =
    /// unbounded).  Enforced after every insert; `STATS.approx_bytes`
    /// reports the same tracked number.
    pub byte_budget: Option<u64>,
}

/// One cached decision: the question it answers (semiring and canonical
/// codes of both queries), the decision, and the eviction bookkeeping.
struct Entry {
    semiring: SemiringId,
    code1: Box<[u64]>,
    code2: Box<[u64]>,
    decision: Decision,
    /// Shard-unique id linking this entry to its ring slot.
    id: u64,
    /// Tick at insertion — the TTL reference point.
    stamp: u64,
    /// Precomputed footprint estimate (entry struct + code words).
    bytes: u64,
    /// Second-chance bit: set on every hit, cleared (once) by the
    /// eviction scan before the entry becomes a victim.
    referenced: bool,
}

/// Why an eviction scan was started — selects the counter to bump for a
/// non-expired victim.  (A TTL-expired victim always counts as expired,
/// whatever triggered the scan.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvictReason {
    /// Shard was over its entry capacity.
    Capacity,
    /// The global byte budget was exceeded.
    Bytes,
}

/// One shard: the fingerprint-keyed table plus the second-chance ring.
/// All fields are guarded by the shard mutex.
struct Shard {
    table: HashMap<u64, Vec<Entry>>,
    /// Insertion-ordered `(fingerprint, entry id)` ring for the CLOCK
    /// scan.  Slots whose entry was already removed are skipped lazily.
    ring: VecDeque<(u64, u64)>,
    /// Source of shard-unique entry ids.
    next_id: u64,
    /// Live entries in this shard (ring slots may be stale; this is not).
    entries: u64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            table: HashMap::new(),
            ring: VecDeque::new(),
            next_id: 0,
            entries: 0,
        }
    }
}

/// Counter snapshot returned by [`Cache::stats`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that missed and ran a decider.
    pub misses: u64,
    /// Decider executions (== misses, minus races that lost the insert).
    pub decides: u64,
    /// Entries ever inserted (`entries + evictions` at quiescence; racing
    /// same-pair inserts lose and do not count).
    pub inserts: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries evicted for shard-capacity pressure.
    pub evicted_capacity: u64,
    /// Entries expired by the TTL.
    pub evicted_expired: u64,
    /// Entries evicted (or refused at insert) by the global byte budget.
    pub evicted_bytes: u64,
    /// Current logical tick (one per decision request).
    pub ticks: u64,
    /// Entries per shard, indexed by shard number — the load-balance view
    /// of the fingerprint distribution.  Sums to [`CacheStats::entries`].
    pub shard_entries: Vec<u64>,
    /// Approximate bytes held by the cached entries: the entry structs plus
    /// their code words.  A capacity-planning number — and the byte-budget
    /// enforcement input — not an allocator audit.
    pub approx_bytes: u64,
}

impl CacheStats {
    /// Total evictions, all reasons.
    pub fn evictions(&self) -> u64 {
        self.evicted_capacity + self.evicted_expired + self.evicted_bytes
    }
}

/// The sharded semantic cache.
pub struct Cache {
    config: CacheConfig,
    shards: Vec<Mutex<Shard>>,
    clock: LogicalClock,
    hits: AtomicU64,
    misses: AtomicU64,
    decides: AtomicU64,
    inserts: AtomicU64,
    entries: AtomicU64,
    evicted_capacity: AtomicU64,
    evicted_expired: AtomicU64,
    evicted_bytes: AtomicU64,
    /// Tracked total of every live entry's `bytes` — the byte-budget
    /// enforcement input and the `STATS.approx_bytes` source.
    bytes: AtomicU64,
}

impl Cache {
    /// An empty, unbounded cache (the PR 8 behaviour).
    pub fn new() -> Cache {
        Cache::with_config(CacheConfig::default())
    }

    /// An empty cache under the given limits.
    pub fn with_config(config: CacheConfig) -> Cache {
        Cache {
            config,
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            clock: LogicalClock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            decides: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            evicted_capacity: AtomicU64::new(0),
            evicted_expired: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The limits this cache enforces.
    pub fn config(&self) -> &CacheConfig {
        &self.config
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
    ///
    /// Each call advances the logical clock by one tick; TTL expiry in the
    /// probed bucket happens before the lookup, so an expired entry is
    /// never served.
    pub fn get_or_decide(
        &self,
        semiring: SemiringId,
        q1: &Ucq,
        q2: &Ucq,
        decide: impl FnOnce(&Ucq, &Ucq) -> Decision,
    ) -> (Decision, bool) {
        let now = self.clock.advance();
        let (c1, c2) = (ucq_code(q1), ucq_code(q2));
        let key = Self::fingerprint(semiring, &c1, &c2);
        let shard_index = (key as usize) % NUM_SHARDS;
        let shard = &self.shards[shard_index];
        {
            let mut guard = self.lock(shard);
            self.expire_bucket(&mut guard, key, now);
            if let Some(found) = Self::lookup(&mut guard, key, semiring, &c1, &c2) {
                // relaxed: monotonic statistics counter, no ordering needed
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (found, true);
            }
        }
        // relaxed: monotonic statistics counter, no ordering needed
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Decide outside the lock; see the module docs for the race note.
        let decision = decide(q1, q2);
        // relaxed: monotonic statistics counter, no ordering needed
        self.decides.fetch_add(1, Ordering::Relaxed);
        let entry_bytes = entry_footprint(&c1, &c2);
        if self.config.byte_budget.is_some_and(|b| entry_bytes > b) {
            // A single entry larger than the whole budget can never be
            // held without busting it — refuse to cache, count it.
            // relaxed: monotonic statistics counter, no ordering needed
            self.evicted_bytes.fetch_add(1, Ordering::Relaxed);
            return (decision, false);
        }
        {
            let mut guard = self.lock(shard);
            self.expire_bucket(&mut guard, key, now);
            if Self::lookup(&mut guard, key, semiring, &c1, &c2).is_none() {
                let id = guard.next_id;
                guard.next_id += 1;
                guard.table.entry(key).or_default().push(Entry {
                    semiring,
                    code1: c1.into_boxed_slice(),
                    code2: c2.into_boxed_slice(),
                    decision: decision.clone(),
                    id,
                    stamp: now,
                    bytes: entry_bytes,
                    referenced: false,
                });
                guard.ring.push_back((key, id));
                guard.entries += 1;
                // relaxed: monotonic statistics counters, no ordering needed
                self.inserts.fetch_add(1, Ordering::Relaxed);
                self.entries.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(entry_bytes, Ordering::Relaxed);
                if let Some(cap) = self.config.shard_capacity {
                    while guard.entries as usize > cap {
                        if self
                            .evict_one(&mut guard, now, EvictReason::Capacity)
                            .is_none()
                        {
                            break;
                        }
                    }
                }
            }
        }
        self.enforce_byte_budget(shard_index, now);
        (decision, false)
    }

    /// Removes TTL-expired entries from the bucket about to be probed, so
    /// stale decisions are never served and the counters see the expiry.
    fn expire_bucket(&self, shard: &mut Shard, key: u64, now: u64) {
        let Some(ttl) = self.config.ttl else {
            return;
        };
        let Some(bucket) = shard.table.get_mut(&key) else {
            return;
        };
        let before = bucket.len();
        let mut freed = 0u64;
        bucket.retain(|e| {
            if now.saturating_sub(e.stamp) >= ttl {
                freed += e.bytes;
                false
            } else {
                true
            }
        });
        let expired = (before - bucket.len()) as u64;
        if bucket.is_empty() {
            shard.table.remove(&key);
        }
        if expired > 0 {
            shard.entries -= expired;
            // relaxed: monotonic statistics counters, no ordering needed
            self.evicted_expired.fetch_add(expired, Ordering::Relaxed);
            self.entries.fetch_sub(expired, Ordering::Relaxed);
            self.bytes.fetch_sub(freed, Ordering::Relaxed);
        }
    }

    /// Evicts one entry from `shard` via the second-chance scan: ring
    /// front first, TTL-expired entries unconditionally, referenced
    /// entries spared once.  Returns the freed byte estimate, or `None`
    /// when the shard is empty.  Caller holds the shard lock.
    fn evict_one(&self, shard: &mut Shard, now: u64, reason: EvictReason) -> Option<u64> {
        // Each live entry is popped at most twice (once to clear its
        // referenced bit, once to evict), and stale slots are consumed,
        // so the scan terminates; the explicit bound documents it.
        let mut budget = 2 * shard.ring.len() + 1;
        while budget > 0 {
            budget -= 1;
            let (key, id) = shard.ring.pop_front()?;
            let Some(bucket) = shard.table.get_mut(&key) else {
                continue; // stale slot: the whole bucket is gone
            };
            let Some(pos) = bucket.iter().position(|e| e.id == id) else {
                continue; // stale slot: this entry is gone
            };
            let expired = self
                .config
                .ttl
                .is_some_and(|ttl| now.saturating_sub(bucket[pos].stamp) >= ttl);
            if !expired && bucket[pos].referenced {
                bucket[pos].referenced = false;
                shard.ring.push_back((key, id));
                continue;
            }
            let entry = bucket.swap_remove(pos);
            if bucket.is_empty() {
                shard.table.remove(&key);
            }
            shard.entries -= 1;
            let counter = if expired {
                &self.evicted_expired
            } else {
                match reason {
                    EvictReason::Capacity => &self.evicted_capacity,
                    EvictReason::Bytes => &self.evicted_bytes,
                }
            };
            // relaxed: monotonic statistics counters, no ordering needed
            counter.fetch_add(1, Ordering::Relaxed);
            self.entries.fetch_sub(1, Ordering::Relaxed);
            self.bytes.fetch_sub(entry.bytes, Ordering::Relaxed);
            return Some(entry.bytes);
        }
        None
    }

    /// Brings the tracked byte total back under the budget by evicting
    /// round-robin across shards, starting at the shard just inserted
    /// into.  One shard lock at a time — never two, so no ordering cycle.
    /// Stops early when a full round frees nothing (all remaining bytes
    /// belong to entries raced in by concurrent inserts, each of which
    /// runs its own enforcement after its insert).
    fn enforce_byte_budget(&self, start: usize, now: u64) {
        let Some(budget) = self.config.byte_budget else {
            return;
        };
        // relaxed: approximate pressure reading; the loop re-reads it
        while self.bytes.load(Ordering::Relaxed) > budget {
            let mut freed_any = false;
            for offset in 0..NUM_SHARDS {
                // relaxed: approximate pressure reading
                if self.bytes.load(Ordering::Relaxed) <= budget {
                    return;
                }
                let shard = &self.shards[(start + offset) % NUM_SHARDS];
                let mut guard = self.lock(shard);
                if self
                    .evict_one(&mut guard, now, EvictReason::Bytes)
                    .is_some()
                {
                    freed_any = true;
                }
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
    /// atomically; the set is not).  The per-shard occupancy walks the
    /// shards one lock at a time — `STATS` is rare, and holding one shard
    /// briefly never blocks decisions on the others.
    pub fn stats(&self) -> CacheStats {
        let mut shard_entries = Vec::with_capacity(NUM_SHARDS);
        for shard in &self.shards {
            shard_entries.push(self.lock(shard).entries);
        }
        CacheStats {
            // relaxed: statistics snapshot, approximate by design
            hits: self.hits.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            misses: self.misses.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            decides: self.decides.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            inserts: self.inserts.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            entries: self.entries.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            evicted_capacity: self.evicted_capacity.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            evicted_expired: self.evicted_expired.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            ticks: self.clock.now(),
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
        assert_eq!(stats.evictions(), 0, "unbounded cache never evicts");
        assert_eq!(stats.ticks, 2, "one tick per request");
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
        let one = entry_footprint(&ucq_code(&pairs[0].0), &ucq_code(&pairs[0].1));
        let budget = one * 2 + one / 2;
        let cache = Cache::with_config(CacheConfig {
            byte_budget: Some(budget),
            ..CacheConfig::default()
        });
        for (q1, q2) in &pairs {
            cache.get_or_decide(n, q1, q2, decide_with(n));
            assert!(
                cache.stats().approx_bytes <= budget,
                "tracked bytes {} broke the budget {budget}",
                cache.stats().approx_bytes
            );
        }
        let stats = cache.stats();
        assert!(stats.evicted_bytes > 0, "churn must evict: {stats:?}");
        assert_eq!(
            stats.inserts,
            stats.entries + stats.evictions(),
            "insert/evict bookkeeping must balance: {stats:?}"
        );
    }

    #[test]
    fn an_entry_larger_than_the_whole_budget_is_never_cached() {
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let cache = Cache::with_config(CacheConfig {
            byte_budget: Some(8), // smaller than any entry
            ..CacheConfig::default()
        });
        let n = SemiringId::from_name("N").unwrap();
        let (_, hit) = cache.get_or_decide(n, &q1, &q2, decide_with(n));
        assert!(!hit);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.approx_bytes, 0);
        assert_eq!(stats.evicted_bytes, 1, "the refusal is counted");
        // The same request decides again — nothing was cached.
        let (_, hit) = cache.get_or_decide(n, &q1, &q2, decide_with(n));
        assert!(!hit);
        assert_eq!(cache.stats().decides, 2);
    }

    #[test]
    fn shard_capacity_bounds_every_shard() {
        let mut s = Schema::with_relations([("R", 2)]);
        let pairs = distinct_pairs(&mut s, 16);
        let n = SemiringId::from_name("N").unwrap();
        let cache = Cache::with_config(CacheConfig {
            shard_capacity: Some(1),
            ..CacheConfig::default()
        });
        for (q1, q2) in &pairs {
            cache.get_or_decide(n, q1, q2, decide_with(n));
            let stats = cache.stats();
            assert!(
                stats.shard_entries.iter().all(|&c| c <= 1),
                "a shard broke its capacity: {:?}",
                stats.shard_entries
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.inserts, 16);
        assert_eq!(stats.inserts, stats.entries + stats.evictions());
    }

    #[test]
    fn recently_hit_entries_survive_capacity_eviction() {
        // Pin the second-chance policy exactly: find three pairs that
        // land in the SAME shard (by probing the fingerprints, so no
        // hashing luck is involved), fill the shard, hit one entry, then
        // overflow — the unreferenced entry must be the victim.
        let mut s = Schema::with_relations([("R", 2)]);
        let n = SemiringId::from_name("N").unwrap();
        let cache = Cache::with_config(CacheConfig {
            shard_capacity: Some(2),
            ..CacheConfig::default()
        });
        let pairs = distinct_pairs(&mut s, 256);
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
        cache.get_or_decide(n, b1, b2, decide_with(n)); // shard: [A, B] — full
        let (_, hit) = cache.get_or_decide(n, a1, a2, |_, _| panic!("cached"));
        assert!(hit, "A is cached; the hit sets its second-chance bit");
        cache.get_or_decide(n, c1, c2, decide_with(n)); // overflow: evict one
        let (_, hit_a) = cache.get_or_decide(n, a1, a2, |_, _| panic!("A must survive"));
        assert!(hit_a, "the referenced entry gets its second chance");
        let (_, hit_b) = cache.get_or_decide(n, b1, b2, decide_with(n));
        assert!(!hit_b, "the unreferenced entry was the victim");
        let stats = cache.stats();
        assert!(stats.evicted_capacity >= 1, "{stats:?}");
        assert_eq!(stats.inserts, stats.entries + stats.evictions());
    }

    #[test]
    fn ttl_expires_entries_on_later_probes() {
        let mut s = Schema::with_relations([("R", 2)]);
        let q1 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, w)").unwrap();
        let q2 = parser::parse_ucq(&mut s, "Q() :- R(u, v), R(u, v)").unwrap();
        let n = SemiringId::from_name("N").unwrap();
        let cache = Cache::with_config(CacheConfig {
            ttl: Some(3),
            ..CacheConfig::default()
        });
        cache.get_or_decide(n, &q1, &q2, decide_with(n)); // tick 1, stamp 1
        let (_, hit) = cache.get_or_decide(n, &q1, &q2, |_, _| panic!("cached")); // tick 2
        assert!(hit, "within the TTL the entry serves");
        // Advance time with unrelated requests (distinct pair).
        let r1 = parser::parse_ucq(&mut s, "Q() :- R(a, b)").unwrap();
        let r2 = parser::parse_ucq(&mut s, "Q() :- R(c, d), R(d, c)").unwrap();
        cache.get_or_decide(n, &r1, &r2, decide_with(n)); // tick 3
        cache.get_or_decide(n, &r1, &r2, |_, _| panic!("cached")); // tick 4
                                                                   // tick 5: 5 - 1 >= 3 — the original entry is expired, re-decided.
        let (_, hit) = cache.get_or_decide(n, &q1, &q2, decide_with(n));
        assert!(!hit, "expired entries must not serve");
        let stats = cache.stats();
        assert!(
            stats.evicted_expired >= 1,
            "expiry must be counted: {stats:?}"
        );
        assert_eq!(stats.inserts, stats.entries + stats.evictions());
    }

    #[test]
    fn eviction_is_deterministic_for_a_fixed_operation_order() {
        // Logical time ⇒ two identical runs age and evict identically.
        let run = || {
            let mut s = Schema::with_relations([("R", 2)]);
            let pairs = distinct_pairs(&mut s, 10);
            let n = SemiringId::from_name("N").unwrap();
            let cache = Cache::with_config(CacheConfig {
                shard_capacity: Some(1),
                ttl: Some(4),
                byte_budget: Some(4096),
            });
            for (q1, q2) in pairs.iter().chain(pairs.iter()) {
                cache.get_or_decide(n, q1, q2, decide_with(n));
            }
            let stats = cache.stats();
            (
                stats.hits,
                stats.misses,
                stats.inserts,
                stats.entries,
                stats.evicted_capacity,
                stats.evicted_expired,
                stats.evicted_bytes,
                stats.shard_entries.clone(),
            )
        };
        assert_eq!(run(), run());
    }
}
