//! `service_smoke` — the CI smoke test for the decision server.
//!
//! Three phases, each against a real TCP server on an ephemeral port:
//!
//! 1. **Exact-counter session** (eviction disabled — the default config, so
//!    the counters are pinned): a `DECIDE` miss, an α-renamed iso-cache
//!    *hit*, a different-semiring miss, a parse error, an unknown
//!    semiring, `STATS` with exact hit/miss/decide counters plus per-shard
//!    occupancy, then `QUIT`/`SHUTDOWN`.
//! 2. **Eviction session**: a server with a tiny shard capacity and byte
//!    budget is fed distinct query pairs until it must evict; `STATS` must
//!    report evictions, balanced bookkeeping
//!    (`inserts = entries + evictions`), and an `approx_bytes` within the
//!    configured budget.
//! 3. **Batch session**: the same 100 `DECIDE`s are run serially (one
//!    round trip each) and then as one `BATCH 100` (a single round trip —
//!    write everything, then collect the tagged replies and `DONE`).  The
//!    batched session must complete in measurably fewer round trips,
//!    where a round trip is a submit-then-wait-for-reply cycle.
//!
//! Exits non-zero (panics) on any mismatch; prints `service-smoke: PASS`
//! on success.

use annot_service::{serve, CacheConfig, Service, ServiceConfig, ShutdownFlag};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Submit-then-wait cycles this client has performed.
    round_trips: usize,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            round_trips: 0,
        }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
        self.writer.flush().expect("flush");
        self.round_trips += 1;
        self.read_reply()
    }

    /// Submits a whole batch in one write (one round trip) and returns the
    /// tagged replies in arrival order plus the `DONE` line.
    fn batch(&mut self, items: &[String]) -> (Vec<String>, String) {
        let mut payload = format!("BATCH {}\n", items.len());
        for item in items {
            payload.push_str(item);
            payload.push('\n');
        }
        self.writer
            .write_all(payload.as_bytes())
            .expect("send batch");
        self.writer.flush().expect("flush batch");
        self.round_trips += 1;
        let mut replies = Vec::with_capacity(items.len());
        for _ in 0..items.len() {
            replies.push(self.read_reply());
        }
        let done = self.read_reply();
        (replies, done)
    }

    fn read_reply(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("receive");
        reply.trim_end().to_string()
    }
}

fn expect_prefix(reply: &str, prefix: &str, what: &str) {
    assert!(
        reply.starts_with(prefix),
        "{what}: expected reply starting with {prefix:?}, got {reply:?}"
    );
}

/// Extracts one `key=value` field from a `STATS` reply.
fn stat_field<'a>(reply: &'a str, key: &str) -> &'a str {
    let prefix = format!("{key}=");
    reply
        .split_whitespace()
        .find_map(|word| word.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("STATS reply lacks {key}=: {reply}"))
}

fn stat_u64(reply: &str, key: &str) -> u64 {
    stat_field(reply, key)
        .parse()
        .unwrap_or_else(|_| panic!("STATS field {key} is not a number: {reply}"))
}

/// Runs `session` against a freshly served `Service`, then shuts the
/// server down (the session must leave a connected client unused for
/// that, so sessions end with `SHUTDOWN` themselves).
fn with_server(config: ServiceConfig, session: impl FnOnce(SocketAddr, &Service)) -> Service {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let service = Service::with_config(config);
    let shutdown = ShutdownFlag::new();
    annot_core::sync::thread::scope(|s| {
        s.spawn(|| serve(&listener, &service, &shutdown, 2));
        session(addr, &service);
    });
    service
}

/// Phase 1: the PR 8 scripted session.  Default config — no eviction —
/// so every counter is exact.
fn exact_counter_session() {
    let service = with_server(ServiceConfig::default(), |addr, _| {
        let mut client = Client::connect(addr);
        expect_prefix(&client.roundtrip("PING"), "OK pong", "ping");

        // 1. Cold request: Example 4.6 over Why[X] — not contained, miss.
        let miss =
            client.roundtrip("DECIDE Why Q() :- R(u, v), R(u, w) \u{2291} Q() :- R(u, v), R(u, v)");
        expect_prefix(&miss, "OK not-contained miss", "cold decide");

        // 2. Isomorphic repeat (renamed variables, reordered atoms, ASCII
        //    sign, alias casing): must be served from the cache.
        let hit =
            client.roundtrip("DECIDE why[x] Q() :- R(a, c), R(a, b) <= Q() :- R(p, q), R(p, q)");
        expect_prefix(&hit, "OK not-contained hit", "iso repeat");

        // 3. Same pair over another semiring: its own entry, and over B the
        //    verdict flips.
        let other =
            client.roundtrip("DECIDE Bool Q() :- R(u, v), R(u, w) <= Q() :- R(u, v), R(u, v)");
        expect_prefix(&other, "OK contained miss", "different semiring");

        // 4. Parse error (unbalanced parenthesis): a structured ERR, and the
        //    request's own schema dies with it.
        let bad = client.roundtrip("DECIDE Why Q() :- R(x <= Q() :- R(x, y)");
        expect_prefix(&bad, "ERR left query:", "parse error");

        // 5. Unknown semiring.
        let unknown = client.roundtrip("DECIDE Banana Q() :- R(x, y) <= Q() :- R(x, y)");
        expect_prefix(&unknown, "ERR unknown semiring", "unknown semiring");

        // 6. Counters: exactly one hit, two misses, two decider runs, no
        //    evictions (unbounded config) — plus the per-shard occupancy
        //    and byte estimate.
        let stats = client.roundtrip("STATS");
        expect_prefix(&stats, "OK stats ", "stats after the scripted session");
        for (key, expected) in [
            ("hits", 1u64),
            ("misses", 2),
            ("decides", 2),
            ("inserts", 2),
            ("entries", 2),
            ("evictions", 0),
            ("overloads", 0),
            ("busy", 0),
        ] {
            assert_eq!(stat_u64(&stats, key), expected, "stats counter {key}");
        }
        let approx = stat_u64(&stats, "approx_bytes");
        assert!(approx > 0, "two cached entries must occupy bytes: {stats}");
        let shards: Vec<u64> = stat_field(&stats, "shards")
            .split(',')
            .map(|c| c.parse().expect("shard count"))
            .collect();
        assert_eq!(shards.len(), 64, "one occupancy count per shard");
        assert_eq!(
            shards.iter().sum::<u64>(),
            2,
            "shard occupancy must sum to entries: {stats}"
        );

        // A second connection sees the same cache: another iso-variant hit.
        let mut second = Client::connect(addr);
        let cross =
            second.roundtrip("DECIDE WHY Q() :- R(k, m), R(k, n) <= Q() :- R(s, t), R(s, t)");
        expect_prefix(&cross, "OK not-contained hit", "cross-connection hit");

        // 7. Orderly exit.
        expect_prefix(&client.roundtrip("QUIT"), "OK bye", "quit");
        expect_prefix(
            &second.roundtrip("SHUTDOWN"),
            "OK shutting-down",
            "shutdown",
        );
    });
    let stats = service.cache().stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.decides),
        (2, 2, 2),
        "final counters"
    );
    println!("service-smoke: exact-counter session OK");
}

/// Phase 2: a tiny-capacity server must evict under distinct-query churn
/// and keep its tracked footprint within the byte budget.
fn eviction_session() {
    const BUDGET: u64 = 8 * 1024;
    let config = ServiceConfig {
        cache: CacheConfig {
            shard_capacity: Some(2),
            ttl: None,
            byte_budget: Some(BUDGET),
        },
        ..ServiceConfig::default()
    };
    with_server(config, |addr, _| {
        let mut client = Client::connect(addr);
        // 48 pairwise non-isomorphic pairs (distinct relation names), so
        // every request is a genuine miss + insert.
        for i in 0..48 {
            let reply = client.roundtrip(&format!(
                "DECIDE B Q() :- E{i}(x, y), E{i}(y, z) <= Q() :- E{i}(u, v)"
            ));
            expect_prefix(&reply, "OK ", "eviction-churn decide");
        }
        let stats = client.roundtrip("STATS");
        let evictions = stat_u64(&stats, "evictions");
        assert!(evictions > 0, "churn past the bounds must evict: {stats}");
        assert_eq!(
            stat_u64(&stats, "inserts"),
            stat_u64(&stats, "entries") + evictions,
            "eviction bookkeeping must balance: {stats}"
        );
        let approx = stat_u64(&stats, "approx_bytes");
        assert!(
            approx <= BUDGET,
            "tracked footprint {approx} exceeds the byte budget {BUDGET}: {stats}"
        );
        expect_prefix(
            &client.roundtrip("SHUTDOWN"),
            "OK shutting-down",
            "shutdown",
        );
    });
    println!("service-smoke: eviction session OK");
}

/// Phase 3: 100 `DECIDE`s serially vs. as one batch.  The batch must use
/// measurably fewer round trips (here: 1 vs. 100).
fn batch_session() {
    let requests: Vec<String> = (0..100)
        .map(|i| format!("DECIDE B Q() :- S{i}(x, y) <= Q() :- S{i}(u, u)"))
        .collect();
    with_server(ServiceConfig::default(), |addr, _| {
        // Serial baseline: one round trip per request.
        let mut serial = Client::connect(addr);
        for request in &requests {
            expect_prefix(&serial.roundtrip(request), "OK ", "serial decide");
        }
        let serial_round_trips = serial.round_trips;
        assert_eq!(serial_round_trips, 100);

        // Batched: the same 100 requests, one submit.
        let mut batched = Client::connect(addr);
        let (replies, done) = batched.batch(&requests);
        assert_eq!(done, "DONE 100", "batch terminator");
        let mut seen = vec![false; requests.len()];
        for reply in &replies {
            let (seq, rest) = reply
                .split_once(' ')
                .unwrap_or_else(|| panic!("untagged batch reply: {reply:?}"));
            let seq: usize = seq
                .parse()
                .unwrap_or_else(|_| panic!("batch reply tag is not a sequence number: {reply:?}"));
            expect_prefix(rest, "OK ", "batched decide");
            assert!(!seen[seq], "sequence {seq} answered twice");
            seen[seq] = true;
        }
        assert!(seen.iter().all(|&s| s), "every batch item answered");
        let batched_round_trips = batched.round_trips;
        assert_eq!(batched_round_trips, 1);
        assert!(
            batched_round_trips * 10 <= serial_round_trips,
            "a batched session must need measurably fewer round trips \
             ({batched_round_trips} vs {serial_round_trips})"
        );
        println!(
            "service-smoke: batch of {} completed in {batched_round_trips} round trip(s) \
             vs {serial_round_trips} serial",
            requests.len()
        );

        let stats = batched.roundtrip("STATS");
        assert_eq!(stat_u64(&stats, "batches"), 1, "one batch processed");
        // The batched pass re-ran the same pairs: all 100 must hit.
        assert_eq!(
            stat_u64(&stats, "hits"),
            100,
            "batched repeats hit: {stats}"
        );
        expect_prefix(
            &batched.roundtrip("SHUTDOWN"),
            "OK shutting-down",
            "shutdown",
        );
    });
    println!("service-smoke: batch session OK");
}

fn main() {
    exact_counter_session();
    eviction_session();
    batch_session();
    println!("service-smoke: PASS");
}
