//! In-process integration test: the real TCP server, a scripted session —
//! exact counters under the default config, whose budget the session
//! never fills, a tiny-budget scenario that must evict, and a `BATCH` of
//! repeats that must all hit.

mod common;

use annot_service::{Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim_end().to_string()
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn stat_u64(reply: &str, key: &str) -> u64 {
    let prefix = format!("{key}=");
    reply
        .split_whitespace()
        .find_map(|w| w.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("STATS reply lacks {key}=: {reply}"))
        .parse()
        .unwrap_or_else(|_| panic!("STATS field {key} is not a number: {reply}"))
}

#[test]
fn tcp_session_hits_the_iso_cache_across_connections() {
    // Default config: the session never fills the budget, so every
    // counter below is exact.
    let service = Service::new();

    common::serve_during(&service, 2, |addr| {
        let (mut c1, mut r1) = connect(addr);
        assert_eq!(roundtrip(&mut c1, &mut r1, "PING"), "OK pong");
        let miss = roundtrip(
            &mut c1,
            &mut r1,
            "DECIDE N[X] Q() :- R(u, v), R(u, w) \u{2291} Q() :- R(u, v), R(u, v)",
        );
        assert!(miss.starts_with("OK not-contained miss"), "{miss}");

        // A different connection, an α-renamed pair, the NatPoly alias:
        // answered from the shared cache.
        let (mut c2, mut r2) = connect(addr);
        let hit = roundtrip(
            &mut c2,
            &mut r2,
            "DECIDE NatPoly Q() :- R(a, b), R(a, c) <= Q() :- R(x, y), R(x, y)",
        );
        assert!(hit.starts_with("OK not-contained hit"), "{hit}");

        // Malformed and unknown-semiring requests answer ERR and leave the
        // connection usable.
        let err = roundtrip(&mut c2, &mut r2, "DECIDE N[X] oops");
        assert!(err.starts_with("ERR"), "{err}");
        let err = roundtrip(
            &mut c2,
            &mut r2,
            "DECIDE Banana Q() :- R(x, y) <= Q() :- R(x, y)",
        );
        assert!(err.starts_with("ERR unknown semiring"), "{err}");
        let stats = roundtrip(&mut c2, &mut r2, "STATS");
        assert!(stats.starts_with("OK stats "), "{stats}");
        for (key, expected) in [
            ("hits", 1u64),
            ("misses", 1),
            ("decides", 1),
            ("inserts", 1),
            ("entries", 1),
            ("evictions", 0),
            ("overloads", 0),
            ("busy", 0),
            ("batches", 0),
        ] {
            assert_eq!(stat_u64(&stats, key), expected, "stats counter {key}");
        }
        assert!(stat_u64(&stats, "approx_bytes") > 0, "{stats}");

        assert_eq!(roundtrip(&mut c1, &mut r1, "QUIT"), "OK bye");
        assert_eq!(roundtrip(&mut c2, &mut r2, "SHUTDOWN"), "OK shutting-down");
    });

    let stats = service.cache().stats();
    assert_eq!((stats.hits, stats.misses, stats.decides), (1, 1, 1));
}

#[test]
fn tiny_capacity_session_evicts_and_stays_within_budget() {
    const BUDGET: u64 = 4 * 1024;
    let service = Service::with_config(ServiceConfig {
        cache_byte_budget: BUDGET,
        ..ServiceConfig::default()
    });

    common::serve_during(&service, 1, |addr| {
        let (mut c, mut r) = connect(addr);
        // 32 pairwise non-isomorphic pairs: every one a miss + insert.
        for i in 0..32 {
            let reply = roundtrip(
                &mut c,
                &mut r,
                &format!("DECIDE B Q() :- V{i}(x, y), V{i}(y, z) <= Q() :- V{i}(u, v)"),
            );
            assert!(reply.starts_with("OK "), "{reply}");
        }
        let stats = roundtrip(&mut c, &mut r, "STATS");
        assert_eq!(stat_u64(&stats, "misses"), 32, "{stats}");
        let evictions = stat_u64(&stats, "evictions");
        assert!(
            evictions > 0,
            "bounded cache under churn must evict: {stats}"
        );
        assert_eq!(
            stat_u64(&stats, "inserts"),
            stat_u64(&stats, "entries") + evictions,
            "eviction bookkeeping balances: {stats}"
        );
        assert!(
            stat_u64(&stats, "approx_bytes") <= BUDGET,
            "footprint must respect the byte budget: {stats}"
        );
        // An evicted pair decides again on re-request — still a valid
        // reply, counted as a fresh miss.
        let again = roundtrip(
            &mut c,
            &mut r,
            "DECIDE B Q() :- V0(x, y), V0(y, z) <= Q() :- V0(u, v)",
        );
        assert!(again.starts_with("OK "), "{again}");
        assert_eq!(roundtrip(&mut c, &mut r, "SHUTDOWN"), "OK shutting-down");
    });
}

#[test]
fn batched_repeats_hit_and_every_item_is_answered_once() {
    let requests: Vec<String> = (0..100)
        .map(|i| format!("DECIDE B Q() :- S{i}(x, y) <= Q() :- S{i}(u, u)"))
        .collect();
    let service = Service::new();

    common::serve_during(&service, 2, |addr| {
        // Warm the cache with the 100 pairs, one request at a time.
        let (mut serial, mut serial_reader) = connect(addr);
        for request in &requests {
            let reply = roundtrip(&mut serial, &mut serial_reader, request);
            assert!(reply.starts_with("OK "), "{reply}");
        }

        // The same 100 requests as one batch, written in one go.
        let (mut batched, mut reader) = connect(addr);
        let mut payload = format!("BATCH {}\n", requests.len());
        for request in &requests {
            payload.push_str(request);
            payload.push('\n');
        }
        batched.write_all(payload.as_bytes()).unwrap();
        batched.flush().unwrap();
        let mut seen = vec![false; requests.len()];
        for _ in 0..requests.len() {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let (seq, rest) = (reply.trim_end().split_once(' '))
                .unwrap_or_else(|| panic!("untagged batch reply: {reply:?}"));
            let seq: usize = seq
                .parse()
                .unwrap_or_else(|_| panic!("batch reply tag is not a sequence number: {reply:?}"));
            assert!(rest.starts_with("OK "), "{reply}");
            assert!(!seen[seq], "sequence {seq} answered twice");
            seen[seq] = true;
        }
        let mut done = String::new();
        reader.read_line(&mut done).unwrap();
        assert_eq!(done.trim_end(), "DONE 100", "batch terminator");
        assert!(seen.iter().all(|&s| s), "every batch item answered");

        let stats = roundtrip(&mut batched, &mut reader, "STATS");
        assert_eq!(
            stat_u64(&stats, "batches"),
            1,
            "one batch processed: {stats}"
        );
        assert_eq!(
            stat_u64(&stats, "hits"),
            100,
            "batched repeats hit: {stats}"
        );
        assert_eq!(
            roundtrip(&mut batched, &mut reader, "SHUTDOWN"),
            "OK shutting-down"
        );
    });
}
