//! Concurrent cache stress: N client threads hammer an iso-renamed query
//! family through a server with a small cache byte budget, forcing
//! eviction churn while hits, misses and evictions race.
//!
//! The cache's one lock makes every `STATS` an exact snapshot, so after
//! each of its requests a client sees the tracked byte footprint within
//! the configured budget and entries = inserts − evictions.  Afterwards the
//! books must balance — every request was a hit or a miss and every miss
//! decided exactly once.

mod common;

use annot_service::{Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 60;
/// About 25 entries: small enough that the storm's 64 families must evict
/// to stay under it.
const BYTE_BUDGET: u64 = 16 * 1024;

/// One member of the iso-renamed family: the same triangle-ish shape over
/// relation `T<f>`, with variable names derived from `(client, i)` so no
/// two clients ever send byte-identical lines for a family — yet all
/// variants of a family are isomorphic and share one cache entry.
fn family_request(family: usize, client: usize, i: usize) -> String {
    let a = format!("v{client}_{i}_a");
    let b = format!("v{client}_{i}_b");
    let c = format!("v{client}_{i}_c");
    format!("DECIDE B Q() :- T{family}({a}, {b}), T{family}({b}, {c}) <= Q() :- T{family}(u, w)")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("receive");
        assert!(n > 0, "server closed the connection unexpectedly");
        reply.trim_end().to_string()
    }
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
fn eviction_churn_storm_balances_the_books_and_respects_the_budget() {
    let config = ServiceConfig {
        cache_byte_budget: BYTE_BUDGET,
        ..ServiceConfig::default()
    };
    let service = Service::with_config(config);

    common::serve_during(&service, CLIENTS, |addr| {
        std::thread::scope(|s| {
            let storm: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0xCAFE + client as u64);
                        let mut connection = Client::connect(addr);
                        for i in 0..REQUESTS_PER_CLIENT {
                            // Many families (eviction churn) but skewed so
                            // reuse — and therefore hits — happen too.
                            let family = if rng.gen_bool(0.5) {
                                rng.gen_range(0..4usize)
                            } else {
                                rng.gen_range(0..64usize)
                            };
                            let reply = connection.roundtrip(&family_request(family, client, i));
                            assert!(
                                reply.starts_with("OK "),
                                "client {client} request {i}: {reply}"
                            );
                            // Mid-storm, every snapshot is within the budget
                            // and balances inserts against the entries and
                            // evictions.
                            let stats = connection.roundtrip("STATS");
                            assert!(
                                stat_u64(&stats, "approx_bytes") <= BYTE_BUDGET,
                                "footprint after client {client} request {i} exceeds \
                                 the byte budget {BYTE_BUDGET}: {stats}"
                            );
                            assert_eq!(
                                stat_u64(&stats, "inserts"),
                                stat_u64(&stats, "entries") + stat_u64(&stats, "evictions"),
                                "books after client {client} request {i}: {stats}"
                            );
                        }
                        connection.roundtrip("QUIT")
                    })
                })
                .collect();
            for worker in storm {
                assert_eq!(worker.join().expect("storm client"), "OK bye");
            }
        });

        // Post-storm, the server is quiescent: every client joined after
        // its QUIT was answered, so all counters are settled.
        let mut probe = Client::connect(addr);
        let stats = probe.roundtrip("STATS");
        let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
        let hits = stat_u64(&stats, "hits");
        let misses = stat_u64(&stats, "misses");
        let decides = stat_u64(&stats, "decides");
        let inserts = stat_u64(&stats, "inserts");
        let entries = stat_u64(&stats, "entries");
        let evictions = stat_u64(&stats, "evictions");
        let approx_bytes = stat_u64(&stats, "approx_bytes");

        assert_eq!(hits + misses, total, "every request hit or missed: {stats}");
        assert_eq!(decides, misses, "every miss decided exactly once: {stats}");
        assert!(hits > 0, "the skewed families must produce hits: {stats}");
        assert!(
            inserts <= misses,
            "at most one insert per miss (racing same-pair inserts lose): {stats}"
        );
        assert_eq!(
            entries,
            inserts - evictions,
            "hit+miss+eviction bookkeeping balances: {stats}"
        );
        assert!(
            evictions > 0,
            "the storm must have forced evictions: {stats}"
        );
        assert!(
            approx_bytes <= BYTE_BUDGET,
            "post-storm footprint {approx_bytes} exceeds the byte budget {BYTE_BUDGET}: {stats}"
        );

        assert_eq!(probe.roundtrip("SHUTDOWN"), "OK shutting-down");
    });
}
