//! Protocol fuzz tests: seeded randomized malformed, truncated, oversized
//! and interleaved request lines, first through the parser alone and then
//! through a real TCP connection.
//!
//! The server contract under fire: never panic, always answer a
//! structured single-line reply (`OK …`, `ERR …`, `OVERLOAD …`), and
//! let no failed parse leak relations into later requests.
//!
//! Deterministic: every generator is driven by `StdRng::seed_from_u64`
//! (the vendored offline rand shim), so a failure reproduces exactly.

mod common;

use annot_service::{parse_request, Request, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Bytes we splice random lines from: protocol fragments, query syntax,
/// whitespace, digits, a containment sign, some unicode.
const ALPHABET: &[&str] = &[
    "DECIDE",
    "BATCH",
    "STATS",
    "PING",
    "QUIT",
    "SHUTDOWN",
    "Why",
    "B",
    "N[X]",
    "Q()",
    ":-",
    "R(x, y)",
    "S(u)",
    "R(x",
    "y)",
    "<=",
    "\u{2291}",
    ",",
    ";",
    "(",
    ")",
    " ",
    "\t",
    "0",
    "7",
    "-3",
    "18446744073709551616",
    "λ",
    "…",
    "!=",
    // The query lexer's edge cases: Unicode whitespace, empty literals and
    // arguments, identifier characters, a dangling head and a reflexive
    // inequality.
    "\u{a0}",
    "\u{2003}",
    ",,",
    "R( )",
    "R(x,)",
    "x'",
    "_y",
    "Q(x) :-",
    "x != x",
];

fn random_line(rng: &mut StdRng) -> String {
    let pieces = rng.gen_range(0..12usize);
    let mut line = String::new();
    for _ in 0..pieces {
        line.push_str(ALPHABET[rng.gen_range(0..ALPHABET.len())]);
        if rng.gen_bool(0.3) {
            line.push(' ');
        }
    }
    if rng.gen_bool(0.1) {
        // Truncate to simulate cut lines (pop is char-boundary-safe).
        let keep = rng.gen_range(0..=line.len());
        while line.len() > keep {
            line.pop();
        }
    }
    line.retain(|c| c != '\n' && c != '\r');
    line
}

#[test]
fn parser_never_panics_on_random_lines() {
    let mut rng = StdRng::seed_from_u64(0xF0221);
    let mut ok = 0usize;
    let mut err = 0usize;
    for _ in 0..20_000 {
        let line = random_line(&mut rng);
        match parse_request(&line) {
            Ok(_) => ok += 1,
            Err(message) => {
                err += 1;
                assert!(!message.is_empty(), "errors must explain themselves");
            }
        }
    }
    // The alphabet is verb-rich on purpose: both branches must be hit for
    // the fuzz to mean anything.
    assert!(ok > 0, "generator never built a valid request");
    assert!(err > 0, "generator never built an invalid request");
}

#[test]
fn parser_handles_adversarial_shapes() {
    // Hand-picked nasties alongside the random storm.
    for line in [
        "",
        " ",
        "\t\t",
        "DECIDE",
        "DECIDE ",
        "DECIDE Why",
        "DECIDE Why <=",
        "DECIDE Why Q() :- R(x) <=",
        "DECIDE Why <= Q() :- R(x)",
        "BATCH",
        "BATCH 0",
        "BATCH -1",
        "BATCH 18446744073709551616",
        "BATCH 3 extra",
        "DECIDE Why Q() :- R(x) <= Q() :- R(x) <= Q() :- R(x)",
        "DECIDE \u{2291} \u{2291} \u{2291}",
        "pingpong",
        "DECIDEWhy Q() :- R(x) <= Q() :- R(x)",
    ] {
        // Must not panic; Ok or Err are both acceptable shapes here.
        drop(parse_request(line));
    }
    // The double-sign line splits at the FIRST sign.
    match parse_request("DECIDE Why Q() :- R(x) <= Q() :- R(x) <= Q() :- R(x)") {
        Ok(Request::Decide { q2, .. }) => assert!(q2.contains("<=")),
        other => panic!("unexpected parse: {other:?}"),
    }
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
        self.read_reply()
    }

    fn read_reply(&mut self) -> String {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).expect("receive");
        assert!(n > 0, "server closed the connection unexpectedly");
        reply.trim_end().to_string()
    }
}

fn structured(reply: &str) -> bool {
    reply.starts_with("OK ")
        || reply == "OK"
        || reply.starts_with("ERR ")
        || reply.starts_with("OVERLOAD ")
        || reply.starts_with("BUSY ")
}

fn with_server(config: ServiceConfig, session: impl FnOnce(SocketAddr)) {
    let service = Service::with_config(config);
    common::serve_during(&service, 2, |addr| {
        session(addr);
        let mut finisher = Client::connect(addr);
        assert_eq!(finisher.roundtrip("SHUTDOWN"), "OK shutting-down");
    });
}

/// Whether a line would change the connection's framing or lifetime —
/// those are excluded from the one-line-one-reply storm (batches get
/// their own fuzz below, QUIT/SHUTDOWN their own tests elsewhere).
fn changes_framing(line: &str) -> bool {
    matches!(
        parse_request(line),
        Ok(Request::Batch { .. }) | Ok(Request::Quit) | Ok(Request::Shutdown)
    )
}

#[test]
fn server_survives_a_random_line_storm_and_keeps_the_schema_clean() {
    let config = ServiceConfig {
        max_line_bytes: 256, // small, so the storm also exercises the cap
        ..ServiceConfig::default()
    };
    with_server(config, |addr| {
        let mut client = Client::connect(addr);
        // Canary 1: register R at arity 2 before the storm.
        let before = client.roundtrip("DECIDE B Q() :- R(x, y) <= Q() :- R(u, u)");
        assert!(before.starts_with("OK "), "{before}");

        let mut rng = StdRng::seed_from_u64(0xF0222);
        for i in 0..2_000 {
            let mut line = random_line(&mut rng);
            if rng.gen_bool(0.05) {
                // Oversized: blow straight past max_line_bytes.
                line = format!("DECIDE Why {}", "x".repeat(300));
            }
            if rng.gen_bool(0.03) {
                // A malformed parse that *would* register relation FZ at
                // arity 3 if parsing were not transactional.
                line = "DECIDE B Q() :- FZ(x, y, z), R(x <= Q() :- R(a, b)".to_string();
            }
            if changes_framing(&line) {
                continue;
            }
            let reply = client.roundtrip(&line);
            assert!(
                structured(&reply),
                "storm line {i} {line:?} got unstructured reply {reply:?}"
            );
        }

        // Raw invalid UTF-8 gets a structured error too.
        client
            .writer
            .write_all(b"DECIDE \xFF\xFE B\n")
            .expect("send");
        client.writer.flush().expect("flush");
        let garbage = client.read_reply();
        assert_eq!(garbage, "ERR request is not valid UTF-8");

        // Canary 1 still answers: the storm left R usable at arity 2.
        let after = client.roundtrip("DECIDE B Q() :- R(p, q) <= Q() :- R(m, m)");
        assert!(after.starts_with("OK "), "{after}");
        // Canary 2: FZ must NOT have leaked from the failed parses — a
        // fresh use at a different arity is the proof.
        let fz = client.roundtrip("DECIDE B Q() :- FZ(a) <= Q() :- FZ(b)");
        assert!(
            fz.starts_with("OK "),
            "failed parses leaked FZ into the schema: {fz}"
        );
    });
}

#[test]
fn batch_framing_survives_randomly_malformed_items() {
    with_server(ServiceConfig::default(), |addr| {
        let mut client = Client::connect(addr);
        let mut rng = StdRng::seed_from_u64(0xF0223);
        for round in 0..40 {
            let count = rng.gen_range(1..12usize);
            let mut payload = format!("BATCH {count}\n");
            for _ in 0..count {
                let mut item = random_line(&mut rng);
                if changes_framing(&item) {
                    item = "PING".to_string(); // framing verbs answer a tagged ERR anyway
                }
                payload.push_str(&item);
                payload.push('\n');
            }
            client.writer.write_all(payload.as_bytes()).expect("send");
            client.writer.flush().expect("flush");
            let mut seen = vec![false; count];
            for _ in 0..count {
                let reply = client.read_reply();
                let (seq, rest) = reply
                    .split_once(' ')
                    .unwrap_or_else(|| panic!("round {round}: untagged batch reply {reply:?}"));
                let seq: usize = seq
                    .parse()
                    .unwrap_or_else(|_| panic!("round {round}: non-numeric sequence in {reply:?}"));
                assert!(!seen[seq], "round {round}: sequence {seq} answered twice");
                seen[seq] = true;
                assert!(
                    structured(rest),
                    "round {round}: unstructured batch reply {reply:?}"
                );
            }
            assert_eq!(client.read_reply(), format!("DONE {count}"));
        }
        // The connection is still in line mode after all those batches.
        assert_eq!(client.roundtrip("PING"), "OK pong");
    });
}
