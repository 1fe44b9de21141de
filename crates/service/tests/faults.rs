//! Fault-injection tests: clients that misbehave at the transport level.
//!
//! Each scenario wounds the server in a specific way — disconnect
//! mid-request, a half-written batch, a slow-loris drip and a stalled batch
//! against the read timeout, a zero read timeout, connections past the
//! cap — and then asserts the server still answers cleanly and its `STATS`
//! counters stayed consistent.

mod common;

use annot_service::{serve, Service, ServiceConfig, ShutdownFlag};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Stdio;
use std::time::{Duration, Instant};

/// How long a client waits for a reply before the test fails instead of
/// hanging on a server that lost its workers.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("client timeout");
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

fn stat_u64(reply: &str, key: &str) -> u64 {
    let prefix = format!("{key}=");
    reply
        .split_whitespace()
        .find_map(|w| w.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("STATS reply lacks {key}=: {reply}"))
        .parse()
        .unwrap_or_else(|_| panic!("STATS field {key} is not a number: {reply}"))
}

/// The cross-counter invariants every quiescent `STATS` must satisfy.
fn assert_consistent(stats: &str) {
    assert!(stats.starts_with("OK stats "), "{stats}");
    let hits = stat_u64(stats, "hits");
    let misses = stat_u64(stats, "misses");
    let decides = stat_u64(stats, "decides");
    let inserts = stat_u64(stats, "inserts");
    let entries = stat_u64(stats, "entries");
    let evictions = stat_u64(stats, "evictions");
    assert_eq!(decides, misses, "every miss decides exactly once: {stats}");
    assert!(inserts <= misses, "at most one insert per miss: {stats}");
    assert_eq!(
        entries,
        inserts - evictions,
        "entry count balances inserts minus evictions: {stats}"
    );
    let _ = hits; // hits has no standalone invariant beyond being reported
}

fn with_server(config: ServiceConfig, workers: usize, session: impl FnOnce(SocketAddr)) {
    let service = Service::with_config(config);
    common::serve_during(&service, workers, |addr| {
        session(addr);
        // Under a connection cap the session's last connection may still
        // hold its slot when the finisher connects: retry a BUSY refusal.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut finisher = Client::connect(addr);
            let reply = finisher.roundtrip("SHUTDOWN");
            if reply == "OK shutting-down" {
                break;
            }
            assert!(
                reply.starts_with("BUSY") && Instant::now() < deadline,
                "unexpected reply to SHUTDOWN: {reply:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    });
}

#[test]
fn disconnect_mid_request_leaves_the_server_serving() {
    with_server(ServiceConfig::default(), 2, |addr| {
        // A client writes half a request — no newline — and vanishes.
        let mut half = TcpStream::connect(addr).expect("connect");
        half.write_all(b"DECIDE Why Q() :- R(x, y")
            .expect("half write");
        drop(half);

        // Another hangs up after the newline but before reading its reply.
        let mut rude = TcpStream::connect(addr).expect("connect");
        rude.write_all(b"DECIDE B Q() :- Rude(x, y) <= Q() :- Rude(u, u)\n")
            .expect("full write");
        drop(rude);

        // The server still answers, and the half-written DECIDE (never
        // newline-terminated) was never executed: only the rude client's
        // request can have counted.  The rude client's decide may still be
        // in flight when we probe, so poll until the counters quiesce.
        let mut probe = Client::connect(addr);
        assert_eq!(probe.roundtrip("PING"), "OK pong");
        let deadline = Instant::now() + Duration::from_secs(10);
        let stats = loop {
            let stats = probe.roundtrip("STATS");
            if stat_u64(&stats, "decides") == stat_u64(&stats, "misses") {
                break stats;
            }
            assert!(
                Instant::now() < deadline,
                "counters never quiesced: {stats}"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_consistent(&stats);
        assert!(
            stat_u64(&stats, "decides") <= 1,
            "the unterminated request must not have decided: {stats}"
        );
    });
}

#[test]
fn half_written_batch_is_transactional() {
    with_server(ServiceConfig::default(), 2, |addr| {
        // Prime a baseline so the assertion below is about deltas.
        let mut probe = Client::connect(addr);
        let before = probe.roundtrip("STATS");
        assert_eq!(stat_u64(&before, "decides"), 0);

        // Promise five items, deliver two, hang up.
        let mut flaky = TcpStream::connect(addr).expect("connect");
        flaky
            .write_all(b"BATCH 5\nDECIDE B Q() :- Hw1(x, y) <= Q() :- Hw1(u, u)\nPING\n")
            .expect("partial batch");
        drop(flaky);

        // The framing is transactional at the transport level: the batch
        // never completed, so NOTHING from it may execute — not now, not
        // later.  (No sleep needed: `run_batch` collects all items before
        // executing any, and the EOF aborts the collection.)
        std::thread::sleep(Duration::from_millis(100));
        let stats = probe.roundtrip("STATS");
        assert_consistent(&stats);
        assert_eq!(
            stat_u64(&stats, "decides"),
            0,
            "a truncated batch must execute nothing: {stats}"
        );
        assert_eq!(stat_u64(&stats, "batches"), 0, "{stats}");

        // A complete batch on a healthy connection still works afterwards.
        let mut good = Client::connect(addr);
        good.writer
            .write_all(b"BATCH 2\nPING\nPING\n")
            .expect("send batch");
        good.writer.flush().expect("flush");
        let mut replies = vec![good.read_reply(), good.read_reply()];
        replies.sort();
        assert_eq!(replies, vec!["0 OK pong", "1 OK pong"]);
        assert_eq!(good.read_reply(), "DONE 2");
    });
}

#[test]
fn slow_loris_is_cut_by_the_read_timeout() {
    let config = ServiceConfig {
        read_timeout: Some(Duration::from_millis(150)),
        ..ServiceConfig::default()
    };
    with_server(config, 2, |addr| {
        let started = Instant::now();
        let mut loris = TcpStream::connect(addr).expect("connect");
        // Drip half a request, then stall forever (from the server's view).
        loris.write_all(b"DECIDE Why Q() :-").expect("drip");
        loris.flush().expect("flush");
        // The server must cut us off: first a structured notice, then EOF.
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("client timeout");
        let mut buf = String::new();
        let mut reader = BufReader::new(loris);
        reader.read_line(&mut buf).expect("read notice");
        assert_eq!(buf.trim_end(), "ERR timeout: closing idle connection");
        buf.clear();
        let eof = reader.read_line(&mut buf).expect("read eof");
        assert_eq!(eof, 0, "connection must be closed after the notice");
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "the timeout must fire promptly, not hang a worker"
        );

        // The worker freed by the timeout serves the next client.
        let mut probe = Client::connect(addr);
        assert_eq!(probe.roundtrip("PING"), "OK pong");
        assert_consistent(&probe.roundtrip("STATS"));
    });
}

#[test]
fn a_batch_stalled_past_the_read_timeout_gets_the_timeout_notice() {
    let config = ServiceConfig {
        read_timeout: Some(Duration::from_millis(150)),
        ..ServiceConfig::default()
    };
    with_server(config, 2, |addr| {
        // Promise three items, deliver one, then stall with the socket open.
        let mut staller = TcpStream::connect(addr).expect("connect");
        staller
            .write_all(b"BATCH 3\nPING\n")
            .expect("partial batch");
        staller.flush().expect("flush");
        // The server must cut the stalled batch off like a stalled request:
        // first the notice, untagged and without DONE, then EOF.
        staller
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("client timeout");
        let mut reader = BufReader::new(staller);
        let mut buf = String::new();
        reader.read_line(&mut buf).expect("read notice");
        assert_eq!(buf.trim_end(), "ERR timeout: closing idle connection");
        buf.clear();
        let eof = reader.read_line(&mut buf).expect("read eof");
        assert_eq!(eof, 0, "connection must be closed after the notice");

        // Nothing of the batch executed.
        let mut probe = Client::connect(addr);
        let stats = probe.roundtrip("STATS");
        assert_consistent(&stats);
        assert_eq!(stat_u64(&stats, "batches"), 0, "{stats}");
        assert_eq!(stat_u64(&stats, "decides"), 0, "{stats}");
    });
}

#[test]
fn a_zero_read_timeout_waits_instead_of_dropping_every_connection() {
    // `TcpStream::set_read_timeout` refuses a zero duration.  Passed
    // through, it closed every connection before its first reply, SHUTDOWN
    // included; a zero now means no timeout, as a zero `SO_RCVTIMEO` does.
    let config = ServiceConfig {
        read_timeout: Some(Duration::ZERO),
        ..ServiceConfig::default()
    };
    with_server(config, 2, |addr| {
        let mut client = Client::connect(addr);
        assert_eq!(client.roundtrip("PING"), "OK pong");
        std::thread::sleep(Duration::from_millis(50));
        let reply = client.roundtrip("DECIDE B Q() :- Zt(x, y) <= Q() :- Zt(u, v)");
        assert!(reply.starts_with("OK contained miss"), "{reply}");
        assert_consistent(&client.roundtrip("STATS"));
    });
}

#[test]
fn the_server_binary_refuses_a_zero_read_timeout() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_annot_serve"))
        .args(["127.0.0.1:0", "--read-timeout-ms", "0"])
        .output()
        .expect("run annot_serve");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--read-timeout-ms needs a positive number"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "it must not start listening: {out:?}"
    );
}

/// Runs `annot_serve` with `flag` set to 0 and checks that it exits with
/// code 2 and names the flag.  A server that did start with a zero cap
/// could not be stopped over the wire, so it is killed as soon as it
/// prints its listening line, and the test fails instead of hanging.
fn assert_the_server_binary_refuses_a_zero(flag: &str) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_annot_serve"))
        .args(["127.0.0.1:0", flag, "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run annot_serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read stdout");
    if !first.is_empty() {
        drop(child.kill());
        drop(child.wait());
        panic!("annot_serve started with {flag} 0: {first}");
    }
    let out = child.wait_with_output().expect("wait for annot_serve");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{flag} needs a positive number")),
        "{stderr}"
    );
}

#[test]
fn the_server_binary_refuses_a_zero_connection_cap() {
    assert_the_server_binary_refuses_a_zero("--max-connections");
}

#[test]
fn the_server_binary_refuses_a_zero_line_cap() {
    assert_the_server_binary_refuses_a_zero("--max-line-bytes");
}

#[test]
fn connections_past_the_cap_get_busy_and_the_slot_recycles() {
    let config = ServiceConfig {
        max_connections: Some(1),
        ..ServiceConfig::default()
    };
    with_server(config, 2, |addr| {
        // First client occupies the only slot (a reply proves admission).
        let mut first = Client::connect(addr);
        assert_eq!(first.roundtrip("PING"), "OK pong");

        // Second client must be refused with the structured BUSY line and
        // a close.
        let over = TcpStream::connect(addr).expect("connect");
        over.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("client timeout");
        let mut reader = BufReader::new(over);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read busy");
        assert_eq!(line.trim_end(), "BUSY connections cap=1");
        let mut rest = String::new();
        let eof = reader.read_to_string(&mut rest).expect("read eof");
        assert_eq!(eof, 0, "refused connection must be closed");

        // Slot frees on QUIT; the next client is served and sees the
        // refusal in the counters.
        assert_eq!(first.roundtrip("QUIT"), "OK bye");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut third = loop {
            // The slot release races our reconnect; retry briefly.
            let mut candidate = Client::connect(addr);
            let mut probe = String::new();
            candidate.writer.write_all(b"PING\n").expect("send ping");
            candidate.reader.read_line(&mut probe).expect("read");
            match probe.trim_end() {
                "OK pong" => break candidate,
                "BUSY connections cap=1" => {
                    assert!(Instant::now() < deadline, "slot never recycled");
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("unexpected reply while reconnecting: {other:?}"),
            }
        };
        let stats = third.roundtrip("STATS");
        assert_consistent(&stats);
        assert!(
            stat_u64(&stats, "busy") >= 1,
            "refusals are counted: {stats}"
        );
        assert_eq!(third.roundtrip("QUIT"), "OK bye");
    });
}

#[test]
fn mixed_head_ucqs_are_refused_without_losing_a_worker() {
    // A UCQ whose members disagree on head arity used to pass the parser
    // and panic in `Ucq::new`, killing the connection's worker thread; with
    // `workers` such requests the server stopped serving.  The server runs
    // detached here, so a lost worker fails the test instead of hanging
    // the scope that would join it.
    const WORKERS: usize = 2;
    let line = "DECIDE B Q(x) :- R(x, y) ; Q() :- R(x, y) <= Q() :- R(u, v)";
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let service = Service::new();
        serve(&listener, &service, &ShutdownFlag::new(), WORKERS);
    });
    for _ in 0..=WORKERS {
        let mut client = Client::connect(addr);
        let reply = client.roundtrip(line);
        assert!(reply.starts_with("ERR left query:"), "{reply}");
    }
    for _ in 0..=WORKERS {
        let mut client = Client::connect(addr);
        client
            .writer
            .write_all(format!("BATCH 1\n{line}\n").as_bytes())
            .expect("send batch");
        let reply = client.read_reply();
        assert!(reply.starts_with("0 ERR left query:"), "{reply}");
        assert_eq!(client.read_reply(), "DONE 1");
    }
    let mut fresh = Client::connect(addr);
    assert_eq!(fresh.roundtrip("PING"), "OK pong");
    assert_eq!(fresh.roundtrip("SHUTDOWN"), "OK shutting-down");
    server.join().expect("no worker panicked");
}
