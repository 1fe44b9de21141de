//! The concurrent decision server: shared state, request handling, and the
//! thread-per-core accept loop.
//!
//! All synchronisation goes through the crate's private `sync` facade
//! (`annot-lint` enforces this), so the server's protocol logic can be
//! model-checked on the loom shim as the cache's is.
//!
//! ## Request-local schemas
//!
//! Each `DECIDE` parses both queries into a fresh [`Schema`] of its own.
//! The cache key spells relations by name and arity, so parsing takes no
//! lock, a relation's arity holds per request only (`R/2` and `R/3` in two
//! requests both answer, under distinct keys), and no relation registry
//! grows with the traffic.
//!
//! ## Admission control and degradation
//!
//! A long-lived server must degrade, not drown.  [`ServiceConfig`] bounds
//! every axis a hostile client could push on:
//!
//! * **cache byte budget** (`cache_byte_budget`) — the semantic cache
//!   evicts to stay within it; on by default at [`DEFAULT_BYTE_BUDGET`].
//! * **decide budget** (`max_query_vars` / `max_query_atoms`) — a `DECIDE`
//!   whose queries exceed the caps is refused with a structured
//!   `OVERLOAD decide-budget …` reply *before* any decider (or canonical
//!   labelling) runs.  The containment procedures are worst-case
//!   exponential in the variable count — the same reason the oracle takes
//!   `BruteForceConfig::max_instances` — so the budget is the
//!   service-level analogue of that knob: bounded work per request,
//!   enforced at the door.
//! * **batch cap** (`max_batch`) — a `BATCH n` beyond the cap is refused
//!   with `OVERLOAD batch …` and no item is read.
//! * **connection cap** (`max_connections`) — a connection over the cap
//!   is answered `BUSY connections cap=…` and closed without serving.
//! * **read timeout** (`read_timeout`) — a connection that stays silent
//!   mid-line, between requests or inside a batch past the timeout is
//!   answered `ERR timeout: closing idle connection` and closed, so
//!   slow-loris clients cannot pin accept-loop workers.
//! * **line cap** (`max_line_bytes`) — an overlong request line is
//!   discarded (to the next newline) and answered with a structured
//!   `ERR`; the connection stays usable.

use crate::cache::{Cache, DEFAULT_BYTE_BUDGET};
use crate::proto::{self, Request, ServiceCounters};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Mutex, PoisonError};
use annot_core::registry::{decide_ucq_dyn, SemiringId};
use annot_query::{parser, Schema, Ucq};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// How many worker threads a batch fans out over.  Batch items share
/// nothing but the cache, whose lock each holds only for a probe or an
/// insert, so they decide in parallel and complete out of order; the pool
/// stays small because every batch spawns it afresh.
const BATCH_WORKERS: usize = 4;

/// Knobs for the server's sustained-traffic behaviour.  The default bounds
/// the cache at [`DEFAULT_BYTE_BUDGET`], batches at 1,024 items and lines
/// at 64 KiB; the decide budget, the connection cap and the read timeout
/// are opt-in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// The cache's byte budget: the most tracked bytes (`STATS`
    /// `approx_bytes`) its entries may take before it evicts.
    pub cache_byte_budget: u64,
    /// Per-request decide budget: maximum variables in any disjunct of
    /// either query (`None` = unbounded).  Exceeding it is an
    /// `OVERLOAD decide-budget` reply.
    pub max_query_vars: Option<usize>,
    /// Per-request decide budget: maximum atoms in any disjunct of either
    /// query (`None` = unbounded).
    pub max_query_atoms: Option<usize>,
    /// Maximum `BATCH n` a client may request.
    pub max_batch: usize,
    /// Maximum concurrently *served* connections (`None` = bounded only
    /// by the worker count).  Connections over the cap get `BUSY`.  With
    /// `Some(0)` every connection gets `BUSY`, so no client can reach
    /// `SHUTDOWN` either; `annot_serve` refuses a zero cap.
    pub max_connections: Option<usize>,
    /// Read/idle timeout per connection (`None` = wait forever).  A zero
    /// timeout also waits forever, as a zero `SO_RCVTIMEO` does, instead of
    /// failing every connection before its first reply.
    pub read_timeout: Option<Duration>,
    /// Maximum request line length in bytes; longer lines are discarded
    /// and answered with a structured `ERR`.  With 0 every non-empty line
    /// is overlong, `SHUTDOWN` included; `annot_serve` refuses a zero cap.
    pub max_line_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_byte_budget: DEFAULT_BYTE_BUDGET,
            max_query_vars: None,
            max_query_atoms: None,
            max_batch: 1024,
            max_connections: None,
            read_timeout: None,
            max_line_bytes: 64 * 1024,
        }
    }
}

/// The server's shared state: one semantic cache and the
/// admission-control counters.
pub struct Service {
    cache: Cache,
    config: ServiceConfig,
    overloads: AtomicU64,
    busy: AtomicU64,
    batches: AtomicU64,
    /// Connections currently being served (admission-control input).
    active: AtomicUsize,
}

/// What a connection handler should do after sending a reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Send the reply, keep the connection open.
    Reply(String),
    /// Send the reply, close this connection.
    Close(String),
    /// Send the reply, then stop the whole server.
    Shutdown(String),
    /// No immediate reply: the next `count` lines are batch items; feed
    /// them to [`Service::handle_batch`] and send its tagged replies.
    Batch {
        /// Number of request lines that follow.
        count: usize,
    },
}

impl Outcome {
    /// The reply line, whatever the follow-up action.  Empty for
    /// [`Outcome::Batch`], whose replies are per-item.
    pub fn reply(&self) -> &str {
        match self {
            Outcome::Reply(s) | Outcome::Close(s) | Outcome::Shutdown(s) => s,
            Outcome::Batch { .. } => "",
        }
    }
}

/// One slot of a batch: a request line, or a transport-level problem the
/// reader already diagnosed (oversized line, invalid UTF-8) whose
/// pre-formatted reply is sent tagged at that slot's sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchItem {
    /// A request line to parse and execute.
    Request(String),
    /// A transport-level failure; the string is the reply to send.
    Invalid(String),
}

impl From<&str> for BatchItem {
    fn from(line: &str) -> BatchItem {
        BatchItem::Request(line.to_string())
    }
}

impl Service {
    /// A fresh service under the default config.
    pub fn new() -> Service {
        Service::with_config(ServiceConfig::default())
    }

    /// A fresh service under the given limits.
    pub fn with_config(config: ServiceConfig) -> Service {
        Service {
            cache: Cache::with_byte_budget(config.cache_byte_budget),
            config,
            overloads: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            active: AtomicUsize::new(0),
        }
    }

    /// The semantic cache (exposed for statistics and tests).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// The limits this service enforces.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service-level counters (admission control, batches).
    pub fn counters(&self) -> ServiceCounters {
        ServiceCounters {
            // relaxed: statistics snapshot, approximate by design
            overloads: self.overloads.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            busy: self.busy.load(Ordering::Relaxed),
            // relaxed: statistics snapshot, approximate by design
            batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// The full `STATS` reply line.
    pub fn stats_line(&self) -> String {
        proto::format_stats(&self.cache.stats(), &self.counters())
    }

    /// Handles one request line and says what to do next.  This is the
    /// entire protocol logic — transport-free, so tests can drive it
    /// without sockets.
    pub fn handle_line(&self, line: &str) -> Outcome {
        self.respond(line, false)
    }

    /// Answers one request line, the only dispatch over [`Request`].
    /// Inside a batch, a nested `BATCH` and the connection control verbs
    /// answer a tagged `ERR`, so every batch item gets an
    /// [`Outcome::Reply`].
    fn respond(&self, line: &str, in_batch: bool) -> Outcome {
        let request = match proto::parse_request(line) {
            Ok(request) => request,
            Err(message) => return Outcome::Reply(format!("ERR {message}")),
        };
        match request {
            Request::Decide { semiring, q1, q2 } => {
                Outcome::Reply(self.decide(&semiring, &q1, &q2))
            }
            Request::Ping => Outcome::Reply("OK pong".to_string()),
            Request::Stats => Outcome::Reply(self.stats_line()),
            Request::Batch { .. } if in_batch => {
                Outcome::Reply("ERR BATCH cannot nest inside a batch".to_string())
            }
            Request::Quit | Request::Shutdown if in_batch => Outcome::Reply(
                "ERR connection control verbs are not allowed in a batch".to_string(),
            ),
            Request::Quit => Outcome::Close("OK bye".to_string()),
            Request::Shutdown => Outcome::Shutdown("OK shutting-down".to_string()),
            Request::Batch { count } if count > self.config.max_batch => {
                // relaxed: monotonic statistics counter, no ordering needed
                self.overloads.fetch_add(1, Ordering::Relaxed);
                Outcome::Reply(format!(
                    "OVERLOAD batch count={count} cap={}",
                    self.config.max_batch
                ))
            }
            Request::Batch { count } => Outcome::Batch { count },
        }
    }

    /// Executes the items of a `BATCH` and returns `(sequence, reply)`
    /// pairs **in completion order** — items are decided concurrently
    /// over a small worker pool, so a quick item overtakes a slow one.
    /// The sequence number identifies the item.
    ///
    /// Only `DECIDE`, `PING` and `STATS` run inside a batch; connection
    /// control verbs answer a tagged `ERR` and the batch continues.
    pub fn handle_batch(&self, items: &[BatchItem]) -> Vec<(u64, String)> {
        // relaxed: monotonic statistics counter, no ordering needed
        self.batches.fetch_add(1, Ordering::Relaxed);
        if items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| (i as u64, self.batch_item(item)))
                .collect();
        }
        let results: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::with_capacity(items.len()));
        let next = AtomicUsize::new(0);
        let workers = BATCH_WORKERS.min(items.len());
        crate::sync::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    // relaxed: a work-claiming RMW; each index is handed
                    // out exactly once, and no other memory rides on it
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let reply = self.batch_item(&items[i]);
                    results
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i as u64, reply));
                });
            }
        });
        results.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    fn batch_item(&self, item: &BatchItem) -> String {
        match item {
            BatchItem::Request(line) => self.respond(line, true).reply().to_string(),
            BatchItem::Invalid(reply) => reply.clone(),
        }
    }

    fn decide(&self, semiring: &str, q1: &str, q2: &str) -> String {
        let Some(id) = SemiringId::from_name(semiring) else {
            return format!("ERR unknown semiring {semiring:?}");
        };
        let mut schema = Schema::new();
        let u1 = match parser::parse_ucq(&mut schema, q1) {
            Ok(u1) => u1,
            Err(e) => return format!("ERR left query: {e}"),
        };
        let u2 = match parser::parse_ucq(&mut schema, q2) {
            Ok(u2) => u2,
            Err(e) => return format!("ERR right query: {e}"),
        };
        // Containment relates queries of one arity only (Sec. 2); the empty
        // union has every arity.
        if let (Some(a1), Some(a2)) = (head_arity(&u1), head_arity(&u2)) {
            if a1 != a2 {
                return format!("ERR queries disagree on head arity: {a1} and {a2}");
            }
        }
        if let Some(refusal) = self.admission_refusal(&u1, &u2) {
            // relaxed: monotonic statistics counter, no ordering needed
            self.overloads.fetch_add(1, Ordering::Relaxed);
            return refusal;
        }
        let (decision, hit) = self
            .cache
            .get_or_decide(id, &u1, &u2, |a, b| decide_ucq_dyn(id, a, b));
        proto::format_decision(&decision, hit)
    }

    /// The decide budget: refuses requests whose queries the worst-case
    /// exponential procedures should not be asked to chew on.  `None`
    /// means admitted.
    fn admission_refusal(&self, u1: &Ucq, u2: &Ucq) -> Option<String> {
        let disjuncts = || u1.disjuncts().iter().chain(u2.disjuncts().iter());
        if let Some(cap) = self.config.max_query_vars {
            let vars = disjuncts().map(|cq| cq.num_vars()).max().unwrap_or(0);
            if vars > cap {
                return Some(format!("OVERLOAD decide-budget vars={vars} cap={cap}"));
            }
        }
        if let Some(cap) = self.config.max_query_atoms {
            let atoms = disjuncts().map(|cq| cq.num_atoms()).max().unwrap_or(0);
            if atoms > cap {
                return Some(format!("OVERLOAD decide-budget atoms={atoms} cap={cap}"));
            }
        }
        None
    }

    /// Admits one connection, or counts and refuses it.  The returned
    /// guard releases the slot when dropped.
    fn try_admit(&self) -> Option<ConnGuard<'_>> {
        let cap = self.config.max_connections.unwrap_or(usize::MAX);
        // relaxed: the RMW makes slot claims exact; nothing else is
        // published through this counter
        let prev = self.active.fetch_add(1, Ordering::Relaxed);
        if prev >= cap {
            // relaxed: undo of the claim above, same counter discipline
            self.active.fetch_sub(1, Ordering::Relaxed);
            // relaxed: monotonic statistics counter, no ordering needed
            self.busy.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(ConnGuard { service: self })
    }
}

/// The number of head variables every member of `u` has, or `None` for the
/// empty union.
fn head_arity(u: &Ucq) -> Option<usize> {
    u.disjuncts().first().map(|cq| cq.free_vars().len())
}

/// RAII release of a connection slot claimed by [`Service::try_admit`].
struct ConnGuard<'a> {
    service: &'a Service,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        // relaxed: releases the slot claimed by the paired fetch_add
        self.service.active.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Default for Service {
    fn default() -> Self {
        Service::new()
    }
}

/// Cooperative shutdown signal for [`serve`].
pub struct ShutdownFlag {
    stop: AtomicBool,
    workers: AtomicUsize,
}

impl ShutdownFlag {
    /// A new, unset flag.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag {
            stop: AtomicBool::new(false),
            workers: AtomicUsize::new(0),
        }
    }

    /// Whether shutdown was requested.
    pub fn is_set(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes every worker blocked in `accept` by
    /// opening one throwaway connection per worker to `addr`.
    pub fn trigger(&self, addr: SocketAddr) {
        self.stop.store(true, Ordering::SeqCst);
        let workers = self.workers.load(Ordering::SeqCst);
        for _ in 0..workers {
            // A failed wake connect is fine: the worker is not blocked in
            // accept (it will see the flag on its next loop iteration).
            drop(TcpStream::connect(addr));
        }
    }
}

impl Default for ShutdownFlag {
    fn default() -> Self {
        ShutdownFlag::new()
    }
}

/// Runs the server on `listener` with `workers` accept threads, blocking
/// until [`ShutdownFlag::trigger`] fires (via the `SHUTDOWN` verb or an
/// external call).  Pass `workers = 0` to use the available parallelism.
///
/// Thread-per-core: every worker blocks in `accept` on the shared listener
/// and serves the accepted connection to completion before accepting again,
/// so at most `workers` connections are served concurrently — and at most
/// `min(workers, max_connections)` when the service caps connections
/// (excess connections are answered `BUSY` and closed, freeing the worker
/// immediately).  Workers handling a connection notice shutdown once that
/// connection closes.
pub fn serve(listener: &TcpListener, service: &Service, shutdown: &ShutdownFlag, workers: usize) {
    let workers = match workers {
        0 => crate::sync::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    };
    shutdown.workers.store(workers, Ordering::SeqCst);
    crate::sync::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| worker_loop(listener, service, shutdown));
        }
    });
}

fn worker_loop(listener: &TcpListener, service: &Service, shutdown: &ShutdownFlag) {
    loop {
        if shutdown.is_set() {
            return;
        }
        let Ok((stream, _)) = listener.accept() else {
            // Accept errors are transient (aborted handshakes, fd pressure);
            // re-check the flag and keep serving.
            continue;
        };
        if shutdown.is_set() {
            return; // the accepted connection was a shutdown wake-up
        }
        match service.try_admit() {
            Some(guard) => {
                // A broken connection only affects that client.
                drop(handle_connection(stream, service, shutdown));
                drop(guard);
            }
            None => {
                // Structured refusal, best effort: the client may already
                // be gone.
                let cap = service.config().max_connections.unwrap_or(usize::MAX);
                let mut stream = stream;
                drop(stream.write_all(format!("BUSY connections cap={cap}\n").as_bytes()));
            }
        }
    }
}

/// One line read off a connection, or why there isn't one.
enum ReadLine {
    /// A complete request line (newline stripped, may be empty).
    Text(String),
    /// The line exceeded the configured cap; its bytes were discarded up
    /// to the next newline and the connection is resynchronised.
    Oversized,
    /// The line was not valid UTF-8.
    Garbage,
    /// The peer closed the connection.
    Eof,
}

/// Reads one newline-terminated line of at most `cap` bytes.  Overlong
/// lines are consumed to the newline and reported as [`ReadLine::Oversized`]
/// so the protocol can answer with a structured error and keep going.
fn read_request_line(reader: &mut impl BufRead, cap: usize) -> std::io::Result<ReadLine> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            // EOF: an unterminated trailing fragment is dropped — the
            // peer hung up mid-request, there is nobody to answer.
            return Ok(ReadLine::Eof);
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                buf.extend_from_slice(&available[..newline]);
                reader.consume(newline + 1);
                if buf.len() > cap {
                    return Ok(ReadLine::Oversized);
                }
                return Ok(match String::from_utf8(buf) {
                    Ok(text) => ReadLine::Text(text),
                    Err(_) => ReadLine::Garbage,
                });
            }
            None => {
                let taken = available.len();
                buf.extend_from_slice(available);
                reader.consume(taken);
                if buf.len() > cap {
                    discard_to_newline(reader)?;
                    return Ok(ReadLine::Oversized);
                }
            }
        }
    }
}

/// Consumes input up to and including the next newline (or EOF).
fn discard_to_newline(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                reader.consume(newline + 1);
                return Ok(());
            }
            None => {
                let taken = available.len();
                reader.consume(taken);
            }
        }
    }
}

/// Whether an I/O error is the read timeout firing (spelled `WouldBlock`
/// on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Sets an accepted socket up: `TCP_NODELAY`, so a reply past the write
/// buffer does not wait out the peer's delayed ACK, and the read timeout.
fn configure_stream(stream: &TcpStream, config: &ServiceConfig) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // `set_read_timeout` refuses zero, which the config reads as none.
    if let Some(timeout) = config.read_timeout.filter(|t| !t.is_zero()) {
        stream.set_read_timeout(Some(timeout))?;
    }
    Ok(())
}

fn handle_connection(
    stream: TcpStream,
    service: &Service,
    shutdown: &ShutdownFlag,
) -> std::io::Result<()> {
    let local = stream.local_addr()?;
    configure_stream(&stream, service.config())?;
    // Per-connection write-side buffering: single replies flush per line,
    // batches flush once per batch.
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let line_cap = service.config().max_line_bytes;
    loop {
        let line = match read_request_line(&mut reader, line_cap) {
            Ok(line) => line,
            Err(e) if is_timeout(&e) => break,
            Err(e) => return Err(e),
        };
        let text = match line {
            ReadLine::Eof => return Ok(()),
            ReadLine::Oversized => {
                writer
                    .write_all(format!("ERR oversized line (cap {line_cap} bytes)\n").as_bytes())?;
                writer.flush()?;
                continue;
            }
            ReadLine::Garbage => {
                writer.write_all(b"ERR request is not valid UTF-8\n")?;
                writer.flush()?;
                continue;
            }
            ReadLine::Text(text) => text,
        };
        match service.handle_line(&text) {
            Outcome::Batch { count } => {
                match run_batch(&mut reader, &mut writer, service, count, line_cap) {
                    Ok(true) => {}
                    Ok(false) => return Ok(()), // truncated batch: peer is gone
                    Err(e) if is_timeout(&e) => break,
                    Err(e) => return Err(e),
                }
            }
            outcome => {
                writer.write_all(outcome.reply().as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                match outcome {
                    Outcome::Reply(_) | Outcome::Batch { .. } => {}
                    Outcome::Close(_) => return Ok(()),
                    Outcome::Shutdown(_) => {
                        shutdown.trigger(local);
                        return Ok(());
                    }
                }
            }
        }
    }
    // The read timeout fired, mid-request or mid-batch: slow-loris or idle
    // client.  Say why, then hang up (best effort — the peer may be gone).
    drop(writer.write_all(b"ERR timeout: closing idle connection\n"));
    drop(writer.flush());
    Ok(())
}

/// Reads the `count` item lines of a batch, executes them, writes the
/// tagged replies (completion order) and the `DONE` terminator.  Returns
/// `false` when the connection died before all items arrived, and the read
/// timeout's error when it fired first — the batch is transactional at the
/// transport level, so in both cases nothing was executed.
fn run_batch(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    service: &Service,
    count: usize,
    line_cap: usize,
) -> std::io::Result<bool> {
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        match read_request_line(reader, line_cap) {
            Ok(ReadLine::Text(text)) => items.push(BatchItem::Request(text)),
            Ok(ReadLine::Oversized) => items.push(BatchItem::Invalid(format!(
                "ERR oversized line (cap {line_cap} bytes)"
            ))),
            Ok(ReadLine::Garbage) => items.push(BatchItem::Invalid(
                "ERR request is not valid UTF-8".to_string(),
            )),
            Ok(ReadLine::Eof) => return Ok(false),
            Err(e) => return Err(e),
        }
    }
    for (seq, reply) in service.handle_batch(&items) {
        writer.write_all(format!("{seq} {reply}\n").as_bytes())?;
    }
    writer.write_all(format!("DONE {count}\n").as_bytes())?;
    writer.flush()?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extracts one `key=value` field from a `STATS` reply.
    fn stat(reply: &str, key: &str) -> u64 {
        let prefix = format!("{key}=");
        reply
            .split_whitespace()
            .find_map(|w| w.strip_prefix(prefix.as_str()))
            .unwrap_or_else(|| panic!("STATS reply lacks {key}=: {reply}"))
            .parse()
            .unwrap_or_else(|_| panic!("STATS field {key} is not a number: {reply}"))
    }

    #[test]
    fn protocol_session_without_sockets() {
        let service = Service::new();
        assert_eq!(service.handle_line("PING").reply(), "OK pong");

        let miss =
            service.handle_line("DECIDE Why Q() :- R(u, v), R(u, w) <= Q() :- R(u, v), R(u, v)");
        assert_eq!(
            miss.reply().split_whitespace().take(3).collect::<Vec<_>>(),
            ["OK", "not-contained", "miss"]
        );
        // α-renamed and atom-reordered: served from the cache.
        let hit = service
            .handle_line("DECIDE why Q() :- R(a, c), R(a, b) \u{2291} Q() :- R(p, q), R(p, q)");
        assert_eq!(
            hit.reply().split_whitespace().take(3).collect::<Vec<_>>(),
            ["OK", "not-contained", "hit"]
        );
        // Same pair, different semiring: a miss with a different verdict.
        let other =
            service.handle_line("DECIDE B Q() :- R(u, v), R(u, w) <= Q() :- R(u, v), R(u, v)");
        assert_eq!(
            other.reply().split_whitespace().take(3).collect::<Vec<_>>(),
            ["OK", "contained", "miss"]
        );

        assert!(service
            .handle_line("DECIDE NoSuchSemiring Q() :- R(x) <= Q() :- R(x)")
            .reply()
            .starts_with("ERR unknown semiring"));
        assert!(service
            .handle_line("DECIDE Why Q() :- R(x <= Q() :- R(x)")
            .reply()
            .starts_with("ERR left query:"));

        let stats = service.handle_line("STATS");
        let reply = stats.reply().to_string();
        assert!(reply.starts_with("OK stats "), "{reply}");
        // The default budget holds both entries, so the counters are exact.
        for (key, expected) in [
            ("hits", 1u64),
            ("misses", 2),
            ("decides", 2),
            ("inserts", 2),
            ("entries", 2),
            ("evictions", 0),
            ("overloads", 0),
            ("busy", 0),
            ("batches", 0),
        ] {
            assert_eq!(stat(&reply, key), expected, "stats counter {key}");
        }
        assert_eq!(service.handle_line("QUIT"), Outcome::Close("OK bye".into()));
        assert_eq!(
            service.handle_line("SHUTDOWN"),
            Outcome::Shutdown("OK shutting-down".into())
        );
    }

    #[test]
    fn failed_parses_do_not_poison_the_shared_schema() {
        let service = Service::new();
        // R is used with arity 2 by a good request …
        service.handle_line("DECIDE B Q() :- R(x, y) <= Q() :- R(x, x)");
        // … a bad request uses S, then clashes on R's arity inside itself …
        let err = service.handle_line("DECIDE B Q() :- S(x), R(x) <= Q() :- R(x, y)");
        assert!(
            err.reply().starts_with("ERR right query:"),
            "{}",
            err.reply()
        );
        // … and neither request's schema outlives it: S and R at other
        // arities parse fine afterwards.
        let ok = service.handle_line("DECIDE B Q() :- S(x, y) <= Q() :- S(x, x)");
        assert!(ok.reply().starts_with("OK"), "{:?}", ok.reply());
        let ok = service.handle_line("DECIDE B Q() :- R(x) <= Q() :- R(y)");
        assert!(
            ok.reply().starts_with("OK contained miss"),
            "{:?}",
            ok.reply()
        );
    }

    #[test]
    fn sides_of_different_head_arity_are_an_error_before_the_cache() {
        let service = Service::new();
        let reply = service.handle_line("DECIDE B Q(x) :- R(x) <= Q() :- R(x)");
        assert_eq!(reply.reply(), "ERR queries disagree on head arity: 1 and 0");
        let items = [BatchItem::from(
            "DECIDE N Q() :- R(x, y) <= Q(x, y) :- R(x, y)",
        )];
        assert_eq!(
            service.handle_batch(&items),
            [(0, "ERR queries disagree on head arity: 0 and 2".to_string())]
        );
        let stats = service.handle_line("STATS").reply().to_string();
        assert_eq!(stat(&stats, "misses") + stat(&stats, "hits"), 0);
        // The empty union stays valid beside a query of any arity.
        for line in [
            "DECIDE B ; <= Q(x) :- R(x)",
            "DECIDE B Q(x, y) :- R(x, y) <= ;",
        ] {
            let reply = service.handle_line(line);
            assert!(
                reply.reply().starts_with("OK "),
                "{line}: {}",
                reply.reply()
            );
        }
    }

    #[test]
    fn arity_is_per_request_and_part_of_the_key() {
        let service = Service::new();
        let binary = service.handle_line("DECIDE B Q() :- R(x, y) <= Q() :- R(u, v)");
        let ternary = service.handle_line("DECIDE B Q() :- R(x, y, z) <= Q() :- R(u, v, w)");
        assert!(
            binary.reply().starts_with("OK contained miss"),
            "{}",
            binary.reply()
        );
        assert!(
            ternary.reply().starts_with("OK contained miss"),
            "{}",
            ternary.reply()
        );
        let stats = service.handle_line("STATS").reply().to_string();
        assert_eq!(stat(&stats, "entries"), 2, "R/2 and R/3 share no entry");
    }

    #[test]
    fn the_default_config_bounds_the_cache() {
        assert_eq!(ServiceConfig::default().cache_byte_budget, 64 << 20);
    }

    #[test]
    fn accepted_connections_get_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        configure_stream(&accepted, &ServiceConfig::default()).expect("configure");
        assert!(accepted.nodelay().expect("nodelay"));
        drop(client);
    }

    #[test]
    fn decide_budget_refuses_oversized_queries_before_deciding() {
        let service = Service::with_config(ServiceConfig {
            max_query_vars: Some(4),
            max_query_atoms: Some(3),
            ..ServiceConfig::default()
        });
        // Within budget: 3 vars, 2 atoms.
        let ok = service.handle_line("DECIDE B Q() :- R(a, b), R(b, c) <= Q() :- R(x, y)");
        assert!(ok.reply().starts_with("OK"), "{}", ok.reply());
        // 5 variables: over the vars cap.
        let vars = service
            .handle_line("DECIDE B Q() :- R(a, b), R(b, c), R(c, d), R(d, e) <= Q() :- R(x, y)");
        assert_eq!(vars.reply(), "OVERLOAD decide-budget vars=5 cap=4");
        // 4 atoms on 4 vars: past the atoms cap.
        let atoms = service
            .handle_line("DECIDE B Q() :- R(a, b), R(b, c), R(c, a), R(a, d) <= Q() :- R(x, y)");
        assert_eq!(atoms.reply(), "OVERLOAD decide-budget atoms=4 cap=3");
        let stats = service.handle_line("STATS").reply().to_string();
        assert_eq!(stat(&stats, "overloads"), 2);
        assert_eq!(stat(&stats, "decides"), 1, "refused requests never decide");
    }

    #[test]
    fn batch_items_run_and_are_tagged_by_sequence() {
        let service = Service::new();
        assert_eq!(service.handle_line("BATCH 5"), Outcome::Batch { count: 5 });
        let items: Vec<BatchItem> = [
            "DECIDE Why Q() :- R(u, v), R(u, w) <= Q() :- R(u, v), R(u, v)",
            "PING",
            "DECIDE why Q() :- R(a, b), R(a, c) <= Q() :- R(p, q), R(p, q)",
            "SHUTDOWN",
            "BATCH 2",
        ]
        .into_iter()
        .map(BatchItem::from)
        .collect();
        let mut replies = service.handle_batch(&items);
        replies.sort_by_key(|&(seq, _)| seq);
        let seqs: Vec<u64> = replies.iter().map(|&(s, _)| s).collect();
        assert_eq!(
            seqs,
            vec![0, 1, 2, 3, 4],
            "every item answered exactly once"
        );
        assert!(replies[0].1.starts_with("OK not-contained"), "{replies:?}");
        assert_eq!(replies[1].1, "OK pong");
        assert_eq!(
            replies[3].1,
            "ERR connection control verbs are not allowed in a batch"
        );
        assert_eq!(replies[4].1, "ERR BATCH cannot nest inside a batch");
        // Items 0 and 2 are isomorphic: one decided, one hit (in *some*
        // order — they race across the pool).
        let stats = service.handle_line("STATS").reply().to_string();
        assert_eq!(stat(&stats, "hits") + stat(&stats, "misses"), 2);
        assert_eq!(stat(&stats, "batches"), 1);
    }

    #[test]
    fn batch_cap_is_an_overload_reply() {
        let service = Service::with_config(ServiceConfig {
            max_batch: 8,
            ..ServiceConfig::default()
        });
        assert_eq!(service.handle_line("BATCH 8"), Outcome::Batch { count: 8 });
        let over = service.handle_line("BATCH 9");
        assert_eq!(over.reply(), "OVERLOAD batch count=9 cap=8");
        let stats = service.handle_line("STATS").reply().to_string();
        assert_eq!(stat(&stats, "overloads"), 1);
    }

    #[test]
    fn invalid_batch_items_answer_their_prepared_reply() {
        let service = Service::new();
        let items = vec![
            BatchItem::Request("PING".to_string()),
            BatchItem::Invalid("ERR oversized line (cap 16 bytes)".to_string()),
        ];
        let mut replies = service.handle_batch(&items);
        replies.sort_by_key(|&(seq, _)| seq);
        assert_eq!(replies[0].1, "OK pong");
        assert_eq!(replies[1].1, "ERR oversized line (cap 16 bytes)");
    }

    #[test]
    fn bounded_reader_resynchronises_after_oversized_and_garbage_lines() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"0123456789ABCDEF-way-too-long\n");
        input.extend_from_slice(b"PING\n");
        input.extend_from_slice(&[0xFF, 0xFE, b'\n']);
        input.extend_from_slice(b"QUIT\n");
        let mut reader = std::io::BufReader::new(&input[..]);
        assert!(matches!(
            read_request_line(&mut reader, 16).unwrap(),
            ReadLine::Oversized
        ));
        match read_request_line(&mut reader, 16).unwrap() {
            ReadLine::Text(t) => assert_eq!(t, "PING"),
            other => panic!("expected PING, got {:?}", discriminant_name(&other)),
        }
        assert!(matches!(
            read_request_line(&mut reader, 16).unwrap(),
            ReadLine::Garbage
        ));
        match read_request_line(&mut reader, 16).unwrap() {
            ReadLine::Text(t) => assert_eq!(t, "QUIT"),
            other => panic!("expected QUIT, got {:?}", discriminant_name(&other)),
        }
        assert!(matches!(
            read_request_line(&mut reader, 16).unwrap(),
            ReadLine::Eof
        ));
    }

    fn discriminant_name(line: &ReadLine) -> &'static str {
        match line {
            ReadLine::Text(_) => "Text",
            ReadLine::Oversized => "Oversized",
            ReadLine::Garbage => "Garbage",
            ReadLine::Eof => "Eof",
        }
    }
}
