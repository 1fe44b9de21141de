//! The untraced TCP run: spawns the shipped `annot_serve` with its default
//! config, warms it up, drives the timed phase over one connection from
//! one thread, and samples the server process's CPU clock and `/proc`.

use crate::gen::{Request, Stream};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest wait for one reply before the run counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `annot_serve` and one client connection to it.  Dropping it
/// kills the process and waits for it.
struct Server {
    child: Child,
    /// Kept open so the server's last `println!` does not hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
    /// Resident set right after start-up, in kB.
    rss_at_start_kb: u64,
}

impl Server {
    /// Starts `binary` on an ephemeral port and connects to it.
    fn start(binary: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // The first line naming the bound address; other output may precede it.
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => break None,
                Ok(_) => {
                    if let Some((_, addr)) = line.trim().split_once("listening on ") {
                        break Some(addr.to_string());
                    }
                }
            }
        };
        let Some(addr) = addr else {
            drop(child.kill());
            drop(child.wait());
            return Err("the server exited without printing its address".to_string());
        };
        let connected = TcpStream::connect(&addr).and_then(|conn| {
            conn.set_nodelay(true)?;
            conn.set_read_timeout(Some(REPLY_TIMEOUT))?;
            let reader = BufReader::new(conn.try_clone()?);
            Ok((conn, reader))
        });
        let (conn, reader) = match connected {
            Ok(pair) => pair,
            Err(e) => {
                drop(child.kill());
                drop(child.wait());
                return Err(format!("cannot connect to {addr}: {e}"));
            }
        };
        let rss_at_start_kb = status_kb(child.id(), "VmRSS:").unwrap_or(0);
        Ok(Server {
            child,
            _stdout: stdout,
            conn,
            reader,
            rss_at_start_kb,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one line and reads one reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.send(&bytes)?;
        self.reply()
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.conn
            .write_all(bytes)
            .map_err(|e| format!("send failed: {e}"))
    }

    fn reply(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }

    /// The cache counters of a `STATS` reply.
    fn stats(&mut self) -> Result<Stats, String> {
        let reply = self.call("STATS")?;
        let field = |name: &str| -> Result<u64, String> {
            let prefix = format!("{name}=");
            reply
                .split_whitespace()
                .find_map(|w| w.strip_prefix(prefix.as_str()))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("STATS reply lacks {name}: {reply}"))
        };
        Ok(Stats {
            hits: field("hits")?,
            misses: field("misses")?,
            decides: field("decides")?,
            inserts: field("inserts")?,
            entries: field("entries")?,
            approx_bytes: field("approx_bytes")?,
        })
    }

    /// Asks the server to stop and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self.call("SHUTDOWN")?;
        if reply != "OK shutting-down" {
            return Err(format!("unexpected SHUTDOWN reply {reply:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("server did not stop after SHUTDOWN".to_string()),
                Err(e) => return Err(format!("cannot wait for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best effort: the process may already have exited.
        drop(self.child.kill());
        drop(self.child.wait());
    }
}

/// The cache counters of one `STATS` reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stats {
    pub hits: u64,
    pub misses: u64,
    pub decides: u64,
    pub inserts: u64,
    pub entries: u64,
    pub approx_bytes: u64,
}

/// What one round measured: a fresh server, its warm-up, and one pass of
/// the timed stream.
pub struct Round {
    /// Seconds from spawning the server to the end of the warm-up.
    pub setup_s: f64,
    /// Round-trip time of each timed frame, in µs.
    pub rtt_us: Vec<f64>,
    /// Wall time of the timed phase, in seconds.
    pub timed_s: f64,
    /// Timed replies in stream order (one per item).
    pub replies: Vec<String>,
    /// Warm-up replies in stream order.
    pub warmup_replies: Vec<String>,
    /// Server CPU time of each timed frame, in µs: the growth of its
    /// process CPU clock from one frame's send to the next's.
    pub server_cpu_us: Vec<f64>,
    /// Client CPU time over the timed phase, in µs.
    pub client_cpu_us: f64,
    /// Server peak resident set at the end of the round, in kB.
    pub server_hwm_kb: u64,
    /// Server resident set growth from start-up to the end of the round,
    /// in kB.
    pub server_rss_growth_kb: u64,
    /// `STATS` before and after the timed phase.
    pub stats: (Stats, Stats),
    /// Why the timed phase stopped early, if it did.
    pub error: Option<String>,
}

/// Runs one round: starts a fresh server, warms it up, sends the timed
/// stream once, samples the server, and stops it.
pub fn round(binary: &Path, stream: &Stream) -> Result<Round, String> {
    let start = Instant::now();
    let mut server = Server::start(binary)?;
    let mut warmup_replies = Vec::with_capacity(stream.warmup.len());
    for request in &stream.warmup {
        warmup_replies.push(server.call(&request.line)?);
    }
    let setup_s = start.elapsed().as_secs_f64();
    let frames: Vec<Vec<u8>> = stream.frames.iter().map(|f| frame_bytes(f)).collect();
    let items: usize = stream.frames.iter().map(Vec::len).sum();

    let stats_before = server.stats()?;
    let pid = server.pid();
    let server_clock = process_clock(pid);
    let client_cpu_before = cpu_ns(CLOCK_PROCESS_CPUTIME_ID)?;
    let mut rtt_us = Vec::with_capacity(frames.len());
    // The server's CPU clock before each frame and after the last.  The
    // server is idle between frames, so their differences split the timed
    // phase's CPU time among the frames.
    let mut server_cpu_ns = Vec::with_capacity(frames.len() + 1);
    let mut replies: Vec<String> = Vec::with_capacity(items);
    let mut error = None;
    let timed_start = Instant::now();
    for (frame, bytes) in stream.frames.iter().zip(&frames) {
        server_cpu_ns.push(cpu_ns(server_clock)?);
        let sent = Instant::now();
        let outcome = server.send(bytes).and_then(|()| {
            if frame.len() == 1 {
                server.reply().map(|r| replies.push(r))
            } else {
                read_batch(&mut server, frame.len(), &mut replies)
            }
        });
        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = outcome {
            error = Some(e);
            break;
        }
    }
    let timed_s = timed_start.elapsed().as_secs_f64();
    server_cpu_ns.push(cpu_ns(server_clock)?);
    let client_cpu_after = cpu_ns(CLOCK_PROCESS_CPUTIME_ID)?;
    let server_hwm_kb = status_kb(pid, "VmHWM:")?;
    let server_rss_growth_kb = status_kb(pid, "VmRSS:")?.saturating_sub(server.rss_at_start_kb);
    let stats_after = if error.is_none() {
        let stats = server.stats()?;
        server.shutdown()?;
        stats
    } else {
        stats_before
    };
    Ok(Round {
        setup_s,
        rtt_us,
        timed_s,
        replies,
        warmup_replies,
        server_cpu_us: server_cpu_ns
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e3)
            .collect(),
        client_cpu_us: (client_cpu_after - client_cpu_before) as f64 / 1e3,
        server_hwm_kb,
        server_rss_growth_kb,
        stats: (stats_before, stats_after),
        error,
    })
}

/// The bytes of one timed frame: a bare `DECIDE` line on the serial
/// workloads, `BATCH n` and its items on batch-mix.
fn frame_bytes(frame: &[Request]) -> Vec<u8> {
    let mut bytes = Vec::new();
    if frame.len() > 1 {
        bytes.extend_from_slice(format!("BATCH {}\n", frame.len()).as_bytes());
    }
    for request in frame {
        bytes.extend_from_slice(request.line.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

/// Reads the tagged replies of one batch and its `DONE` line, appending
/// the replies to `replies` in item order.
fn read_batch(server: &mut Server, count: usize, replies: &mut Vec<String>) -> Result<(), String> {
    let mut slots: Vec<Option<String>> = vec![None; count];
    loop {
        let line = server.reply()?;
        if let Some(done) = line.strip_prefix("DONE ") {
            if done != count.to_string() {
                return Err(format!("batch of {count} ended with {line:?}"));
            }
            break;
        }
        let (seq, reply) = line
            .split_once(' ')
            .ok_or_else(|| format!("untagged batch reply {line:?}"))?;
        let seq: usize = seq
            .parse()
            .map_err(|_| format!("bad batch tag in {line:?}"))?;
        match slots.get_mut(seq) {
            Some(slot @ None) => *slot = Some(reply.to_string()),
            _ => return Err(format!("batch tag out of range or repeated: {line:?}")),
        }
    }
    for (seq, slot) in slots.into_iter().enumerate() {
        replies.push(slot.ok_or_else(|| format!("batch item {seq} got no reply"))?);
    }
    Ok(())
}

/// The calling process's CPU-time clock.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// The CPU-time clock of process `pid`: Linux's
/// `MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`, which any process may
/// read.  Like the user and system time of `/proc/<pid>/stat`, it covers
/// every thread, exited ones included, so `BATCH` workers count; unlike
/// them it counts nanoseconds, not 10 ms ticks, so a single request's
/// share can be read.
fn process_clock(pid: u32) -> c_int {
    (!(pid as c_int) << 3) | 2
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, now: *mut Timespec) -> c_int;
}

/// The reading of a CPU-time clock, in ns.
fn cpu_ns(clock: c_int) -> Result<u64, String> {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` on 64-bit Linux.
    if unsafe { clock_gettime(clock, &mut now) } != 0 {
        return Err(format!(
            "cannot read CPU clock {clock}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(now.tv_sec as u64 * 1_000_000_000 + now.tv_nsec as u64)
}

/// One `kB` field of `/proc/<pid>/status`.
fn status_kb(pid: u32, key: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path} lacks {key}"))
}
