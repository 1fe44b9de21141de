//! `annot-serve` — the containment decision server.
//!
//! ```text
//! annot_serve [ADDR] [--workers N] [--byte-budget BYTES]
//!             [--max-vars N] [--max-atoms N] [--max-batch N]
//!             [--max-connections N] [--read-timeout-ms MS] [--max-line-bytes N]
//! ```
//!
//! Binds `ADDR` (default `127.0.0.1:7878`; use port 0 for an ephemeral
//! port, printed on startup) and serves the line protocol of
//! `annot_service::proto` until a client sends `SHUTDOWN`.
//!
//! Without flags the cache holds at most 64 MiB, batches at most 1,024
//! items and lines at most 64 KiB; the other limits are opt-in.  The flags
//! map straight onto [`annot_service::ServiceConfig`]:
//!
//! * `--byte-budget BYTES` — the cache's byte budget (default 64 MiB);
//!   the `approx_bytes` STATS field is the enforcement input;
//! * `--max-vars N` / `--max-atoms N` — per-request decide budget: any
//!   disjunct over the cap is refused with `OVERLOAD decide-budget …`;
//! * `--max-batch N` — largest accepted `BATCH n` (default 1024);
//! * `--max-connections N` — concurrently served connections; excess
//!   connections get `BUSY connections cap=N` and are closed;
//! * `--read-timeout-ms MS` — per-connection idle/read timeout, the
//!   slow-loris defence (at least 1; without the flag a connection waits
//!   forever);
//! * `--max-line-bytes N` — request line cap (default 65536); overlong
//!   lines answer a structured `ERR` and the connection stays usable.

use annot_service::{serve, Service, ServiceConfig, ShutdownFlag};
use std::net::TcpListener;
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = 0usize;
    let mut config = ServiceConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => workers = parse_flag(&mut args, "--workers"),
            "--byte-budget" => config.cache_byte_budget = parse_flag(&mut args, "--byte-budget"),
            "--max-vars" => config.max_query_vars = Some(parse_flag(&mut args, "--max-vars")),
            "--max-atoms" => config.max_query_atoms = Some(parse_flag(&mut args, "--max-atoms")),
            "--max-batch" => config.max_batch = parse_flag(&mut args, "--max-batch"),
            "--max-connections" => {
                config.max_connections = Some(parse_flag(&mut args, "--max-connections"));
            }
            "--read-timeout-ms" => {
                let ms: u64 = parse_flag(&mut args, "--read-timeout-ms");
                if ms == 0 {
                    die("--read-timeout-ms needs a positive number (omit it to wait forever)");
                }
                config.read_timeout = Some(Duration::from_millis(ms));
            }
            "--max-line-bytes" => config.max_line_bytes = parse_flag(&mut args, "--max-line-bytes"),
            "--help" | "-h" => {
                println!(
                    "usage: annot_serve [ADDR] [--workers N] [--byte-budget BYTES] \
                     [--max-vars N] [--max-atoms N] [--max-batch N] \
                     [--max-connections N] [--read-timeout-ms MS] [--max-line-bytes N]"
                );
                return;
            }
            other if !other.starts_with('-') => addr = other.to_string(),
            other => die(&format!("unknown flag {other:?}")),
        }
    }

    let listener =
        TcpListener::bind(&addr).unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")));
    match listener.local_addr() {
        Ok(local) => println!("annot-serve: listening on {local}"),
        Err(e) => println!("annot-serve: listening ({e})"),
    }
    let service = Service::with_config(config);
    let shutdown = ShutdownFlag::new();
    serve(&listener, &service, &shutdown, workers);
    println!("annot-serve: stopped");
}

fn parse_flag<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a number")))
}

fn die(message: &str) -> ! {
    eprintln!("annot-serve: {message}");
    std::process::exit(2)
}
