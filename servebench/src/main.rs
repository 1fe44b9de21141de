//! `servebench` — the serving benchmark of the containment service.
//!
//! ```text
//! servebench --server PATH --workload NAME --seed N --seconds S --trace 0|1 [--spans DIR]
//! servebench --workload NAME --seed N --seconds S --dump-stream
//! ```
//!
//! With `--trace 0` it runs the workload's seeded stream against a fresh
//! `annot_serve` over TCP and prints the end-to-end metrics.  With
//! `--trace 1` it makes the same TCP run, then replays the stream
//! in-process with a span around each layer's public function, prints
//! the per-layer metrics and writes the spans to `DIR` as JSON lines.
//! Either way the last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--dump-stream` prints the generated stream instead.  `run.sh` builds
//! the server and this client and passes `--server` and `--spans`.

mod client;
mod gen;
mod trace;

use client::{Round, Stats};
use gen::{Stream, Workload, ROWS, VOCABULARY};
use std::path::PathBuf;
use trace::Replay;

struct Args {
    server: Option<PathBuf>,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
    dump: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans = None;
    let mut dump = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds needs an integer")?)
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--dump-stream" => dump = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        server,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans,
        dump,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    let stream = gen::stream(args.workload, args.seed, args.seconds);
    if args.dump {
        dump(&stream);
        return;
    }
    report_properties(&args, &stream);
    let server = args
        .server
        .as_ref()
        .unwrap_or_else(|| fail("--server is required"));
    let mut rounds = Vec::with_capacity(gen::ROUNDS);
    for _ in 0..gen::ROUNDS {
        let round = client::round(server, &stream).unwrap_or_else(|e| fail(&e));
        eprintln!(
            "servebench: round: setup {:.3} s, {:.1} req/s, rtt p50 {:.1} us, p99 {:.1} us, \
             server cpu {:.1} us/req",
            round.setup_s,
            round.replies.len() as f64 / round.timed_s,
            percentile(&round.rtt_us, 0.50),
            percentile(&round.rtt_us, 0.99),
            round.server_cpu_us.iter().sum::<f64>() / round.replies.len() as f64
        );
        let stopped = round.error.clone();
        rounds.push(round);
        if let Some(e) = stopped {
            eprintln!("servebench: timed phase stopped early: {e}");
            break;
        }
    }

    let answers = |r: &gen::Request, reply: &str| stream.pairs[r.pair].answered_by(reply);
    let attempted = gen::ROUNDS * stream.timed().count();
    let ok: usize = rounds
        .iter()
        .map(|round| {
            stream
                .timed()
                .zip(&round.replies)
                .filter(|(r, reply)| answers(r, reply))
                .count()
        })
        .sum();
    let warmup_ok = rounds.iter().all(|round| {
        round.warmup_replies.len() == stream.warmup.len()
            && stream
                .warmup
                .iter()
                .zip(&round.warmup_replies)
                .all(|(r, reply)| answers(r, reply))
    });
    let failed = attempted - ok;
    let stats_exact = rounds.iter().all(|round| check_stats(&stream, round));
    let mut correct = failed == 0 && warmup_ok;

    let metrics = if args.trace {
        let replay = trace::replay(&stream);
        if replay.mismatches > 0 {
            eprintln!(
                "servebench: {} in-process replies had the wrong verdict",
                replay.mismatches
            );
            correct = false;
        }
        if let Some(dir) = &args.spans {
            let path = dir.join(format!("spans-{}.jsonl", args.workload.name()));
            if let Err(e) = trace::write_spans(&replay.spans, &path) {
                fail(&format!("cannot write {}: {e}", path.display()));
            }
        }
        layer_metrics(&stream, &rounds, &replay, stats_exact)
    } else {
        let rtt_us = frame_fastest(&rounds, |r| &r.rtt_us);
        let hwm_mb: Vec<f64> = rounds
            .iter()
            .map(|r| r.server_hwm_kb as f64 / 1024.0)
            .collect();
        let items = stream.timed().count() as f64;
        let server_cpu_us = frame_fastest(&rounds, |r| &r.server_cpu_us);
        vec![
            metric(
                "req_per_s",
                items / (rtt_us.iter().sum::<f64>() / 1e6),
                "1/s",
            ),
            metric("rtt_p50_us", percentile(&rtt_us, 0.50), "us"),
            metric("rtt_p99_us", percentile(&rtt_us, 0.99), "us"),
            metric("ok_share", ok as f64 / attempted as f64, "share"),
            metric("setup_s", fastest(&rounds, |r| r.setup_s), "s"),
            metric("server_rss_mb", percentile(&hwm_mb, 0.50), "MiB"),
            metric(
                "server_cpu_us",
                server_cpu_us.iter().sum::<f64>() / items,
                "us",
            ),
        ]
    };
    print_result(correct, attempted, failed, &metrics);
}

fn fail(message: &str) -> ! {
    eprintln!("servebench: {message}");
    std::process::exit(1)
}

/// Compares the `STATS` counters after a round's timed phase with what
/// the stream predicts.  A change to caching shows here as a count.
fn check_stats(stream: &Stream, round: &Round) -> bool {
    let timed_hits = stream.timed().filter(|r| r.hit).count() as u64;
    let misses = (stream.warmup.len() + stream.timed().count()) as u64 - timed_hits;
    let after = round.stats.1;
    let predicted = Stats {
        hits: timed_hits,
        misses,
        decides: misses,
        inserts: misses,
        entries: misses,
        approx_bytes: after.approx_bytes,
    };
    if after != predicted {
        eprintln!("servebench: STATS {after:?} differ from the stream's prediction {predicted:?}");
    }
    after == predicted
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The lowest of the rounds' values.  Host contention only ever slows a
/// round; see the README on why a run reports its fastest rounds.
fn fastest(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// A per-frame figure of each timed frame (its round-trip time or its
/// server CPU time), as the lowest of the rounds that sent it.  Every round
/// replays the same stream.
fn frame_fastest(rounds: &[Round], figure: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    let frames = rounds.iter().map(|r| figure(r).len()).max().unwrap_or(0);
    (0..frames)
        .map(|f| {
            rounds
                .iter()
                .filter_map(|r| figure(r).get(f).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Nearest-rank percentile; 0 for no samples.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The per-layer metrics: stage times from the replay's spans, cache and
/// process figures from the TCP run.
fn layer_metrics(
    stream: &Stream,
    rounds: &[Round],
    replay: &Replay,
    stats_exact: bool,
) -> Vec<Metric> {
    let first_timed = stream.warmup.len();
    let requests = replay.hits.len();
    // Each request's fastest pass, per span name.
    let mut stage = vec![Stage::default(); requests];
    let mut batches: std::collections::BTreeMap<usize, f64> = Default::default();
    for span in &replay.spans {
        let us = (span.end_ns - span.start_ns) as f64 / 1e3;
        let s = &mut stage[span.request];
        let slot = match span.name {
            trace::PROTO => &mut s.proto,
            trace::PARSER => &mut s.parser,
            trace::KEY => &mut s.key,
            trace::CACHE => &mut s.cache,
            trace::DECIDE => {
                s.decide = Some(s.decide.map_or(us, |d| d.min(us)));
                continue;
            }
            trace::ISO => &mut s.iso,
            trace::HANDLE => &mut s.handle,
            _ => batches.entry(span.request).or_insert(f64::INFINITY),
        };
        if *slot == 0.0 || us < *slot {
            *slot = us;
        }
    }
    let batch_us: Vec<f64> = batches.into_values().collect();
    let timed = &stage[first_timed..];
    let over = |f: fn(&Stage) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    let handle_us = over(|s| s.handle);
    // Per round trip: a request on the serial workloads, a frame on
    // batch-mix.
    let (per_item_us, frame_us): (Vec<f64>, &[f64]) = if batch_us.is_empty() {
        (handle_us.clone(), &handle_us)
    } else {
        let per_item = stream
            .frames
            .iter()
            .zip(&batch_us)
            .map(|(f, us)| us / f.len() as f64)
            .collect();
        (per_item, &batch_us)
    };
    let transport_us: Vec<f64> = frame_fastest(rounds, |r| &r.rtt_us)
        .iter()
        .zip(frame_us)
        .map(|(rtt, h)| rtt - h)
        .collect();
    let parser = over(|s| s.parser);
    let key = over(|s| s.key);
    let iso: Vec<f64> = timed
        .iter()
        .zip(&replay.hits[first_timed..])
        .filter(|(_, &hit)| hit)
        .map(|(s, _)| s.iso)
        .collect();
    let cache_self = over(|s| (s.cache - s.decide.unwrap_or(0.0) - s.key - s.iso).max(0.0));
    let (members, coarse) = replay.codes[first_timed..]
        .iter()
        .fold((0, 0), |(m, c), &(mm, cc)| (m + mm, c + cc));

    let requests_all: Vec<_> = stream.warmup.iter().chain(stream.timed()).collect();
    let decided: Vec<(usize, f64)> = stage
        .iter()
        .enumerate()
        .filter_map(|(id, s)| s.decide.map(|us| (id, us)))
        .collect();
    let decide_us: Vec<f64> = decided.iter().map(|&(_, us)| us).collect();
    let single_cq = decided
        .iter()
        .filter(|&&(id, _)| {
            let pair = &stream.pairs[requests_all[id].pair];
            pair.q1.0.len() == 1 && pair.q2.0.len() == 1
        })
        .count();

    // Stage self-times sum to proto + parser + get_or_decide per request,
    // to be set against handle_line on the same requests.
    let stage_total: f64 = timed.iter().map(|s| s.proto + s.parser + s.cache).sum();
    let handle_total: f64 = handle_us.iter().sum();

    let (before, after) = rounds[0].stats;
    let client_cpu_us: f64 = rounds.iter().map(|r| r.client_cpu_us).sum();
    let completed = rounds.iter().map(|r| r.replies.len()).sum::<usize>();
    let timed_lookups = (after.hits + after.misses - before.hits - before.misses) as f64;
    let entries = after.entries as f64;

    let mut out = vec![
        metric("server.handle_us_p50", percentile(&per_item_us, 0.50), "us"),
        metric(
            "server.transport_us_p50",
            percentile(&transport_us, 0.50),
            "us",
        ),
        metric("server.batch_us_p50", percentile(&batch_us, 0.50), "us"),
        metric(
            "proto.parse_us_p50",
            percentile(&over(|s| s.proto), 0.50),
            "us",
        ),
        metric("parser.parse_us_p50", percentile(&parser, 0.50), "us"),
        metric("parser.parse_us_p99", percentile(&parser, 0.99), "us"),
        metric("key.code_us_p50", percentile(&key, 0.50), "us"),
        metric("key.code_us_p99", percentile(&key, 0.99), "us"),
        metric("key.coarse_share", coarse as f64 / members as f64, "share"),
        metric("iso.check_us_p50", percentile(&iso, 0.50), "us"),
        metric("cache.self_us_p50", percentile(&cache_self, 0.50), "us"),
        metric(
            "cache.hit_share",
            (after.hits - before.hits) as f64 / timed_lookups,
            "share",
        ),
        metric("cache.entries", entries, "count"),
        metric(
            "cache.approx_bytes_per_entry",
            after.approx_bytes as f64 / entries,
            "B",
        ),
        metric(
            "cache.rss_bytes_per_entry",
            percentile(
                &rounds
                    .iter()
                    .map(|r| r.server_rss_growth_kb as f64 * 1024.0)
                    .collect::<Vec<_>>(),
                0.50,
            ) / entries,
            "B",
        ),
        metric(
            "cache.stats_exact",
            if stats_exact { 1.0 } else { 0.0 },
            "count",
        ),
        metric("decide.us_p50", percentile(&decide_us, 0.50), "us"),
        metric("decide.us_p99", percentile(&decide_us, 0.99), "us"),
    ];
    for (row_index, row) in ROWS.iter().enumerate() {
        let per_row: Vec<f64> = decided
            .iter()
            .filter(|&&(id, _)| stream.pairs[requests_all[id].pair].row == row_index)
            .map(|&(_, us)| us)
            .collect();
        out.push(metric(
            format!("decide.{}.us_mean", row.metric),
            mean(&per_row),
            "us",
        ));
    }
    out.extend([
        metric(
            "decide.single_cq_share",
            single_cq as f64 / decided.len() as f64,
            "share",
        ),
        metric("client.cpu_us", client_cpu_us / completed as f64, "us"),
        metric(
            "trace.overhead_share",
            stage_total / handle_total - 1.0,
            "share",
        ),
    ]);
    out
}

/// One request's stage durations in µs.
#[derive(Clone, Default)]
struct Stage {
    proto: f64,
    parser: f64,
    key: f64,
    cache: f64,
    decide: Option<f64>,
    iso: f64,
    handle: f64,
}

/// Prints the workload's generator properties, measured on its timed
/// requests.
fn report_properties(args: &Args, stream: &Stream) {
    let timed: Vec<_> = stream.timed().map(|r| &stream.pairs[r.pair]).collect();
    let n = timed.len() as f64;
    let share = |f: &dyn Fn(&gen::Pair) -> bool| timed.iter().filter(|p| f(p)).count() as f64 / n;
    let width = |w: usize| {
        timed
            .iter()
            .map(|p| usize::from(p.q1.0.len() == w) + usize::from(p.q2.0.len() == w))
            .sum::<usize>() as f64
            / (2.0 * n)
    };
    eprintln!(
        "servebench: workload {} seed {}: {} warm-up pairs, {} timed requests in {} frames; \
         vocabulary {} names; single-CQ pairs {:.3}; counting/small-model rows {:.3}; \
         high-symmetry queries {:.3}; UCQ width 1/2/3 {:.3}/{:.3}/{:.3}",
        args.workload.name(),
        args.seed,
        stream.warmup.len(),
        timed.len(),
        stream.frames.len(),
        VOCABULARY.len(),
        share(&|p| p.q1.0.len() == 1 && p.q2.0.len() == 1),
        share(&|p| ROWS[p.row].counting),
        timed
            .iter()
            .map(|p| usize::from(gen::high_symmetry(&p.q1)) + usize::from(gen::high_symmetry(&p.q2)))
            .sum::<usize>() as f64
            / (2.0 * n),
        width(1),
        width(2),
        width(3),
    );
}

/// Prints the stream: every warm-up request, then every timed frame, each
/// request with its expected verdict and cache outcome.
fn dump(stream: &Stream) {
    let line = |kind: &str, r: &gen::Request| {
        let outcome = if r.hit { "hit" } else { "miss" };
        println!(
            "{kind} {} {outcome} {}",
            stream.pairs[r.pair].verdict, r.line
        );
    };
    for r in &stream.warmup {
        line("warmup", r);
    }
    for frame in &stream.frames {
        println!("frame {}", frame.len());
        for r in frame {
            line("timed", r);
        }
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
