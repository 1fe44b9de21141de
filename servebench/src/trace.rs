//! The traced run: replays a workload's exact stream in-process, without
//! TCP, and records a span around each layer's public function.
//!
//! Each pass over the stream runs a stage pass and a service pass.  The
//! stage pass calls the layers one by one on a benchmark-owned schema and
//! cache: `proto::parse_request`, `parser::parse_ucq` on both sides,
//! `key::ucq_code`, `Cache::get_or_decide` with a child span around
//! `registry::decide_ucq_dyn` inside its decide closure, and on hits
//! `are_isomorphic_ucq` against the stored base pair.  The service pass
//! feeds the same lines to a second `Service` through `handle_line`: the
//! untraced handle time the stage self-times must account for.  On
//! batch-mix a third `Service` takes each timed frame through
//! `handle_batch`, as the server does.

use crate::gen::Stream;
use annot_core::registry::{decide_ucq_dyn, SemiringId};
use annot_hom::are_isomorphic_ucq;
use annot_query::key::ucq_code;
use annot_query::{parser, Schema, Ucq};
use annot_service::proto::{format_decision, parse_request, Request};
use annot_service::{BatchItem, Cache, Service};
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names: the public function each span wraps.
pub const PROTO: &str = "proto::parse_request";
pub const PARSER: &str = "parser::parse_ucq";
pub const KEY: &str = "key::ucq_code";
pub const CACHE: &str = "Cache::get_or_decide";
pub const DECIDE: &str = "registry::decide_ucq_dyn";
pub const ISO: &str = "are_isomorphic_ucq";
pub const HANDLE: &str = "Service::handle_line";
pub const BATCH: &str = "Service::handle_batch";

/// Passes over the stream.  A layer's figure for a request is its fastest
/// pass, as the TCP figures take each request's fastest round.
const PASSES: usize = 3;

/// One timed call.  Times are nanoseconds since the replay began.
pub struct Span {
    pub name: &'static str,
    /// The pass that recorded it.
    pub pass: usize,
    /// Request id: warm-up requests first, then the timed ones in send
    /// order.  A `handle_batch` span carries its frame's first item.
    pub request: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the replay recorded.
pub struct Replay {
    pub spans: Vec<Span>,
    /// Per request: CQs keyed in total, and those whose code took the
    /// coarse fallback.
    pub codes: Vec<(usize, usize)>,
    /// Per request: whether the stage pass's cache answered it.
    pub hits: Vec<bool>,
    /// Replies of any pass whose verdict differs from the expected one.
    pub mismatches: usize,
}

struct Recorder {
    origin: Instant,
    pass: usize,
    spans: Vec<Span>,
}

impl Recorder {
    fn push(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            pass: self.pass,
            request,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }
}

/// Replays `stream` [`PASSES`] times.
pub fn replay(stream: &Stream) -> Replay {
    let requests = stream.warmup.len() + stream.timed().count();
    let mut rec = Recorder {
        origin: Instant::now(),
        pass: 0,
        spans: Vec::with_capacity(requests * 8 * PASSES),
    };
    let (codes, hits, mut mismatches) = stage_pass(stream, &mut rec);
    for pass in 0..PASSES {
        rec.pass = pass;
        if pass > 0 {
            mismatches += stage_pass(stream, &mut rec).2;
        }
        mismatches += service_pass(stream, &mut rec, false);
        if stream.frames.iter().any(|f| f.len() > 1) {
            mismatches += service_pass(stream, &mut rec, true);
        }
    }
    Replay {
        spans: rec.spans,
        codes,
        hits,
        mismatches,
    }
}

/// Calls the layers one by one on a fresh benchmark-owned schema and
/// cache.  Returns, per request, the code tags and whether the cache hit,
/// and the number of replies with the wrong verdict.
fn stage_pass(stream: &Stream, rec: &mut Recorder) -> (Vec<(usize, usize)>, Vec<bool>, usize) {
    let requests: Vec<_> = stream.warmup.iter().chain(stream.timed()).collect();
    let mut codes = Vec::with_capacity(requests.len());
    let mut hits = Vec::with_capacity(requests.len());
    let mut mismatches = 0;
    let mut schema = Schema::with_relations(crate::gen::VOCABULARY.iter().map(|&n| (n, 2)));
    let cache = Cache::new();
    let mut base: HashMap<usize, (Ucq, Ucq)> = HashMap::new();
    for (id, request) in requests.iter().enumerate() {
        let t0 = Instant::now();
        let parsed = parse_request(&request.line);
        rec.push(PROTO, id, None, t0, Instant::now());
        let Ok(Request::Decide { semiring, q1, q2 }) = parsed else {
            panic!("generated line does not parse: {}", request.line);
        };
        let sid = SemiringId::from_name(&semiring).expect("generated rows are registered");

        let t0 = Instant::now();
        let u1 = parser::parse_ucq(&mut schema, &q1).expect("generated queries parse");
        let u2 = parser::parse_ucq(&mut schema, &q2).expect("generated queries parse");
        rec.push(PARSER, id, None, t0, Instant::now());

        let t0 = Instant::now();
        let c1 = ucq_code(&u1);
        let c2 = ucq_code(&u2);
        rec.push(KEY, id, None, t0, Instant::now());
        let (k1, coarse1) = code_tags(&c1);
        let (k2, coarse2) = code_tags(&c2);
        codes.push((k1 + k2, coarse1 + coarse2));

        let mut decided = None;
        let t0 = Instant::now();
        let (decision, hit) = cache.get_or_decide(sid, &u1, &u2, |a, b| {
            let start = Instant::now();
            let d = decide_ucq_dyn(sid, a, b);
            decided = Some((start, Instant::now()));
            d
        });
        let cache_span = rec.push(CACHE, id, None, t0, Instant::now());
        if let Some((start, end)) = decided {
            rec.push(DECIDE, id, Some(cache_span), start, end);
        }
        hits.push(hit);
        if let (true, Some((b1, b2))) = (hit, base.get(&request.pair)) {
            let t0 = Instant::now();
            let same = are_isomorphic_ucq(b1, &u1) && are_isomorphic_ucq(b2, &u2);
            rec.push(ISO, id, None, t0, Instant::now());
            // A hit on an entry that is not isomorphic is a wrong answer
            // even where the verdicts happen to agree.
            mismatches += usize::from(!same);
        } else if !hit && id < stream.warmup.len() {
            base.insert(request.pair, (u1, u2));
        }
        if !stream.pairs[request.pair].answered_by(&format_decision(&decision, hit)) {
            mismatches += 1;
        }
    }
    (codes, hits, mismatches)
}

/// Feeds the stream to a fresh `Service`: every request through
/// `handle_line`, or with `batched` each timed frame through
/// `handle_batch` (the warm-up then records no spans).  Returns the number
/// of replies with the wrong verdict.
fn service_pass(stream: &Stream, rec: &mut Recorder, batched: bool) -> usize {
    let requests: Vec<_> = stream.warmup.iter().chain(stream.timed()).collect();
    let wrong =
        |reply: &str, id: usize| usize::from(!stream.pairs[requests[id].pair].answered_by(reply));
    let service = Service::new();
    let mut mismatches = 0;
    for (id, request) in stream.warmup.iter().enumerate() {
        let t0 = Instant::now();
        let outcome = service.handle_line(&request.line);
        if !batched {
            rec.push(HANDLE, id, None, t0, Instant::now());
        }
        mismatches += wrong(outcome.reply(), id);
    }
    let mut id = stream.warmup.len();
    for frame in &stream.frames {
        if batched {
            let items: Vec<BatchItem> = frame
                .iter()
                .map(|r| BatchItem::from(r.line.as_str()))
                .collect();
            let header = format!("BATCH {}", frame.len());
            let t0 = Instant::now();
            service.handle_line(&header);
            let replies = service.handle_batch(&items);
            rec.push(BATCH, id, None, t0, Instant::now());
            for (seq, reply) in replies {
                mismatches += wrong(&reply, id + seq as usize);
            }
        } else {
            for (offset, request) in frame.iter().enumerate() {
                let t0 = Instant::now();
                let outcome = service.handle_line(&request.line);
                rec.push(HANDLE, id + offset, None, t0, Instant::now());
                mismatches += wrong(outcome.reply(), id + offset);
            }
        }
        id += frame.len();
    }
    mismatches
}

/// Counts the member codes of a `ucq_code` and those with the coarse
/// fallback tag (3) rather than the exact one (2).
fn code_tags(code: &[u64]) -> (usize, usize) {
    let (mut members, mut coarse) = (0, 0);
    let mut i = 1;
    while i < code.len() {
        members += 1;
        if code.get(i + 1) == Some(&3) {
            coarse += 1;
        }
        i += 1 + code[i] as usize;
    }
    (members, coarse)
}

/// Writes the spans as JSON lines.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"pass\":{},\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.pass, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
