//! The line protocol spoken by the decision server.
//!
//! Requests are single lines, UTF-8, newline-terminated:
//!
//! ```text
//! DECIDE <semiring> <q1> ⊑ <q2>     decide K-containment of two (U)CQs
//! BATCH <n>                         pipelined mode: the next n lines are
//!                                   requests, answered per-item (below)
//! STATS                             cache + service counters
//! PING                              liveness probe
//! QUIT                              close this connection
//! SHUTDOWN                          stop the server
//! ```
//!
//! The containment sign may be spelled `⊑` (U+2291) or ASCII `<=`.  The
//! queries use the Datalog-style grammar of [`annot_query::parser`] —
//! a UCQ with `;`-separated rules; a single rule is a CQ.  The semiring
//! name is resolved case-insensitively through
//! [`annot_core::registry::SemiringId::from_name`] (`Why`, `Why[X]`,
//! `T+`, `Tropical`, `N`, `Bag`, …).
//!
//! Replies are single lines as well:
//!
//! ```text
//! OK <verdict> <cache> <method>     verdict ∈ {contained, not-contained, unknown}
//!                                   cache  ∈ {hit, miss}
//! OK stats hits=… … approx_bytes=…  see `format_stats`
//! OK pong
//! OK bye
//! OK shutting-down
//! ERR <message>                     malformed request; the connection stays up
//! OVERLOAD <reason> <k>=<v>…        admission control refused the request
//!                                   (decide budget, batch cap); retry smaller
//! BUSY connections cap=<n>          connection cap reached; sent once, then
//!                                   the server closes the connection
//! ```
//!
//! ## Batch framing
//!
//! `BATCH <n>` (1 ≤ n ≤ the server's batch cap) switches the connection
//! into pipelined mode for exactly `n` lines: the client sends `n`
//! request lines back-to-back without waiting, the server answers each
//! with its usual reply *prefixed by the 0-based sequence number*, and
//! terminates the batch with `DONE <n>`:
//!
//! ```text
//! → BATCH 3
//! → DECIDE Why Q() :- R(u, v) ⊑ Q() :- R(x, y)
//! → PING
//! → DECIDE N Q() :- R(u, v) ⊑ Q() :- R(x, y)
//! ← 2 OK contained miss …
//! ← 0 OK contained miss …
//! ← 1 OK pong
//! ← DONE 3
//! ```
//!
//! Replies may arrive **out of order** (items are decided concurrently by
//! a small worker pool); the sequence tag, not the arrival order,
//! identifies the item.  Only `DECIDE`, `PING` and `STATS` are allowed
//! inside a batch — `QUIT`, `SHUTDOWN` and nested `BATCH` answer a tagged
//! `ERR` and the batch continues.  The framing is transactional at the
//! transport level: a connection that dies before all `n` lines arrive
//! has none of its batch processed.

use crate::cache::CacheStats;
use annot_core::decide::{Decision, Verdict};

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `DECIDE <semiring> <q1> ⊑ <q2>`
    Decide {
        /// Semiring name, unresolved (lookup happens in the server so the
        /// error message can name the offending spelling).
        semiring: String,
        /// Left query text.
        q1: String,
        /// Right query text.
        q2: String,
    },
    /// `BATCH <n>`: the next `n` lines are requests, answered per-item.
    Batch {
        /// Number of request lines that follow.
        count: usize,
    },
    /// `STATS`
    Stats,
    /// `PING`
    Ping,
    /// `QUIT`
    Quit,
    /// `SHUTDOWN`
    Shutdown,
}

/// Parses one request line.  Errors are the `ERR` message to send back.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "DECIDE" => parse_decide(rest),
        "BATCH" => parse_batch(rest),
        "STATS" => Ok(Request::Stats),
        "PING" => Ok(Request::Ping),
        "QUIT" => Ok(Request::Quit),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "" => Err("empty request".to_string()),
        other => Err(format!(
            "unknown verb {other:?} (expected DECIDE, BATCH, STATS, PING, QUIT or SHUTDOWN)"
        )),
    }
}

fn parse_decide(rest: &str) -> Result<Request, String> {
    let (semiring, queries) = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| "DECIDE needs: <semiring> <q1> \u{2291} <q2>".to_string())?;
    let (q1, q2) = split_containment(queries)
        .ok_or_else(|| "DECIDE needs a containment sign: \u{2291} or <=".to_string())?;
    if q1.trim().is_empty() || q2.trim().is_empty() {
        return Err("DECIDE: empty query on one side of the containment sign".to_string());
    }
    Ok(Request::Decide {
        semiring: semiring.to_string(),
        q1: q1.trim().to_string(),
        q2: q2.trim().to_string(),
    })
}

fn parse_batch(rest: &str) -> Result<Request, String> {
    let count: usize = rest
        .parse()
        .map_err(|_| format!("BATCH needs a count, got {rest:?}"))?;
    if count == 0 {
        return Err("BATCH count must be at least 1".to_string());
    }
    Ok(Request::Batch { count })
}

/// Splits on the first `⊑` or `<=`.  Neither can occur inside the query
/// grammar (identifiers, parentheses, commas, `:-`, `;`, `!=`), so the
/// first occurrence is unambiguous.
fn split_containment(text: &str) -> Option<(&str, &str)> {
    let unicode = text.find('\u{2291}').map(|i| (i, '\u{2291}'.len_utf8()));
    let ascii = text.find("<=").map(|i| (i, 2));
    let (at, width) = match (unicode, ascii) {
        (Some(u), Some(a)) => {
            if u.0 < a.0 {
                u
            } else {
                a
            }
        }
        (Some(u), None) => u,
        (None, Some(a)) => a,
        (None, None) => return None,
    };
    Some((&text[..at], &text[at + width..]))
}

/// Formats the reply for a decision, including whether it was a cache hit.
pub fn format_decision(decision: &Decision, hit: bool) -> String {
    let verdict = match decision.answer {
        Verdict::Contained => "contained",
        Verdict::NotContained => "not-contained",
        Verdict::Unknown => "unknown",
    };
    let cache = if hit { "hit" } else { "miss" };
    format!("OK {verdict} {cache} {}", decision.method)
}

/// Service-level counters reported alongside the cache's in `STATS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Requests refused by admission control (decide budget, batch cap).
    pub overloads: u64,
    /// Connections refused by the connection cap (`BUSY` replies sent).
    pub busy: u64,
    /// Batches processed to completion.
    pub batches: u64,
}

/// Formats the `STATS` reply: the request, insert and eviction counters,
/// the admission-control counters, then the approximate byte footprint
/// (the byte-budget enforcement input).
pub fn format_stats(stats: &CacheStats, service: &ServiceCounters) -> String {
    format!(
        "OK stats hits={} misses={} decides={} inserts={} entries={} evictions={} \
         overloads={} busy={} batches={} approx_bytes={}",
        stats.hits,
        stats.misses,
        stats.decides,
        stats.inserts,
        stats.entries,
        stats.evictions,
        service.overloads,
        service.busy,
        service.batches,
        stats.approx_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_lines_parse_with_either_sign() {
        let unicode = parse_request("DECIDE Why Q() :- R(u, v) \u{2291} Q() :- R(x, y)").unwrap();
        let ascii = parse_request("DECIDE Why Q() :- R(u, v) <= Q() :- R(x, y)").unwrap();
        let expected = Request::Decide {
            semiring: "Why".to_string(),
            q1: "Q() :- R(u, v)".to_string(),
            q2: "Q() :- R(x, y)".to_string(),
        };
        assert_eq!(unicode, expected);
        assert_eq!(ascii, expected);
    }

    #[test]
    fn ucq_bodies_with_semicolons_survive_the_split() {
        let r =
            parse_request("DECIDE T+ Q() :- R(v), S(v) <= Q() :- R(v), R(v) ; Q() :- S(v), S(v)")
                .unwrap();
        match r {
            Request::Decide { q1, q2, .. } => {
                assert_eq!(q1, "Q() :- R(v), S(v)");
                assert!(q2.contains(';'));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_verbs_parse_case_insensitively() {
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(parse_request(" PING "), Ok(Request::Ping));
        assert_eq!(parse_request("quit"), Ok(Request::Quit));
        assert_eq!(parse_request("Shutdown"), Ok(Request::Shutdown));
    }

    #[test]
    fn batch_headers_parse_and_validate() {
        assert_eq!(parse_request("BATCH 3"), Ok(Request::Batch { count: 3 }));
        assert_eq!(parse_request("batch 1"), Ok(Request::Batch { count: 1 }));
        assert!(parse_request("BATCH").is_err());
        assert!(parse_request("BATCH 0").is_err());
        assert!(parse_request("BATCH -2").is_err());
        assert!(parse_request("BATCH many").is_err());
        assert!(parse_request("BATCH 3 4").is_err());
    }

    #[test]
    fn stats_reply_reports_every_counter() {
        let stats = CacheStats {
            hits: 1,
            misses: 2,
            decides: 2,
            inserts: 2,
            entries: 1,
            evictions: 1,
            approx_bytes: 640,
        };
        let service = ServiceCounters {
            overloads: 4,
            busy: 5,
            batches: 6,
        };
        assert_eq!(
            format_stats(&stats, &service),
            "OK stats hits=1 misses=2 decides=2 inserts=2 entries=1 evictions=1 \
             overloads=4 busy=5 batches=6 approx_bytes=640"
        );
    }

    #[test]
    fn malformed_lines_error_without_panicking() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROBNICATE x").is_err());
        assert!(parse_request("DECIDE Why").is_err());
        assert!(parse_request("DECIDE Why Q() :- R(x)").is_err());
        assert!(parse_request("DECIDE Why <= Q() :- R(x)").is_err());
    }
}
