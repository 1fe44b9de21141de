//! # annot-service
//!
//! Containment-as-a-service: a long-lived, concurrent decision server over
//! the classification of *"Classification of Annotation Semirings over
//! Query Containment"* (Kostylev, Reutter, Salamon; PODS 2012).
//!
//! * [`proto`] — the line protocol (`DECIDE <semiring> <q1> ⊑ <q2>`, …);
//! * [`cache`] — the sharded semantic cache, keyed exactly by the
//!   canonical codes of the query pair *up to isomorphism* and bounded by
//!   one byte budget;
//! * [`server`] — request handling over request-local schemas and the
//!   thread-per-core accept loop over a `TcpListener`, with admission
//!   control (decide budgets, connection cap, read timeouts) and pipelined
//!   `BATCH` framing for sustained traffic.
//!
//! Semiring dispatch is runtime-dynamic through
//! [`annot_core::registry::SemiringId`], so one server process answers for
//! every Table 1 row.
//!
//! ## Example (transport-free)
//!
//! ```
//! use annot_service::Service;
//!
//! let service = Service::new();
//! let first = service.handle_line("DECIDE Why Q() :- R(u, v), R(u, w) <= Q() :- R(u, v), R(u, v)");
//! assert!(first.reply().starts_with("OK not-contained miss"));
//! // An α-renamed variant of the same pair is answered from the cache:
//! let again = service.handle_line("DECIDE Why Q() :- R(a, b), R(a, c) <= Q() :- R(x, y), R(x, y)");
//! assert!(again.reply().starts_with("OK not-contained hit"));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod proto;
pub mod server;

pub use cache::{Cache, CacheStats};
pub use proto::{parse_request, Request, ServiceCounters};
pub use server::{serve, BatchItem, Outcome, Service, ServiceConfig, ShutdownFlag};
