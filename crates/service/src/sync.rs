//! The service's single chokepoint for `std::sync` / `std::thread`.
//!
//! The server and the semantic cache import every mutex, atomic and thread
//! scope from here rather than from `std` directly (`annot-lint` enforces
//! this).  By default the re-exports are exactly the `std` types, so
//! regular builds compile to the same code as without the facade.
//!
//! With the `annot_loom` cargo feature enabled, `Mutex`, `MutexGuard`,
//! `PoisonError` and `thread::scope` switch to the vendored `loom` shim
//! (`vendor/loom`): a model-checking runtime that schedules every lock,
//! unlock, spawn and join and explores the possible interleavings
//! exhaustively.  The atomics stay `std`'s in both builds: the cache, the
//! only state the models race on, is one table under one mutex and holds
//! none.  The cache's models run under `cargo test -p annot-service
//! --features annot_loom`; outside a `loom::model` closure the shim passes
//! straight through to `std`, so the ordinary tests keep working under the
//! feature too.

#[cfg(feature = "annot_loom")]
pub use loom::sync::{Mutex, MutexGuard, PoisonError};
#[cfg(not(feature = "annot_loom"))]
pub use std::sync::{Mutex, MutexGuard, PoisonError};

/// Atomic types and memory orderings: `std`'s in both builds.
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Thread scopes (see the module docs for the swap).
pub mod thread {
    pub use std::thread::available_parallelism;

    #[cfg(feature = "annot_loom")]
    pub use loom::thread::scope;
    #[cfg(not(feature = "annot_loom"))]
    pub use std::thread::scope;
}
