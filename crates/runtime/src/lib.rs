//! Zero-dependency runtime substrate for the compsynth workspace.
//!
//! Every crate in the workspace builds on these four modules instead of
//! external crates, which keeps the whole workspace hermetic (no registry
//! access needed, ever) and — more importantly for a randomized synthesis
//! loop — *deterministic by construction*: all randomness flows through
//! [`rng::Rng`], whose stream is fixed by a caller-provided seed.
//!
//! * [`rng`] — seedable xoshiro256++ PRNG with range sampling, slice
//!   helpers, and cheap stream forking (replaces `rand`).
//! * [`pool`] — scoped parallel map over `std::thread::scope` with chunked
//!   work distribution and panic propagation (replaces `crossbeam`).
//! * [`bench`] — a minimal benchmark harness: warmup, timed samples,
//!   median/MAD/SIQR reporting and optional CSV emission (replaces
//!   `criterion`), plus the [`bench::Provenance`] stamp for result files.
//! * [`prop`] — property testing with generator combinators, fixed-seed
//!   case generation, choice-stream shrinking and failure-seed reporting
//!   (replaces `proptest`).
//! * [`hash`] — a stable FNV-1a hasher for content-derived keys that must
//!   be identical across processes (the solver cache's query hashing).
//! * [`trace`] — structured tracing: nested spans, counters, thread/worker
//!   stamps, and pluggable sinks (JSONL file, stderr pretty-printer,
//!   in-memory collector); strictly observational and off by default.
//! * [`metrics`] — aggregated observability on the same budget: sharded
//!   atomic counters/gauges/log-bucketed histograms, deterministic
//!   Prometheus-style exposition, and a trace→metrics bridge that folds
//!   span streams into flame stacks and per-phase latency histograms
//!   (replaces `prometheus` + `hdrhistogram` + `inferno`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod hash;
pub mod metrics;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod trace;

pub use rng::Rng;
