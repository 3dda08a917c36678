//! Layered performance ledger for the compsynth workspace.
//!
//! The ledger drives the synthesis engine only through its public entry
//! points and times every call from outside. Each workload reports the
//! end-to-end metrics a user sees (tracing off) and, in a separate traced
//! run, one number per layer folded from the program's own trace spans.
//! See `README.md` for the workloads, the metric glossary and the
//! comparison protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fold;
pub mod json;
pub mod report;
pub mod stats;
pub mod workload;
