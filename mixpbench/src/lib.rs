//! The HPC-MixPBench repository benchmark.
//!
//! Two workloads (`paper-slice`, `table5-small`), each run either timed
//! (tracing off, end-to-end metrics) or traced (a separate replay with
//! benchmark-owned spans around the calls into each crate, per-layer
//! metrics, and a closed-loop serve probe). See `README.md` beside this
//! crate.

pub mod alloc;
pub mod calib;
pub mod closed;
pub mod expected;
pub mod meta;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;
