//! # iloc-bench
//!
//! Experiment harness reproducing **every figure** of the paper's
//! evaluation (Section 6) plus the design-choice ablations of
//! [`experiments::ablations`] (the README's "Reproducing the paper"
//! section lists both). The `reproduce` binary drives the full suite:
//!
//! ```text
//! cargo run -p iloc-bench --release --bin reproduce            # all figures
//! cargo run -p iloc-bench --release --bin reproduce -- fig11   # one figure
//! cargo run -p iloc-bench --release --bin reproduce -- --quick # scaled down
//! ```
//!
//! Absolute milliseconds differ from the paper's 2007 SunFire numbers;
//! the *shapes* — who wins, by what factor, where the curves bend — are
//! what `tests/shapes.rs` asserts.
//!
//! Beside the paper harness sits the serving stack's smoke driver: the
//! [`loadgen`] module and binary (one data-described scenario driven
//! against real `iloc-server` / `iloc-router` processes in CI, gating
//! zero steady-state allocations, node health, dropped pushes and a
//! p99 ceiling; `tests/zero_alloc.rs` runs the same gate in process
//! under `cargo test`) and the `crash_recovery` binary. Serving
//! *numbers* come from neither: the repo benchmark under `benchmark/`
//! is the one instrument claims are measured with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod harness;
pub mod loadgen;
pub mod resilient;

pub use config::{Scale, TestBed};
pub use harness::{Row, Summary};
pub use resilient::ResilientClient;
