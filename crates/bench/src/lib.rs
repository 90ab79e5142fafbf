//! Experiment harness: regenerates every table and figure of the
//! evaluation.
//!
//! Each experiment is a pure function from an [`ExpConfig`] to a
//! [`Table`](spindle_core::report::Table) or
//! [`Figure`](spindle_core::report::Figure), declared as the inputs it
//! reads and what it keeps from each ([`plan`]); the `experiments`
//! binary prints them, the benchmark times them, and the integration
//! tests assert their qualitative shape. The experiment ids (`t1`–`t8`,
//! `f1`–`f13`; the binary's usage line is derived from its experiment
//! table, so it cannot drift) are indexed in `DESIGN.md` and their
//! expected-vs-measured outcomes are recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod figures;
pub mod journal;
pub mod matrix;
pub mod pipeline;
pub mod plan;
pub mod tables;

pub use config::ExpConfig;

/// Convenience result alias: experiments surface any layer's error.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;
