//! Experiment harness for the IMC reproduction.
//!
//! Each module under [`experiments`] regenerates one table or figure of
//! the paper (see `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record). The `imc-bench` binary exposes them as
//! subcommands:
//!
//! ```text
//! cargo run --release -p imc-bench -- table1
//! cargo run --release -p imc-bench -- fig5 --quick
//! cargo run --release -p imc-bench -- all --out results/
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;
