//! # bench: the reproduction harness
//!
//! Regenerates every table and figure in the evaluation of Cooper's
//! *Replicated Distributed Programs*: the echo testbeds of §4.4.1
//! ([`testbed`]), the table/figure formatters ([`tables`]), the
//! `BENCH_4`–`BENCH_8` benchmarks ([`bench4`] … [`bench8`]), which emit
//! [`record::Record`]s and gate them, and the `repro` binary that prints
//! paper-vs-measured comparisons.

#![warn(missing_docs)]

pub mod ablations;
pub mod bench4;
pub mod bench5;
pub mod bench6;
pub mod bench7;
pub mod bench8;
pub mod record;
pub mod tables;
pub mod testbed;

pub use ablations::{ablation_protocol, ablation_sync, ablation_waiting, run_waiting_policy};
pub use bench8::{run_sync, Scheme, SyncOutcome};
pub use testbed::{run_circus_echo, run_multicast_call, run_tcp_echo, run_udp_echo, EchoResult};
