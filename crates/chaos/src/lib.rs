//! # chaos: deterministic simulation testing for the whole stack
//!
//! A FoundationDB-style chaos harness over the `simnet` simulator: every
//! run is a pure function of one `u64` seed — the fault schedule, the
//! workload, the network's loss and jitter, every timer — so a failure
//! found by sweeping seeds is replayed bit-for-bit from the seed alone.
//!
//! The pieces:
//!
//! - [`harness`] — the [`Workload`] trait and the one harness every
//!   workload runs through: [`run`]`(seed, &workload, &options)` builds
//!   the world, drives the faults, quiesces, runs the oracles, and
//!   returns a [`Report`] whose trace hash makes "same seed ⇒ same run"
//!   a one-line assertion and whose [`Report::repro`] line makes a
//!   failing sweep seed copy-pasteable; [`sweep`] runs many seeds in
//!   parallel;
//! - the four workloads, each a replicated service, its clients, and its
//!   oracles:
//!   - [`Store`] — replicated transactions under commit (§5); oracles:
//!     exactly-once execution, replica-state convergence, transaction
//!     atomicity, no surviving stale binding;
//!   - [`Bcast`] — the *ordered broadcast* service of §5.4; oracles:
//!     identical applied order at every member, no starvation;
//!   - [`Commute`] — the lock-free *commutative operations* service;
//!     oracle: convergence without commit;
//!   - [`Recovery`] — durable store members on seeded faulty disks, one
//!     scripted crash, and a log-replay rejoin; oracles: the store's
//!     plus recovered digest and torn-log safety;
//! - [`drive`] — the world every workload runs in: a Ringmaster troupe
//!   with its self-healing agent, a configlang-solved placement, warm
//!   spares, and name-importing clients, with every crash replayed
//!   through the configuration manager and repaired in-system (§6.4);
//! - [`plan`] — seeded [`FaultPlan`]s: host crashes and restarts, process
//!   kills, single-host partitions, loss/duplication bursts, and
//!   [`NetConfig`](simnet::NetConfig) swaps at simulated times, all
//!   derived deterministically from the seed and calibrated against the
//!   paired-message crash-detection horizon (a partition is *not* a
//!   crash, §4.3.5);
//! - [`oracle`] — the invariants every workload shares (serial-number
//!   monotonicity, no permanent under-replication) and the store's.
//!
//! Replay one failing seed with
//! `CHAOS_SEED=<seed> cargo test -p chaos --test <workload>`.

#![warn(missing_docs)]

pub mod bcast;
pub mod client;
pub mod commute;
pub mod drive;
pub mod harness;
pub mod oracle;
pub mod plan;
pub mod recovery;
pub mod store;

pub use bcast::{Bcast, ChaosApp};
pub use client::{ChaosBroadcaster, ChaosClient, ChaosCmClient, RebindingClient};
pub use commute::Commute;
pub use drive::{CLIENT_PORT, MEMBER_PORT, MODULE};
pub use harness::{
    chaos_jobs, quiesce, run, sweep, sweep_seeds, Faults, Options, Quiesced, Rejoin, Report,
    Workload,
};
pub use oracle::Violation;
pub use plan::{Fault, FaultPlan, PlanOptions, PlannedFault};
pub use recovery::Recovery;
pub use store::Store;
