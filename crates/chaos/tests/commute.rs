//! The commutative-operations chaos sweep: ten seeds, full fault
//! schedules, convergence-without-commit oracle — plus a partition-heavy
//! schedule, since partitions are exactly the regime where commutative
//! ops shine (no commit round to stall).

use chaos::{chaos_jobs, run, sweep, sweep_seeds, Commute, Faults, Options, PlanOptions};
use simnet::Duration;

#[test]
fn commute_sweep_converges_without_commit() {
    let seeds = sweep_seeds(1..11);
    let replaying = std::env::var("CHAOS_SEED").is_ok();
    let reports = sweep(&seeds, &Commute, &Options::default(), chaos_jobs());
    let mut failures = Vec::new();
    let mut repairs = 0usize;
    let mut batches = 0usize;
    for r in &reports {
        println!(
            "seed {:>3}: {} faults, {} repairs, {} batches, {} rebinds, trace {:#018x} \
             over {} events{}",
            r.seed,
            r.faults,
            r.repairs,
            r.confirmed,
            r.rebinds,
            r.trace_hash,
            r.trace_events,
            if r.passed() { "" } else { "  FAILED" },
        );
        repairs += r.repairs;
        batches += r.confirmed;
        if !r.passed() {
            failures.push(r.failure_summary());
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} commutative chaos runs failed:\n{}",
        failures.len(),
        reports.len(),
        failures.join("\n")
    );
    if !replaying {
        assert!(repairs > 0, "no crash was ever repaired across the sweep");
        assert!(
            batches >= seeds.len() * 2 * 30,
            "fewer batches than scripts imply: {batches}"
        );
    }
}

#[test]
fn commute_same_seed_is_bit_identical() {
    let opts = Options::default();
    let a = run(5, &Commute, &opts);
    let b = run(5, &Commute, &opts);
    assert_eq!(a.trace_hash, b.trace_hash, "trace hashes diverge");
    assert_eq!(a.trace_events, b.trace_events);
    assert_eq!(a.cpu_total, b.cpu_total);
    assert_eq!(a.net, b.net);
    assert_eq!(a.metrics_json, b.metrics_json, "metrics dumps diverge");
    assert_eq!(a.span_hash, b.span_hash, "span hashes diverge");
}

/// Members partitioned over and over mid-stream still converge: the ops
/// commute, delivery-everywhere is the only obligation, and there is no
/// commit round for the partition to abort.
#[test]
fn partition_storm_still_converges() {
    let opts = Options {
        faults: Faults::Plan(PlanOptions {
            partitions_only: Some((
                Duration::from_micros(500_000),
                Duration::from_micros(1_900_000),
            )),
            ..PlanOptions::default()
        }),
        ..Options::default()
    };
    for seed in [21, 22, 23] {
        let r = run(seed, &Commute, &opts);
        assert!(r.passed(), "{}", r.failure_summary());
    }
}
