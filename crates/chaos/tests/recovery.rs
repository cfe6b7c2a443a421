//! The recovery chaos sweep: durable members on hostile disks, one
//! crash mid-commit per run, log-replay rejoin with delta catch-up —
//! the full durability story under oracle enforcement.
//!
//! `CHAOS_SEED=<n>` replays a single seed; the default sweep covers ten.

use chaos::{run, sweep_seeds, Options, Recovery, Rejoin, Report};

fn rejoin(r: &Report) -> &Rejoin {
    r.rejoin.as_ref().expect("recovery runs a scripted rejoin")
}

#[test]
fn recovery_sweep_with_hostile_disks() {
    // Disk faults armed (transient write errors, torn tails and bit
    // flips at crash) on every seed: recovery must come out clean no
    // matter what the disk did to the log.
    let seeds = sweep_seeds(1..11);
    for &seed in &seeds {
        let r = run(seed, &Recovery::default(), &Options::default());
        assert!(r.passed(), "{}", r.failure_summary());
        assert!(
            rejoin(&r).recovery.is_some(),
            "seed {seed}: the recovered member never ran disk recovery"
        );
        assert!(
            rejoin(&r).mttr.is_some(),
            "seed {seed}: the recovered member never rejoined"
        );
    }
}

#[test]
fn recovery_replays_the_local_log() {
    // The crash lands halfway through the workload, so the recovered
    // member must find real history on its disk — a snapshot, replayed
    // records, or both — rather than booting empty.
    let r = run(2, &Recovery::default(), &Options::default());
    assert!(r.passed(), "{}", r.failure_summary());
    let info = rejoin(&r).recovery.expect("recovery ran");
    assert!(
        info.snapshot_version > 0 || info.replayed > 0,
        "nothing recovered from disk: {info:?}"
    );
}

#[test]
fn faultless_disks_lose_nothing() {
    // Every commit record is fsynced before the member acknowledges, so
    // with fault injection off the crash can tear nothing.
    let workload = Recovery {
        disk_faults: false,
        ..Recovery::default()
    };
    let r = run(3, &workload, &Options::default());
    assert!(r.passed(), "{}", r.failure_summary());
    let info = rejoin(&r).recovery.expect("recovery ran");
    assert_eq!(info.torn_bytes, 0, "faultless disk tore the log: {info:?}");
}

#[test]
fn delta_catchup_moves_fewer_bytes_than_full_state() {
    // Same seed, same crash, same log on disk — the only difference is
    // whether the rejoin asks for the delta past its replayed log head
    // or the survivors' whole state. The delta must be strictly
    // smaller: that saving is the point of keeping the log.
    let delta = run(
        5,
        &Recovery {
            use_delta: true,
            ..Recovery::default()
        },
        &Options::default(),
    );
    let full = run(
        5,
        &Recovery {
            use_delta: false,
            ..Recovery::default()
        },
        &Options::default(),
    );
    assert!(delta.passed(), "{}", delta.failure_summary());
    assert!(full.passed(), "{}", full.failure_summary());
    assert_eq!(
        delta.counter("spare.delta_fetches"),
        1,
        "delta rejoin did not use the delta path"
    );
    let (delta_bytes, full_bytes) = (
        delta.counter("spare.state_bytes"),
        full.counter("spare.state_bytes"),
    );
    assert!(full_bytes > 0, "full rejoin moved no state");
    assert!(
        delta_bytes < full_bytes,
        "delta rejoin moved {delta_bytes} bytes, full moved {full_bytes}"
    );
}

#[test]
fn same_seed_same_recovery_run() {
    // Durability is inside the determinism contract: disk costs, fault
    // draws, replay, and catch-up must all replay bit-identically.
    let a = run(7, &Recovery::default(), &Options::default());
    let b = run(7, &Recovery::default(), &Options::default());
    assert_eq!(a.trace_hash, b.trace_hash, "trace hashes diverged");
    assert_eq!(a.span_hash, b.span_hash, "span trees diverged");
    assert_eq!(a.metrics_json, b.metrics_json, "metrics dumps diverged");
    assert_eq!(rejoin(&a).mttr, rejoin(&b).mttr);
    assert_eq!(
        a.counter("spare.state_bytes"),
        b.counter("spare.state_bytes")
    );
    assert_eq!(a.confirmed, b.confirmed);
}
