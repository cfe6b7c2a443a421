//! Top-level smoke test for the chaos harness: one full seeded run of
//! the whole stack under faults, with every oracle checked at quiesce.
//! The broad sweep lives in `crates/chaos/tests/store.rs`; this pins the
//! harness into the tier-1 suite with a single representative seed.

use rdp::chaos::{run, Options, Store};

#[test]
fn one_chaos_seed_end_to_end() {
    let r = run(7, &Store, &Options::default());
    assert!(r.passed(), "{}", r.failure_summary());
    assert!(r.confirmed > 0, "workload committed nothing");
    assert!(r.faults > 0, "plan scheduled no faults");

    // Determinism in miniature: the same seed replays to the same trace.
    let again = run(7, &Store, &Options::default());
    assert_eq!(r.trace_hash, again.trace_hash);
    assert_eq!(r.trace_events, again.trace_events);
}
