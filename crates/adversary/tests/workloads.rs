//! Hostile datagrams against the ordered-broadcast and commutative
//! workloads: the injector the store sweeps arm, on seeds 1–3 of each,
//! with every workload oracle and the three adversary oracles checked.
//!
//! `CHAOS_SEED=n` replays one seed.

use adversary::{check_adversary, install_adversary};
use chaos::{chaos_jobs, sweep, sweep_seeds, Bcast, Commute, Options, Workload};

fn holds_under_adversary(wl: &dyn Workload) {
    let opts = Options {
        injector: Some(install_adversary),
        ..Options::default()
    };
    let seeds = sweep_seeds(1..4);
    let mut failures = Vec::new();
    for r in sweep(&seeds, wl, &opts, chaos_jobs()) {
        if !r.passed() {
            failures.push(r.failure_summary());
        }
        for v in check_adversary(&r) {
            failures.push(format!("{} seed {}: {v}", r.workload, r.seed));
        }
    }
    assert!(
        failures.is_empty(),
        "{} adversarial failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn bcast_holds_under_adversary() {
    holds_under_adversary(&Bcast);
}

#[test]
fn commute_holds_under_adversary() {
    holds_under_adversary(&Commute);
}
