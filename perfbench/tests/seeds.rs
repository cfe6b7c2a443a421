//! The benchmark's own checks: inputs are a pure function of the seed,
//! the simulated figures repeat exactly for a seed, tracing only
//! observes, and `BENCHMARK.json` names every metric the program prints.
//!
//! The runs use shortened scripts so the suite stays quick in debug
//! builds; the workloads themselves are unchanged.

use perfbench::gen::{self, EchoInputs, FaultsInputs, TxnMixInputs, PERIOD_US};
use perfbench::{echo, faults, txnmix, RunResult, END_TO_END, PER_LAYER};

fn small_echo(seed: u64) -> EchoInputs {
    let mut i = gen::echo(seed);
    for s in i.single.iter_mut() {
        s.truncate(40);
    }
    i.troupe.truncate(40);
    i
}

fn small_txn_mix(seed: u64) -> TxnMixInputs {
    let mut i = gen::txn_mix(seed);
    for s in i.readers.iter_mut().chain(i.writers.iter_mut()) {
        s.truncate(30);
    }
    i.broadcasts.iter_mut().for_each(|s| s.truncate(30));
    i.commutes.iter_mut().for_each(|s| s.truncate(30));
    i
}

fn small_faults(seed: u64) -> FaultsInputs {
    let mut i = gen::faults(seed);
    let length_us = 2 * PERIOD_US;
    i.faults.retain(|(at, _)| *at < length_us);
    for ops in i.ops.iter_mut() {
        ops.retain(|(due, _)| *due < length_us);
    }
    i.length_us = length_us;
    i
}

/// Everything a run yields that must repeat exactly for a seed.
fn fingerprint(r: &RunResult) -> String {
    assert_eq!(r.check, Ok(()), "output checks");
    let mut s = format!("{} {} ", r.attempted, r.failed);
    for (k, v) in r.sim.iter().chain(r.det.iter()) {
        s.push_str(&format!("{k}={v:?} "));
    }
    s
}

fn runs(seed: u64, traced: bool) -> Vec<RunResult> {
    vec![
        echo::run(&small_echo(seed), seed, traced).0,
        txnmix::run(&small_txn_mix(seed), seed, traced).0,
        faults::run(&small_faults(seed), seed, traced).0,
    ]
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    assert_eq!(gen::echo(7), gen::echo(7));
    assert_eq!(gen::txn_mix(7), gen::txn_mix(7));
    assert_eq!(gen::faults(7), gen::faults(7));
    assert_ne!(gen::echo(7), gen::echo(8));
    assert_ne!(gen::txn_mix(7), gen::txn_mix(8));
    assert_ne!(gen::faults(7).ops, gen::faults(8).ops);
    assert_ne!(gen::faults(7).faults, gen::faults(8).faults);
}

#[test]
fn same_seed_gives_identical_simulated_figures() {
    let a: Vec<String> = runs(3, false).iter().map(fingerprint).collect();
    let b: Vec<String> = runs(3, false).iter().map(fingerprint).collect();
    assert_eq!(a, b);
    let c: Vec<String> = runs(4, false).iter().map(fingerprint).collect();
    for (x, y) in a.iter().zip(&c) {
        assert_ne!(x, y, "another seed gives another run");
    }
}

#[test]
fn tracing_only_observes() {
    let plain: Vec<String> = runs(5, false).iter().map(fingerprint).collect();
    let traced = runs(5, true);
    let with: Vec<String> = traced.iter().map(fingerprint).collect();
    assert_eq!(plain, with);
    for r in &traced {
        assert!(r.traced["simnet.step_self_us_per_op"] > 0.0);
        assert!(r.traced["circus.call_ms_p50"] > 0.0);
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let count = |s: &str| json.matches(&format!("\"name\": \"{s}\"")).count();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert_eq!(count(name), 1, "{name} listed once");
        let entry = &json[json.find(&format!("\"name\": \"{name}\"")).expect("listed")..];
        let entry = &entry[..entry.find('}').expect("entry closes")];
        assert!(
            entry.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} in {unit}"
        );
    }
    for w in perfbench::Workload::ALL {
        assert_eq!(count(w.name()), 1, "workload {} listed", w.name());
    }
    let listed = json.matches("\"name\":").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + 3);
}
