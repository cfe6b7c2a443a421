//! `repro`: regenerates every table and figure in the paper's evaluation.
//!
//! ```text
//! repro [--quick] [EXPERIMENT...]
//! repro [--quick] --gate BENCH...
//! ```
//!
//! Experiments: `table4.1 table4.2 table4.3 fig4.8 bench4 bench5 bench6 bench7
//! bench8 multicast eq5.1 fig6.3 table7.1 ablation.waiting ablation.sync
//! ablation.protocol` (default: all; `fig4.9-theory` is an alias of
//! `multicast`). `--quick` uses fewer calls/trials.
//!
//! The benchmarks `bench4` … `bench8` print their records (one JSON
//! object per line, see `bench::record`) and write them to `BENCH_4.json`
//! … `BENCH_8.json` in the current directory:
//!
//! - `bench4` — per-replica-count call latency and client `sendmsg`
//!   counts for the unicast and multicast call data planes;
//! - `bench5` — simulator events/sec at growing payloads, and
//!   serial-vs-parallel chaos-sweep wall clock;
//! - `bench6` — events/sec under timer churn (the wheel's home turf),
//!   an echo reference, and a raw wheel-vs-heap micro;
//! - `bench7` — simulated MTTR and state-transfer bytes for the durable
//!   store's crash recovery, over a grid of workload length × snapshot
//!   interval in both rejoin modes;
//! - `bench8` — throughput and abort rate for `k` conflicting clients
//!   through each synchronization scheme — troupe commit, ordered
//!   broadcast, and commutative operations (§5.5).
//!
//! `--gate BENCH...` runs the named benchmarks, prints their records and
//! checks in memory the invariant each must uphold; it writes no file
//! and exits 1 on the first violation:
//!
//! - `bench4` — a 5-member multicast call costs the client fewer
//!   `sendmsg`s than the unicast data plane;
//! - `bench5` — the parallel sweep beats the serial one by a
//!   core-count-aware factor (2x with 4+ workers, 1.2x with 2-3, and
//!   no regression on a single core, where the sweep degenerates to
//!   serial);
//! - `bench6` — the timer-churn workload processes events at least as
//!   fast as its own 64 B `echo_ref` record (small noise allowance on a
//!   single core);
//! - `bench7` — for a non-empty commit log, the delta rejoin
//!   (`get_state_since`) moves strictly fewer bytes over the network
//!   than the full state transfer, and every grid cell ran clean;
//! - `bench8` — commutative operations strictly out-throughput the
//!   commit protocol at every contended cell (`k >= 2`), and only the
//!   commit protocol ever aborts.

use std::process::ExitCode;

use bench::record::{json_lines, Record};
use bench::{ablations, bench4, bench5, bench6, bench7, bench8, tables};

enum Run {
    Text(fn(bool) -> String),
    /// A benchmark: its heading, the run that produces its records, and
    /// the gate that checks them.
    Bench(&'static str, Records, Gate),
}

type Records = fn(bool) -> Vec<Record>;
type Gate = fn(&[Record]) -> Result<String, String>;

/// Calls per echo measurement.
fn calls(quick: bool) -> u32 {
    if quick {
        50
    } else {
        500
    }
}

/// Every experiment, in print order.
const EXPERIMENTS: [(&str, Run); 16] = [
    ("table4.1", Run::Text(|q| tables::table_4_1(calls(q)))),
    ("table4.2", Run::Text(|_| tables::table_4_2())),
    ("table4.3", Run::Text(|q| tables::table_4_3(calls(q)))),
    ("fig4.8", Run::Text(|q| tables::fig_4_8(calls(q)))),
    (
        "bench4",
        Run::Bench(bench4::TITLE, bench4::records, bench4::gate),
    ),
    (
        "bench5",
        Run::Bench(bench5::TITLE, bench5::records, bench5::gate),
    ),
    (
        "bench6",
        Run::Bench(bench6::TITLE, bench6::records, bench6::gate),
    ),
    (
        "bench7",
        Run::Bench(bench7::TITLE, bench7::records, bench7::gate),
    ),
    (
        "bench8",
        Run::Bench(bench8::TITLE, bench8::records, bench8::gate),
    ),
    (
        "multicast",
        Run::Text(|q| tables::fig_multicast_theory(if q { 200 } else { 1000 })),
    ),
    (
        "eq5.1",
        Run::Text(|q| tables::eq_5_1(if q { 5_000 } else { 100_000 })),
    ),
    ("fig6.3", Run::Text(|_| tables::fig_6_3())),
    ("table7.1", Run::Text(|_| tables::table_7_1())),
    (
        "ablation.waiting",
        Run::Text(|q| ablations::ablation_waiting(calls(q).min(100))),
    ),
    ("ablation.sync", Run::Text(|_| ablations::ablation_sync())),
    (
        "ablation.protocol",
        Run::Text(|_| ablations::ablation_protocol()),
    ),
];

/// Prints a block, exiting quietly if the reader closed the pipe
/// (e.g. `repro | head`).
fn emit(block: String) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{block}").is_err() {
        std::process::exit(0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut quick, mut gate) = (false, false);
    let mut wanted = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "fig4.9-theory" => wanted.push("multicast"),
            flag if flag.starts_with("--") => {
                eprintln!("unknown option {flag}; known: --quick --gate");
                return ExitCode::from(2);
            }
            name => wanted.push(name),
        }
    }
    // Under --gate, only the benchmarks are known.
    let known: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|(_, run)| !gate || matches!(run, Run::Bench(..)))
        .map(|(name, _)| *name)
        .collect();
    let kind = if gate { "benchmark" } else { "experiment" };
    if let Some(bad) = wanted.iter().find(|w| !known.contains(w)) {
        eprintln!("unknown {kind} {bad}; known: {}", known.join(" "));
        return ExitCode::from(2);
    }
    if gate && wanted.is_empty() {
        eprintln!("--gate needs a {kind} name: {}", known.join(" "));
        return ExitCode::from(2);
    }

    for (name, run) in &EXPERIMENTS {
        if !wanted.is_empty() && !wanted.contains(name) {
            continue;
        }
        let (title, records, gate_fn) = match run {
            Run::Text(text) => {
                emit(text(quick));
                continue;
            }
            Run::Bench(title, records, gate) => (title, records, gate),
        };
        let records = records(quick);
        let json = json_lines(&records);
        emit(format!("{title}\n{json}"));
        if gate {
            match gate_fn(&records) {
                Ok(msg) => emit(format!("gate {name}: PASS — {msg}")),
                Err(msg) => {
                    eprintln!("gate {name}: FAIL — {msg}");
                    return ExitCode::from(1);
                }
            }
            continue;
        }
        let file = format!("BENCH_{}.json", &name["bench".len()..]);
        if let Err(e) = std::fs::write(&file, json) {
            eprintln!("cannot write {file}: {e}");
            return ExitCode::from(1);
        }
        emit(format!("wrote {file}"));
    }
    ExitCode::SUCCESS
}
