//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <echo|txn-mix|faults> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the seeded workload, untraced, until `--seconds` have passed
//! and prints the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced runs and prints the per-layer metrics instead,
//! after checking that tracing changed no simulated result. The last
//! line of standard output is one JSON object; a failed output check
//! prints `"correct": false` and exits with status 1.

use std::collections::BTreeMap;
use std::time::Instant;

use perfbench::{median, run, RunResult, Workload, END_TO_END, HOST_LAYER, PER_LAYER};

/// Spans of each client's first operations written by a traced run.
const DUMP_OPS: u64 = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The simulated figures of a run as one exact string, for comparing
/// runs byte for byte.
fn fingerprint(r: &RunResult, with_traced: bool) -> String {
    let mut s = format!("{} {} ", r.attempted, r.failed);
    for (k, v) in r.sim.iter().chain(r.det.iter()) {
        s.push_str(&format!("{k}={v:?} "));
    }
    if with_traced {
        for (k, v) in &r.traced {
            if !HOST_LAYER.contains(k) {
                s.push_str(&format!("{k}={v:?} "));
            }
        }
    }
    s
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v, u)| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn fail(why: &str, attempted: u64, failed: u64) -> ! {
    eprintln!("perfbench: check failed: {why}");
    Report {
        correct: false,
        attempted: attempted.max(1),
        failed,
        metrics: Vec::new(),
    }
    .print();
    std::process::exit(1);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <echo|txn-mix|faults> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut reference = perfbench::Reference::default();
    let began = Instant::now();
    let stalled = (args.trace && args.workload == Workload::TxnMix)
        .then(|| perfbench::txnmix::stalled_ops_overlapping_reads(args.seed));
    let mut untraced: Vec<RunResult> = Vec::new();
    let mut traced: Vec<RunResult> = Vec::new();
    let mut first_print: Option<String> = None;
    let mut peak_rss = 0.0;
    // Per untraced run: the machine's speed against the one the bounds
    // were set on, from the reference loop timed just before and after it.
    let mut speeds: Vec<f64> = Vec::new();
    loop {
        let before = reference.time();
        let (r, rig) = run(args.workload, args.seed, false);
        drop(rig);
        speeds.push(2.0 * perfbench::REFERENCE_S / (before + reference.time()));
        if let Err(e) = &r.check {
            fail(e, r.attempted, r.failed);
        }
        let fp = fingerprint(&r, false);
        match &first_print {
            None => {
                for n in &r.notes {
                    println!("{n}");
                }
                first_print = Some(fp);
                // Read after the first run: later runs reuse its freed
                // memory, and what they add is allocator fragmentation.
                // The reference loop's tables are not the program's.
                peak_rss = peak_rss_mib() - reference.bytes() as f64 / (1 << 20) as f64;
            }
            Some(f) if *f != fp => fail(
                "a repeated run of the same seed gave different simulated results",
                r.attempted,
                r.failed,
            ),
            Some(_) => {}
        }
        untraced.push(r);
        if args.trace {
            let (r, rig) = run(args.workload, args.seed, true);
            if let Err(e) = &r.check {
                fail(e, r.attempted, r.failed);
            }
            if fingerprint(&r, false) != fingerprint(&untraced[0], false) {
                fail(
                    "the traced run's simulated results differ from the untraced run's",
                    r.attempted,
                    r.failed,
                );
            }
            if let Some(first) = traced.first() {
                if fingerprint(&r, true) != fingerprint(first, true) {
                    fail(
                        "two traced runs of the same seed differ",
                        r.attempted,
                        r.failed,
                    );
                }
            } else if let Some(t) = &rig.t {
                write_dump(&args, t, &rig.w.metrics());
            }
            traced.push(r);
        }
        let enough = untraced.len() >= 3 || (args.trace && untraced.len() >= 2);
        if began.elapsed().as_secs_f64() >= args.seconds && enough {
            break;
        }
    }

    let first = &untraced[0];
    let host = |f: &dyn Fn(&RunResult) -> f64, runs: &[RunResult]| -> f64 {
        median(&runs.iter().map(f).collect::<Vec<_>>())
    };
    let mut metrics = Vec::new();
    if !args.trace {
        let mut m: BTreeMap<&str, f64> = first.sim.iter().map(|(k, v)| (*k, *v)).collect();
        // Each run's host seconds become reference seconds: scaled by
        // the machine's speed at that run.
        let scaled = |f: &dyn Fn(&RunResult, f64) -> f64| -> f64 {
            median(
                &untraced
                    .iter()
                    .zip(&speeds)
                    .map(|(r, &s)| f(r, s))
                    .collect::<Vec<_>>(),
            )
        };
        m.insert("setup_s", scaled(&|r, s| r.setup_s * s));
        m.insert("host_ops_per_s", scaled(&|r, s| r.ops() / r.run_s / s));
        m.insert("peak_rss_mib", peak_rss);
        for &(k, unit) in END_TO_END {
            metrics.push((k, m[k], unit));
        }
        println!(
            "{} runs of {} (seed {}); host figures are medians over the runs in reference \
             seconds; machine speed {:.4} of the reference; unscaled: {:.6} s set-up, {:.1} ops/s",
            untraced.len(),
            args.workload.name(),
            args.seed,
            median(&speeds),
            host(&|r| r.setup_s, &untraced),
            host(&|r| r.ops() / r.run_s, &untraced),
        );
    } else {
        let t0 = &traced[0];
        let mut m: BTreeMap<&str, f64> = first.det.iter().map(|(k, v)| (*k, *v)).collect();
        m.extend(t0.traced.iter().map(|(k, v)| (*k, *v)));
        for &k in HOST_LAYER {
            if t0.traced.contains_key(k) {
                m.insert(k, host(&|r| r.traced[k], &traced));
            }
        }
        m.insert(
            "simnet.events_per_s",
            host(&|r| r.events as f64 / r.run_s, &untraced),
        );
        m.insert(
            "trace.overhead_frac",
            host(&|r| r.run_s, &traced) / host(&|r| r.run_s, &untraced) - 1.0,
        );
        if let Some(n) = stalled {
            m.insert("transactions.stalled_ops_overlapping_reads", n as f64);
        }
        for &(k, unit) in PER_LAYER {
            metrics.push((k, m.get(k).copied().unwrap_or(0.0), unit));
        }
        // The traced run's own notes follow the ones both runs make.
        for n in &t0.notes[first.notes.len()..] {
            println!("{n}");
        }
        println!(
            "{} untraced and {} traced runs of {} (seed {}): simulated results identical",
            untraced.len(),
            traced.len(),
            args.workload.name(),
            args.seed
        );
    }
    for (k, v, u) in &metrics {
        println!("  {k:<40} {v:>14.4} {u}");
    }
    // End-to-end figures the JSON's shared end-to-end rows leave out:
    // `fail_frac` (its `failed` / `attempted`) and the faults-only ones,
    // which it carries as traced rows.
    if !args.trace {
        let frac = first.failed as f64 / first.attempted.max(1) as f64;
        println!("  {:<40} {frac:>14.4} frac", "fail_frac");
        if args.workload == Workload::Faults {
            for k in ["sim_outage_ms_p50", "sim_repair_ms_p50"] {
                println!("  {k:<40} {:>14.4} ms", first.det[k]);
            }
        }
    }
    Report {
        correct: true,
        attempted: first.attempted,
        failed: first.failed,
        metrics,
    }
    .print();
}

/// Writes the first traced run's spans under `perfbench/out/`.
fn write_dump(args: &Args, t: &perfbench::rig::Tracer, reg: &obs::Registry) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            t.dump(reg, DUMP_OPS, &mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => println!(
            "spans of each client's first {DUMP_OPS} ops: {}",
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
