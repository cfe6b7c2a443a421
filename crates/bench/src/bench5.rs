//! BENCH_5: wall-clock throughput of the simulator itself.
//!
//! Two sections, one record per line:
//!
//! - `throughput` — the replicated echo rig at growing call payloads
//!   (64 B to 8 KiB), reporting simulator events per *real* second.
//!   This is the number the zero-copy data plane moves: one encode per
//!   segment, refcount bumps per hop, no per-byte work on the hot path
//!   beyond the single buffer build.
//! - `sweep` — the 10-seed chaos sweep run serially and then across
//!   worker threads, with the wall-clock for each and the speedup. The
//!   per-seed trace hashes are checked for equality between the two
//!   modes before anything is reported: a parallel sweep that changed
//!   a single run would be worse than a slow one.
//!
//! Deterministic fields (payload sizes, event counts, simulated time,
//! seed count, trace-hash fold) are byte-stable across reruns on any
//! machine; wall-clock fields (`wall_ms`, `events_per_sec`, `speedup`)
//! are measurements and vary. [`gate`] applies a core-count-aware
//! threshold to the speedup.

use chaos::{chaos_jobs, sweep, Options, Store};

use crate::record::{find, fixed, per_sec, timed, Record, Value};

/// The payload sizes the throughput section walks.
const PAYLOADS: [usize; 3] = [64, 1024, 8192];

/// The seeds the sweep section times (the same 1..11 range as the
/// chaos sweep test, so the runs are byte-identical to the gate's).
const SWEEP_SEEDS: std::ops::Range<u64> = 1..11;

/// The heading the records print under.
pub const TITLE: &str = "BENCH_5: simulator throughput and parallel sweep wall clock";

/// Builds the BENCH_5 records. `quick` shrinks the throughput call
/// count; the sweep is always the full 10 seeds (it *is* the thing
/// being measured).
pub fn records(quick: bool) -> Vec<Record> {
    let calls: u32 = if quick { 60 } else { 300 };
    let mut out = Vec::new();

    for &payload in &PAYLOADS {
        let (r, wall) = timed(|| crate::testbed::run_circus_echo_rig(3, calls, false, payload));
        out.push(
            Record::new("bench5")
                .key("section", "throughput")
                .key("payload", payload)
                .key("replicas", 3u32)
                .key("calls", calls)
                .det("events", r.events)
                .det("sim_ms", fixed(r.sim.as_millis_f64(), 2))
                .wall_ms(wall)
                .wall("events_per_sec", fixed(per_sec(r.events, wall), 0)),
        );
    }

    let seeds: Vec<u64> = SWEEP_SEEDS.collect();
    let opts = Options::default();
    let jobs = chaos_jobs();

    let (serial, serial_wall) = timed(|| sweep(&seeds, &Store, &opts, 1));
    let (parallel, parallel_wall) = timed(|| sweep(&seeds, &Store, &opts, jobs));

    // The determinism cross-check: scheduling must not leak into a run.
    let mut hash_fold = 0u64;
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            (s.seed, s.trace_hash),
            (p.seed, p.trace_hash),
            "parallel sweep diverged from serial on seed {}",
            s.seed
        );
        hash_fold ^= s.trace_hash.rotate_left((s.seed % 63) as u32);
    }

    for (mode, mode_jobs, wall) in [
        ("serial", 1, serial_wall),
        ("parallel", jobs, parallel_wall),
    ] {
        out.push(
            Record::new("bench5")
                .key("section", "sweep")
                .key("mode", mode)
                .key("seeds", seeds.len())
                .key("jobs", mode_jobs)
                .det("trace_hash_fold", Value::Text(format!("{hash_fold:#018x}")))
                .wall_ms(wall),
        );
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
    out.push(
        Record::new("bench5")
            .key("section", "sweep_summary")
            .key("seeds", seeds.len())
            .key("jobs", jobs)
            .key("cores", cores)
            .det("hashes_match", true)
            .wall("speedup", fixed(speedup, 3)),
    );
    out
}

/// Gate: the parallel sweep must beat the serial one by a factor scaled
/// to how many workers actually ran.
pub fn gate(records: &[Record]) -> Result<String, String> {
    let summary = find(records, &[("section", "sweep_summary".into())])?;
    if !summary.flag("hashes_match")? {
        return Err("parallel sweep reports diverged from serial".to_string());
    }
    let jobs = summary.num("jobs")? as usize;
    let cores = summary.num("cores")? as usize;
    let speedup = summary.num("speedup")?;
    // Workers beyond the physical core count cannot add speed, and a
    // single effective worker cannot beat itself (the runner degenerates
    // to serial) — there the gate demands only "no regression", with
    // slack for timer noise. Real fan-out must pay for its threads.
    let effective = jobs.min(cores);
    let floor = match effective {
        0 | 1 => 0.8,
        2 | 3 => 1.2,
        _ => 2.0,
    };
    if speedup < floor {
        return Err(format!(
            "parallel sweep speedup {speedup:.2}x below the {floor:.1}x floor \
             ({jobs} worker(s) on {cores} core(s))"
        ));
    }
    Ok(format!(
        "10-seed sweep: {speedup:.2}x speedup with {jobs} worker(s) on {cores} core(s) \
         (floor {floor:.1}x)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fires_below_the_core_aware_floor() {
        let gated = |jobs: u32, cores: u32, speedup: f64| {
            gate(&[Record::new("bench5")
                .key("section", "sweep_summary")
                .key("jobs", jobs)
                .key("cores", cores)
                .det("hashes_match", true)
                .wall("speedup", fixed(speedup, 3))])
        };
        assert!(gated(2, 2, 1.3).is_ok() && gated(4, 1, 0.9).is_ok());
        assert!(gated(2, 2, 1.1).is_err());
        assert!(gated(8, 4, 1.9).is_err());
    }
}
