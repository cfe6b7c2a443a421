//! BENCH_7: crash recovery — MTTR and bytes over the network.
//!
//! The durable store writes a per-member commit log and snapshots to an
//! in-sim disk; after a crash the member replays locally and rejoins by
//! fetching only the *delta* of commits it missed. This benchmark runs
//! the recovery chaos workload over a grid of workload lengths (log
//! length proxy) × snapshot intervals, in both rejoin modes, and emits
//! one record per cell:
//!
//! - `section: "recovery"` — per-cell: simulated MTTR (crash to the
//!   registry showing full strength with the recovered member in it),
//!   bytes of the state-fetch reply (`recovery_bytes`), and what the
//!   member found on its disk (`log_bytes`, `replayed`, `deduped`,
//!   `snapshot_version`). `mode` is `"delta"` (`get_state_since`) or
//!   `"full"` (whole-state transfer).
//!
//! Every field except `wall_ms` is a pure function of the seed and the
//! cell options — byte-stable across reruns. Disks are faultless here
//! (the chaos recovery sweep covers hostile disks) so the curves show
//! the protocol's cost, not the fault stream's.
//!
//! [`gate`] checks the reason the log exists: with a non-empty log, the
//! delta rejoin must move strictly fewer bytes over the network than
//! the full state transfer.

use chaos::{run, Options, Recovery};

use crate::record::{find, timed, Record};

/// The one seed the grid runs under: the curves compare cells, not
/// seeds, so one fixed seed keeps every record deterministic.
const SEED: u64 = 11;

/// Runs one cell.
fn cell(txns: usize, snapshot_every: usize, use_delta: bool) -> Record {
    let workload = Recovery {
        snapshot_every,
        use_delta,
        disk_faults: false,
    };
    let opts = Options {
        ops_per_client: Some(txns),
        ..Options::default()
    };
    let (r, wall) = timed(|| run(SEED, &workload, &opts));
    let rejoin = r.rejoin.as_ref().expect("recovery runs a scripted rejoin");
    let info = rejoin.recovery.unwrap_or_default();
    Record::new("bench7")
        .key("section", "recovery")
        .key("mode", if use_delta { "delta" } else { "full" })
        .key("seed", SEED)
        .key("txns_per_client", txns)
        .key("snapshot_every", snapshot_every)
        .det("mttr_us", rejoin.mttr.map_or(0, |d| d.as_micros()))
        .det("recovery_bytes", r.counter("spare.state_bytes"))
        .det("log_bytes", info.log_bytes)
        .det("replayed", info.replayed)
        .det("deduped", info.deduped)
        .det("snapshot_version", info.snapshot_version)
        .det("torn_bytes", info.torn_bytes)
        .det("commits", r.confirmed)
        .det("passed", r.passed())
        .wall_ms(wall)
}

/// The heading the records print under.
pub const TITLE: &str =
    "BENCH_7: crash recovery — MTTR and state-transfer bytes (log replay + delta rejoin)";

/// Builds the BENCH_7 records. `quick` shrinks the grid; each cell is
/// identical to its full-grid counterpart.
pub fn records(quick: bool) -> Vec<Record> {
    let txns: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64] };
    let snaps: &[usize] = if quick { &[0, 8] } else { &[0, 4, 16] };
    let mut out = Vec::new();
    for &t in txns {
        for &s in snaps {
            out.push(cell(t, s, true));
            out.push(cell(t, s, false));
        }
    }
    out
}

/// Gate: the delta rejoin must move strictly fewer bytes than the full
/// state transfer for the same crash with a non-empty log, and no grid
/// cell may have failed its oracles. The `snapshot_every:0` cells keep
/// the whole history in the log, so the log is guaranteed non-empty at
/// the crash.
pub fn gate(records: &[Record]) -> Result<String, String> {
    for r in records {
        if !r.flag("passed")? {
            return Err(format!("a recovery cell failed its oracles: {r}"));
        }
    }
    let cell = |mode: &str| {
        find(
            records,
            &[
                ("mode", mode.into()),
                ("txns_per_client", 16u32.into()),
                ("snapshot_every", 0u32.into()),
            ],
        )
    };
    let (delta, full) = (cell("delta")?, cell("full")?);
    let log_bytes = delta.num("log_bytes")?;
    if log_bytes <= 0.0 {
        return Err("the delta cell recovered from an empty log — nothing was measured".into());
    }
    let d = delta.num("recovery_bytes")?;
    let f = full.num("recovery_bytes")?;
    if d >= f {
        return Err(format!(
            "delta rejoin moved {d} bytes, not strictly below the full transfer's {f}"
        ));
    }
    Ok(format!(
        "rejoin after replaying a {log_bytes}-byte log: {d} bytes (delta) < {f} bytes (full)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_deterministic() {
        let (a, b) = (cell(16, 8, true), cell(16, 8, true));
        assert_eq!(a.stable(), b.stable());
        assert_eq!(a.flag("passed"), Ok(true), "cell failed: {a}");
    }

    #[test]
    fn delta_cell_beats_full_cell() {
        gate(&[cell(16, 0, true), cell(16, 0, false)]).unwrap();
    }

    #[test]
    fn gate_fires_on_each_broken_invariant() {
        // Hand-built cells with just the fields the gate reads.
        let cell = |mode: &str, log_bytes: u64, recovery_bytes: u64, passed: bool| {
            Record::new("bench7")
                .key("mode", mode)
                .key("txns_per_client", 16u32)
                .key("snapshot_every", 0u32)
                .det("recovery_bytes", recovery_bytes)
                .det("log_bytes", log_bytes)
                .det("passed", passed)
        };
        let full = cell("full", 816, 344, true);
        assert!(gate(&[cell("delta", 816, 5, true), full.clone()]).is_ok());
        // Delta no cheaper than full; an empty log; a failed cell.
        assert!(gate(&[cell("delta", 816, 344, true), full.clone()]).is_err());
        assert!(gate(&[cell("delta", 0, 5, true), full.clone()]).is_err());
        assert!(gate(&[cell("delta", 816, 5, false), full]).is_err());
    }
}
