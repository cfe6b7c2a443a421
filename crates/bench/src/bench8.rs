//! BENCH_8: the price of synchronization under conflict.
//!
//! Chapter 5 offers three ways to keep a troupe's members in step, and
//! §5.5 says to choose "on a module-by-module basis". This benchmark
//! prices that choice: `k` clients all hammering the *same* object
//! through each [`Scheme`] —
//!
//! - `scheme: "commit"` — the optimistic troupe commit protocol (2PL +
//!   deadlock-driven abort and retry): conflicts become aborts, and
//!   throughput collapses as `k` grows;
//! - `scheme: "broadcast"` — the ordered broadcast protocol (two-phase
//!   propose/accept): starvation-free, zero aborts, but every operation
//!   pays two rounds to every member;
//! - `scheme: "commutative"` — commutative operations (counter
//!   increments): no locks, no order, no commit — one round per
//!   operation no matter how many clients contend.
//!
//! One record per `(scheme, k)` cell: throughput (ops per simulated
//! second), aborts, and simulated elapsed time. Every field except
//! `wall_ms` is a pure function of the cell (each rig seeds its world
//! from `42 + k`), so records are byte-stable across reruns. The
//! `ablation.sync` table is a view of these cells.
//!
//! [`gate`] checks the ordering the chapter predicts: commutative ops
//! strictly out-throughput the commit protocol at every contended cell
//! (`k >= 2`), and the commit protocol is the only scheme that ever
//! aborts.

use std::collections::BTreeSet;

use circus::{CircusProcess, ModuleAddr, NodeBuilder, NodeConfig, Service, Troupe, TroupeId};
use simnet::{Duration, HostId, SockAddr, Time, Until, World};
use transactions::{
    Broadcaster, CmClient, CmOp, CommitVoterService, CommutativeService, ObjId, Op, OrderedApply,
    OrderedBroadcastService, TroupeStoreService, TxnClient,
};
use wire::{from_bytes, to_bytes};

use crate::record::{find, fixed, timed, Record};

/// A §5.5 synchronization scheme.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// The optimistic troupe commit protocol (§5.3).
    Commit,
    /// The starvation-free ordered broadcast protocol (§5.4).
    Broadcast,
    /// Commutative operations: applied as they arrive, never ordered.
    Commutative,
}

impl Scheme {
    /// Every scheme, in record order.
    pub const ALL: [Scheme; 3] = [Scheme::Commit, Scheme::Broadcast, Scheme::Commutative];

    /// The scheme's name in records.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Commit => "commit",
            Scheme::Broadcast => "broadcast",
            Scheme::Commutative => "commutative",
        }
    }
}

/// Outcome of one synchronization-scheme run.
#[derive(Clone, Copy, Debug)]
pub struct SyncOutcome {
    /// Completed operations per second of simulated time.
    pub throughput: f64,
    /// Aborts observed (the optimistic protocol's starvation signal).
    pub aborts: u32,
    /// Seconds of simulated time to finish the workload.
    pub elapsed_s: f64,
}

const STORE_MODULE: u16 = 1;
const COMMIT_MODULE: u16 = 2;
const OPS_PER_CLIENT: usize = 6;

/// The broadcast members' application: a running sum.
struct AddApply {
    total: i64,
}

impl OrderedApply for AddApply {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        self.total += from_bytes::<i64>(payload).unwrap_or(0);
        to_bytes(&self.total)
    }
}

/// Runs `clients` concurrent clients, each making 6 increments of the
/// same object through `scheme` against a 3-member troupe, until every
/// client finishes.
pub fn run_sync(scheme: Scheme, clients: u32) -> SyncOutcome {
    let mut w = World::new(42 + clients as u64);
    let config = match scheme {
        Scheme::Commit => NodeConfig {
            assembly_timeout: Duration::from_millis(1200),
            ..NodeConfig::default()
        },
        Scheme::Broadcast | Scheme::Commutative => NodeConfig::default(),
    };
    let id = TroupeId(7);
    let mut members = Vec::new();
    for h in 1..=3u32 {
        let a = SockAddr::new(HostId(h), 70);
        let service: Box<dyn Service> = match scheme {
            Scheme::Commit => Box::new(TroupeStoreService::new(COMMIT_MODULE)),
            Scheme::Broadcast => Box::new(OrderedBroadcastService::new(AddApply { total: 0 })),
            Scheme::Commutative => Box::new(CommutativeService::new()),
        };
        let p = NodeBuilder::new(a, config.clone())
            .service(STORE_MODULE, service)
            .troupe_id(id)
            .build()
            .expect("valid node");
        w.spawn(a, Box::new(p));
        members.push(ModuleAddr::new(a, STORE_MODULE));
    }
    let troupe = Troupe::new(id, members);
    let client_addrs: Vec<SockAddr> = (0..clients)
        .map(|i| SockAddr::new(HostId(10 + i), 50))
        .collect();
    for (i, &a) in client_addrs.iter().enumerate() {
        // Everyone works the same object: maximal conflict.
        let id_base = (i as u64 + 1) * 1_000_000;
        let troupe = troupe.clone();
        let node = NodeBuilder::new(a, config.clone());
        let node = match scheme {
            Scheme::Commit => node
                .agent(Box::new(TxnClient::new(
                    troupe,
                    STORE_MODULE,
                    vec![vec![Op::Add(ObjId(1), 1)]; OPS_PER_CLIENT],
                )))
                .service(COMMIT_MODULE, Box::new(CommitVoterService)),
            Scheme::Broadcast => node.agent(Box::new(Broadcaster::new(
                troupe,
                STORE_MODULE,
                id_base,
                vec![to_bytes(&1i64); OPS_PER_CLIENT],
            ))),
            Scheme::Commutative => node.agent(Box::new(CmClient::new(
                troupe,
                STORE_MODULE,
                id_base,
                vec![vec![CmOp::Incr(ObjId(1), 1)]; OPS_PER_CLIENT],
            ))),
        };
        w.spawn(a, Box::new(node.build().expect("valid node")));
    }
    for &a in &client_addrs {
        w.poke(a, 0);
    }
    // One client's (finished, operations done, aborts). Broadcast is
    // starvation-free and commutative ops never conflict: neither aborts.
    let progress = |p: &CircusProcess| match scheme {
        Scheme::Commit => {
            let c = p.agent_as::<TxnClient>().expect("commit client");
            (c.finished(), c.committed.len() as u32, c.aborts)
        }
        Scheme::Broadcast => {
            let c = p.agent_as::<Broadcaster>().expect("broadcast client");
            (c.finished(), c.results.len() as u32, 0)
        }
        Scheme::Commutative => {
            let c = p.agent_as::<CmClient>().expect("commutative client");
            (c.finished(), c.completed, 0)
        }
    };
    w.run(Until::pred(Time::from_secs(3600), |w| {
        client_addrs
            .iter()
            .all(|&a| w.with_proc(a, |p| progress(p).0).unwrap_or(true))
    }));
    let elapsed_s = w.now().as_secs_f64();
    let (mut done, mut aborts) = (0u32, 0u32);
    for &a in &client_addrs {
        let (_, d, ab) = w.with_proc(a, progress).expect("client alive");
        done += d;
        aborts += ab;
    }
    SyncOutcome {
        throughput: done as f64 / elapsed_s,
        aborts,
        elapsed_s,
    }
}

/// Runs one `(scheme, clients)` cell.
fn cell(scheme: Scheme, clients: u32) -> Record {
    let (o, wall) = timed(|| run_sync(scheme, clients));
    Record::new("bench8")
        .key("section", "conflict")
        .key("scheme", scheme.name())
        .key("clients", clients)
        .det("throughput", fixed(o.throughput, 4))
        .det("aborts", o.aborts)
        .det("elapsed_s", fixed(o.elapsed_s, 6))
        .wall_ms(wall)
}

/// The full grid of client counts; `--quick` runs its first two.
const GRID: [u32; 4] = [1, 2, 4, 6];

/// The heading the records print under.
pub const TITLE: &str =
    "BENCH_8: synchronization under conflict — commit vs broadcast vs commutative (§5.5)";

/// Builds the BENCH_8 records. `quick` shrinks the client grid; each
/// cell is identical to its full-grid counterpart.
pub fn records(quick: bool) -> Vec<Record> {
    let grid = if quick { &GRID[..2] } else { &GRID[..] };
    grid.iter()
        .flat_map(|&k| Scheme::ALL.map(|s| cell(s, k)))
        .collect()
}

/// Gate: under contention, commutative operations must strictly beat
/// the optimistic commit protocol on throughput — the whole reason the
/// workload-diversity layer exists — at every contended client count
/// (`k >= 2`) present, and the starvation-free schemes must report zero
/// aborts in every cell.
pub fn gate(records: &[Record]) -> Result<String, String> {
    let mut contended = BTreeSet::new();
    for r in records {
        if !r.is("scheme", "commit") && r.num("aborts")? != 0.0 {
            return Err(format!("a starvation-free scheme reported aborts: {r}"));
        }
        let k = r.num("clients")? as u32;
        if k >= 2 {
            contended.insert(k);
        }
    }
    let mut checked = Vec::new();
    for k in contended {
        let throughput = |scheme: Scheme| {
            find(
                records,
                &[("scheme", scheme.name().into()), ("clients", k.into())],
            )?
            .num("throughput")
        };
        let (ct, mt) = (
            throughput(Scheme::Commit)?,
            throughput(Scheme::Commutative)?,
        );
        if mt <= ct {
            return Err(format!(
                "at {k} conflicting clients, commutative throughput {mt:.2} not strictly \
                 above commit's {ct:.2}"
            ));
        }
        checked.push(format!("k={k}: {mt:.1} > {ct:.1} ops/s"));
    }
    if checked.is_empty() {
        return Err("no contended (k >= 2) cells".into());
    }
    Ok(format!(
        "commutative strictly out-throughputs commit under contention ({})",
        checked.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_deterministic() {
        let (a, b) = (cell(Scheme::Commutative, 2), cell(Scheme::Commutative, 2));
        assert_eq!(a.stable(), b.stable());
    }

    #[test]
    fn commutative_beats_commit_under_conflict() {
        gate(&Scheme::ALL.map(|s| cell(s, 2))).unwrap();
    }

    #[test]
    fn broadcast_never_aborts_commit_does_under_conflict() {
        let commit = run_sync(Scheme::Commit, 4);
        let bcast = run_sync(Scheme::Broadcast, 4);
        assert_eq!(bcast.aborts, 0);
        assert!(
            commit.aborts > 0,
            "4 clients on one object should conflict at least once"
        );
        // Both complete the workload.
        assert!(commit.throughput > 0.0 && bcast.throughput > 0.0);
    }

    /// Hand-built cells for `k = 1, 2, 4, 6` with just the fields the
    /// gate reads: commutative at twice commit's throughput everywhere,
    /// except `(scheme, k)` of `bad`, which gets `(throughput, aborts)`.
    fn grid(bad: Option<(Scheme, u32, f64, u32)>) -> Vec<Record> {
        let mut cells = Vec::new();
        for k in GRID {
            for (scheme, throughput) in Scheme::ALL.into_iter().zip([10.0, 15.0, 20.0]) {
                let aborts = if scheme == Scheme::Commit { k - 1 } else { 0 };
                let (throughput, aborts) = match bad {
                    Some((s, bk, t, a)) if (s, bk) == (scheme, k) => (t, a),
                    _ => (throughput, aborts),
                };
                cells.push(
                    Record::new("bench8")
                        .key("scheme", scheme.name())
                        .key("clients", k)
                        .det("throughput", fixed(throughput, 4))
                        .det("aborts", aborts),
                );
            }
        }
        cells
    }

    #[test]
    fn gate_checks_every_contended_cell() {
        assert!(gate(&grid(None)).unwrap().contains("k=6"));
        // Only the k = 6 cell breaks the ordering.
        let err = gate(&grid(Some((Scheme::Commutative, 6, 10.0, 0)))).unwrap_err();
        assert!(err.contains("at 6 conflicting clients"), "{err}");
    }

    #[test]
    fn gate_fires_on_a_broadcast_abort_or_no_contention() {
        assert!(gate(&grid(Some((Scheme::Broadcast, 1, 15.0, 1)))).is_err());
        assert!(gate(&grid(None)[..3]).is_err(), "no contended cells");
    }
}
