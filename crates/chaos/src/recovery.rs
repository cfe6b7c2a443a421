//! The recovery workload: crash a durable member mid-commit and measure
//! its log-replay rejoin.
//!
//! The [`Store`] workload replaces a crashed member with a *warm spare*
//! — a fresh process that takes the survivors' full state. This
//! workload exercises the durable path instead: store members write a
//! per-member commit log and snapshots to a seeded, faulty in-sim
//! [`Disk`](simnet::Disk), one member is crashed mid-workload (the
//! crash applies the disk's torn-tail/truncation semantics to unsynced
//! bytes), and the *same host* then boots a recovery process on the
//! surviving disk. That process replays snapshot-plus-log locally,
//! registers itself as the spare for the troupe, and rejoins through the
//! wedge protocol — asking the survivors only for the *delta* of
//! commits past its replayed log head (`get_state_since`) rather than a
//! full state transfer. That one scripted crash is the whole schedule;
//! the fault plan in the options is not used.
//!
//! On top of the store oracles, two recovery-specific invariants are
//! checked at quiesce:
//!
//! * **recovered-digest** — the rejoined member's state digest equals
//!   every survivor's digest: replay plus delta catch-up reconstructs
//!   exactly the replicated state, never an approximation of it;
//! * **torn-log safety** — a torn or truncated log never yields a
//!   corrupt or partially-applied transaction: every commit the
//!   recovered member holds matches a client submission and is held by
//!   every survivor too (replay is checksum-bounded, so a damaged
//!   record vanishes entirely instead of half-applying).
//!
//! MTTR is measured in simulated time from the crash to the registry
//! showing the troupe back at full strength with the recovered member
//! in it; recovery network cost is the byte length of the state-fetch
//! reply (`spare.state_bytes`).

use circus::{CircusProcess, NodeBuilder, Service, ThreadId, Troupe};
use simnet::{DiskConfig, Duration, HostId, SimRng, SockAddr, World};
use transactions::TroupeStoreService;

use crate::client::{ChaosClient, RebindingClient};
use crate::drive::{Driver, MEMBER_PORT, MODULE, REPLICATION};
use crate::harness::{Quiesced, Rejoin, Workload};
use crate::oracle::{check_store, Violation};
use crate::store::{Store, COMMIT_MODULE, STORE_NAME};

/// The recovery workload and its durability knobs.
#[derive(Clone, Copy, Debug)]
pub struct Recovery {
    /// Commits between snapshots at every durable member (0 = snapshot
    /// only on demand, so the whole history stays in the log).
    pub snapshot_every: usize,
    /// Rejoin with `get_state_since` (delta catch-up) instead of the
    /// full `get_state` transfer.
    pub use_delta: bool,
    /// Arm the disks with [`DiskConfig::hostile`] — transient write
    /// errors while running, torn tails and bit flips at crash — instead
    /// of [`DiskConfig::faultless`].
    pub disk_faults: bool,
}

impl Default for Recovery {
    fn default() -> Recovery {
        Recovery {
            snapshot_every: 8,
            use_delta: true,
            disk_faults: true,
        }
    }
}

impl Workload for Recovery {
    fn label(&self) -> &'static str {
        "recovery"
    }

    fn troupe(&self) -> &'static str {
        STORE_NAME
    }

    fn rng_domain(&self) -> u64 {
        0x5245_434F
    }

    fn default_ops(&self) -> usize {
        30
    }

    /// A durable store member: each host gets its own seeded disk, and
    /// a process restarted on the host finds the disk that survived.
    fn service(&self, w: &mut World, host: HostId) -> Box<dyn Service> {
        let disk = match w.disk(host) {
            Some(disk) => disk,
            None if self.disk_faults => w.install_disk(host, DiskConfig::hostile()),
            None => w.install_disk(host, DiskConfig::faultless()),
        };
        Box::new(TroupeStoreService::with_durability(
            COMMIT_MODULE,
            disk,
            self.snapshot_every,
        ))
    }

    fn client(
        &self,
        node: NodeBuilder,
        rm: &Troupe,
        i: usize,
        ops: usize,
        rng: &mut SimRng,
    ) -> NodeBuilder {
        Store.client(node, rm, i, ops, rng)
    }

    fn check(&self, q: &Quiesced, out: &mut Vec<Violation>) {
        check_store(q, out);
        if let Some(r) = &q.rejoin {
            check_recovered_digest(q, r.addr, out);
            check_torn_log_safety(q, r.addr, r.victim, out);
        }
    }

    /// No warm spares stand by: the rejoin must come from the crashed
    /// host's own disk.
    fn warm_spares(&self) -> bool {
        false
    }

    fn schedule(&self, d: &mut Driver) {
        d.plan.faults.clear();
        // Let the workload reach roughly its halfway point, so the crash
        // lands on a live commit stream and the log has content to replay.
        let halfway = d.ops.max(1);
        let clients = d.clients.clone();
        let deadline = d.w.now() + Duration::from_micros(180_000_000);
        let warmed = d.w.run(simnet::Until::pred(deadline, |w| {
            let commits = clients.iter().map(|&c| {
                w.with_proc(c, |p: &CircusProcess| {
                    p.agent_as::<RebindingClient>().map_or(0, |a| a.confirmed())
                })
                .unwrap_or(0)
            });
            commits.sum::<usize>() >= halfway
        }));
        if !warmed {
            d.warnings
                .push("workload never reached its halfway point".into());
        }

        // Crash one durable member. `crash_host` applies the disk's crash
        // semantics (drop unsynced bytes, maybe tear or flip the tail), so
        // what the recovery process finds is exactly what survived.
        let victim = d.members[(d.plan.seed % d.members.len() as u64) as usize];
        let host = victim.addr.host;
        let crash_at = d.w.now();
        d.w.crash_host(host);
        d.w.restart_host(host);

        // Boot the recovery process on the same host and disk, at a fresh
        // port — the dead address is never reused, its peers still
        // remember the dead process's call numbers. The store service
        // replays the local snapshot-plus-log in `on_start`; the spare
        // machinery then offers the process to the Ringmaster, which
        // activates it to replace the member it just confirmed dead.
        let addr = SockAddr::new(host, MEMBER_PORT + 1);
        let svc = self.service(&mut d.w, host);
        d.spawn_spare(addr, svc, self.use_delta);

        // MTTR: crash to the registry showing full strength again with
        // the recovered member in the troupe.
        let healed = d.await_membership(
            REPLICATION,
            victim.addr,
            Some(addr),
            Duration::from_micros(90_000_000),
        );
        let mttr = if healed {
            Some(d.w.now() - crash_at)
        } else {
            d.warnings
                .push(format!("recovered member {addr} never rejoined the troupe"));
            None
        };
        let recovery =
            d.w.with_proc(addr, |p: &CircusProcess| {
                p.node()
                    .service_as::<TroupeStoreService>(MODULE)
                    .and_then(|s| s.recovery)
            })
            .flatten();
        d.rejoin = Some(Rejoin {
            victim: victim.addr,
            addr,
            mttr,
            recovery,
        });
    }
}

/// Recovery oracle 1: the rejoined member's digest equals every
/// survivor's. Replay plus catch-up must reconstruct the replicated
/// state exactly.
fn check_recovered_digest(q: &Quiesced, recovered: SockAddr, out: &mut Vec<Violation>) {
    const ORACLE: &str = "recovered-digest";
    let digest_of = |addr: SockAddr| {
        q.world
            .with_proc(addr, |p: &CircusProcess| {
                p.node()
                    .service_as::<TroupeStoreService>(MODULE)
                    .map(|s| s.state_digest())
            })
            .flatten()
    };
    let Some(rec) = digest_of(recovered) else {
        out.push(Violation {
            oracle: ORACLE,
            detail: format!("recovered member {recovered} is not a live store process"),
        });
        return;
    };
    for m in &q.members {
        if m.addr == recovered {
            continue;
        }
        match digest_of(m.addr) {
            Some(d) if d == rec => {}
            Some(d) => out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "recovered {recovered} has digest {rec:#018x} but survivor {} has {d:#018x}",
                    m.addr
                ),
            }),
            None => {}
        }
    }
}

/// Recovery oracle 2: a torn or truncated log never yields a corrupt or
/// partially-applied transaction. Every commit the recovered member
/// holds must match a client submission (no phantom record decoded out
/// of damaged bytes) and must be held by every surviving member (a
/// record the troupe never agreed on cannot reappear through replay).
fn check_torn_log_safety(
    q: &Quiesced,
    recovered: SockAddr,
    dead: SockAddr,
    out: &mut Vec<Violation>,
) {
    const ORACLE: &str = "torn-log-safety";
    let ledger_of = |addr: SockAddr| -> Option<Vec<(ThreadId, u64)>> {
        q.world
            .with_proc(addr, |p: &CircusProcess| {
                p.node()
                    .service_as::<TroupeStoreService>(MODULE)
                    .map(|s| s.committed_log().to_vec())
            })
            .flatten()
    };
    let Some(rec_ledger) = ledger_of(recovered) else {
        return; // recovered-digest already reported the missing process
    };
    let submitted: std::collections::HashSet<(ThreadId, u64)> = q
        .client_addrs
        .iter()
        .filter_map(|&c| {
            q.world.with_proc(c, |p: &CircusProcess| {
                p.agent_as::<RebindingClient>()
                    .map(|a| {
                        a.submitted
                            .iter()
                            .map(|(t, n, _)| (*t, *n))
                            .collect::<Vec<_>>()
                    })
                    .unwrap_or_default()
            })
        })
        .flatten()
        .collect();
    let survivors: Vec<(SockAddr, Vec<(ThreadId, u64)>)> = q
        .members
        .iter()
        .filter(|m| m.addr != recovered && m.addr != dead)
        .filter_map(|m| ledger_of(m.addr).map(|l| (m.addr, l)))
        .collect();
    for key in &rec_ledger {
        if !submitted.contains(key) {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "recovered {recovered} holds {key:?}, which no client ever submitted \
                     — a corrupt record survived replay"
                ),
            });
        }
        for (addr, ledger) in &survivors {
            if !ledger.contains(key) {
                out.push(Violation {
                    oracle: ORACLE,
                    detail: format!(
                        "recovered {recovered} holds {key:?} but survivor {addr} does not \
                         — replay resurrected a commit the troupe never agreed on"
                    ),
                });
            }
        }
    }
}
