//! The commutative-operations chaos workload: CRDT-style counters and
//! grow-only sets under a seeded fault schedule.
//!
//! The replicated module is a [`CommutativeService`] and the clients
//! are [`ChaosCmClient`]s. There is no commit protocol and no agreed order:
//! members apply operations as they arrive, and the workload's only
//! obligations are *delivery everywhere* (the all-ack collation plus
//! same-id retry) and *idempotence* (the per-request dedup ledger).
//!
//! The workload's oracle is **convergence without commit**: at
//! quiesce every member's state digest is identical — the digest is
//! order-*insensitive*, covering counters, set, and dedup ledger — and
//! every batch a client confirmed is in every member's ledger. Members
//! may apply the batches in wildly different interleavings under
//! partitions and loss bursts; commutativity says the end states still
//! coincide, with zero aborts along the way (the property BENCH_8
//! prices against the commit and broadcast protocols).

use circus::{CircusProcess, ModuleAddr, NodeBuilder, Service, Troupe};
use simnet::{HostId, SimRng, SockAddr, World};
use transactions::{CmOp, CommutativeService, ObjId};

use crate::client::ChaosCmClient;
use crate::drive::MODULE;
use crate::harness::{Quiesced, Workload};
use crate::oracle::Violation;

/// `(addr, applied-batch count, digest, which confirmed ids are seen)`.
struct CmView {
    addr: SockAddr,
    digest: u64,
    missing: Vec<u64>,
}

fn member_view(w: &World, m: &ModuleAddr, confirmed: &[u64]) -> Option<CmView> {
    w.with_proc(m.addr, |p: &CircusProcess| {
        let s = p
            .node()
            .service_as::<CommutativeService>(MODULE)
            .expect("commutative member exports the commutative service");
        CmView {
            addr: m.addr,
            digest: s.state_digest(),
            missing: confirmed
                .iter()
                .copied()
                .filter(|&id| !s.has_seen(id))
                .collect(),
        }
    })
}

/// The convergence-without-commit oracle: identical state digests at
/// every member, and every confirmed batch in every member's ledger.
fn check_convergence(views: &[CmView], out: &mut Vec<Violation>) {
    const ORACLE: &str = "convergence-without-commit";
    let Some(first) = views.first() else {
        out.push(Violation {
            oracle: ORACLE,
            detail: "no live commutative member at quiesce".into(),
        });
        return;
    };
    for v in &views[1..] {
        if v.digest != first.digest {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "state digests diverge: {} has {:#018x}, {} has {:#018x}",
                    first.addr, first.digest, v.addr, v.digest
                ),
            });
        }
    }
    for v in views {
        for &id in &v.missing {
            out.push(Violation {
                oracle: ORACLE,
                detail: format!(
                    "batch {id} was confirmed to its client but member {} never applied it",
                    v.addr
                ),
            });
        }
    }
}

/// The commutative-operations workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Commute;

impl Workload for Commute {
    fn label(&self) -> &'static str {
        "commute"
    }

    fn rng_domain(&self) -> u64 {
        0x434F_4D4D
    }

    fn default_ops(&self) -> usize {
        30
    }

    fn service(&self, _w: &mut World, _host: HostId) -> Box<dyn Service> {
        Box::new(CommutativeService::new())
    }

    /// Counter bumps over a small object set plus set inserts.
    fn client(
        &self,
        node: NodeBuilder,
        rm: &Troupe,
        i: usize,
        ops: usize,
        rng: &mut SimRng,
    ) -> NodeBuilder {
        let objs = [ObjId(1), ObjId(2), ObjId(3)];
        let mut script = Vec::new();
        for b in 0..ops {
            let mut batch = Vec::new();
            for _ in 0..=rng.below(2) {
                batch.push(if rng.chance(0.3) {
                    CmOp::Insert(1 + i as u64 * 10_000 + b as u64)
                } else {
                    let obj = objs[rng.below(objs.len() as u64) as usize];
                    CmOp::Incr(obj, 1 + rng.below(5) as i64)
                });
            }
            script.push(batch);
        }
        node.agent(Box::new(ChaosCmClient::new(
            rm.clone(),
            self.label(),
            MODULE,
            1 + i as u64 * 1_000_000,
            script,
        )))
    }

    fn check(&self, q: &Quiesced, out: &mut Vec<Violation>) {
        let mut confirmed = Vec::new();
        for &c in &q.client_addrs {
            q.world.with_proc(c, |p: &CircusProcess| {
                if let Some(a) = p.agent_as::<ChaosCmClient>() {
                    confirmed.extend_from_slice(&a.confirmed);
                }
            });
        }
        let views: Vec<CmView> = q
            .members
            .iter()
            .filter_map(|m| member_view(&q.world, m, &confirmed))
            .collect();
        check_convergence(&views, out);
    }
}
