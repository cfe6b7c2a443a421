//! The transactional store workload: the full stack under a seeded
//! fault schedule.
//!
//! The replicated module is a [`TroupeStoreService`] and the clients are
//! [`RebindingClient`]s running replicated transactions over a small
//! object set, so they conflict (deadlock-and-retry pressure, §5.3.1)
//! while partitions, loss/duplication bursts, degraded networks, and
//! member crashes land on them. Its oracles are the four store oracles
//! of [`check_store`]: exactly-once execution, replica-state
//! convergence, transaction atomicity, and no surviving stale binding.

use circus::{NodeBuilder, Service, Troupe};
use simnet::{HostId, SimRng, World};
use transactions::{CommitVoterService, ObjId, Op, TroupeStoreService};

use crate::client::RebindingClient;
use crate::drive::MODULE;
use crate::harness::{Quiesced, Workload};
use crate::oracle::{check_store, Violation};

/// The name the store troupe is registered under.
pub const STORE_NAME: &str = "store";
/// Module number of the client-side commit voter.
pub const COMMIT_MODULE: u16 = 2;

/// The transactional store workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct Store;

impl Workload for Store {
    fn label(&self) -> &'static str {
        STORE_NAME
    }

    fn rng_domain(&self) -> u64 {
        0x574F_524B
    }

    fn default_ops(&self) -> usize {
        40
    }

    fn service(&self, _w: &mut World, _host: HostId) -> Box<dyn Service> {
        Box::new(TroupeStoreService::new(COMMIT_MODULE))
    }

    fn client(
        &self,
        node: NodeBuilder,
        rm: &Troupe,
        _i: usize,
        ops: usize,
        rng: &mut SimRng,
    ) -> NodeBuilder {
        let objs = [ObjId(1), ObjId(2), ObjId(3)];
        let mut script = Vec::new();
        for _ in 0..ops {
            let mut txn = Vec::new();
            for _ in 0..=rng.below(2) {
                let obj = objs[rng.below(objs.len() as u64) as usize];
                txn.push(if rng.chance(0.25) {
                    Op::Read(obj)
                } else {
                    Op::Add(obj, 1 + rng.below(5) as i64)
                });
            }
            script.push(txn);
        }
        node.agent(Box::new(RebindingClient::new(
            rm.clone(),
            STORE_NAME,
            MODULE,
            script,
        )))
        .service(COMMIT_MODULE, Box::new(CommitVoterService))
    }

    fn check(&self, q: &Quiesced, out: &mut Vec<Violation>) {
        check_store(q, out);
    }
}
