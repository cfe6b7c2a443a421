//! `txn-mix`: the §5 synchronization layer and the disk write path.
//!
//! Closed loop against a 3-member durable troupe whose members each
//! export a `TroupeStoreService` logging to a fault-free disk, an
//! `OrderedBroadcastService` and a `CommutativeService`. Separate client
//! nodes run seeded scripts through the library's own agents: two
//! `TxnClient` readers (shared locks only), two `TxnClient` writers
//! (Zipf-skewed read-modify-write, so hot objects conflict, abort and
//! back off), one `Broadcaster` and one `CmClient`.

use std::rc::Rc;

use circus::{
    Agent, CallError, CallHandle, CircusProcess, ModuleAddr, NodeBuilder, NodeConfig, NodeCtx,
    Service, TimerKey, Troupe, TroupeId,
};
use simnet::{DiskConfig, Duration, HostId, SockAddr, Time};
use transactions::{
    Broadcaster, CmClient, CmOp, CommitVoterService, CommutativeService, ObjId, Op, OrderedApply,
    OrderedBroadcastService, TroupeStoreService, TxnClient,
};

use crate::gen::{TxnMixInputs, OBJECTS};
use crate::rig::{agent_as, service_as, Rig, Role, Tracer};
use crate::{
    class_p50_ms, commit_metrics, det_metrics, ratio, sim_metrics, us, Log, RunResult, Sample, Snap,
};

/// Members of the durable troupe.
pub const REPLICAS: usize = 3;
pub const STORE_MODULE: u16 = 1;
pub const BCAST_MODULE: u16 = 2;
pub const CM_MODULE: u16 = 3;
pub const COMMIT_MODULE: u16 = 9;
const PORT: u16 = 70;
const CLIENT_PORT: u16 = 50;
/// Commits between snapshots of a member's log.
pub const SNAPSHOT_EVERY: usize = 64;
/// Value every object starts at.
const INITIAL: i64 = 1_000;
/// Sample classes.
pub const READ: u8 = 0;
pub const WRITE: u8 = 1;
pub const BCAST: u8 = 2;
pub const CM: u8 = 3;

/// The broadcast troupe's application: folds every message, in applied
/// order, into one digest.
#[derive(Default)]
pub struct Ledger {
    digest: u64,
    count: u64,
}

impl OrderedApply for Ledger {
    fn apply(&mut self, payload: &[u8]) -> Vec<u8> {
        for &b in payload {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.count += 1;
        wire::to_bytes(&self.count)
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut v = self.digest.to_be_bytes().to_vec();
        v.extend_from_slice(&self.count.to_be_bytes());
        v
    }

    fn restore(&mut self, state: &[u8]) {
        if state.len() == 16 {
            self.digest = u64::from_be_bytes(state[..8].try_into().expect("8 bytes"));
            self.count = u64::from_be_bytes(state[8..].try_into().expect("8 bytes"));
        }
    }
}

/// How far one of the library's closed-loop agents has got.
pub struct Progress {
    /// Operations completed.
    pub done: usize,
    /// Script finished, or stopped by an error.
    pub finished: bool,
    /// The error that stopped it, if any.
    pub error: Option<String>,
}

/// Times a library agent's operations from outside. The agents run
/// closed loop — each issues its next operation as the last completes —
/// so an operation starts when its predecessor ended (the first when
/// the agent is poked) and ends when the agent's completion count grows.
pub struct Metered<A> {
    pub inner: A,
    class: u8,
    progress: fn(&A) -> Progress,
    done: usize,
    started: Time,
    reported: bool,
    op_base: u64,
    log: Log,
    tracer: Option<Rc<Tracer>>,
}

impl<A: Agent> Metered<A> {
    pub fn new(
        inner: A,
        class: u8,
        progress: fn(&A) -> Progress,
        op_base: u64,
        log: Log,
        tracer: Option<Rc<Tracer>>,
    ) -> Metered<A> {
        Metered {
            inner,
            class,
            progress,
            done: 0,
            started: Time::ZERO,
            reported: false,
            op_base,
            log,
            tracer,
        }
    }

    fn around(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        f: impl FnOnce(&mut A, &mut NodeCtx<'_, '_, '_>),
    ) {
        let before = nc.metrics().span_count();
        f(&mut self.inner, nc);
        let now = nc.now();
        let p = (self.progress)(&self.inner);
        while self.done < p.done {
            self.log.borrow_mut().done.push(Sample {
                class: self.class,
                start_us: us(self.started),
                end_us: us(now),
            });
            if let Some(t) = &self.tracer {
                t.op_end(self.op_base + self.done as u64, now);
                t.op_begin(self.op_base + self.done as u64 + 1, nc.me().host, now);
            }
            self.done += 1;
            self.started = now;
        }
        if let Some(t) = &self.tracer {
            let after = nc.metrics().span_count();
            t.claim_wire_spans(before, after, self.op_base + self.done as u64, false);
        }
        if p.finished && !self.reported {
            self.reported = true;
            let mut log = self.log.borrow_mut();
            log.finished += 1;
            if let Some(e) = p.error {
                log.errors.push(format!("{}: {e}", nc.me()));
            }
        }
    }
}

impl<A: Agent> Agent for Metered<A> {
    fn on_start(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        self.around(nc, |a, nc| a.on_start(nc));
    }

    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.started = nc.now();
        if let Some(t) = &self.tracer {
            t.op_begin(self.op_base, nc.me().host, self.started);
        }
        self.around(nc, |a, nc| a.on_poke(nc, tag));
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.around(nc, |a, nc| a.on_call_done(nc, handle, result));
    }

    fn on_member_dead(&mut self, nc: &mut NodeCtx<'_, '_, '_>, addr: SockAddr) {
        self.around(nc, |a, nc| a.on_member_dead(nc, addr));
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        self.around(nc, |a, nc| a.on_app_timer(nc, key));
    }

    fn on_notify(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.around(nc, |a, nc| a.on_notify(nc, tag));
    }
}

fn txn_progress(c: &TxnClient) -> Progress {
    Progress {
        done: c.committed.len(),
        finished: c.finished(),
        error: c.errors.first().cloned(),
    }
}

fn bcast_progress(c: &Broadcaster) -> Progress {
    Progress {
        done: c.results.len(),
        finished: c.finished() || !c.errors.is_empty(),
        error: c.errors.first().cloned(),
    }
}

fn cm_progress(c: &CmClient) -> Progress {
    Progress {
        done: c.completed as usize,
        finished: c.finished(),
        error: c.errors.first().cloned(),
    }
}

/// The member's modules, looked up through any tracing wrapper.
fn store(p: &CircusProcess) -> &TroupeStoreService {
    service_as::<TroupeStoreService>(p.node(), STORE_MODULE).expect("member exports the store")
}

fn bcast(p: &CircusProcess) -> &OrderedBroadcastService<Ledger> {
    service_as::<OrderedBroadcastService<Ledger>>(p.node(), BCAST_MODULE)
        .expect("member exports the broadcast service")
}

fn cm(p: &CircusProcess) -> &CommutativeService {
    service_as::<CommutativeService>(p.node(), CM_MODULE)
        .expect("member exports the commutative service")
}

/// Builds the world, loads the store, runs the scripts and checks them.
pub fn run(inputs: &TxnMixInputs, seed: u64, traced: bool) -> (RunResult, Rig) {
    run_within(inputs, seed, traced, Duration::from_secs(36_000))
}

/// Operations of the `txn-mix` scripts of `seed` that never complete
/// when the reads go to the written objects (see [`crate::gen::OBJECTS`]):
/// the measure of the stall the workload's separate read set avoids.
pub fn stalled_ops_overlapping_reads(seed: u64) -> u64 {
    let inputs = crate::gen::overlapping_reads(crate::gen::txn_mix(seed));
    let (r, _) = run_within(&inputs, seed, false, Duration::from_secs(STALL_LIMIT_S));
    r.failed
}

/// Simulated seconds after which an operation of the overlapping-reads
/// probe counts as stalled; the scripts need about a third of it.
const STALL_LIMIT_S: u64 = 1_800;

fn run_within(inputs: &TxnMixInputs, seed: u64, traced: bool, limit: Duration) -> (RunResult, Rig) {
    let setup = crate::Stopwatch::start();
    let mut rig = Rig::new(seed, traced);
    let log = Log::default();
    let config = NodeConfig {
        assembly_timeout: Duration::from_millis(1_500),
        ..NodeConfig::default()
    };
    let id = TroupeId(0x7A11);
    let mut members = Vec::new();
    for h in 1..=REPLICAS as u32 {
        let a = SockAddr::new(HostId(h), PORT);
        let disk = rig.w.install_disk(HostId(h), DiskConfig::faultless());
        let store = TroupeStoreService::with_durability(COMMIT_MODULE, disk, SNAPSHOT_EVERY);
        let p = NodeBuilder::new(a, config.clone())
            .service(STORE_MODULE, rig.service("service.store", Box::new(store)))
            .service(
                BCAST_MODULE,
                rig.service(
                    "service.bcast",
                    Box::new(OrderedBroadcastService::new(Ledger::default())),
                ),
            )
            .service(
                CM_MODULE,
                rig.service("service.cm", Box::new(CommutativeService::new())),
            )
            .troupe_id(id)
            .build()
            .expect("valid node");
        rig.spawn(a, Role::Member, p);
        members.push(a);
    }
    let troupe = |module: u16| {
        Troupe::new(
            id,
            members
                .iter()
                .map(|&a| ModuleAddr::new(a, module))
                .collect(),
        )
    };

    // Set-up: one transaction gives every object its initial value.
    let loader = SockAddr::new(HostId(19), CLIENT_PORT);
    let load: Vec<Op> = (1..=2 * OBJECTS)
        .map(|o| Op::Write(ObjId(o), INITIAL))
        .collect();
    let p = NodeBuilder::new(loader, config.clone())
        .agent(Box::new(TxnClient::new(
            troupe(STORE_MODULE),
            STORE_MODULE,
            vec![load],
        )))
        .service(COMMIT_MODULE, Box::new(CommitVoterService))
        .build()
        .expect("valid node");
    rig.spawn(loader, Role::Client, p);
    rig.w.poke(loader, 0);
    let deadline = rig.w.now() + Duration::from_secs(60);
    let loaded = rig.run_until(deadline, |w| {
        crate::rig::circus_in(w, loader, |p| {
            agent_as::<TxnClient>(p).is_some_and(|c| c.committed.len() == 1)
        })
        .unwrap_or(false)
    });

    let mut clients = Vec::new();
    let mut next_host = 20u32;
    let mut add = |rig: &mut Rig, agent: Box<dyn Agent>, voter: bool| {
        let a = SockAddr::new(HostId(next_host), CLIENT_PORT);
        next_host += 1;
        let mut b = NodeBuilder::new(a, config.clone()).agent(rig.agent("agent.client", agent));
        if voter {
            b = b.service(
                COMMIT_MODULE,
                rig.service("service.voter", Box::new(CommitVoterService)),
            );
        }
        rig.spawn(a, Role::Client, b.build().expect("valid node"));
        clients.push(a);
    };
    let op_base = |i: usize| (i as u64) << 32;
    let mut i = 0;
    for (class, scripts) in [(READ, &inputs.readers), (WRITE, &inputs.writers)] {
        for s in scripts {
            let c = TxnClient::new(troupe(STORE_MODULE), STORE_MODULE, s.clone());
            let m = Metered::new(
                c,
                class,
                txn_progress,
                op_base(i),
                log.clone(),
                rig.t.clone(),
            );
            add(&mut rig, Box::new(m), true);
            i += 1;
        }
    }
    for (k, s) in inputs.broadcasts.iter().enumerate() {
        let c = Broadcaster::new(
            troupe(BCAST_MODULE),
            BCAST_MODULE,
            (k as u64 + 1) << 40,
            s.clone(),
        );
        let m = Metered::new(
            c,
            BCAST,
            bcast_progress,
            op_base(i),
            log.clone(),
            rig.t.clone(),
        );
        add(&mut rig, Box::new(m), false);
        i += 1;
    }
    for (k, s) in inputs.commutes.iter().enumerate() {
        let c = CmClient::new(
            troupe(CM_MODULE),
            CM_MODULE,
            (k as u64 + 1) << 40,
            s.clone(),
        );
        let m = Metered::new(c, CM, cm_progress, op_base(i), log.clone(), rig.t.clone());
        add(&mut rig, Box::new(m), false);
        i += 1;
    }
    let mut r = RunResult {
        setup_s: setup.secs(),
        ..RunResult::default()
    };

    let base = Snap::take(&rig.w);
    let start = crate::Stopwatch::start();
    for &c in &clients {
        rig.w.poke(c, 0);
    }
    let n = clients.len();
    let deadline = rig.w.now() + limit;
    let finished = rig.run_until(deadline, |_| log.borrow().finished == n);
    r.run_s = start.secs();
    let end = Snap::take(&rig.w);
    // Let trailing acknowledgements land before reading member state.
    let settle = rig.w.now() + Duration::from_secs(5);
    rig.run_to(settle);

    let scripts = inputs
        .readers
        .iter()
        .chain(&inputs.writers)
        .map(Vec::len)
        .sum::<usize>()
        + inputs.broadcasts.iter().map(Vec::len).sum::<usize>()
        + inputs.commutes.iter().map(Vec::len).sum::<usize>();
    let logr = log.borrow();
    r.attempted = scripts as u64;
    r.failed = r.attempted - logr.done.len() as u64;
    r.events = end.events - base.events;
    sim_metrics(&mut r, &logr.done, &base, &end);
    det_metrics(&mut r, &base, &end);
    for (class, name) in [
        (READ, "transactions.read_ms_p50"),
        (WRITE, "transactions.write_ms_p50"),
        (BCAST, "transactions.bcast_ms_p50"),
        (CM, "transactions.cm_ms_p50"),
    ] {
        r.det.insert(name, class_p50_ms(&logr.done, class));
    }
    let (mut commits, mut aborts) = (0u64, 0u64);
    for &c in &clients[..inputs.readers.len() + inputs.writers.len()] {
        rig.circus(c, |p| {
            let m = agent_as::<Metered<TxnClient>>(p).expect("transaction client");
            commits += m.inner.committed.len() as u64;
            aborts += u64::from(m.inner.aborts);
        });
    }
    r.det
        .insert("transactions.commit_frac", ratio(commits, commits + aborts));
    commit_metrics(&mut r, &base, &end, commits);
    let state_bytes = members
        .iter()
        .filter_map(|&a| {
            rig.circus(a, |p| {
                store(p).get_state().len() + bcast(p).get_state().len() + cm(p).get_state().len()
            })
        })
        .max()
        .unwrap_or(0);
    r.det
        .insert("transactions.state_bytes_max", state_bytes as f64);
    if let Some(t) = &rig.t {
        crate::traced_metrics(&mut r, t, &rig.w.metrics());
    }

    r.check = if !loaded || !finished {
        Err(format!(
            "{} of {n} txn-mix clients finished (store loaded: {loaded})",
            logr.finished
        ))
    } else if let Some(e) = logr.errors.first() {
        Err(format!("{} clients failed, first: {e}", logr.errors.len()))
    } else {
        check_members(&rig, &members, inputs)
    };
    drop(logr);
    (r, rig)
}

/// The output checks: the three modules agree across members, every
/// store object holds its initial value plus the sum of the committed
/// adds, every counter the sum of the increments, and the broadcast
/// applied order is identical everywhere.
fn check_members(rig: &Rig, members: &[SockAddr], inputs: &TxnMixInputs) -> Result<(), String> {
    let mut want_store = vec![INITIAL; 2 * OBJECTS as usize + 1];
    for op in inputs.writers.iter().flatten().flatten() {
        if let Op::Add(o, d) = op {
            want_store[o.0 as usize] += d;
        }
    }
    let mut want_cm = vec![0i64; OBJECTS as usize + 1];
    for op in inputs.commutes.iter().flatten().flatten() {
        if let CmOp::Incr(o, d) = op {
            want_cm[o.0 as usize] += d;
        }
    }
    let broadcasts: usize = inputs.broadcasts.iter().map(Vec::len).sum();
    let mut first: Option<(u64, u64, u64, Vec<u64>)> = None;
    for &a in members {
        let view = rig
            .circus(a, |p| {
                for o in 1..=2 * OBJECTS {
                    let got = store(p).tm().store().read_committed(ObjId(o));
                    if got != want_store[o as usize] {
                        return Err(format!(
                            "member {a}: object {o} is {got}, committed adds make it {}",
                            want_store[o as usize]
                        ));
                    }
                }
                for o in 1..=OBJECTS {
                    let got = cm(p).counter(ObjId(o));
                    if got != want_cm[o as usize] {
                        return Err(format!(
                            "member {a}: counter {o} is {got}, increments make it {}",
                            want_cm[o as usize]
                        ));
                    }
                }
                let b = bcast(p);
                if b.applied_order.len() != broadcasts {
                    return Err(format!(
                        "member {a} applied {} of {broadcasts} broadcasts",
                        b.applied_order.len()
                    ));
                }
                Ok((
                    store(p).state_digest(),
                    b.state_digest(),
                    cm(p).state_digest(),
                    b.applied_order.clone(),
                ))
            })
            .ok_or(format!("member {a} is not running"))??;
        match &first {
            None => first = Some(view),
            Some(f) if f.3 != view.3 => {
                return Err(format!("member {a} applied broadcasts in another order"))
            }
            Some(f) if (f.0, f.1, f.2) != (view.0, view.1, view.2) => {
                return Err(format!("member {a}'s state digests differ"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}
