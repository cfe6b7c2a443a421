//! `faults`: the repair path.
//!
//! Open loop: [`gen::FAULT_WORKERS`] workers issue the seeded schedule of
//! operations at [`gen::FAULT_RATE`] per simulated second, each on a fresh
//! thread when it falls due, whatever state the troupes are in. Reads and
//! writes are `PROC_EXECUTE` transactions on a 3-member durable store
//! troupe; commutative requests are `PROC_CM_EXECUTE` calls on a
//! 3-member commutative troupe whose members share the store members'
//! hosts. Both troupes are registered with a Ringmaster troupe running
//! the `SelfHealAgent`; clients bind and rebind through it. The seeded
//! fault schedule crashes member hosts (a durable store loses its
//! unsynced tail), restarts some on the same disk (log replay and delta
//! rejoin) and replaces the others by warm spares on fresh hosts, and
//! adds short partitions, loss bursts and hostile datagrams.

use std::rc::Rc;

use adversary::AdvInjector;
use circus::binding::{BINDING_MODULE, RINGMASTER_PORT};
use circus::{
    Agent, CallError, CallHandle, CollationPolicy, ModuleAddr, NodeBuilder, NodeConfig, NodeCtx,
    ThreadId, TimerKey, Troupe,
};
use ringmaster::{
    ImportCache, RegisterTroupe, RingmasterService, SpareAgent, SpareService, SPARE_CTL_MODULE,
};
use simnet::{DiskConfig, Duration, HostId, NetConfig, Partition, SockAddr, Time};
use transactions::{
    Backoff, CmRequest, CommitVoterService, CommutativeService, ExecuteRequest, Op,
    TroupeStoreService, TxnOutcome, PROC_CM_EXECUTE, PROC_EXECUTE,
};
use wire::{from_bytes, to_bytes};

use crate::gen::{Fault, FaultOp, FaultsInputs};
use crate::rig::{agent_as, circus_in, service_as, Rig, Role, Tracer};
use crate::{
    commit_metrics, det_metrics, percentile, sim_metrics, us, Log, RunResult, Sample, Snap,
};

pub const STORE_NAME: &str = "store";
pub const CM_NAME: &str = "cm";
pub const STORE_MODULE: u16 = 1;
pub const CM_MODULE: u16 = 3;
pub const COMMIT_MODULE: u16 = 9;
const STORE_PORT: u16 = 70;
const CM_PORT: u16 = 72;
const CLIENT_PORT: u16 = 50;
/// Workers run on hosts from this one up.
const CLIENT_HOST: u32 = 100;
/// Members of each troupe.
pub const REPLICAS: usize = 3;
const MEMBER_HOSTS: [u32; REPLICAS] = [10, 11, 12];
const RINGMASTER_HOSTS: [u32; 3] = [1, 2, 3];
/// Commits between snapshots of a member's log.
const SNAPSHOT_EVERY: usize = 64;
/// An operation still failing this long after it fell due is given up.
const GIVE_UP: Duration = Duration::from_secs(120);
/// A crash not repaired this long after a later fault fell due fails the
/// run.
const REPAIR_BOUND: Duration = Duration::from_secs(180);
/// Sample classes.
pub const READ: u8 = 0;
pub const WRITE: u8 = 1;
pub const CM: u8 = 2;

const DUE_KEY: TimerKey = TimerKey::new(1);
const LOOKUP_KEY: TimerKey = TimerKey::new(2);
const RETRY_KEY: TimerKey = TimerKey::new(3);

/// Registers the two troupes with the Ringmaster, one after the other.
struct Registrar {
    binder: Troupe,
    reqs: Vec<RegisterTroupe>,
    registered: usize,
}

impl Registrar {
    fn register(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let Some(req) = self.reqs.get(self.registered) else {
            return;
        };
        let t = nc.fresh_thread();
        let binder = self.binder.clone();
        nc.call(
            t,
            &binder,
            BINDING_MODULE,
            circus::binding::binding_procs::REGISTER_TROUPE,
            to_bytes(req),
            CollationPolicy::Majority,
        );
    }
}

impl Agent for Registrar {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.register(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if result.is_ok() {
            self.registered += 1;
        }
        self.register(nc);
    }
}

/// What the worker's one in-flight call is for.
enum Pending {
    Lookup(usize),
    Op(usize, ThreadId, u64),
}

const NAMES: [&str; 2] = [STORE_NAME, CM_NAME];

/// One open-loop worker: it issues each of its scheduled operations when
/// it falls due, on a fresh thread, and retries it (rebinding when the
/// binding is stale) until it succeeds or [`GIVE_UP`] passes. A worker
/// has one call outstanding at a time; an operation that falls due while
/// its worker is still busy is issued late, and the lateness is reported.
/// Operations are dealt round-robin to many workers, so that rarely
/// happens outside an outage.
pub struct OpenLoop {
    binder: Troupe,
    cache: ImportCache,
    ops: Vec<(u64, FaultOp)>,
    /// Global index of each operation (its op id and commutative id).
    ids: Vec<u64>,
    t0: Time,
    /// Next operation to issue, and the one in flight.
    next: usize,
    cur: Option<usize>,
    inflight: Option<(CallHandle, Pending)>,
    backoff: Backoff,
    nonce: u64,
    /// `(thread, nonce)` of every write the store acknowledged.
    pub acked_writes: Vec<(ThreadId, u64)>,
    /// Ids of every commutative request the troupe acknowledged.
    pub acked_cm: Vec<u64>,
    /// Times the binding was found stale.
    pub rebinds: u64,
    bound: bool,
    log: Log,
    tracer: Option<Rc<Tracer>>,
}

impl OpenLoop {
    fn name_of(op: &FaultOp) -> usize {
        usize::from(matches!(op, FaultOp::Commute(_)))
    }

    fn lookup(&mut self, nc: &mut NodeCtx<'_, '_, '_>, n: usize, rebind: bool) {
        let (proc, args) = if rebind {
            self.cache.rebind_request(NAMES[n])
        } else {
            ImportCache::lookup_request(NAMES[n])
        };
        self.cache.invalidate(NAMES[n]);
        let t = nc.fresh_thread();
        let binder = self.binder.clone();
        let h = nc.call(
            t,
            &binder,
            BINDING_MODULE,
            proc,
            args,
            CollationPolicy::Majority,
        );
        self.inflight = Some((h, Pending::Lookup(n)));
    }

    /// Sends the current operation (binding its troupe first if needed).
    fn send(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let i = self.cur.expect("an operation is current");
        let n = Self::name_of(&self.ops[i].1);
        let Some(troupe) = self.cache.get(NAMES[n]).cloned() else {
            self.lookup(nc, n, false);
            return;
        };
        let thread = nc.fresh_thread();
        let before = nc.metrics().span_count();
        let (module, proc, args, nonce) = match &self.ops[i].1 {
            FaultOp::Read(objs) => {
                self.nonce += 1;
                let ops = objs.iter().map(|&o| Op::Read(o)).collect();
                let req = ExecuteRequest {
                    nonce: self.nonce,
                    ops,
                };
                (STORE_MODULE, PROC_EXECUTE, to_bytes(&req), self.nonce)
            }
            FaultOp::Write(adds) => {
                self.nonce += 1;
                let ops = adds.iter().map(|&(o, d)| Op::Add(o, d)).collect();
                let req = ExecuteRequest {
                    nonce: self.nonce,
                    ops,
                };
                (STORE_MODULE, PROC_EXECUTE, to_bytes(&req), self.nonce)
            }
            FaultOp::Commute(ops) => {
                let req = CmRequest {
                    op_id: cm_id(self.ids[i]),
                    ops: ops.clone(),
                };
                (CM_MODULE, PROC_CM_EXECUTE, to_bytes(&req), 0)
            }
        };
        let h = nc.call(
            thread,
            &troupe,
            module,
            proc,
            args,
            CollationPolicy::Unanimous,
        );
        self.inflight = Some((h, Pending::Op(i, thread, nonce)));
        if let Some(t) = &self.tracer {
            t.claim_wire_spans(before, nc.metrics().span_count(), self.ids[i], false);
        }
    }

    fn due_at(&self, i: usize) -> Time {
        self.t0 + Duration::from_micros(self.ops[i].0)
    }

    /// Starts the next operation if it is due, else arms its timer.
    fn next_op(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.cur.is_some() || self.next == self.ops.len() {
            return;
        }
        let i = self.next;
        let now = nc.now();
        if self.due_at(i) > now {
            nc.set_app_timer(self.due_at(i).since(now), DUE_KEY);
            return;
        }
        self.next += 1;
        self.cur = Some(i);
        self.backoff.reset();
        self.log
            .borrow_mut()
            .late_us
            .push(now.since(self.due_at(i)).as_micros());
        if let Some(t) = &self.tracer {
            t.op_begin(self.ids[i], nc.me().host, self.due_at(i));
        }
        self.send(nc);
    }

    fn settle(&mut self, nc: &mut NodeCtx<'_, '_, '_>, ok: bool) {
        let i = self.cur.take().expect("an operation is current");
        let now = nc.now();
        {
            let mut log = self.log.borrow_mut();
            if ok {
                let class = match self.ops[i].1 {
                    FaultOp::Read(_) => READ,
                    FaultOp::Write(_) => WRITE,
                    FaultOp::Commute(_) => CM,
                };
                log.done.push(Sample {
                    class,
                    start_us: us(self.due_at(i)),
                    end_us: us(now),
                });
            } else {
                log.failed += 1;
            }
            if i + 1 == self.ops.len() {
                log.finished += 1;
            }
        }
        if let Some(t) = &self.tracer {
            t.op_end(self.ids[i], now);
        }
        self.next_op(nc);
    }

    fn retry(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let i = self.cur.expect("an operation is current");
        if nc.now().since(self.due_at(i)) > GIVE_UP {
            self.settle(nc, false);
            return;
        }
        let delay = self.backoff.next_delay(nc.sim().rng());
        nc.set_app_timer(delay, RETRY_KEY);
    }
}

impl Agent for OpenLoop {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        if tag == 0 {
            // Warm-up: bind the store troupe, then the commutative one.
            self.lookup(nc, 0, false);
        } else {
            self.t0 = nc.now();
            if self.ops.is_empty() {
                self.log.borrow_mut().finished += 1;
            }
            self.next_op(nc);
        }
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let pending = match self.inflight.take() {
            Some((h, p)) if h == handle => p,
            other => {
                self.inflight = other;
                return;
            }
        };
        match pending {
            Pending::Lookup(n) => {
                let bound = result
                    .ok()
                    .and_then(|b| self.cache.store_reply(NAMES[n], &b))
                    .is_some();
                if !bound {
                    nc.set_app_timer(Duration::from_millis(500), LOOKUP_KEY);
                } else if !self.bound {
                    // Warm-up binds both names before the schedule starts.
                    if n == 0 {
                        self.lookup(nc, 1, false);
                    } else {
                        self.bound = true;
                        self.log.borrow_mut().warmed += 1;
                    }
                } else {
                    self.send(nc);
                }
            }
            Pending::Op(i, thread, nonce) => match result {
                Ok(bytes) if Self::name_of(&self.ops[i].1) == 0 => {
                    match from_bytes::<TxnOutcome>(&bytes) {
                        Ok(TxnOutcome::Committed(_)) => {
                            if matches!(self.ops[i].1, FaultOp::Write(_)) {
                                self.acked_writes.push((thread, nonce));
                            }
                            self.settle(nc, true);
                        }
                        Ok(TxnOutcome::Aborted(_)) => self.retry(nc),
                        Err(e) => {
                            self.log
                                .borrow_mut()
                                .errors
                                .push(format!("garbled outcome: {e}"));
                            self.settle(nc, false);
                        }
                    }
                }
                Ok(_) => {
                    self.acked_cm.push(cm_id(self.ids[i]));
                    self.settle(nc, true);
                }
                Err(e) if ImportCache::should_rebind(&e) => {
                    self.rebinds += 1;
                    self.lookup(nc, Self::name_of(&self.ops[i].1), true);
                }
                Err(_) => self.retry(nc),
            },
        }
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key == DUE_KEY {
            self.next_op(nc);
        } else if key == LOOKUP_KEY {
            if !self.bound {
                let n = usize::from(self.cache.get(NAMES[0]).is_some());
                self.lookup(nc, n, false);
            } else if self.cur.is_some() {
                self.send(nc);
            }
        } else if key == RETRY_KEY && self.cur.is_some() {
            self.send(nc);
        }
    }
}

/// One member-host crash and its repair.
struct Crash {
    at: Time,
    /// The troupe members the crash killed.
    dead: Vec<SockAddr>,
    repaired: Option<Time>,
}

/// The state of a `faults` run between scheduled faults.
struct FaultRun {
    rig: Rig,
    rm: Troupe,
    config: NodeConfig,
    crashes: Vec<Crash>,
    next_spare_host: u32,
    next_port: u16,
}

impl FaultRun {
    fn healer(&self) -> SockAddr {
        SockAddr::new(HostId(RINGMASTER_HOSTS[0]), RINGMASTER_PORT)
    }

    /// The Ringmaster's current binding of `name`.
    fn binding(&self, name: &str) -> Option<Troupe> {
        circus_in(&self.rig.w, self.healer(), |p| {
            p.node()
                .service_as::<RingmasterService>(BINDING_MODULE)
                .and_then(|s| s.lookup(name).cloned())
        })
        .flatten()
    }

    fn full_strength_without(&self, dead: &[SockAddr]) -> bool {
        NAMES.iter().all(|n| {
            self.binding(n).is_some_and(|t| {
                t.members.len() == REPLICAS && t.members.iter().all(|m| !dead.contains(&m.addr))
            })
        })
    }

    /// Runs to `until`, in short slices while a repair is pending so its
    /// completion is timed.
    fn run_to(&mut self, until: Time) {
        const SLICE: Duration = Duration::from_millis(10);
        while self.rig.w.now() < until {
            let pending = self.crashes.iter().position(|c| c.repaired.is_none());
            let Some(k) = pending else {
                self.rig.run_to(until);
                return;
            };
            let next = std::cmp::min(until, self.rig.w.now() + SLICE);
            self.rig.run_to(next);
            if self.full_strength_without(&self.crashes[k].dead) {
                self.crashes[k].repaired = Some(self.rig.w.now());
            }
        }
    }

    /// Runs until every crash so far is repaired, or until `deadline`.
    fn await_repairs(&mut self, deadline: Time) {
        while self.rig.w.now() < deadline && self.crashes.iter().any(|c| c.repaired.is_none()) {
            let next = self.rig.w.now() + Duration::from_millis(100);
            self.run_to(next);
        }
    }

    /// Spawns a durable store member process (a spare or a recovering
    /// member) and a commutative spare on `host`.
    fn spawn_spares(&mut self, host: HostId, recovering: bool) {
        let port = self.next_port;
        self.next_port += 2;
        let disk = if recovering {
            self.rig.w.disk(host).expect("member host has a disk")
        } else {
            self.rig.w.install_disk(host, DiskConfig::faultless())
        };
        let store_addr = SockAddr::new(host, port);
        let store = TroupeStoreService::with_durability(COMMIT_MODULE, disk, SNAPSHOT_EVERY);
        let ctl = if recovering {
            SpareService::with_delta(self.rm.clone(), STORE_NAME, STORE_MODULE)
        } else {
            SpareService::new(self.rm.clone(), STORE_NAME, STORE_MODULE)
        };
        let p = NodeBuilder::new(store_addr, self.config.clone())
            .service(
                STORE_MODULE,
                self.rig.service("service.store", Box::new(store)),
            )
            .service(SPARE_CTL_MODULE, Box::new(ctl))
            .agent(self.rig.agent(
                "agent.spare",
                Box::new(SpareAgent::new(self.rm.clone(), STORE_NAME)),
            ))
            .binder(self.rm.clone())
            .build()
            .expect("valid node");
        self.rig.spawn(store_addr, Role::Member, p);
        let cm_addr = SockAddr::new(host, port + 1);
        let p = NodeBuilder::new(cm_addr, self.config.clone())
            .service(
                CM_MODULE,
                self.rig
                    .service("service.cm", Box::new(CommutativeService::new())),
            )
            .service(
                SPARE_CTL_MODULE,
                Box::new(SpareService::new(self.rm.clone(), CM_NAME, CM_MODULE)),
            )
            .agent(self.rig.agent(
                "agent.spare",
                Box::new(SpareAgent::new(self.rm.clone(), CM_NAME)),
            ))
            .binder(self.rm.clone())
            .build()
            .expect("valid node");
        self.rig.spawn(cm_addr, Role::Member, p);
    }

    fn member_host(&self, victim: usize) -> Option<HostId> {
        let t = self.binding(STORE_NAME)?;
        t.members.get(victim % t.members.len()).map(|m| m.addr.host)
    }
}

/// A scheduled action of a `faults` run.
enum Action {
    Fault(Fault),
    Restart(HostId),
    Heal,
    Calm,
}

/// Builds the world, runs the schedule and checks the outcome.
pub fn run(inputs: &FaultsInputs, seed: u64, traced: bool) -> (RunResult, Rig) {
    let setup = crate::Stopwatch::start();
    let mut rig = Rig::new(seed, traced);
    let log = Log::default();
    let config = NodeConfig {
        assembly_timeout: Duration::from_millis(1_500),
        ..NodeConfig::default()
    };
    let rm_hosts: Vec<HostId> = RINGMASTER_HOSTS.iter().map(|&h| HostId(h)).collect();
    let rm = rig.spawn_ringmaster(&rm_hosts, config.clone());
    let mut store_members = Vec::new();
    let mut cm_members = Vec::new();
    for &h in &MEMBER_HOSTS {
        let host = HostId(h);
        let disk = rig.w.install_disk(host, DiskConfig::faultless());
        let a = SockAddr::new(host, STORE_PORT);
        let store = TroupeStoreService::with_durability(COMMIT_MODULE, disk, SNAPSHOT_EVERY);
        let p = NodeBuilder::new(a, config.clone())
            .service(STORE_MODULE, rig.service("service.store", Box::new(store)))
            .binder(rm.clone())
            .build()
            .expect("valid node");
        rig.spawn(a, Role::Member, p);
        store_members.push(ModuleAddr::new(a, STORE_MODULE));
        let a = SockAddr::new(host, CM_PORT);
        let p = NodeBuilder::new(a, config.clone())
            .service(
                CM_MODULE,
                rig.service("service.cm", Box::new(CommutativeService::new())),
            )
            .binder(rm.clone())
            .build()
            .expect("valid node");
        rig.spawn(a, Role::Member, p);
        cm_members.push(ModuleAddr::new(a, CM_MODULE));
    }
    let registrar = SockAddr::new(HostId(90), CLIENT_PORT);
    let p = NodeBuilder::new(registrar, config.clone())
        .agent(Box::new(Registrar {
            binder: rm.clone(),
            reqs: vec![
                RegisterTroupe {
                    name: STORE_NAME.into(),
                    members: store_members.clone(),
                },
                RegisterTroupe {
                    name: CM_NAME.into(),
                    members: cm_members.clone(),
                },
            ],
            registered: 0,
        }))
        .build()
        .expect("valid node");
    rig.spawn(registrar, Role::Client, p);
    rig.w.poke(registrar, 0);
    let deadline = rig.w.now() + Duration::from_secs(60);
    let registered = rig.run_until(deadline, |w| {
        circus_in(w, registrar, |p| {
            agent_as::<Registrar>(p).is_some_and(|r| r.registered == 2)
        })
        .unwrap_or(false)
    });

    let clients: Vec<SockAddr> = (0..inputs.ops.len())
        .map(|i| SockAddr::new(HostId(CLIENT_HOST + i as u32), CLIENT_PORT))
        .collect();
    for (w, &c) in clients.iter().enumerate() {
        let agent = OpenLoop {
            binder: rm.clone(),
            cache: ImportCache::new(),
            ops: inputs.ops[w].clone(),
            ids: (0..inputs.ops[w].len() as u64)
                .map(|k| (w as u64) << 32 | k)
                .collect(),
            t0: Time::ZERO,
            next: 0,
            cur: None,
            inflight: None,
            backoff: Backoff::default_1985(),
            nonce: 0,
            acked_writes: Vec::new(),
            acked_cm: Vec::new(),
            rebinds: 0,
            bound: false,
            log: log.clone(),
            tracer: rig.t.clone(),
        };
        let p = NodeBuilder::new(c, config.clone())
            .agent(rig.agent("agent.open_loop", Box::new(agent)))
            .service(
                COMMIT_MODULE,
                rig.service("service.voter", Box::new(CommitVoterService)),
            )
            .binder(rm.clone())
            .build()
            .expect("valid node");
        rig.spawn(c, Role::Client, p);
        rig.w.poke(c, 0);
    }
    let deadline = rig.w.now() + Duration::from_secs(60);
    let n = clients.len();
    let bound = rig.run_until(deadline, |_| log.borrow().warmed == n);
    let mut r = RunResult {
        setup_s: setup.secs(),
        ..RunResult::default()
    };

    // Measured phase: the open-loop schedule against the fault schedule.
    let base = Snap::take(&rig.w);
    let start = crate::Stopwatch::start();
    let t0 = rig.w.now();
    let mut targets: Vec<SockAddr> = rm_hosts
        .iter()
        .map(|&h| SockAddr::new(h, RINGMASTER_PORT))
        .collect();
    targets.extend(store_members.iter().chain(&cm_members).map(|m| m.addr));
    targets.extend(&clients);
    let adv = AdvInjector::new(seed, rig.w.metrics(), targets);
    rig.w.set_injector(Box::new(adv), Duration::from_secs(5));
    for &c in &clients {
        rig.w.poke(c, 1);
    }
    let mut d = FaultRun {
        rig,
        rm,
        config,
        crashes: Vec::new(),
        next_spare_host: 13,
        next_port: 100,
    };
    let mut actions: Vec<(Time, u64, Action)> = inputs
        .faults
        .iter()
        .enumerate()
        .map(|(i, (at, f))| {
            (
                t0 + Duration::from_micros(*at),
                i as u64,
                Action::Fault(f.clone()),
            )
        })
        .collect();
    let mut seq = actions.len() as u64;
    let baseline = NetConfig::lan_1985();
    while !actions.is_empty() {
        let k = (0..actions.len())
            .min_by_key(|&i| (actions[i].0, actions[i].1))
            .expect("non-empty");
        let (at, _, action) = actions.swap_remove(k);
        d.run_to(at);
        if matches!(action, Action::Fault(_)) {
            // A new fault lands only on a troupe at full strength.
            d.await_repairs(at + REPAIR_BOUND);
        }
        let at = d.rig.w.now();
        let mut later = |after: Duration, a: Action| {
            seq += 1;
            actions.push((at + after, seq, a));
        };
        match action {
            Action::Fault(Fault::Crash {
                victim,
                restart_after,
            }) => {
                let Some(host) = d.member_host(victim) else {
                    continue;
                };
                let dead: Vec<SockAddr> = NAMES
                    .iter()
                    .filter_map(|n| d.binding(n))
                    .flat_map(|t| t.members)
                    .map(|m| m.addr)
                    .filter(|a| a.host == host)
                    .collect();
                // Publish the doomed processes' counters before they go.
                d.rig.w.refresh_metrics();
                d.rig.w.crash_host(host);
                d.crashes.push(Crash {
                    at,
                    dead,
                    repaired: None,
                });
                match restart_after {
                    Some(after) => later(after, Action::Restart(host)),
                    None => {
                        let h = HostId(d.next_spare_host);
                        d.next_spare_host += 1;
                        d.spawn_spares(h, false);
                    }
                }
            }
            Action::Restart(host) => {
                d.rig.w.restart_host(host);
                d.spawn_spares(host, true);
            }
            Action::Fault(Fault::Partition { victim, heal_after }) => {
                if let Some(host) = d.member_host(victim) {
                    d.rig.w.set_partition(Partition::isolate(vec![host]));
                    later(heal_after, Action::Heal);
                }
            }
            Action::Heal => d.rig.w.set_partition(Partition::none()),
            Action::Fault(Fault::LossBurst {
                loss,
                duplicate,
                duration,
            }) => {
                d.rig.w.set_net(NetConfig {
                    loss,
                    duplicate,
                    ..baseline.clone()
                });
                later(duration, Action::Calm);
            }
            Action::Calm => d.rig.w.set_net(baseline.clone()),
        }
    }
    let schedule_end = t0 + Duration::from_micros(inputs.length_us);
    d.run_to(schedule_end);
    // Drain: let every operation settle and every repair finish.
    let drain_until = schedule_end + GIVE_UP + Duration::from_secs(30);
    while d.rig.w.now() < drain_until
        && (log.borrow().finished < n || d.crashes.iter().any(|c| c.repaired.is_none()))
    {
        let next = d.rig.w.now() + Duration::from_millis(100);
        d.run_to(next);
    }
    let mut rig = d.rig;
    r.run_s = start.secs();
    let end = Snap::take(&rig.w);
    let quiesce = rig.w.now() + Duration::from_secs(10);
    rig.run_to(quiesce);

    let logr = log.borrow();
    r.attempted = inputs.ops.iter().map(Vec::len).sum::<usize>() as u64;
    r.failed = logr.failed;
    r.events = end.events - base.events;
    sim_metrics(&mut r, &logr.done, &base, &end);
    det_metrics(&mut r, &base, &end);
    let crashes = &d.crashes;
    let outage: Vec<u64> = crashes
        .iter()
        .filter_map(|c| {
            logr.done
                .iter()
                .filter(|s| s.start_us >= us(c.at))
                .map(|s| s.end_us)
                .min()
                .map(|e| e - us(c.at))
        })
        .collect();
    let repair: Vec<u64> = crashes
        .iter()
        .filter_map(|c| c.repaired.map(|t| t.since(c.at).as_micros()))
        .collect();
    r.det
        .insert("sim_outage_ms_p50", percentile(&outage, 0.5) as f64 / 1e3);
    r.det
        .insert("sim_repair_ms_p50", percentile(&repair, 0.5) as f64 / 1e3);
    r.det.insert(
        "gen.late_ms_p99",
        percentile(&logr.late_us, 0.99) as f64 / 1e3,
    );
    for (class, name) in [
        (READ, "transactions.read_ms_p50"),
        (WRITE, "transactions.write_ms_p50"),
        (CM, "transactions.cm_ms_p50"),
    ] {
        r.det.insert(name, crate::class_p50_ms(&logr.done, class));
    }
    let mut rebinds = 0;
    for &c in &clients {
        rig.circus(c, |p| {
            rebinds += agent_as::<OpenLoop>(p).map_or(0, |a| a.rebinds);
        });
    }
    r.det.insert(
        "ringmaster.rebinds_per_crash",
        crate::ratio(rebinds, crashes.len() as u64),
    );
    let commits = logr.done.iter().filter(|s| s.class != CM).count() as u64;
    commit_metrics(&mut r, &base, &end, commits);
    r.notes.push(format!(
        "{} crashes ({} repaired); outage and repair medians over them",
        crashes.len(),
        repair.len()
    ));
    let all_repaired = repair.len() == crashes.len();
    drop(logr);

    let members = |name: &str| -> Vec<SockAddr> {
        circus_in(
            &rig.w,
            SockAddr::new(HostId(RINGMASTER_HOSTS[0]), RINGMASTER_PORT),
            |p| {
                p.node()
                    .service_as::<RingmasterService>(BINDING_MODULE)
                    .and_then(|s| s.lookup(name))
                    .map(|t| t.members.iter().map(|m| m.addr).collect())
            },
        )
        .flatten()
        .unwrap_or_default()
    };
    let store_now = members(STORE_NAME);
    let cm_now = members(CM_NAME);
    let state_bytes = store_now
        .iter()
        .filter_map(|&a| {
            rig.circus(a, |p| {
                service_as::<TroupeStoreService>(p.node(), STORE_MODULE)
                    .map_or(0, |s| circus::Service::get_state(s).len())
            })
        })
        .max()
        .unwrap_or(0);
    r.det
        .insert("transactions.state_bytes_max", state_bytes as f64);
    if let Some(t) = &rig.t {
        crate::traced_metrics(&mut r, t, &rig.w.metrics());
    }

    let logr = log.borrow();
    r.check = if !registered || !bound {
        Err("troupes never registered or clients never bound".into())
    } else if logr.finished < n {
        Err("open-loop operations did not all settle".into())
    } else if !all_repaired {
        Err("a crash was never repaired".into())
    } else if let Some(e) = logr.errors.first() {
        Err(e.clone())
    } else if end.c["dup_call_deliveries"] != 0 {
        Err(format!(
            "{} duplicate call deliveries",
            end.c["dup_call_deliveries"]
        ))
    } else if end.since(&base, "adv.injected") == 0 || end.since(&base, "adv.rejected") == 0 {
        Err(format!(
            "forged traffic was not both injected and refused: {} injected, {} rejected",
            end.since(&base, "adv.injected"),
            end.since(&base, "adv.rejected")
        ))
    } else {
        check_members(&rig, &clients, &store_now, &cm_now)
    };
    drop(logr);
    (r, rig)
}

/// The output checks: every acknowledged write is in every current
/// store member's commit ledger, every acknowledged commutative request
/// has been applied at every current commutative member, and each
/// troupe's members agree on their state digest.
fn check_members(
    rig: &Rig,
    clients: &[SockAddr],
    store: &[SockAddr],
    cm: &[SockAddr],
) -> Result<(), String> {
    if store.len() != REPLICAS || cm.len() != REPLICAS {
        return Err("a troupe is below strength at quiesce".into());
    }
    let (mut writes, mut cms) = (Vec::new(), Vec::new());
    for &c in clients {
        rig.circus(c, |p| {
            if let Some(a) = agent_as::<OpenLoop>(p) {
                writes.extend(a.acked_writes.iter().copied());
                cms.extend(a.acked_cm.iter().copied());
            }
        });
    }
    let mut digests = Vec::new();
    for &a in store {
        let (ledger, digest) = rig
            .circus(a, |p| {
                service_as::<TroupeStoreService>(p.node(), STORE_MODULE)
                    .map(|s| (s.committed_log().to_vec(), s.state_digest()))
            })
            .flatten()
            .ok_or(format!("store member {a} is not running"))?;
        let held: std::collections::HashSet<_> = ledger.into_iter().collect();
        if let Some(w) = writes.iter().find(|w| !held.contains(w)) {
            return Err(format!("store member {a} lost acknowledged write {w:?}"));
        }
        digests.push(digest);
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        return Err("store members' state digests differ".into());
    }
    digests.clear();
    for &a in cm {
        let digest = rig
            .circus(a, |p| {
                service_as::<CommutativeService>(p.node(), CM_MODULE).map(|s| {
                    cms.iter()
                        .find(|&&id| !s.has_seen(id))
                        .map_or(Ok(s.state_digest()), |id| {
                            Err(format!(
                                "commutative member {a} lost acknowledged request {id}"
                            ))
                        })
                })
            })
            .flatten()
            .ok_or(format!("commutative member {a} is not running"))??;
        digests.push(digest);
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        return Err("commutative members' state digests differ".into());
    }
    Ok(())
}

/// The idempotence id of commutative operation `op` (never 0).
fn cm_id(op: u64) -> u64 {
    op | 1 << 62
}
