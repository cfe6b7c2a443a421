//! The world driver every workload runs on.
//!
//! [`Driver`] builds the full stack for one seed — a three-member
//! Ringmaster troupe (its leader running the [`SelfHealAgent`]), the
//! workload troupe placed by the configlang [`ConfigManager`], warm
//! spares on the machines the solver left over, a registrar, and the
//! name-importing clients — then drives the fault plan against it and
//! quiesces the world for the oracles.
//!
//! Fault injection keeps the administrative plane of §7.5.3 in the loop
//! on every membership change. The manager's machine database loses a
//! machine when the driver crashes it, its `reconfigure` recomputes a
//! satisfying placement, and after each heal the driver checks that the
//! placement the *runtime* chose (the healer activates whatever warm
//! spare registered first, which may differ from the solver's pick)
//! still satisfies the troupe's specification — [`extend_troupe`] over
//! the observed membership must be a fixed point. A heal that leaves the
//! troupe outside its spec is a driver warning, and the sweeps treat
//! warnings as failures. Crash repair itself is *in-system*: the healer
//! probe-confirms, evicts, and activates a spare; the driver only
//! injects the fault and watches the registry.

use circus::binding::{binding_procs, BINDING_MODULE, RINGMASTER_PORT};
use circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, Troupe, TroupeId,
};
use configlang::{extend_troupe, ConfigManager, Machine, Universe, Value};
use ringmaster::{
    spawn_ringmaster, RegisterTroupe, RingmasterService, SelfHealAgent, SpareAgent, SpareService,
    SPARE_CTL_MODULE,
};
use simnet::{
    Duration, HostId, NetConfig, Partition, SimRng, SockAddr, SyscallCosts, TraceRing, World,
};
use wire::{from_bytes, to_bytes};

use crate::client::client_of;
use crate::harness::{Faults, Options, Quiesced, Rejoin, Workload};
use crate::plan::{Fault, FaultPlan, PlannedFault};

/// Module number of the workload service on every member.
pub const MODULE: u16 = 1;
/// Port workload members and spares listen on.
pub const MEMBER_PORT: u16 = 70;
/// Port clients (and the registrar) listen on.
pub const CLIENT_PORT: u16 = 10;
/// The replication degree the troupe specification asks for — and,
/// because the healer replaces every confirmed-dead member from the
/// spare pool, the degree the troupe must be back at by quiesce.
pub const REPLICATION: usize = 3;
/// The configlang specification the initial placement is solved from.
pub const SPEC: &str = "troupe(x, y, z) where x.memory >= 8 and y.memory >= 8 and z.memory >= 8";

/// The machine universe the configuration manager solves over: the five
/// hosts that can run members (three initial members plus two warm
/// spares), all satisfying the memory constraint.
fn universe() -> Universe {
    let mut u = Universe::new();
    for id in 10..=14u32 {
        u = u.with(Machine::named(id, &format!("vax-{id}")).with("memory", Value::Num(16)));
    }
    u
}

/// Registers the workload troupe with the Ringmaster from a third-party
/// administrative process (§6.3: clients need only the binding agent's
/// well-known address).
struct Registrar {
    binder: Troupe,
    req: RegisterTroupe,
    id: Option<TroupeId>,
}

impl Agent for Registrar {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        let t = nc.fresh_thread();
        let binder = self.binder.clone();
        nc.call(
            t,
            &binder,
            BINDING_MODULE,
            binding_procs::REGISTER_TROUPE,
            to_bytes(&self.req),
            CollationPolicy::Majority,
        );
    }

    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if let Ok(bytes) = result {
            self.id = from_bytes(&bytes).ok();
        }
    }
}

/// One run's world and everything the schedule needs to act on it.
pub struct Driver {
    /// The world.
    pub(crate) w: World,
    /// The fault plan the default schedule executes.
    pub(crate) plan: FaultPlan,
    rm: Troupe,
    rm_hosts: Vec<HostId>,
    config: NodeConfig,
    /// The name the workload troupe is registered under — both in the
    /// Ringmaster registry and in the configuration manager.
    name: &'static str,
    /// The workload troupe's membership, as last read from the registry.
    pub(crate) members: Vec<ModuleAddr>,
    /// The client process addresses.
    pub(crate) clients: Vec<SockAddr>,
    /// Operations per client script.
    pub(crate) ops: usize,
    /// Crashes the driver may still inject — bounded by the number of
    /// spares spawned into the world, so the healer can always restore
    /// full strength.
    spare_budget: usize,
    crashed: Vec<HostId>,
    baseline: NetConfig,
    /// Driver anomalies; the sweeps treat them as failures.
    pub(crate) warnings: Vec<String>,
    /// The administrative plane: machine database plus troupe spec.
    cm: ConfigManager,
    /// Set by a schedule that crashes a member and rejoins it from disk.
    pub(crate) rejoin: Option<Rejoin>,
}

impl Driver {
    /// Builds the stack for `seed`: world, Ringmaster, solved placement,
    /// members, spares, registrar, clients, and (last, so its clock
    /// starts from the same point in every run) the adversary.
    pub(crate) fn new(seed: u64, wl: &dyn Workload, opts: &Options) -> Driver {
        let plan = match &opts.faults {
            Faults::Plan(p) => FaultPlan::generate(seed, p),
            Faults::Script(faults) => FaultPlan {
                seed,
                faults: faults.clone(),
            },
        };
        let mut w = (opts.world)(seed, NetConfig::lan_1985(), SyscallCosts::default());
        let baseline = w.net().clone();
        // The sink must be installed before the first spawn so the whole
        // run, setup included, is covered by the trace hash. A bounded
        // ring keeps memory flat no matter how long the run is: the hash
        // still covers every event, only the retained window is capped.
        w.set_trace_sink(Box::new(TraceRing::new(4_096)));

        let config = NodeConfig {
            assembly_timeout: Duration::from_micros(1_500_000),
            multicast_calls: opts.multicast_calls,
            ..NodeConfig::default()
        };
        let rm_hosts = vec![HostId(1), HostId(2), HostId(3)];
        let rm = spawn_ringmaster(&mut w, &rm_hosts, config.clone());

        // The initial placement is *solved*, not hard-coded: the manager
        // instantiates the troupe spec over the machine database and the
        // driver spawns members exactly where it says.
        let name = wl.troupe();
        let mut warnings = Vec::new();
        let mut cm = ConfigManager::new(universe());
        let placed: Vec<u32> = match cm.instantiate(name, SPEC) {
            Ok(_) => cm
                .troupe(name)
                .expect("just instantiated")
                .placement
                .clone(),
            Err(e) => {
                warnings.push(format!("configlang instantiation failed: {e}"));
                vec![10, 11, 12]
            }
        };
        let members: Vec<ModuleAddr> = placed
            .iter()
            .map(|&h| ModuleAddr::new(SockAddr::new(HostId(h), MEMBER_PORT), MODULE))
            .collect();
        let mut d = Driver {
            w,
            plan,
            rm,
            rm_hosts,
            config,
            name,
            members: members.clone(),
            clients: Vec::new(),
            ops: opts.ops_per_client.unwrap_or_else(|| wl.default_ops()),
            spare_budget: 0,
            crashed: Vec::new(),
            baseline,
            warnings,
            cm,
            rejoin: None,
        };
        for m in &members {
            let svc = wl.service(&mut d.w, m.addr.host);
            let p = d
                .node(m.addr)
                .service(MODULE, svc)
                .build()
                .expect("valid node");
            d.w.spawn(m.addr, Box::new(p));
        }

        // Warm spares on the machines the solver did not pick: full
        // member processes that register themselves with the Ringmaster
        // at boot and wait to be activated by the healer. A spare never
        // reuses a dead member's address — its peers still remember the
        // dead process's paired-message call numbers.
        if wl.warm_spares() {
            for h in (10..=14u32).filter(|h| !placed.contains(h)) {
                let svc = wl.service(&mut d.w, HostId(h));
                d.spawn_spare(SockAddr::new(HostId(h), MEMBER_PORT), svc, false);
                d.spare_budget += 1;
            }
        }

        let registrar = SockAddr::new(HostId(90), CLIENT_PORT);
        let p = NodeBuilder::new(registrar, d.config.clone())
            .agent(Box::new(Registrar {
                binder: d.rm.clone(),
                req: RegisterTroupe {
                    name: name.into(),
                    members,
                },
                id: None,
            }))
            .build()
            .expect("valid node");
        d.w.spawn(registrar, Box::new(p));
        d.w.poke(registrar, 0);
        let deadline = d.w.now() + Duration::from_micros(30_000_000);
        let registered = d.w.run(simnet::Until::pred(deadline, |w| {
            w.with_proc(registrar, |p: &CircusProcess| {
                p.agent_as::<Registrar>().is_some_and(|r| r.id.is_some())
            })
            .unwrap_or(false)
        }));
        if !registered {
            d.warnings.push(format!("{name} troupe never registered"));
        }

        // Scripts are drawn from a workload RNG domain-separated from
        // both the world and the plan.
        let mut wrng = SimRng::new(seed ^ wl.rng_domain().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for (i, h) in [20u32, 21].into_iter().enumerate() {
            let c = SockAddr::new(HostId(h), CLIENT_PORT);
            // Clients observe member deaths first (their calls fail), so
            // they too report suspects to the binding agent.
            let node = wl.client(d.node(c), &d.rm, i, d.ops, &mut wrng);
            d.w.spawn(c, Box::new(node.build().expect("valid node")));
            d.w.poke(c, 0);
            d.clients.push(c);
        }

        if let Some(install) = opts.injector {
            install(seed, &mut d.w);
        }
        d
    }

    /// A node builder at `addr` with the run's config, bound to the
    /// Ringmaster.
    fn node(&self, addr: SockAddr) -> NodeBuilder {
        NodeBuilder::new(addr, self.config.clone()).binder(self.rm.clone())
    }

    /// Spawns a spare at `addr` exporting `svc`: it offers itself to the
    /// Ringmaster at boot and joins through the wedge protocol, fetching
    /// the delta past its own log head if `delta`, else the full state.
    pub(crate) fn spawn_spare(&mut self, addr: SockAddr, svc: Box<dyn Service>, delta: bool) {
        let (rm, name) = (self.rm.clone(), self.name);
        let ctl = if delta {
            SpareService::with_delta(rm.clone(), name, MODULE)
        } else {
            SpareService::new(rm.clone(), name, MODULE)
        };
        let p = self
            .node(addr)
            .service(MODULE, svc)
            .service(SPARE_CTL_MODULE, Box::new(ctl))
            .agent(Box::new(SpareAgent::new(rm, name)))
            .build()
            .expect("valid node");
        self.w.spawn(addr, Box::new(p));
    }

    fn healer_addr(&self) -> SockAddr {
        SockAddr::new(self.rm_hosts[0], RINGMASTER_PORT)
    }

    /// The workload troupe's registry entry at the healer.
    fn registry_binding(&self) -> Option<Troupe> {
        let name = self.name;
        self.w
            .with_proc(self.healer_addr(), |p: &CircusProcess| {
                p.node()
                    .service_as::<RingmasterService>(BINDING_MODULE)
                    .and_then(|s| {
                        s.bindings()
                            .into_iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, t)| t)
                    })
            })
            .flatten()
    }

    fn refresh_members(&mut self) {
        if let Some(t) = self.registry_binding() {
            self.members = t.members;
        }
    }

    /// Runs until the registry shows the troupe at `strength` members,
    /// none at `dead` and — if given — one at `joined`, or until
    /// `timeout` passes. Returns whether it did.
    pub(crate) fn await_membership(
        &mut self,
        strength: usize,
        dead: SockAddr,
        joined: Option<SockAddr>,
        timeout: Duration,
    ) -> bool {
        let deadline = self.w.now() + timeout;
        let healer = self.healer_addr();
        let name = self.name;
        self.w.run(simnet::Until::pred(deadline, |w| {
            w.with_proc(healer, |p: &CircusProcess| {
                p.node()
                    .service_as::<RingmasterService>(BINDING_MODULE)
                    .and_then(|s| s.lookup(name))
                    .is_some_and(|t| {
                        t.members.len() == strength
                            && !t.members.iter().any(|m| m.addr == dead)
                            && joined.is_none_or(|j| t.members.iter().any(|m| m.addr == j))
                    })
            })
            .unwrap_or(false)
        }))
    }

    /// Waits (in simulated time) for the self-healing pipeline to evict
    /// `dead` and restore the troupe to `strength` members. The driver
    /// performs no repair step itself — it only observes the registry.
    fn await_self_heal(&mut self, dead: ModuleAddr, strength: usize) {
        if !self.await_membership(strength, dead.addr, None, Duration::from_micros(60_000_000)) {
            let name = self.name;
            let post = self
                .w
                .with_proc(self.healer_addr(), |p: &CircusProcess| {
                    let h = p
                        .agent_as::<SelfHealAgent>()
                        .map_or_else(|| "no healer".into(), |h| h.debug_state());
                    let s = p
                        .node()
                        .service_as::<RingmasterService>(BINDING_MODULE)
                        .map_or_else(
                            || "no service".into(),
                            |s| {
                                format!(
                                    "suspects={} spares={:?} binding={:?}",
                                    s.suspect_count(),
                                    s.spare_pools(),
                                    s.lookup(name)
                                )
                            },
                        );
                    format!("{h}; {s}")
                })
                .unwrap_or_else(|| "healer process gone".into());
            self.warnings.push(format!(
                "self-heal after loss of {dead:?} did not complete [{post}]"
            ));
        }
        self.refresh_members();
    }

    /// Crash-path bookkeeping shared by `CrashHost` and `KillProc`: tell
    /// the administrative plane, wait for the runtime's own repair, then
    /// check the two agree that the troupe still satisfies its spec.
    fn lose_member(&mut self, victim: ModuleAddr, strength: usize) {
        // The machine leaves the administrative database either way: a
        // killed process's address is never reused for a member (its
        // peers still remember its paired-message call numbers), so for
        // placement purposes the machine is as gone as a crashed host.
        self.cm.machine_down(victim.addr.host.0);
        if let Err(e) = self.cm.reconfigure(self.name) {
            self.warnings
                .push(format!("configuration manager could not reconfigure: {e}"));
        }
        self.await_self_heal(victim, strength);
        // The healer's spare pick is FIFO over registration order and may
        // differ from the solver's; what matters is that the observed
        // membership still satisfies the specification — extending the
        // troupe from it must change nothing.
        let actual: Vec<u32> = self.members.iter().map(|m| m.addr.host.0).collect();
        let Some(spec) = self.cm.troupe(self.name).map(|t| t.spec.clone()) else {
            self.warnings
                .push(format!("troupe {:?} missing from the manager", self.name));
            return;
        };
        let mut want = actual.clone();
        want.sort_unstable();
        match extend_troupe(&spec, self.cm.universe(), &actual) {
            Some(mut p) => {
                p.sort_unstable();
                if p == want {
                    // Reality satisfies the spec: anchor the manager to it.
                    let _ = self.cm.note_placement(self.name, actual);
                } else {
                    self.warnings.push(format!(
                        "healed placement {actual:?} is not a fixed point of the spec \
                         (solver would use {p:?})"
                    ));
                }
            }
            None => self.warnings.push(format!(
                "healed placement {actual:?} does not satisfy the troupe spec"
            )),
        }
    }

    /// Injects one planned fault at its time.
    fn apply(&mut self, pf: &PlannedFault) {
        self.w.run(simnet::Until::Time(pf.at));
        match pf.fault {
            Fault::Partition {
                victim_idx,
                heal_after,
            } => {
                let victim = self.members[victim_idx % self.members.len()].addr.host;
                self.w.set_partition(Partition::isolate(vec![victim]));
                self.w.run(simnet::Until::Elapsed(heal_after));
                self.w.set_partition(Partition::none());
            }
            Fault::LossBurst {
                loss,
                duplicate,
                duration,
            } => {
                self.w.set_net(NetConfig {
                    loss,
                    duplicate,
                    ..self.baseline.clone()
                });
                self.w.run(simnet::Until::Elapsed(duration));
                self.w.set_net(self.baseline.clone());
            }
            Fault::Degrade { factor, duration } => {
                self.w.set_net(NetConfig {
                    base_latency: self.baseline.base_latency.saturating_mul(factor as u64),
                    jitter_mean: self.baseline.jitter_mean.saturating_mul(factor as u64),
                    ..self.baseline.clone()
                });
                self.w.run(simnet::Until::Elapsed(duration));
                self.w.set_net(self.baseline.clone());
            }
            Fault::CrashHost { victim_idx } | Fault::KillProc { victim_idx } => {
                if self.spare_budget == 0 {
                    return;
                }
                self.spare_budget -= 1;
                self.refresh_members();
                let strength = self.members.len();
                let victim = self.members[victim_idx % self.members.len()];
                if matches!(pf.fault, Fault::CrashHost { .. }) {
                    self.crashed.push(victim.addr.host);
                    self.w.crash_host(victim.addr.host);
                } else {
                    self.w.kill(victim.addr);
                }
                self.lose_member(victim, strength);
            }
            Fault::RestartOldest => {
                // The host comes back up empty; its old address is never
                // reused for a member (its peers still remember the dead
                // process's serial numbers). It does not rejoin the
                // machine database either: a restarted machine must be
                // re-vetted before the administrative plane will place
                // members on it.
                if !self.crashed.is_empty() {
                    let h = self.crashed.remove(0);
                    self.w.restart_host(h);
                }
            }
        }
    }

    /// The default schedule: inject every planned fault, then heal the
    /// network and let the healer drain its suspect queue (a partition
    /// near the end of the plan can leave suspicions that must be probed
    /// and cleared, not acted on).
    pub(crate) fn run_plan(&mut self) {
        for pf in self.plan.faults.clone() {
            self.apply(&pf);
        }
        self.w.set_partition(Partition::none());
        self.w.set_net(self.baseline.clone());
        let healer = self.healer_addr();
        let deadline = self.w.now() + Duration::from_micros(60_000_000);
        let drained = self.w.run(simnet::Until::pred(deadline, |w| {
            w.with_proc(healer, |p: &CircusProcess| {
                let no_suspects = p
                    .node()
                    .service_as::<RingmasterService>(BINDING_MODULE)
                    .is_some_and(|s| s.suspect_count() == 0);
                no_suspects && p.agent_as::<SelfHealAgent>().is_some_and(|h| h.idle())
            })
            .unwrap_or(false)
        }));
        if !drained {
            self.warnings
                .push("healer did not drain its suspect queue at quiesce".into());
        }
    }

    /// Runs until every client has finished its script, or `timeout`.
    fn await_clients(&mut self, timeout: Duration) -> bool {
        let deadline = self.w.now() + timeout;
        let clients = &self.clients;
        self.w.run(simnet::Until::pred(deadline, |w| {
            clients.iter().all(|&c| {
                w.with_proc(c, |p: &CircusProcess| {
                    client_of(p).is_some_and(|a| a.finished())
                })
                .unwrap_or(false)
            })
        }))
    }

    /// Quiesces the world after the schedule: let every client finish,
    /// push one probe through every client's binding cache, let
    /// retransmissions and deferred acks settle, and freeze the result.
    pub(crate) fn settle(mut self) -> Quiesced {
        let finished = self.await_clients(Duration::from_micros(180_000_000));
        if !finished {
            self.warnings
                .push("clients did not finish before quiesce".into());
        }
        for (i, &c) in self.clients.clone().iter().enumerate() {
            self.w.with_proc_mut(c, |p: &mut CircusProcess| {
                if let Some(a) = crate::client::client_of_mut(p) {
                    a.probe(i);
                }
            });
            self.w.poke(c, 0);
        }
        let probed = self.await_clients(Duration::from_micros(120_000_000));
        if !probed {
            self.warnings.push("probes did not finish".into());
        }
        self.w
            .run(simnet::Until::Elapsed(Duration::from_micros(5_000_000)));

        self.refresh_members();
        let repairs = self
            .w
            .with_proc(self.healer_addr(), |p: &CircusProcess| {
                p.agent_as::<SelfHealAgent>()
                    .map_or(0, |h| h.repairs as usize)
            })
            .unwrap_or(0);
        Quiesced {
            world: self.w,
            plan: self.plan,
            members: self.members,
            client_addrs: self.clients,
            ringmaster_hosts: self.rm_hosts,
            all_clients_finished: finished && probed,
            repairs,
            warnings: self.warnings,
            rejoin: self.rejoin,
        }
    }
}
