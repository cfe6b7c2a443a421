//! End-to-end binding-agent tests: registration, lookup, stale-binding
//! rebind, the server-side directory lookup path, and the one
//! membership-repair path — a warm spare's wedged join (§6.4.1),
//! activated by hand here, and the healer's probe-confirmed eviction
//! (§6.1) — including both through a degraded Ringmaster.

use circus::binding::{binding_procs, BINDING_MODULE, RINGMASTER_PORT};
use circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};
use ringmaster::{
    spawn_ringmaster, ImportCache, RegisterTroupe, RingmasterService, SpareService, PROC_ACTIVATE,
    SPARE_CTL_MODULE,
};
use simnet::{Duration, HostId, SockAddr, World};
use wire::{from_bytes, to_bytes};

const APP_MODULE: u16 = 1;

/// A replicated counter used as the application module.
struct Counter {
    value: u32,
}

impl Service for Counter {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        match proc {
            0 => {
                let n: u32 = from_bytes(args).unwrap_or(0);
                self.value += n;
                Step::Reply(to_bytes(&self.value))
            }
            _ => Step::Error("bad proc".into()),
        }
    }

    fn get_state(&self) -> Vec<u8> {
        to_bytes(&self.value)
    }

    fn set_state(&mut self, state: &[u8]) {
        if let Ok(v) = from_bytes(state) {
            self.value = v;
        }
    }
}

fn world(seed: u64) -> World {
    World::new(seed)
}

fn hosts(list: &[u32]) -> Vec<HostId> {
    list.iter().map(|&h| HostId(h)).collect()
}

/// Spawns a counter troupe and registers it with the ringmaster via a
/// third-party register_troupe call, returning the registered troupe.
fn register_counter_troupe(
    w: &mut World,
    binder: &Troupe,
    name: &str,
    host_list: &[u32],
) -> Troupe {
    register_counter_troupe_from(w, binder, name, host_list, 10)
}

/// Like `register_counter_troupe`, but with an explicit registrar port —
/// each logical registrar process must have a fresh address, as a reused
/// address would collide with the old process's call numbers (ports are
/// not reused this fast by a real UDP implementation, §4.2.1).
fn register_counter_troupe_from(
    w: &mut World,
    binder: &Troupe,
    name: &str,
    host_list: &[u32],
    registrar_port: u16,
) -> Troupe {
    let members: Vec<ModuleAddr> = host_list
        .iter()
        .map(|&h| ModuleAddr::new(SockAddr::new(HostId(h), 70), APP_MODULE))
        .collect();
    for m in &members {
        // Spawn only if not already running: re-registration reuses the
        // live member processes (a reused address with a fresh process
        // would collide with the old incarnation's call numbers, which
        // a real UDP port allocator prevents).
        if !w.is_alive(m.addr) {
            let p = NodeBuilder::new(m.addr, NodeConfig::default())
                .service(APP_MODULE, Box::new(Counter { value: 0 }))
                .binder(binder.clone())
                .build()
                .expect("valid node");
            w.spawn(m.addr, Box::new(p));
        }
    }
    // Third-party registrar (the configuration manager's role, §6.2).
    let registrar = SockAddr::new(HostId(90), registrar_port);
    struct Registrar {
        binder: Troupe,
        req: RegisterTroupe,
        pub id: Option<TroupeId>,
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
    let p = NodeBuilder::new(registrar, NodeConfig::default())
        .agent(Box::new(Registrar {
            binder: binder.clone(),
            req: RegisterTroupe {
                name: name.into(),
                members: members.clone(),
            },
            id: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(registrar, Box::new(p));
    w.poke(registrar, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));
    let id = w
        .with_proc(registrar, |p: &CircusProcess| {
            p.agent_as::<Registrar>().unwrap().id
        })
        .unwrap()
        .expect("registration failed");
    Troupe::new(id, members)
}

#[test]
fn register_and_lookup_by_name() {
    let mut w = world(1);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);
    assert_ne!(registered.id, TroupeId::UNREGISTERED);

    // Every member received the new incarnation via set_troupe_id.
    for m in &registered.members {
        let id = w
            .with_proc(m.addr, |p: &CircusProcess| p.node().troupe_id())
            .unwrap();
        assert_eq!(id, registered.id);
    }

    // A client imports by name and calls.
    struct Importer {
        binder: Troupe,
        found: Option<Troupe>,
        result: Option<u32>,
    }
    impl Agent for Importer {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            let t = nc.fresh_thread();
            let (proc, args) = ImportCache::lookup_request("counter");
            let binder = self.binder.clone();
            nc.call(
                t,
                &binder,
                BINDING_MODULE,
                proc,
                args,
                CollationPolicy::Majority,
            );
        }
        fn on_call_done(
            &mut self,
            nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            match (&self.found, result) {
                (None, Ok(bytes)) => {
                    let troupe: Option<Troupe> = from_bytes(&bytes).unwrap();
                    let troupe = troupe.expect("name bound");
                    self.found = Some(troupe.clone());
                    let t = nc.fresh_thread();
                    nc.call(
                        t,
                        &troupe,
                        APP_MODULE,
                        0,
                        to_bytes(&5u32),
                        CollationPolicy::Unanimous,
                    );
                }
                (Some(_), Ok(bytes)) => {
                    self.result = from_bytes(&bytes).ok();
                }
                (_, Err(e)) => panic!("call failed: {e}"),
            }
        }
    }
    let client = SockAddr::new(HostId(50), 10);
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(Importer {
            binder: rm.clone(),
            found: None,
            result: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));

    let result = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<Importer>().unwrap().result
        })
        .unwrap();
    assert_eq!(result, Some(5));
}

/// Adds 42 to the counter troupe it was given on every poke; keeps each
/// reply, so a poke after a reconfiguration shows the stale binding.
struct Caller {
    troupe: Troupe,
    results: Vec<Result<Vec<u8>, CallError>>,
}

impl Agent for Caller {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        let t = nc.fresh_thread();
        let troupe = self.troupe.clone();
        nc.call(
            t,
            &troupe,
            APP_MODULE,
            0,
            to_bytes(&42u32),
            CollationPolicy::Unanimous,
        );
    }
    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.results.push(result);
    }
}

/// Plays the configuration manager of a planned join: every poke makes
/// the call the healer makes after an eviction, a solo `activate` on
/// the spare's control module.
struct Activator {
    spare: SockAddr,
    results: Vec<Result<Vec<u8>, CallError>>,
}

impl Agent for Activator {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        let t = nc.fresh_thread();
        let ctl = ModuleAddr::new(self.spare, SPARE_CTL_MODULE);
        nc.call_solo(
            t,
            &Troupe::singleton(ctl),
            SPARE_CTL_MODULE,
            PROC_ACTIVATE,
            to_bytes("counter"),
            CollationPolicy::FirstCome,
        );
    }
    fn on_call_done(
        &mut self,
        _nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.results.push(result);
    }
}

const CALLER: SockAddr = SockAddr {
    host: HostId(60),
    port: 10,
};
const SPARE: SockAddr = SockAddr {
    host: HostId(6),
    port: 70,
};
const OPERATOR: SockAddr = SockAddr {
    host: HostId(61),
    port: 10,
};

/// The counter troupe's registry entry at Ringmaster member `host`.
fn registry_entry(w: &World, host: u32) -> Option<Troupe> {
    w.with_proc(
        SockAddr::new(HostId(host), RINGMASTER_PORT),
        |p: &CircusProcess| {
            p.node()
                .service_as::<RingmasterService>(BINDING_MODULE)
                .unwrap()
                .lookup("counter")
                .cloned()
        },
    )
    .unwrap()
}

/// A planned join (§6.4.1) with no crash behind it: a counter troupe on
/// hosts 4 and 5 is registered with a Ringmaster on hosts 1–3 and
/// holds 42 (added by the [`Caller`] at `CALLER`); Ringmaster host
/// `rm_crash`, if any, is then crashed; a spare at `SPARE` is activated
/// once by the [`Activator`] at `OPERATOR`. Returns the world and the
/// counter troupe as registered before the join.
fn planned_join(seed: u64, rm_crash: Option<u32>) -> (World, Troupe) {
    let mut w = world(seed);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);
    let p = NodeBuilder::new(CALLER, NodeConfig::default())
        .agent(Box::new(Caller {
            troupe: registered.clone(),
            results: Vec::new(),
        }))
        .build()
        .expect("valid node");
    w.spawn(CALLER, Box::new(p));
    w.poke(CALLER, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));
    if let Some(h) = rm_crash {
        w.crash_host(HostId(h));
    }

    let p = NodeBuilder::new(SPARE, NodeConfig::default())
        .service(APP_MODULE, Box::new(Counter { value: 0 }))
        .service(
            SPARE_CTL_MODULE,
            Box::new(SpareService::new(rm.clone(), "counter", APP_MODULE)),
        )
        .binder(rm.clone())
        .build()
        .expect("valid node");
    w.spawn(SPARE, Box::new(p));
    let p = NodeBuilder::new(OPERATOR, NodeConfig::default())
        .agent(Box::new(Activator {
            spare: SPARE,
            results: Vec::new(),
        }))
        .build()
        .expect("valid node");
    w.spawn(OPERATOR, Box::new(p));
    w.poke(OPERATOR, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(60)));
    (w, registered)
}

fn activations(w: &World) -> Vec<Result<Vec<u8>, CallError>> {
    w.with_proc(OPERATOR, |p: &CircusProcess| {
        p.agent_as::<Activator>().unwrap().results.clone()
    })
    .unwrap()
}

#[test]
fn spare_activation_transfers_state_and_reincarnates() {
    let (mut w, registered) = planned_join(2, None);
    assert_eq!(activations(&w), vec![Ok(Vec::new())]);
    let spare_done = w
        .with_proc(SPARE, |p: &CircusProcess| {
            p.node()
                .service_as::<SpareService>(SPARE_CTL_MODULE)
                .unwrap()
                .activated
        })
        .unwrap();
    assert!(
        spare_done,
        "the control module did not record its activation"
    );

    // A new incarnation with the spare as third member.
    let joined = registry_entry(&w, 1).expect("counter bound");
    assert_ne!(joined.id, registered.id);
    assert_eq!(joined.members.len(), 3);
    assert!(joined.members.iter().any(|m| m.addr == SPARE));

    // State was transferred: the new member's counter is 42.
    let value = w
        .with_proc(SPARE, |p: &CircusProcess| {
            p.node().service_as::<Counter>(APP_MODULE).unwrap().value
        })
        .unwrap();
    assert_eq!(value, 42);

    // All three members (old and new) hold the new incarnation.
    for a in [
        registered.members[0].addr,
        registered.members[1].addr,
        SPARE,
    ] {
        let id = w
            .with_proc(a, |p: &CircusProcess| p.node().troupe_id())
            .unwrap();
        assert_eq!(id, joined.id, "member {a} has stale incarnation");
    }

    // A client still holding the OLD binding is rejected and can rebind.
    w.poke(CALLER, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));
    let results = w
        .with_proc(CALLER, |p: &CircusProcess| {
            p.agent_as::<Caller>().unwrap().results.clone()
        })
        .unwrap();
    assert_eq!(results.len(), 2);
    assert!(results[0].is_ok());
    assert!(
        matches!(results[1], Err(CallError::StaleBinding(Some(id))) if id == joined.id),
        "expected stale-binding rejection, got {:?}",
        results[1]
    );
}

#[test]
fn spare_refuses_a_second_activation() {
    let (mut w, _) = planned_join(2, None);
    let joined = registry_entry(&w, 1).expect("counter bound");
    w.poke(OPERATOR, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));
    let results = activations(&w);
    assert_eq!(results.len(), 2);
    assert!(results[0].is_ok(), "first activation: {:?}", results[0]);
    assert!(
        matches!(&results[1], Err(CallError::Remote(e)) if e.contains("spare already activated")),
        "expected a refusal, got {:?}",
        results[1]
    );
    // The refusal changed nothing: same incarnation, same members.
    assert_eq!(registry_entry(&w, 1), Some(joined));
}

#[test]
fn healer_evicts_crashed_member_with_no_spare() {
    // §6.1's garbage collection is the healer's: its liveness sweep
    // finds the dead member, a probe round confirms the death, and
    // `remove_troupe_member` deletes the binding. No spare is
    // registered, so the troupe stays at two members.
    let mut w = world(3);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5, 6]);

    w.crash_host(HostId(6));
    w.run(simnet::Until::Elapsed(Duration::from_secs(120)));

    assert_eq!(w.metrics().get("ring.evictions"), 1);
    assert_eq!(
        w.metrics().get("ring.repairs"),
        0,
        "no spare to repair from"
    );
    let current = registry_entry(&w, 1).expect("binding survives");
    assert_eq!(current.members.len(), 2);
    assert!(current.members.iter().all(|m| m.addr.host != HostId(6)));
    assert_ne!(current.id, registered.id);
}

#[test]
fn server_resolves_client_troupe_via_binder() {
    // A registered client troupe calls a server that has NO preloaded
    // directory entry: the server must park the call, resolve the
    // membership via lookup_troupe_by_id at the ringmaster, and then
    // execute exactly once (§4.3.2's binding-agent path).
    let mut w = world(4);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let server = register_counter_troupe(&mut w, &rm, "server", &[4]);
    // Note: register_counter_troupe gives the server its binder.

    // Build a 2-member CLIENT troupe, registered so it has a real id.
    let client_members: Vec<ModuleAddr> = [7u32, 8]
        .iter()
        .map(|&h| ModuleAddr::new(SockAddr::new(HostId(h), 50), APP_MODULE))
        .collect();
    struct TroupeClient {
        server: Troupe,
        thread: ThreadId,
        result: Option<Result<Vec<u8>, CallError>>,
    }
    impl Agent for TroupeClient {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            let server = self.server.clone();
            nc.call(
                self.thread,
                &server,
                APP_MODULE,
                0,
                to_bytes(&9u32),
                CollationPolicy::Unanimous,
            );
        }
        fn on_call_done(
            &mut self,
            _nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            self.result = Some(result);
        }
    }
    let shared_thread = ThreadId {
        origin: SockAddr::new(HostId(200), 1),
        serial: 1,
    };
    for m in &client_members {
        let p = NodeBuilder::new(m.addr, NodeConfig::default())
            .service(APP_MODULE, Box::new(Counter { value: 0 }))
            .binder(rm.clone())
            .agent(Box::new(TroupeClient {
                server: server.clone(),
                thread: shared_thread,
                result: None,
            }))
            .build()
            .expect("valid node");
        w.spawn(m.addr, Box::new(p));
    }
    // Register the client troupe so the ringmaster can answer
    // lookup_troupe_by_id; use the registrar flow.
    let registrar = SockAddr::new(HostId(91), 10);
    struct Reg {
        binder: Troupe,
        req: RegisterTroupe,
        id: Option<TroupeId>,
    }
    impl Agent for Reg {
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
    let p = NodeBuilder::new(registrar, NodeConfig::default())
        .agent(Box::new(Reg {
            binder: rm.clone(),
            req: RegisterTroupe {
                name: "client".into(),
                members: client_members.clone(),
            },
            id: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(registrar, Box::new(p));
    w.poke(registrar, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(10)));

    // Fire the replicated call from both client members.
    for m in &client_members {
        w.poke(m.addr, 0);
    }
    w.run(simnet::Until::Elapsed(Duration::from_secs(20)));

    // The server executed exactly once.
    let value = w
        .with_proc(server.members[0].addr, |p: &CircusProcess| {
            p.node().service_as::<Counter>(APP_MODULE).unwrap().value
        })
        .unwrap();
    assert_eq!(value, 9, "server must execute the replicated call once");

    // Both client members got the answer.
    for m in &client_members {
        let result = w
            .with_proc(m.addr, |p: &CircusProcess| {
                p.agent_as::<TroupeClient>().unwrap().result.clone()
            })
            .unwrap()
            .expect("client member has result");
        assert_eq!(from_bytes::<u32>(result.as_ref().unwrap()).unwrap(), 9);
    }
}

#[test]
fn rebind_after_stale_binding() {
    let mut w = world(5);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);

    // Re-register with different membership, invalidating the old id.
    let re_registered = register_counter_troupe_from(&mut w, &rm, "counter", &[4], 11);
    assert_ne!(re_registered.id, registered.id);

    // A driver with the stale binding: first call fails StaleBinding,
    // then it rebinds and retries successfully.
    struct RebindingClient {
        binder: Troupe,
        cache: ImportCache,
        stale: Troupe,
        outcome: Vec<String>,
        state: u32,
    }
    impl Agent for RebindingClient {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            let t = nc.fresh_thread();
            let stale = self.stale.clone();
            self.state = 1;
            nc.call(
                t,
                &stale,
                APP_MODULE,
                0,
                to_bytes(&1u32),
                CollationPolicy::Unanimous,
            );
        }
        fn on_call_done(
            &mut self,
            nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            match self.state {
                1 => match result {
                    Err(ref e) if ImportCache::should_rebind(e) => {
                        self.outcome.push("stale".into());
                        self.cache.invalidate("counter");
                        let (proc, args) = self.cache.rebind_request("counter");
                        let t = nc.fresh_thread();
                        let binder = self.binder.clone();
                        self.state = 2;
                        nc.call(
                            t,
                            &binder,
                            BINDING_MODULE,
                            proc,
                            args,
                            CollationPolicy::Majority,
                        );
                    }
                    other => panic!("expected stale binding, got {other:?}"),
                },
                2 => {
                    let troupe = self
                        .cache
                        .store_reply("counter", &result.expect("rebind reply"))
                        .expect("rebound");
                    let t = nc.fresh_thread();
                    self.state = 3;
                    nc.call(
                        t,
                        &troupe,
                        APP_MODULE,
                        0,
                        to_bytes(&1u32),
                        CollationPolicy::Unanimous,
                    );
                }
                3 => {
                    assert!(result.is_ok(), "retry failed: {result:?}");
                    self.outcome.push("retried-ok".into());
                }
                _ => {}
            }
        }
    }
    let client = SockAddr::new(HostId(50), 10);
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(RebindingClient {
            binder: rm.clone(),
            cache: ImportCache::new(),
            stale: registered,
            outcome: Vec::new(),
            state: 0,
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(20)));

    let outcome = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<RebindingClient>().unwrap().outcome.clone()
        })
        .unwrap();
    assert_eq!(outcome, vec!["stale".to_string(), "retried-ok".to_string()]);
}

#[test]
fn binding_survives_ringmaster_member_crash() {
    // The binding agent is itself a troupe precisely so that binding
    // stays available through partial failures (§6.2: "it is essential
    // that the binding agent be highly available"). With one of three
    // Ringmaster members dead, majority-collated lookups still succeed.
    let mut w = world(6);
    let rm = spawn_ringmaster(&mut w, &hosts(&[1, 2, 3]), NodeConfig::default());
    let registered = register_counter_troupe(&mut w, &rm, "counter", &[4, 5]);

    w.crash_host(HostId(2)); // Kill one Ringmaster member.

    struct Lookup {
        binder: Troupe,
        found: Option<Troupe>,
    }
    impl Agent for Lookup {
        fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
            let t = nc.fresh_thread();
            let (proc, args) = ImportCache::lookup_request("counter");
            let binder = self.binder.clone();
            nc.call(
                t,
                &binder,
                BINDING_MODULE,
                proc,
                args,
                CollationPolicy::Majority,
            );
        }
        fn on_call_done(
            &mut self,
            _nc: &mut NodeCtx<'_, '_, '_>,
            _h: CallHandle,
            result: Result<Vec<u8>, CallError>,
        ) {
            self.found = result
                .ok()
                .and_then(|b| from_bytes::<Option<Troupe>>(&b).ok())
                .flatten();
        }
    }
    let client = SockAddr::new(HostId(50), 10);
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(Lookup {
            binder: rm.clone(),
            found: None,
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(60)));

    let found = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<Lookup>().unwrap().found.clone()
        })
        .unwrap()
        .expect("lookup must succeed with 2 of 3 ringmaster members");
    assert_eq!(found, registered);
}

#[test]
fn spare_joins_through_surviving_ringmaster_majority() {
    // Mutations also keep working: the spare's add_troupe_member reaches
    // the two surviving Ringmaster members, which agree on the new
    // incarnation deterministically (no inter-member communication,
    // §3.5.1).
    let (w, registered) = planned_join(7, Some(3));
    let results = activations(&w);
    assert!(
        matches!(results.as_slice(), [Ok(_)]),
        "join must succeed through the surviving majority: {results:?}"
    );
    let entries: Vec<Troupe> = [1u32, 2]
        .iter()
        .map(|&h| registry_entry(&w, h).expect("entry"))
        .collect();
    assert_eq!(entries[0], entries[1], "surviving members disagree");
    assert_ne!(entries[0].id, registered.id);
    assert_eq!(entries[0].members.len(), 3);
}
