//! `echo`: replicated echo calls, the data plane alone.
//!
//! Closed loop: [`gen::ECHO_CLIENTS`] single-node clients and one
//! 2-member client troupe, each with one call outstanding, call a
//! 5-member echo troupe under unanimous collation. The troupe's calls
//! reach every server member twice, once per client member, and are
//! assembled there (§4.3.2). No transactions, disks or Ringmaster.

use circus::{
    Agent, CallError, CallHandle, CollationPolicy, ModuleAddr, NodeBuilder, NodeConfig, NodeCtx,
    Service, ServiceCtx, Step, ThreadId, Troupe, TroupeId,
};
use simnet::{Duration, HostId, SockAddr, Time};

use crate::gen::{EchoCall, EchoInputs, ECHO_WARMUP};
use crate::rig::{Rig, Role};
use crate::{det_metrics, sim_metrics, us, Log, RunResult, Sample, Snap};

/// Members of the echo troupe.
pub const REPLICAS: usize = 5;
/// Members of the client troupe.
pub const CLIENT_TROUPE: usize = 2;
const MODULE: u16 = 1;
const PORT: u16 = 70;
/// Sample classes: one-segment and multi-segment calls.
pub const SMALL: u8 = 0;
pub const LARGE: u8 = 1;

/// The echo service: replies with its argument.
struct EchoService;

impl Service for EchoService {
    fn dispatch(&mut self, _ctx: &mut ServiceCtx, _proc: u16, args: &[u8]) -> Step {
        Step::Reply(args.to_vec())
    }
}

/// A closed-loop echo client. Poke 0 runs the warm-up calls, poke 1 the
/// measured rest of the script.
struct EchoClient {
    troupe: Troupe,
    script: Vec<EchoCall>,
    next: usize,
    /// Fixed for client-troupe members, so their calls are one call.
    thread: Option<ThreadId>,
    issued: Time,
    payload: Vec<u8>,
    /// Records samples (one member of a client troupe does).
    records: bool,
    /// Whether the call is made by a client troupe.
    troupe_call: bool,
    op_base: u64,
    log: Log,
    tracer: Option<std::rc::Rc<crate::rig::Tracer>>,
}

impl EchoClient {
    fn call(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        let c = self.script[self.next];
        self.payload = c.payload();
        self.issued = nc.now();
        let thread = match self.thread {
            Some(t) => t,
            None => {
                let t = nc.fresh_thread();
                self.thread = Some(t);
                t
            }
        };
        let troupe = self.troupe.clone();
        let before = nc.metrics().span_count();
        nc.call(
            thread,
            &troupe,
            MODULE,
            0,
            self.payload.clone(),
            CollationPolicy::Unanimous,
        );
        if let Some(t) = &self.tracer {
            let op = self.op_base + self.next as u64;
            t.claim_wire_spans(before, nc.metrics().span_count(), op, self.troupe_call);
            if self.records {
                t.op_begin(op, nc.me().host, self.issued);
            }
        }
    }
}

impl Agent for EchoClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.call(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let now = nc.now();
        let c = self.script[self.next];
        let mut log = self.log.borrow_mut();
        match result {
            Ok(reply) if reply == self.payload => {}
            Ok(_) => log
                .errors
                .push(format!("{}: reply differs from argument", nc.me())),
            Err(e) => log.errors.push(format!("{}: call failed: {e}", nc.me())),
        }
        if self.next >= ECHO_WARMUP && self.records {
            log.done.push(Sample {
                class: if c.len > crate::gen::ECHO_SMALL {
                    LARGE
                } else {
                    SMALL
                },
                start_us: us(self.issued),
                end_us: us(now),
            });
            if let Some(t) = &self.tracer {
                t.op_end(self.op_base + self.next as u64, now);
            }
        }
        self.next += 1;
        if self.next == ECHO_WARMUP {
            log.warmed += 1;
        } else if self.next == self.script.len() {
            log.finished += 1;
        } else {
            drop(log);
            self.call(nc);
        }
    }
}

/// Builds the world, warms it, runs the measured calls and checks them.
pub fn run(inputs: &EchoInputs, seed: u64, traced: bool) -> (RunResult, Rig) {
    let setup = crate::Stopwatch::start();
    let mut rig = Rig::new(seed, traced);
    let log = Log::default();
    let config = NodeConfig::default();
    let server_id = TroupeId(0xEC40);
    let client_troupe_id = TroupeId(0xEC41);

    let troupe_addrs: Vec<SockAddr> = (0..CLIENT_TROUPE)
        .map(|i| SockAddr::new(HostId(30 + i as u32), 50))
        .collect();
    let mut members = Vec::new();
    for i in 0..REPLICAS {
        let a = SockAddr::new(HostId(1 + i as u32), PORT);
        let p = NodeBuilder::new(a, config.clone())
            .service(MODULE, rig.service("service.echo", Box::new(EchoService)))
            .troupe_id(server_id)
            .directory(client_troupe_id, troupe_addrs.clone())
            .build()
            .expect("valid node");
        rig.spawn(a, Role::Member, p);
        members.push(ModuleAddr::new(a, MODULE));
    }
    let troupe = Troupe::new(server_id, members.clone());

    let mut clients = Vec::new();
    let mut client = |rig: &mut Rig,
                      a: SockAddr,
                      script: &[EchoCall],
                      thread: Option<ThreadId>,
                      records: bool,
                      op_base: u64| {
        let agent = EchoClient {
            troupe: troupe.clone(),
            script: script.to_vec(),
            next: 0,
            thread,
            issued: Time::ZERO,
            payload: Vec::new(),
            records,
            troupe_call: thread.is_some(),
            op_base,
            log: log.clone(),
            tracer: rig.t.clone(),
        };
        let mut b =
            NodeBuilder::new(a, config.clone()).agent(rig.agent("agent.echo", Box::new(agent)));
        if thread.is_some() {
            b = b.troupe_id(client_troupe_id);
        }
        rig.spawn(a, Role::Client, b.build().expect("valid node"));
        clients.push(a);
    };
    for (i, script) in inputs.single.iter().enumerate() {
        let a = SockAddr::new(HostId(20 + i as u32), 50);
        client(&mut rig, a, script, None, true, (i as u64) << 32);
    }
    let shared = ThreadId {
        origin: SockAddr::new(HostId(39), 50),
        serial: 1,
    };
    for (i, &a) in troupe_addrs.iter().enumerate() {
        let op_base = (inputs.single.len() as u64) << 32;
        client(&mut rig, a, &inputs.troupe, Some(shared), i == 0, op_base);
    }

    // Warm-up: every client's first calls set up its connections.
    for &c in &clients {
        rig.w.poke(c, 0);
    }
    let n = clients.len();
    let deadline = rig.w.now() + Duration::from_secs(600);
    let warmed = rig.run_until(deadline, |_| log.borrow().warmed == n);
    let mut r = RunResult {
        setup_s: setup.secs(),
        ..RunResult::default()
    };

    let base = Snap::take(&rig.w);
    let start = crate::Stopwatch::start();
    for &c in &clients {
        rig.w.poke(c, 1);
    }
    let deadline = rig.w.now() + Duration::from_secs(3_600);
    let finished = rig.run_until(deadline, |_| log.borrow().finished == n);
    r.run_s = start.secs();
    let end = Snap::take(&rig.w);

    let log = log.borrow();
    let calls = inputs.single.len() * (inputs.single[0].len() - ECHO_WARMUP)
        + (inputs.troupe.len() - ECHO_WARMUP);
    r.attempted = calls as u64;
    r.failed = (calls - log.done.len()) as u64;
    r.events = end.events - base.events;
    sim_metrics(&mut r, &log.done, &base, &end);
    det_metrics(&mut r, &base, &end);
    for (class, name) in [
        (SMALL, "circus.small_call_ms_p50"),
        (LARGE, "circus.large_call_ms_p50"),
    ] {
        r.det.insert(name, crate::class_p50_ms(&log.done, class));
    }
    if let Some(t) = &rig.t {
        crate::traced_metrics(&mut r, t, &rig.w.metrics());
    }

    // Output checks: every reply equals its argument, no call executed
    // twice, and every call executed once at every member.
    let total_calls = inputs.single.iter().map(Vec::len).sum::<usize>() + inputs.troupe.len();
    r.check = if !warmed || !finished {
        Err("echo clients did not finish".into())
    } else if let Some(e) = log.errors.first() {
        Err(format!("{} wrong outputs, first: {e}", log.errors.len()))
    } else if end.c["dup_call_deliveries"] != 0 {
        Err(format!(
            "{} duplicate call deliveries",
            end.c["dup_call_deliveries"]
        ))
    } else if end.c["invocations"] != (total_calls * REPLICAS) as u64 {
        Err(format!(
            "{} invocations for {total_calls} calls at {REPLICAS} members",
            end.c["invocations"]
        ))
    } else {
        Ok(())
    };
    drop(log);
    (r, rig)
}
