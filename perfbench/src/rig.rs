//! The world a workload runs in, and the tracing that observes it.
//!
//! A [`Rig`] owns one simulated [`World`]. Untraced, it is a thin shell:
//! processes are spawned as built and the event loop is `World::run`.
//! Traced, every process, service and agent the benchmark builds is
//! wrapped in a delegate that times each call from outside, the event
//! loop times every `World::step`, and a [`TraceSink`] reads the
//! simulator's event stream. The wrappers forward every call unchanged,
//! so a traced run must reproduce the untraced run's simulated results
//! exactly; `main` checks that on every traced run.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;

use circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, NodeCtx, Service, ServiceCtx,
    StateSince, Step, TimerKey,
};
use simnet::{
    Ctx, HostId, Payload, Process, SockAddr, Time, TimerId, TraceEvent, TraceSink, Until, World,
};

/// What a process is for; its host time is reported per role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Issues the workload's operations.
    Client,
    /// A member (or spare) of a server troupe.
    Member,
    /// A member of the Ringmaster troupe.
    Ringmaster,
}

/// What a timed interval covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Step,
    Process(Role),
    Service,
    Agent,
}

impl Kind {
    fn slot(self) -> usize {
        match self {
            Kind::Step => 0,
            Kind::Process(Role::Client) => 1,
            Kind::Process(Role::Member) => 2,
            Kind::Process(Role::Ringmaster) => 3,
            Kind::Service => 4,
            Kind::Agent => 5,
        }
    }
}

/// One recorded span: a timed call into a layer, or a whole operation.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `simnet.step` or `service.store`.
    pub name: &'static str,
    /// Index + 1 of the enclosing span (0 = root).
    pub parent: u32,
    /// Simulated host the call ran on (0 for the scheduler itself).
    pub host: u32,
    /// Wire span (obs span id) of the datagram being handled, 0 if none.
    /// For an `op` span, the operation's id.
    pub key: u64,
    /// Simulated start and end, µs.
    pub sim_start_us: u64,
    pub sim_end_us: u64,
    /// Host start and end, ns since the tracer was created.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
}

struct Frame {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    span: Option<u32>,
}

/// Per-call-span facts the sink collects (keyed by obs span id).
#[derive(Default)]
struct WireSpan {
    origin: Option<SockAddr>,
    first_send_us: u64,
}

/// Spans kept in memory; later calls still count towards the totals.
const SPAN_CAP: usize = 200_000;

#[derive(Default)]
struct Data {
    self_ns: [u64; 6],
    stack: Vec<Frame>,
    spans: Vec<Span>,
    open_ops: HashMap<u64, u32>,
    cur_wire: u64,
    timer_fires: u64,
    bytes_sent: u64,
    wire: HashMap<u64, WireSpan>,
    /// Deliveries to clients: `(wire span, from, to, µs)`. A reply
    /// carries the server's invoke span, a child of the call's span.
    to_client: Vec<(u64, SockAddr, SockAddr, u64)>,
    /// First delivery of a wire span at each destination.
    first_at: HashMap<(u64, SockAddr), u64>,
    roles: HashMap<SockAddr, Role>,
    /// Wire span → (operation id, issued by a client troupe member).
    op_of_wire: HashMap<u64, (u64, bool)>,
}

/// The in-memory trace of one traced run.
pub struct Tracer {
    origin: Instant,
    d: RefCell<Data>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            d: RefCell::new(Data::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&self, kind: Kind, name: &'static str, host: HostId, sim: Time) {
        let start_ns = self.now_ns();
        let mut d = self.d.borrow_mut();
        let span = if d.spans.len() < SPAN_CAP {
            let parent = d.stack.last().and_then(|f| f.span).map_or(0, |i| i + 1);
            let key = d.cur_wire;
            d.spans.push(Span {
                name,
                parent,
                host: host.0,
                key,
                sim_start_us: sim.as_micros(),
                sim_end_us: sim.as_micros(),
                host_start_ns: start_ns,
                host_end_ns: start_ns,
            });
            Some(d.spans.len() as u32 - 1)
        } else {
            None
        };
        d.stack.push(Frame {
            kind,
            start_ns,
            child_ns: 0,
            span,
        });
    }

    fn exit(&self, sim: Time) {
        let end_ns = self.now_ns();
        let mut d = self.d.borrow_mut();
        let f = d.stack.pop().expect("exit matches an enter");
        let dur = end_ns - f.start_ns;
        d.self_ns[f.kind.slot()] += dur.saturating_sub(f.child_ns);
        if let Some(parent) = d.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = f.span {
            let s = &mut d.spans[i as usize];
            s.sim_end_us = sim.as_micros();
            s.host_end_ns = end_ns;
        }
    }

    /// Opens the root span of operation `op` (closed by [`Tracer::op_end`]).
    pub fn op_begin(&self, op: u64, host: HostId, sim: Time) {
        let now = self.now_ns();
        let mut d = self.d.borrow_mut();
        if d.spans.len() < SPAN_CAP {
            d.spans.push(Span {
                name: "op",
                parent: 0,
                host: host.0,
                key: op,
                sim_start_us: sim.as_micros(),
                sim_end_us: sim.as_micros(),
                host_start_ns: now,
                host_end_ns: now,
            });
            let i = d.spans.len() as u32 - 1;
            d.open_ops.insert(op, i);
        }
    }

    /// Closes the root span of operation `op`.
    pub fn op_end(&self, op: u64, sim: Time) {
        let now = self.now_ns();
        let mut d = self.d.borrow_mut();
        if let Some(i) = d.open_ops.remove(&op) {
            let s = &mut d.spans[i as usize];
            s.sim_end_us = sim.as_micros();
            s.host_end_ns = now;
        }
    }

    /// Attributes wire spans `(from, to]` (obs span ids a client minted)
    /// to operation `op`; `troupe` marks a call made by every member of a
    /// client troupe, whose copies the servers assemble (§4.3.2).
    pub fn claim_wire_spans(&self, from: u64, to: u64, op: u64, troupe: bool) {
        let mut d = self.d.borrow_mut();
        for s in from + 1..=to {
            d.op_of_wire.insert(s, (op, troupe));
        }
    }

    fn record(&self, ev: &TraceEvent) {
        let mut d = self.d.borrow_mut();
        match *ev {
            TraceEvent::Send {
                at,
                from,
                len,
                span,
                ..
            } => {
                d.bytes_sent += len as u64;
                if span != 0 {
                    let w = d.wire.entry(span).or_default();
                    if w.origin.is_none() {
                        w.origin = Some(from);
                        w.first_send_us = at.as_micros();
                    }
                }
            }
            TraceEvent::Deliver {
                at, from, to, span, ..
            } => {
                d.cur_wire = span;
                if span == 0 {
                    return;
                }
                let at = at.as_micros();
                if d.roles.get(&to) == Some(&Role::Client) {
                    d.to_client.push((span, from, to, at));
                }
                if d.op_of_wire.get(&span).is_some_and(|&(_, troupe)| troupe) {
                    d.first_at.entry((span, to)).or_insert(at);
                }
            }
            TraceEvent::TimerFire { .. } => {
                d.cur_wire = 0;
                d.timer_fires += 1;
            }
            _ => {}
        }
    }
}

/// The trace sink: forwards the simulator's events to the tracer.
struct Tap(Rc<Tracer>);

impl TraceSink for Tap {
    fn record(&mut self, ev: &TraceEvent) {
        self.0.record(ev);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A process wrapper that times every callback.
pub struct TracedProcess {
    inner: Box<dyn Process>,
    name: &'static str,
    kind: Kind,
    t: Rc<Tracer>,
}

impl TracedProcess {
    fn timed(&mut self, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut dyn Process, &mut Ctx<'_>)) {
        self.t.enter(self.kind, self.name, ctx.me().host, ctx.now());
        f(self.inner.as_mut(), ctx);
        self.t.exit(ctx.now());
    }
}

impl Process for TracedProcess {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(ctx, |p, ctx| p.on_start(ctx));
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: SockAddr, data: Payload) {
        self.timed(ctx, |p, ctx| p.on_datagram(ctx, from, data));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, timer: TimerId, tag: u64) {
        self.timed(ctx, |p, ctx| p.on_timer(ctx, timer, tag));
    }

    fn on_poke(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.timed(ctx, |p, ctx| p.on_poke(ctx, tag));
    }

    fn recv_syscall(&self) -> Option<simnet::Syscall> {
        self.inner.recv_syscall()
    }

    fn publish_metrics(&self, reg: &obs::Registry) {
        self.inner.publish_metrics(reg);
    }
}

/// A service wrapper that times every call that does work.
pub struct TracedService {
    inner: Box<dyn Service>,
    name: &'static str,
    t: Rc<Tracer>,
}

impl Service for TracedService {
    fn dispatch(&mut self, ctx: &mut ServiceCtx, proc: u16, args: &[u8]) -> Step {
        self.t.enter(Kind::Service, self.name, ctx.me.host, ctx.now);
        let r = self.inner.dispatch(ctx, proc, args);
        self.t.exit(ctx.now);
        r
    }

    fn resume(&mut self, ctx: &mut ServiceCtx, reply: Result<Vec<u8>, CallError>) -> Step {
        self.t.enter(Kind::Service, self.name, ctx.me.host, ctx.now);
        let r = self.inner.resume(ctx, reply);
        self.t.exit(ctx.now);
        r
    }

    fn arg_collation(&self, proc: u16) -> CollationPolicy {
        self.inner.arg_collation(proc)
    }

    fn get_state(&self) -> Vec<u8> {
        self.inner.get_state()
    }

    fn set_state(&mut self, state: &[u8]) {
        self.inner.set_state(state);
    }

    fn wedge(&mut self, ctx: &mut ServiceCtx) -> Step {
        self.t.enter(Kind::Service, self.name, ctx.me.host, ctx.now);
        let r = self.inner.wedge(ctx);
        self.t.exit(ctx.now);
        r
    }

    fn unwedge(&mut self) {
        self.inner.unwedge();
    }

    fn on_start(&mut self, metrics: &obs::Registry) {
        self.inner.on_start(metrics);
    }

    fn recovery_token(&self) -> Option<Vec<u8>> {
        self.inner.recovery_token()
    }

    fn get_state_since(&self, token: &[u8]) -> StateSince {
        self.inner.get_state_since(token)
    }

    fn apply_delta(&mut self, delta: &[u8]) {
        self.inner.apply_delta(delta);
    }
}

/// An agent wrapper that times every callback.
pub struct TracedAgent {
    inner: Box<dyn Agent>,
    name: &'static str,
    t: Rc<Tracer>,
}

impl TracedAgent {
    fn timed(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        f: impl FnOnce(&mut dyn Agent, &mut NodeCtx<'_, '_, '_>),
    ) {
        self.t.enter(Kind::Agent, self.name, nc.me().host, nc.now());
        f(self.inner.as_mut(), nc);
        self.t.exit(nc.now());
    }
}

impl Agent for TracedAgent {
    fn on_start(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        self.timed(nc, |a, nc| a.on_start(nc));
    }

    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.timed(nc, |a, nc| a.on_poke(nc, tag));
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        self.timed(nc, |a, nc| a.on_call_done(nc, handle, result));
    }

    fn on_member_dead(&mut self, nc: &mut NodeCtx<'_, '_, '_>, addr: SockAddr) {
        self.timed(nc, |a, nc| a.on_member_dead(nc, addr));
    }

    fn on_determinism_violation(&mut self, nc: &mut NodeCtx<'_, '_, '_>, handle: CallHandle) {
        self.timed(nc, |a, nc| a.on_determinism_violation(nc, handle));
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        self.timed(nc, |a, nc| a.on_app_timer(nc, key));
    }

    fn on_notify(&mut self, nc: &mut NodeCtx<'_, '_, '_>, tag: u64) {
        self.timed(nc, |a, nc| a.on_notify(nc, tag));
    }
}

/// Downcasts a node's service, looking through the tracing wrapper.
pub fn service_as<S: Service>(node: &circus::Node, module: u16) -> Option<&S> {
    node.service_as::<S>(module).or_else(|| {
        let t = node.service_as::<TracedService>(module)?;
        let any: &dyn std::any::Any = t.inner.as_ref();
        any.downcast_ref::<S>()
    })
}

/// Downcasts a process's agent, looking through the tracing wrapper.
pub fn agent_as<A: Agent>(p: &CircusProcess) -> Option<&A> {
    p.agent_as::<A>().or_else(|| {
        let t = p.agent_as::<TracedAgent>()?;
        let any: &dyn std::any::Any = t.inner.as_ref();
        any.downcast_ref::<A>()
    })
}

/// One simulated world, traced or not.
pub struct Rig {
    /// The world.
    pub w: World,
    /// The tracer, on a traced run.
    pub t: Option<Rc<Tracer>>,
}

impl Rig {
    /// A world on the 1985 LAN with VAX/4.2BSD syscall costs.
    pub fn new(seed: u64, traced: bool) -> Rig {
        let mut w = World::with_config(
            seed,
            simnet::NetConfig::lan_1985(),
            simnet::SyscallCosts::vax_4_2bsd(),
        );
        let t = traced.then(|| Rc::new(Tracer::new()));
        if let Some(t) = &t {
            w.set_trace_sink(Box::new(Tap(t.clone())));
        }
        Rig { w, t }
    }

    /// Spawns a Circus process, wrapped when tracing.
    pub fn spawn(&mut self, addr: SockAddr, role: Role, p: CircusProcess) {
        match &self.t {
            None => self.w.spawn(addr, Box::new(p)),
            Some(t) => {
                t.d.borrow_mut().roles.insert(addr, role);
                let name = match role {
                    Role::Client => "process.client",
                    Role::Member => "process.member",
                    Role::Ringmaster => "process.ringmaster",
                };
                self.w.spawn(
                    addr,
                    Box::new(TracedProcess {
                        inner: Box::new(p),
                        name,
                        kind: Kind::Process(role),
                        t: t.clone(),
                    }),
                );
            }
        }
    }

    /// A service as the benchmark exports it: wrapped when tracing.
    pub fn service(&self, name: &'static str, s: Box<dyn Service>) -> Box<dyn Service> {
        match &self.t {
            None => s,
            Some(t) => Box::new(TracedService {
                inner: s,
                name,
                t: t.clone(),
            }),
        }
    }

    /// An agent as the benchmark installs it: wrapped when tracing.
    pub fn agent(&self, name: &'static str, a: Box<dyn Agent>) -> Box<dyn Agent> {
        match &self.t {
            None => a,
            Some(t) => Box::new(TracedAgent {
                inner: a,
                name,
                t: t.clone(),
            }),
        }
    }

    /// Spawns the Ringmaster troupe as `ringmaster::spawn_ringmaster`
    /// builds it, through [`Rig::spawn`] so its processes are wrapped
    /// when tracing.
    pub fn spawn_ringmaster(
        &mut self,
        hosts: &[HostId],
        config: circus::NodeConfig,
    ) -> circus::Troupe {
        use circus::binding::{BINDING_MODULE, RINGMASTER_PORT};
        let members: Vec<circus::ModuleAddr> = hosts
            .iter()
            .map(|&h| circus::ModuleAddr::new(SockAddr::new(h, RINGMASTER_PORT), BINDING_MODULE))
            .collect();
        let id = circus::TroupeId(0x0052_494E_474D_5253);
        let troupe = circus::Troupe::new(id, members.clone());
        for (i, m) in members.iter().enumerate() {
            let mut b = circus::NodeBuilder::new(m.addr, config.clone())
                .service(
                    BINDING_MODULE,
                    Box::new(ringmaster::RingmasterService::new(troupe.clone())),
                )
                .troupe_id(id)
                .binder(troupe.clone())
                .directory(id, members.iter().map(|m| m.addr).collect());
            if i == 0 {
                b = b.agent(Box::new(ringmaster::SelfHealAgent::new(troupe.clone())));
            }
            self.spawn(m.addr, Role::Ringmaster, b.build().expect("valid node"));
        }
        troupe
    }

    fn step(&mut self, t: &Tracer) {
        t.d.borrow_mut().cur_wire = 0;
        t.enter(Kind::Step, "simnet.step", HostId(0), self.w.now());
        self.w.step();
        t.exit(self.w.now());
    }

    /// Runs every event up to `until`, then advances the clock to it.
    pub fn run_to(&mut self, until: Time) {
        if let Some(t) = self.t.clone() {
            while self.w.next_event_at().is_some_and(|at| at <= until) {
                self.step(&t);
            }
        }
        self.w.run(Until::Time(until));
    }

    /// Runs until `pred` holds (checked before the first event and after
    /// each one) or the next event lies past `deadline`.
    pub fn run_until(&mut self, deadline: Time, mut pred: impl FnMut(&World) -> bool) -> bool {
        let Some(t) = self.t.clone() else {
            return self.w.run(Until::pred(deadline, pred));
        };
        loop {
            if pred(&self.w) {
                return true;
            }
            if self.w.next_event_at().is_none_or(|at| at > deadline) {
                return false;
            }
            self.step(&t);
        }
    }

    /// Runs `f` on the Circus process at `addr`, looking through the
    /// tracing wrapper.
    pub fn circus<R>(&self, addr: SockAddr, f: impl FnOnce(&CircusProcess) -> R) -> Option<R> {
        circus_in(&self.w, addr, f)
    }
}

/// [`Rig::circus`] for code that holds only the world.
pub fn circus_in<R>(w: &World, addr: SockAddr, f: impl FnOnce(&CircusProcess) -> R) -> Option<R> {
    if w.with_proc(addr, |_: &CircusProcess| ()).is_some() {
        return w.with_proc(addr, f);
    }
    w.with_proc(addr, |t: &TracedProcess| {
        let any: &dyn std::any::Any = t.inner.as_ref();
        any.downcast_ref::<CircusProcess>().map(f)
    })
    .flatten()
}

/// Totals and distributions the traced run collected.
pub struct TraceSummary {
    /// Self time per layer, ns: scheduler, client and member processes
    /// (wire + pairedmsg + circus), services, agents, Ringmaster processes.
    pub step_self_ns: u64,
    pub node_self_ns: u64,
    pub service_self_ns: u64,
    pub agent_self_ns: u64,
    pub ringmaster_self_ns: u64,
    /// Simulator events seen by the sink.
    pub timer_fires: u64,
    pub bytes_sent: u64,
    /// Per client call span: first → last member return at the caller, µs.
    pub collation_us: Vec<u64>,
    /// Per client call span: first send → last delivery back, µs.
    pub call_us: Vec<u64>,
    /// Per troupe call and server: first → last copy of the call, µs.
    pub assembly_us: Vec<u64>,
}

impl Tracer {
    /// Summarizes the trace; `reg` holds the obs span tree that links a
    /// server's reply to the client call that caused it.
    pub fn summary(&self, reg: &obs::Registry) -> TraceSummary {
        let d = self.d.borrow();
        let parent: HashMap<u64, u64> = reg
            .span_records()
            .iter()
            .map(|r| (r.id.raw(), r.parent.raw()))
            .collect();
        // Per client call span: the last delivery from each sender.
        let mut back: BTreeMap<u64, BTreeMap<SockAddr, u64>> = BTreeMap::new();
        for &(span, from, to, at) in &d.to_client {
            let mut s = span;
            for _ in 0..64 {
                if d.wire.get(&s).is_some_and(|w| w.origin == Some(to)) {
                    let last = back.entry(s).or_default().entry(from).or_insert(at);
                    *last = (*last).max(at);
                    break;
                }
                match parent.get(&s) {
                    Some(&p) if p != 0 => s = p,
                    _ => break,
                }
            }
        }
        let mut collation_us = Vec::new();
        let mut call_us = Vec::new();
        for (span, senders) in &back {
            let first = *senders.values().min().expect("non-empty");
            let last = *senders.values().max().expect("non-empty");
            collation_us.push(last - first);
            call_us.push(last.saturating_sub(d.wire[span].first_send_us));
        }
        // Troupe calls: per (op, server), the spread of first arrivals of
        // the members' copies.
        let mut arrivals: BTreeMap<(u64, SockAddr), (u64, u64, u32)> = BTreeMap::new();
        for (&(span, to), &at) in &d.first_at {
            let (op, _) = d.op_of_wire[&span];
            let e = arrivals.entry((op, to)).or_insert((at, at, 0));
            e.0 = e.0.min(at);
            e.1 = e.1.max(at);
            e.2 += 1;
        }
        let assembly_us = arrivals
            .values()
            .filter(|e| e.2 >= 2)
            .map(|e| e.1 - e.0)
            .collect();
        let s = &d.self_ns;
        TraceSummary {
            step_self_ns: s[0],
            node_self_ns: s[1] + s[2],
            ringmaster_self_ns: s[3],
            service_self_ns: s[4],
            agent_self_ns: s[5],
            timer_fires: d.timer_fires,
            bytes_sent: d.bytes_sent,
            collation_us,
            call_us,
            assembly_us,
        }
    }

    /// Writes the spans of each client's first `ops` operations (op ids
    /// are `client << 32 | index`) as JSON lines:
    /// every `op` span, and every layer span whose wire span belongs to
    /// one of them (resolved through the obs span tree), with self time.
    pub fn dump(
        &self,
        reg: &obs::Registry,
        ops: u64,
        out: &mut impl std::io::Write,
    ) -> std::io::Result<()> {
        let d = self.d.borrow();
        // Root of every obs span, so a nested call's traffic resolves to
        // the client call (and so the operation) that caused it.
        let mut parent: HashMap<u64, u64> = HashMap::new();
        for r in reg.span_records() {
            parent.insert(r.id.raw(), r.parent.raw());
        }
        let op_of = |mut s: u64| -> Option<u64> {
            for _ in 0..64 {
                if let Some(&(op, _)) = d.op_of_wire.get(&s) {
                    return Some(op);
                }
                s = *parent.get(&s)?;
                if s == 0 {
                    return None;
                }
            }
            None
        };
        let mut child_ns = vec![0u64; d.spans.len()];
        for s in &d.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.host_end_ns - s.host_start_ns;
            }
        }
        // A layer span inherits the operation of its outermost ancestor
        // that handled attributed traffic.
        let mut span_op: Vec<Option<u64>> = vec![None; d.spans.len()];
        for (i, s) in d.spans.iter().enumerate() {
            span_op[i] = if s.name == "op" {
                Some(s.key)
            } else if s.key != 0 {
                op_of(s.key)
            } else if s.parent != 0 {
                span_op[s.parent as usize - 1]
            } else {
                None
            };
        }
        // A scheduler step takes the operation of the call it dispatched.
        for (i, s) in d.spans.iter().enumerate().rev() {
            if s.parent != 0 && span_op[s.parent as usize - 1].is_none() {
                span_op[s.parent as usize - 1] = span_op[i];
            }
        }
        for (i, s) in d.spans.iter().enumerate() {
            let Some(op) = span_op[i].filter(|&op| op & 0xffff_ffff < ops) else {
                continue;
            };
            let dur = s.host_end_ns - s.host_start_ns;
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"host\":{},\"wire_span\":{},\
                 \"sim_start_us\":{},\"sim_end_us\":{},\"host_start_ns\":{},\"host_end_ns\":{},\"self_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                op,
                s.host,
                if s.name == "op" { 0 } else { s.key },
                s.sim_start_us,
                s.sim_end_us,
                s.host_start_ns,
                s.host_end_ns,
                dur.saturating_sub(child_ns[i]),
            )?;
        }
        Ok(())
    }
}
