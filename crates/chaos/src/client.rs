//! Workload agents for the chaos harness.
//!
//! All three clients share one [`Binding`] core: the full binding story
//! of Chapter 6. A client *imports* its troupe by name from the
//! Ringmaster into an [`ImportCache`], calls through the cached
//! binding, and on a stale-binding rejection (§6.2) invalidates,
//! rebinds, and retries; every other failure backs off and retries,
//! until a retry budget runs out.
//!
//! [`RebindingClient`] submits scripted transactions. It records every
//! submission's `(thread, nonce)` key and outcome so the oracles can
//! audit exactly-once execution against the store members' commit
//! ledgers.
//!
//! [`ChaosBroadcaster`] drives the ordered broadcast protocol (§5.4)
//! with the retry discipline the protocol's safety depends on:
//! proposals go to *every* member ([`strict_max_time_collation`]) so
//! each member holds a queue placeholder that blocks later messages,
//! accepts must be acknowledged by *every* member ([`all_ack_collation`])
//! so no member's applied order silently falls behind, and once an
//! accept has been sent the broadcast never re-proposes — every retry
//! carries the same accepted time and payload, so a partially delivered
//! accept can only be completed, never contradicted.
//!
//! [`ChaosCmClient`] submits commutative operations (counter increments,
//! set inserts): no phases, no locks — a failed call is retried under
//! the *same* idempotence id until every member has acknowledged it,
//! which is all that convergence needs.

use circus::binding::BINDING_MODULE;
use circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, NodeCtx, ThreadId, TimerKey,
    Troupe,
};
use ringmaster::ImportCache;
use simnet::Duration;
use transactions::{
    all_ack_collation, strict_max_time_collation, Accept, Backoff, CmOp, CmRequest, ExecuteRequest,
    ObjId, Op, Propose, TxnOutcome, PROC_ACCEPT_TIME, PROC_CM_EXECUTE, PROC_EXECUTE,
    PROC_GET_PROPOSED_TIME,
};
use wire::{from_bytes, to_bytes};

const RETRY_KEY: TimerKey = TimerKey::new(0x6368); // "ch"

/// Mean think time between operations. Pacing spreads the script
/// across the fault window, so faults land on a *live* workload rather
/// than an idle, already-finished one.
const THINK_MEAN_US: u64 = 1_200_000;

/// What the harness reads off every chaos client, whatever its protocol.
pub trait ChaosClient {
    /// `true` once the whole script is done (or the client failed hard).
    fn finished(&self) -> bool;
    /// Operations the client saw confirmed (probes included).
    fn confirmed(&self) -> usize;
    /// Aborted or ambiguously failed submissions.
    fn aborts(&self) -> u32 {
        0
    }
    /// The shared binding core: rebind count and unrecoverable errors.
    fn binding(&self) -> &Binding;
    /// Appends the quiesce probe: one more operation that forces a call
    /// through the binding cache. `i` is the client's index.
    fn probe(&mut self, i: usize);
}

/// The chaos client hosted by `p`, whichever of the three it is.
pub fn client_of(p: &CircusProcess) -> Option<&dyn ChaosClient> {
    if let Some(a) = p.agent_as::<RebindingClient>() {
        return Some(a);
    }
    if let Some(a) = p.agent_as::<ChaosBroadcaster>() {
        return Some(a);
    }
    p.agent_as::<ChaosCmClient>().map(|a| a as &dyn ChaosClient)
}

/// Mutable [`client_of`].
pub fn client_of_mut(p: &mut CircusProcess) -> Option<&mut dyn ChaosClient> {
    if p.agent_as::<RebindingClient>().is_some() {
        return p
            .agent_as_mut::<RebindingClient>()
            .map(|a| a as &mut dyn ChaosClient);
    }
    if p.agent_as::<ChaosBroadcaster>().is_some() {
        return p
            .agent_as_mut::<ChaosBroadcaster>()
            .map(|a| a as &mut dyn ChaosClient);
    }
    p.agent_as_mut::<ChaosCmClient>()
        .map(|a| a as &mut dyn ChaosClient)
}

/// The binding half every chaos client shares: name import, stale
/// rebind, and retry with backoff.
pub struct Binding {
    binder: Troupe,
    name: String,
    cache: ImportCache,
    backoff: Backoff,
    retries: u32,
    retries_left: u32,
    looking_up: bool,
    /// How many times a stale binding forced a rebind.
    pub rebinds: u32,
    /// Unrecoverable failures.
    pub errors: Vec<String>,
}

impl Binding {
    fn new(binder: Troupe, name: String, retries: u32) -> Binding {
        Binding {
            binder,
            name,
            cache: ImportCache::new(),
            backoff: Backoff::default_1985(),
            retries,
            retries_left: retries,
            looking_up: false,
            rebinds: 0,
            errors: Vec::new(),
        }
    }

    /// The binding cache, for the stale-binding oracle.
    pub fn cache(&self) -> &ImportCache {
        &self.cache
    }

    /// The cached binding; on a miss, starts a lookup and returns `None`.
    fn troupe(&mut self, nc: &mut NodeCtx<'_, '_, '_>) -> Option<Troupe> {
        let troupe = self.cache.get(&self.name).cloned();
        if troupe.is_none() {
            self.lookup(nc, false);
        }
        troupe
    }

    fn lookup(&mut self, nc: &mut NodeCtx<'_, '_, '_>, rebind: bool) {
        let (proc, args) = if rebind {
            self.cache.rebind_request(&self.name)
        } else {
            ImportCache::lookup_request(&self.name)
        };
        self.looking_up = true;
        let thread = nc.fresh_thread();
        let binder = self.binder.clone();
        nc.call(
            thread,
            &binder,
            BINDING_MODULE,
            proc,
            args,
            CollationPolicy::Majority,
        );
    }

    /// Absorbs a lookup reply; `true` means the binding is cached and
    /// the client should go on with its work.
    fn on_lookup(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        result: Result<Vec<u8>, CallError>,
    ) -> bool {
        self.looking_up = false;
        match result {
            Ok(bytes) if self.cache.store_reply(&self.name, &bytes).is_some() => true,
            Ok(_) => {
                self.retry_later(nc, "name not bound");
                false
            }
            Err(e) => {
                self.retry_later(nc, &format!("lookup failed: {e}"));
                false
            }
        }
    }

    /// The work call failed with `e`: rebind if the binding went stale
    /// (§6.2: the call never executed under the stale incarnation),
    /// otherwise back off and retry.
    fn on_failure(&mut self, nc: &mut NodeCtx<'_, '_, '_>, e: &CallError, what: &str) {
        if ImportCache::should_rebind(e) {
            self.cache.invalidate(&self.name);
            self.rebinds += 1;
            self.lookup(nc, true);
        } else {
            self.retry_later(nc, &format!("{what} failed: {e}"));
        }
    }

    fn retry_later(&mut self, nc: &mut NodeCtx<'_, '_, '_>, why: &str) {
        if self.retries_left == 0 {
            self.errors.push(format!("gave up after retries: {why}"));
            return;
        }
        self.retries_left -= 1;
        let delay = self.backoff.next_delay(nc.sim().rng());
        nc.set_app_timer(delay, RETRY_KEY);
    }

    /// The work call succeeded: reset the retry state.
    fn succeeded(&mut self) {
        self.backoff.reset();
        self.retries_left = self.retries;
    }

    /// Arms the think-time pause before the next operation.
    fn think(&self, nc: &mut NodeCtx<'_, '_, '_>) {
        let think = 200_000 + nc.sim().rng().below(2 * THINK_MEAN_US);
        nc.set_app_timer(Duration::from_micros(think), RETRY_KEY);
    }
}

/// A transaction client that binds by name and rebinds when stale.
pub struct RebindingClient {
    bind: Binding,
    module: u16,
    script: Vec<Vec<Op>>,
    next: usize,
    nonce: u64,
    /// The submission in flight, by `(thread, nonce)`.
    pending: Option<(ThreadId, u64)>,
    /// Every submission ever made: `(thread, nonce, ops)` — the oracles
    /// join the members' commit ledgers against this.
    pub submitted: Vec<(ThreadId, u64, Vec<Op>)>,
    /// Keys the client *knows* committed (it saw `Committed`).
    pub committed_keys: Vec<(ThreadId, u64)>,
    /// Keys the client saw explicitly aborted; a member committing one of
    /// these violates commit atomicity.
    pub aborted_keys: Vec<(ThreadId, u64)>,
    /// Abort count (deadlock pressure plus fault-induced vote failures).
    pub aborts: u32,
}

impl RebindingClient {
    /// A client importing `name` from `binder` and running `script`
    /// against module `module` of whatever troupe the name resolves to.
    pub fn new(binder: Troupe, name: impl Into<String>, module: u16, script: Vec<Vec<Op>>) -> Self {
        RebindingClient {
            bind: Binding::new(binder, name.into(), 200),
            module,
            script,
            next: 0,
            nonce: 0,
            pending: None,
            submitted: Vec::new(),
            committed_keys: Vec::new(),
            aborted_keys: Vec::new(),
            aborts: 0,
        }
    }

    fn submit(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.bind.looking_up
            || self.pending.is_some()
            || self.next >= self.script.len()
            || !self.bind.errors.is_empty()
        {
            return;
        }
        let Some(troupe) = self.bind.troupe(nc) else {
            return;
        };
        let ops = self.script[self.next].clone();
        self.nonce += 1;
        // Every submission, including a retry, is a new transaction on a
        // new distributed thread (§2.3.1).
        let thread = nc.fresh_thread();
        self.pending = Some((thread, self.nonce));
        self.submitted.push((thread, self.nonce, ops.clone()));
        nc.call(
            thread,
            &troupe,
            self.module,
            PROC_EXECUTE,
            to_bytes(&ExecuteRequest {
                nonce: self.nonce,
                ops,
            }),
            CollationPolicy::Unanimous,
        );
    }
}

impl ChaosClient for RebindingClient {
    fn finished(&self) -> bool {
        (self.next >= self.script.len() && self.pending.is_none()) || !self.bind.errors.is_empty()
    }

    fn confirmed(&self) -> usize {
        self.committed_keys.len()
    }

    fn aborts(&self) -> u32 {
        self.aborts
    }

    fn binding(&self) -> &Binding {
        &self.bind
    }

    /// A no-op write: a binding left stale by the last reconfiguration
    /// must be detected and repaired before the stale-cache oracle runs
    /// (§6.2's lazy invalidation has no other trigger).
    fn probe(&mut self, _i: usize) {
        self.script.push(vec![Op::Add(ObjId(1), 0)]);
    }
}

impl Agent for RebindingClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.submit(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if self.bind.looking_up {
            if self.bind.on_lookup(nc, result) {
                self.submit(nc);
            }
            return;
        }
        let Some((thread, nonce)) = self.pending.take() else {
            return;
        };
        match result {
            Ok(bytes) => match from_bytes::<TxnOutcome>(&bytes) {
                Ok(TxnOutcome::Committed(_)) => {
                    self.committed_keys.push((thread, nonce));
                    self.next += 1;
                    self.bind.succeeded();
                    self.bind.think(nc);
                }
                Ok(TxnOutcome::Aborted(_)) => {
                    self.aborted_keys.push((thread, nonce));
                    self.aborts += 1;
                    self.bind.retry_later(nc, "aborted");
                }
                Err(e) => self.bind.errors.push(format!("garbled outcome: {e}")),
            },
            Err(e) => {
                // Ambiguous unless stale: the call failed at this client,
                // but some members may have executed it. It is *not*
                // recorded as aborted — the oracles treat its key as
                // unknown.
                if !ImportCache::should_rebind(&e) {
                    self.aborts += 1;
                }
                self.bind.on_failure(nc, &e, "call");
            }
        }
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key == RETRY_KEY {
            self.submit(nc);
        }
    }
}

/// Phase of one chaos broadcast in flight. Once an accept has been
/// sent, the broadcast never falls back to proposing: a re-propose
/// after a partially delivered accept could mint a second accepted time
/// and split the troupe's applied order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BcPhase {
    Proposing,
    Accepting,
}

/// One broadcast in flight. The payload rides along because the accept
/// carries it (a member that missed the proposal installs the message
/// from the accept), and `accepted_time` is fixed forever at the
/// Proposing→Accepting transition.
#[derive(Clone, Debug)]
struct BcInFlight {
    phase: BcPhase,
    msg_id: u64,
    payload: Vec<u8>,
    accepted_time: u64,
}

/// An ordered-broadcast client that binds by name, rebinds when stale,
/// and retries through faults without ever violating the protocol's
/// retry discipline (propose to all, accept to all, accept retries
/// reuse the agreed time).
pub struct ChaosBroadcaster {
    bind: Binding,
    module: u16,
    script: Vec<Vec<u8>>,
    next: usize,
    next_msg_id: u64,
    inflight: Option<BcInFlight>,
    sending: bool,
    /// Message ids whose accept every member acknowledged — each must
    /// appear in every member's applied order at quiesce.
    pub confirmed: Vec<u64>,
}

impl ChaosBroadcaster {
    /// A broadcaster importing `name` from `binder`; `id_base` must be
    /// unique per broadcaster (message ids are `id_base`, `id_base+1`…).
    pub fn new(
        binder: Troupe,
        name: impl Into<String>,
        module: u16,
        id_base: u64,
        script: Vec<Vec<u8>>,
    ) -> ChaosBroadcaster {
        ChaosBroadcaster {
            bind: Binding::new(binder, name.into(), 300),
            module,
            script,
            next: 0,
            next_msg_id: id_base,
            inflight: None,
            sending: false,
            confirmed: Vec::new(),
        }
    }

    /// Sends (or resends) the current phase of the in-flight broadcast,
    /// or starts the next scripted one.
    fn drive(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.bind.looking_up || self.sending || !self.bind.errors.is_empty() {
            return;
        }
        if self.inflight.is_none() {
            if self.next >= self.script.len() {
                return;
            }
            let payload = self.script[self.next].clone();
            self.next += 1;
            let msg_id = self.next_msg_id;
            self.next_msg_id += 1;
            self.inflight = Some(BcInFlight {
                phase: BcPhase::Proposing,
                msg_id,
                payload,
                accepted_time: 0,
            });
        }
        let Some(troupe) = self.bind.troupe(nc) else {
            return;
        };
        let inflight = self.inflight.clone().expect("broadcast in flight");
        self.sending = true;
        let thread = nc.fresh_thread();
        let _ = match inflight.phase {
            // A proposal (or proposal retry: the members' idempotence
            // cache answers duplicates with the stored time) must reach
            // every member, so each holds a queue placeholder that
            // blocks later messages until this one resolves.
            BcPhase::Proposing => nc.call(
                thread,
                &troupe,
                self.module,
                PROC_GET_PROPOSED_TIME,
                to_bytes(&Propose {
                    msg_id: inflight.msg_id,
                    payload: inflight.payload,
                }),
                strict_max_time_collation(),
            ),
            // The accept must be acknowledged by every member — a
            // member that never hears it would silently diverge — and
            // every retry carries the same agreed time and payload.
            BcPhase::Accepting => nc.call(
                thread,
                &troupe,
                self.module,
                PROC_ACCEPT_TIME,
                to_bytes(&Accept {
                    msg_id: inflight.msg_id,
                    accepted_time: inflight.accepted_time,
                    payload: inflight.payload,
                }),
                all_ack_collation(),
            ),
        };
    }
}

impl ChaosClient for ChaosBroadcaster {
    fn finished(&self) -> bool {
        (self.next >= self.script.len() && self.inflight.is_none()) || !self.bind.errors.is_empty()
    }

    fn confirmed(&self) -> usize {
        self.confirmed.len()
    }

    fn binding(&self) -> &Binding {
        &self.bind
    }

    /// One more broadcast: its accepts force a dispatch (and thus a
    /// queue drain) at every member, so a straggler whose agreed time
    /// was slightly in the future still applies before the oracles look.
    fn probe(&mut self, i: usize) {
        self.script.push(vec![0xEE, i as u8]);
    }
}

impl Agent for ChaosBroadcaster {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.drive(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if self.bind.looking_up {
            if self.bind.on_lookup(nc, result) {
                self.drive(nc);
            }
            return;
        }
        if !std::mem::take(&mut self.sending) {
            return;
        }
        let Some(inflight) = self.inflight.clone() else {
            return;
        };
        match result {
            Ok(bytes) => match inflight.phase {
                BcPhase::Proposing => {
                    let Ok(max) = from_bytes::<u64>(&bytes) else {
                        self.bind.errors.push("garbled max proposal".into());
                        return;
                    };
                    self.inflight = Some(BcInFlight {
                        phase: BcPhase::Accepting,
                        accepted_time: max,
                        ..inflight
                    });
                    self.drive(nc);
                }
                BcPhase::Accepting => {
                    self.confirmed.push(inflight.msg_id);
                    self.inflight = None;
                    self.bind.succeeded();
                    if self.next < self.script.len() {
                        self.bind.think(nc);
                    }
                }
            },
            Err(e) => self.bind.on_failure(nc, &e, "broadcast call"),
        }
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key == RETRY_KEY {
            self.drive(nc);
        }
    }
}

/// A commutative-operations client that binds by name, rebinds when
/// stale, and retries each failed batch under the *same* idempotence id
/// until every member has acknowledged it.
pub struct ChaosCmClient {
    bind: Binding,
    module: u16,
    script: Vec<Vec<CmOp>>,
    next: usize,
    next_op_id: u64,
    inflight: Option<(u64, Vec<CmOp>)>,
    sending: bool,
    /// Idempotence ids every member acknowledged — each must be in
    /// every member's seen ledger at quiesce.
    pub confirmed: Vec<u64>,
}

impl ChaosCmClient {
    /// A client importing `name` from `binder`; `id_base` must be
    /// unique per client.
    pub fn new(
        binder: Troupe,
        name: impl Into<String>,
        module: u16,
        id_base: u64,
        script: Vec<Vec<CmOp>>,
    ) -> ChaosCmClient {
        ChaosCmClient {
            bind: Binding::new(binder, name.into(), 300),
            module,
            script,
            next: 0,
            next_op_id: id_base,
            inflight: None,
            sending: false,
            confirmed: Vec::new(),
        }
    }

    /// Sends (or resends, under the same `op_id`) the current batch, or
    /// starts the next scripted one.
    fn drive(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        if self.bind.looking_up || self.sending || !self.bind.errors.is_empty() {
            return;
        }
        if self.inflight.is_none() {
            if self.next >= self.script.len() {
                return;
            }
            let ops = self.script[self.next].clone();
            self.next += 1;
            let op_id = self.next_op_id;
            self.next_op_id += 1;
            self.inflight = Some((op_id, ops));
        }
        let Some(troupe) = self.bind.troupe(nc) else {
            return;
        };
        let (op_id, ops) = self.inflight.clone().expect("batch in flight");
        self.sending = true;
        let thread = nc.fresh_thread();
        // Every member must acknowledge (the ops commute, but a member
        // that never *receives* one diverges); members that already
        // executed this op_id answer from their seen ledger.
        nc.call(
            thread,
            &troupe,
            self.module,
            PROC_CM_EXECUTE,
            to_bytes(&CmRequest { op_id, ops }),
            all_ack_collation(),
        );
    }
}

impl ChaosClient for ChaosCmClient {
    fn finished(&self) -> bool {
        (self.next >= self.script.len() && self.inflight.is_none()) || !self.bind.errors.is_empty()
    }

    fn confirmed(&self) -> usize {
        self.confirmed.len()
    }

    fn binding(&self) -> &Binding {
        &self.bind
    }

    fn probe(&mut self, i: usize) {
        self.script.push(vec![CmOp::Insert(0xEE00 + i as u64)]);
    }
}

impl Agent for ChaosCmClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.drive(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        if self.bind.looking_up {
            if self.bind.on_lookup(nc, result) {
                self.drive(nc);
            }
            return;
        }
        if !std::mem::take(&mut self.sending) {
            return;
        }
        let Some((op_id, _)) = self.inflight.clone() else {
            return;
        };
        match result {
            Ok(_) => {
                self.confirmed.push(op_id);
                self.inflight = None;
                self.bind.succeeded();
                if self.next < self.script.len() {
                    self.bind.think(nc);
                }
            }
            Err(e) => self.bind.on_failure(nc, &e, "commutative call"),
        }
    }

    fn on_app_timer(&mut self, nc: &mut NodeCtx<'_, '_, '_>, key: TimerKey) {
        if key == RETRY_KEY {
            self.drive(nc);
        }
    }
}
