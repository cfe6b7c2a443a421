//! Ablation experiments for the design choices the paper discusses but
//! does not quantify:
//!
//! - **waiting policies** (§4.3.4): unanimous vs first-come vs majority
//!   when one troupe member runs on a loaded machine — "the execution
//!   time of the replicated program as a whole is determined by the
//!   slowest member of each troupe" (unanimous) versus "the fastest"
//!   (first-come);
//! - **synchronization schemes** (§5.5): the optimistic troupe commit
//!   protocol against the starvation-free ordered broadcast as the
//!   number of conflicting clients grows — the trade-off that motivates
//!   choosing "on a module-by-module basis" (a view of the BENCH_8
//!   cells);
//! - **protocol discipline** (§4.2.5): the Circus multi-segment
//!   discipline against the Xerox PARC one.

use circus::{
    Agent, CallError, CallHandle, CircusProcess, CollationPolicy, ModuleAddr, NodeBuilder,
    NodeConfig, NodeCtx, Troupe, TroupeId,
};
use simnet::{Ctx, Duration, HostId, Payload, Process, SockAddr, Syscall, Time, TimerId, World};

use crate::bench8::{self, Scheme};
use crate::testbed::EchoService;

const MODULE: u16 = 1;

/// A background process that keeps its host's CPU busy with a duty
/// cycle, simulating a loaded 1985 timesharing machine: everything else
/// on the host (including a troupe member) is delayed by CPU
/// serialization.
struct LoadGenerator {
    busy: Duration,
    period: Duration,
}

impl Process for LoadGenerator {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period, 0);
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: TimerId, _tag: u64) {
        ctx.charge_dur(Syscall::Compute, self.busy);
        ctx.set_timer(self.period, 0);
    }
}

struct PolicyClient {
    troupe: Troupe,
    policy: CollationPolicy,
    remaining: u32,
    started: Time,
    pub durations: Vec<Duration>,
}

impl PolicyClient {
    fn call_one(&mut self, nc: &mut NodeCtx<'_, '_, '_>) {
        self.started = nc.now();
        let thread = nc.fresh_thread();
        let troupe = self.troupe.clone();
        nc.call(
            thread,
            &troupe,
            MODULE,
            0,
            vec![0u8; 32],
            self.policy.clone(),
        );
    }
}

impl Agent for PolicyClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        self.call_one(nc);
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _h: CallHandle,
        _r: Result<Vec<u8>, CallError>,
    ) {
        self.durations.push(nc.now().since(self.started));
        self.remaining -= 1;
        if self.remaining > 0 {
            self.call_one(nc);
        }
    }
}

/// Mean latency (ms/call) of a replicated echo to a 3-member troupe with
/// one member on a machine kept ~75% busy, under the given waiting
/// policy.
pub fn run_waiting_policy(policy: CollationPolicy, calls: u32) -> f64 {
    let mut w = World::new(1985);
    let id = TroupeId(3);
    let mut members = Vec::new();
    for h in 1..=3u32 {
        let a = SockAddr::new(HostId(h), 70);
        let p = NodeBuilder::new(a, NodeConfig::default())
            .service(MODULE, Box::new(EchoService))
            .troupe_id(id)
            .build()
            .expect("valid node");
        w.spawn(a, Box::new(p));
        members.push(ModuleAddr::new(a, MODULE));
    }
    // Load down member 3's machine: 60 ms of competing CPU per 80 ms.
    w.spawn(
        SockAddr::new(HostId(3), 9),
        Box::new(LoadGenerator {
            busy: Duration::from_millis(60),
            period: Duration::from_millis(80),
        }),
    );
    let troupe = Troupe::new(id, members);
    let client = SockAddr::new(HostId(10), 50);
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(PolicyClient {
            troupe,
            policy,
            remaining: calls,
            started: Time::ZERO,
            durations: Vec::new(),
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    w.run(simnet::Until::pred(Time::from_secs(36_000), |w| {
        w.with_proc(client, |p: &CircusProcess| {
            p.agent_as::<PolicyClient>().unwrap().remaining == 0
        })
        .unwrap_or(false)
    }));
    let durations = w
        .with_proc(client, |p: &CircusProcess| {
            p.agent_as::<PolicyClient>().unwrap().durations.clone()
        })
        .unwrap();
    durations.iter().map(|d| d.as_millis_f64()).sum::<f64>() / durations.len() as f64
}

/// Formats the waiting-policy ablation.
pub fn ablation_waiting(calls: u32) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation (Sec 4.3.4): waiting policy vs latency, 3-member troupe,\n\
         one member on a ~75%-loaded machine (ms/call)"
    );
    for (name, policy) in [
        ("unanimous", CollationPolicy::Unanimous),
        ("majority", CollationPolicy::Majority),
        ("first-come", CollationPolicy::FirstCome),
    ] {
        let ms = run_waiting_policy(policy, calls);
        let _ = writeln!(out, "{name:<11} {ms:>8.1}");
    }
    let _ = writeln!(
        out,
        "Shape check: unanimous is bound by the slowest member, first-come by\n\
         the fastest, majority by the second-fastest."
    );
    out
}

/// Formats the synchronization-scheme ablation: the commit and
/// broadcast columns of the full BENCH_8 grid, one row per client count.
pub fn ablation_sync() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation (Sec 5.5): optimistic troupe commit vs ordered broadcast\n\
         under rising conflict (3-member troupe, 6 conflicting txns/client)"
    );
    let _ = writeln!(
        out,
        "{:<8} | {:>12} {:>8} | {:>12} {:>8}",
        "clients", "commit tx/s", "aborts", "bcast tx/s", "aborts"
    );
    // Cells come k by k, in `Scheme::ALL` order: commit, broadcast, ...
    for row in bench8::records(false).chunks(Scheme::ALL.len()) {
        let n = |i: usize, field: &str| row[i].num(field).expect("BENCH_8 cell field");
        let _ = writeln!(
            out,
            "{:<8} | {:>12.2} {:>8} | {:>12.2} {:>8}",
            n(0, "clients"),
            n(0, "throughput"),
            n(0, "aborts"),
            n(1, "throughput"),
            n(1, "aborts"),
        );
    }
    let _ = writeln!(
        out,
        "Shape check: the optimistic protocol aborts more as conflict rises\n\
         (Eq 5.1's starvation); ordered broadcast never aborts — the paper's\n\
         case for choosing the scheme per module (Sec 5.5)."
    );
    out
}

/// One-way transfer of an S-segment message, counting datagrams each way
/// and the receiver's peak out-of-order buffering (§4.2.5's comparison
/// of the Circus and Xerox PARC disciplines).
fn transfer_stats(config: pairedmsg::Config, segments: usize) -> (u64, u64, usize) {
    use pairedmsg::{Endpoint, Event as PmEvent, MsgType};
    let seg = 32usize;
    let mut tx = Endpoint::new(config.clone());
    let mut rx = Endpoint::new(config);
    let payload = vec![7u8; seg * segments];
    let now = Time::ZERO;
    tx.send(now, MsgType::Call, 1, 0, &payload).unwrap();
    loop {
        let mut moved = false;
        while let Some(bytes) = tx.poll_transmit() {
            moved = true;
            rx.on_datagram(now, &bytes).unwrap();
        }
        while let Some(bytes) = rx.poll_transmit() {
            moved = true;
            tx.on_datagram(now, &bytes).unwrap();
        }
        if let Some(PmEvent::Message { .. }) = rx.poll_event() {
            break;
        }
        assert!(moved, "transfer stalled");
    }
    let reg = obs::Registry::new();
    tx.publish_metrics(&reg, "tx");
    rx.publish_metrics(&reg, "rx");
    (
        reg.get("tx.segments_sent"),
        reg.get("rx.segments_sent"),
        reg.get("rx.max_recv_buffered") as usize,
    )
}

/// Formats the §4.2.5 protocol-discipline ablation.
pub fn ablation_protocol() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation (Sec 4.2.5): Circus vs Xerox PARC multi-segment discipline\n\
         (lossless wire; datagrams to deliver one S-segment message)"
    );
    let _ = writeln!(
        out,
        "{:<10} | {:>10} {:>10} | {:>10} {:>10}",
        "segments", "circus out", "acks back", "parc out", "acks back"
    );
    for segments in [4usize, 16, 64] {
        let seg32 = |mode: pairedmsg::ProtocolMode| pairedmsg::Config {
            max_segment_data: 32,
            mode,
            ..pairedmsg::Config::default()
        };
        let (c_fwd, c_back, _) = transfer_stats(seg32(pairedmsg::ProtocolMode::Circus), segments);
        let (p_fwd, p_back, p_buf) = transfer_stats(seg32(pairedmsg::ProtocolMode::Parc), segments);
        assert!(p_buf <= 1);
        let _ = writeln!(
            out,
            "{segments:<10} | {c_fwd:>10} {c_back:>10} | {p_fwd:>10} {p_back:>10}"
        );
    }
    let _ = writeln!(
        out,
        "Shape check: PARC nearly doubles the datagram count ('this doubles the\n\
         number of segments sent') but bounds receiver buffering to one segment;\n\
         Circus sends the minimum at the cost of unbounded buffering (Sec 4.2.5)."
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiting_policies_order_correctly() {
        let unanimous = run_waiting_policy(CollationPolicy::Unanimous, 30);
        let first = run_waiting_policy(CollationPolicy::FirstCome, 30);
        let majority = run_waiting_policy(CollationPolicy::Majority, 30);
        assert!(
            first < majority && majority <= unanimous,
            "first {first:.1} majority {majority:.1} unanimous {unanimous:.1}"
        );
    }
}
