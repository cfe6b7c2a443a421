//! BENCH_6: timer-heavy scheduler throughput (the timer-wheel gate).
//!
//! BENCH_5 measures the simulator under a *message*-dominated workload
//! (the replicated echo rig). But every paper workload — retransmission
//! backoff (§4.3), ringmaster liveness probes (§6.4), client retry
//! loops — is *timer*-dominated, and the timer wheel that replaced the
//! `BinaryHeap` event queue was built for exactly that shape. BENCH_6
//! extends BENCH_5 with three sections, one record per line:
//!
//! - `timer_churn` — the gated number: a `World` of processes that keep
//!   hundreds of timers armed and continuously fire / cancel / re-arm
//!   them (including far-future "watchdog" timers that always get
//!   cancelled, exercising the overflow level and the O(1) cancel
//!   path). Reports simulator events per *real* second.
//! - `echo_ref` — the BENCH_5 echo rig at 64 B payloads (same call
//!   count) rerun in the same process, so the churn number has an
//!   apples-to-apples message-workload reference next to it.
//! - `wheel_micro` — informational: raw `TimerWheel` vs raw
//!   `BinaryHeap` insert+pop throughput on an identical deadline
//!   stream, the heap-vs-wheel chart without a `World` around it.
//!
//! Deterministic fields (`events`, `fires`, `cancels`, `sim_ms`,
//! `order_fold`) are byte-stable across reruns; wall-clock fields
//! (`wall_ms`, `events_per_sec`, `*_ops_per_sec`, `wheel_over_heap`)
//! are measurements and vary. [`gate`] checks `timer_churn` events/sec
//! against the `echo_ref` record of the same run.

use std::collections::VecDeque;

use simnet::sched::TimerWheel;
use simnet::{Ctx, Duration, HostId, Payload, Process, SockAddr, TimerId, Until, World};

use crate::record::{find, fixed, per_sec, timed, Record, Value};

/// Tag for the short-lived timers that actually fire.
const TICK: u64 = 1;
/// Tag for the far-future watchdog timers that always get cancelled.
const WATCHDOG: u64 = 2;

/// A process that keeps `armed` timers in flight, re-arming on every
/// fire until its fire budget runs out, cancelling the oldest pending
/// tick every third fire, and rotating a far-future watchdog (armed
/// into the wheel's overflow level, then cancelled) every fourth.
struct Churn {
    /// xorshift64* state — deterministic per process, so every run
    /// processes the same event sequence.
    state: u64,
    pending: VecDeque<TimerId>,
    watchdog: Option<TimerId>,
    fires_left: u64,
    fires: u64,
    cancels: u64,
    armed: usize,
}

impl Churn {
    fn new(seed: u64, armed: usize, fires: u64) -> Churn {
        Churn {
            state: seed | 1,
            pending: VecDeque::new(),
            watchdog: None,
            fires_left: fires,
            fires: 0,
            cancels: 0,
            armed,
        }
    }

    /// Next pseudo-random delay, weighted toward the wheel's low levels
    /// the way retransmit/probe timers are: mostly 100 µs – 100 ms, a
    /// tail into the multi-second range.
    fn delay(&mut self) -> Duration {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let r = self.state.wrapping_mul(0x2545F4914F6CDD1D);
        let us = match r % 8 {
            0..=4 => 100 + (r >> 8) % 100_000,       // levels 0–2
            5 | 6 => 100_000 + (r >> 8) % 2_000_000, // ~levels 3–4
            _ => 2_000_000 + (r >> 8) % 30_000_000,  // seconds-range tail
        };
        Duration::from_micros(us)
    }
}

impl Process for Churn {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.armed {
            let d = self.delay();
            let id = ctx.set_timer(d, TICK);
            self.pending.push_back(id);
        }
    }

    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: SockAddr, _data: Payload) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, id: TimerId, tag: u64) {
        if tag == WATCHDOG {
            // Only the last watchdog survives to fire (the drain after
            // the budget is spent); rotation cancels every other one.
            self.fires += 1;
            self.watchdog = None;
            return;
        }
        self.pending.retain(|&p| p != id);
        self.fires += 1;
        if self.fires_left == 0 {
            return; // budget spent: stop re-arming and let the world drain
        }
        self.fires_left -= 1;
        let d = self.delay();
        self.pending.push_back(ctx.set_timer(d, TICK));
        if self.fires.is_multiple_of(3) {
            // Churn: cancel the oldest pending tick and replace it.
            if let Some(victim) = self.pending.pop_front() {
                if ctx.cancel_timer(victim) {
                    self.cancels += 1;
                    let d = self.delay();
                    self.pending.push_back(ctx.set_timer(d, TICK));
                }
            }
        }
        if self.fires.is_multiple_of(4) {
            // Rotate the far-future watchdog: the new arm lands in the
            // wheel's overflow level (> 64^6 µs ≈ 19 h out), the old
            // one is cancelled — the classic "deadline that never
            // fires" shape O(1) cancel exists for.
            if let Some(old) = self.watchdog.take() {
                if ctx.cancel_timer(old) {
                    self.cancels += 1;
                }
            }
            self.watchdog = Some(ctx.set_timer(Duration::from_micros(1 << 37), WATCHDOG));
        }
    }
}

/// Deterministic summary of one churn run (wall clock excluded).
pub struct ChurnResult {
    /// Total simulator events processed (the throughput numerator).
    pub events: u64,
    /// Simulated time at quiesce.
    pub sim: Duration,
    /// Timer fires delivered across all processes.
    pub fires: u64,
    /// Successful cancels across all processes.
    pub cancels: u64,
}

/// Runs the timer-churn workload: `procs` processes (one per host),
/// each keeping `armed` timers in flight with a budget of `fires`
/// re-arms, then drains the world to idle (cancelled tombstones and
/// all). Fully deterministic: same arguments, same event count.
pub fn run_timer_churn(procs: usize, armed: usize, fires: u64) -> ChurnResult {
    let mut w = World::new(0xBE6C);
    let mut addrs = Vec::new();
    for i in 0..procs {
        let addr = SockAddr::new(HostId(i as u32 + 1), 6);
        let seed = 0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1);
        w.spawn(addr, Box::new(Churn::new(seed, armed, fires)));
        addrs.push(addr);
    }
    w.run(Until::Idle);
    let (mut total_fires, mut cancels) = (0u64, 0u64);
    for addr in addrs {
        let (f, c) = w
            .with_proc(addr, |p: &Churn| (p.fires, p.cancels))
            .expect("churn process alive");
        total_fires += f;
        cancels += c;
    }
    ChurnResult {
        events: w.events_processed(),
        sim: Duration::from_micros(w.now().as_micros()),
        fires: total_fires,
        cancels,
    }
}

/// Raw scheduler micro: pushes `n` deterministic deadlines through a
/// `TimerWheel` and a `BinaryHeap`, interleaving inserts and pops the
/// way the run loop does (2 inserts per pop until exhausted, then
/// drain). Returns (wheel ops/sec, heap ops/sec, checksum) — the
/// checksum (fold of popped deadlines) must match between the two.
fn raw_micro(n: u64) -> (f64, f64, u64) {
    trait Queue {
        fn ins(&mut self, at: u64, seq: u64);
        fn take(&mut self) -> Option<(u64, u64)>;
    }
    impl Queue for TimerWheel<()> {
        fn ins(&mut self, at: u64, seq: u64) {
            self.insert(at, seq, ());
        }
        fn take(&mut self) -> Option<(u64, u64)> {
            self.pop().map(|(at, s, ())| (at, s))
        }
    }
    impl Queue for std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> {
        fn ins(&mut self, at: u64, seq: u64) {
            self.push(std::cmp::Reverse((at, seq)));
        }
        fn take(&mut self) -> Option<(u64, u64)> {
            self.pop().map(|std::cmp::Reverse(e)| e)
        }
    }

    fn drive(n: u64, q: &mut impl Queue) -> u64 {
        let (mut state, mut now, mut seq, mut fold) = (0xDECAFu64, 0u64, 0u64, 0u64);
        let mut delay = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 5_000_000
        };
        for _ in 0..n {
            q.ins(now + delay(), seq);
            seq += 1;
            q.ins(now + delay(), seq);
            seq += 1;
            let (at, s) = q.take().expect("queue non-empty");
            now = at;
            fold = fold.rotate_left(7) ^ at ^ s;
        }
        while let Some((at, s)) = q.take() {
            fold = fold.rotate_left(7) ^ at ^ s;
        }
        fold
    }

    let (wheel_fold, wheel_wall) = timed(|| drive(n, &mut TimerWheel::<()>::new()));
    let (heap_fold, heap_wall) = timed(|| {
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>> =
            std::collections::BinaryHeap::new();
        drive(n, &mut heap)
    });

    assert_eq!(
        wheel_fold, heap_fold,
        "wheel and heap popped different orders"
    );
    let ops = 3 * n; // 2 inserts + 1 pop per round, drain pops amortized in
    (
        per_sec(ops, wheel_wall),
        per_sec(ops, heap_wall),
        wheel_fold,
    )
}

/// The heading the records print under.
pub const TITLE: &str = "BENCH_6: timer-heavy scheduler throughput (timer-wheel gate)";

/// Builds the BENCH_6 records. `quick` shrinks the fire budget, the
/// echo call count and the micro's op count; the workload shape is
/// identical.
pub fn records(quick: bool) -> Vec<Record> {
    let (procs, armed) = (8u32, 64u32);
    let fires = if quick { 4_000 } else { 40_000 };
    let (r, wall) = timed(|| run_timer_churn(procs as usize, armed as usize, fires));
    let churn = Record::new("bench6")
        .key("section", "timer_churn")
        .key("procs", procs)
        .key("armed_per_proc", armed)
        .det("fires", r.fires)
        .det("cancels", r.cancels)
        .det("events", r.events)
        .det("sim_ms", fixed(r.sim.as_millis_f64(), 2))
        .wall_ms(wall)
        .wall("events_per_sec", fixed(per_sec(r.events, wall), 0));

    let calls: u32 = if quick { 60 } else { 300 };
    let (e, wall) = timed(|| crate::testbed::run_circus_echo_rig(3, calls, false, 64));
    let echo = Record::new("bench6")
        .key("section", "echo_ref")
        .key("payload", 64u32)
        .key("replicas", 3u32)
        .key("calls", calls)
        .det("events", e.events)
        .wall_ms(wall)
        .wall("events_per_sec", fixed(per_sec(e.events, wall), 0));

    let n: u64 = if quick { 100_000 } else { 1_000_000 };
    let (wheel_ops, heap_ops, fold) = raw_micro(n);
    let micro = Record::new("bench6")
        .key("section", "wheel_micro")
        .key("rounds", n)
        .det("order_fold", Value::Text(format!("{fold:#018x}")))
        .wall("wheel_ops_per_sec", fixed(wheel_ops, 0))
        .wall("heap_ops_per_sec", fixed(heap_ops, 0))
        .wall("wheel_over_heap", fixed(wheel_ops / heap_ops.max(1e-9), 3));
    vec![churn, echo, micro]
}

/// Gate: the timer-churn workload must process events at least as fast
/// as the message workload of the `echo_ref` record — the timer wheel
/// was built for exactly this shape, so falling below the echo rig's
/// events/sec would mean the scheduler rewrite lost its reason to
/// exist. Core-count-aware: the simulator is single-threaded, so a
/// loaded single-core box gets a small noise allowance; with 2+ cores
/// the floor is the baseline itself.
pub fn gate(records: &[Record]) -> Result<String, String> {
    let eps = |section: &str| find(records, &[("section", section.into())])?.num("events_per_sec");
    let (eps, base_eps) = (eps("timer_churn")?, eps("echo_ref")?);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let floor_ratio = if cores >= 2 { 1.0 } else { 0.9 };
    let floor = base_eps * floor_ratio;
    if eps < floor {
        return Err(format!(
            "timer-churn {eps:.0} events/sec below the floor {floor:.0} \
             ({floor_ratio:.1}x of the 64 B echo_ref baseline {base_eps:.0}, {cores} core(s))"
        ));
    }
    Ok(format!(
        "timer churn: {eps:.0} events/sec ≥ {floor:.0} floor \
         ({:.2}x the 64 B echo_ref baseline, {cores} core(s))",
        eps / base_eps.max(1e-9),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_is_deterministic_and_busy() {
        let a = run_timer_churn(2, 16, 200);
        let b = run_timer_churn(2, 16, 200);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fires, b.fires);
        assert_eq!(a.cancels, b.cancels);
        assert_eq!(a.sim.as_micros(), b.sim.as_micros());
        // Every budgeted fire happened, and the cancel path was hot.
        assert!(a.fires >= 2 * 200);
        assert!(a.cancels > 100, "cancels = {}", a.cancels);
    }

    #[test]
    fn gate_fires_when_churn_falls_below_echo() {
        let gated = |churn: f64, echo: f64| {
            gate(
                &[("timer_churn", churn), ("echo_ref", echo)].map(|(section, eps)| {
                    Record::new("bench6")
                        .key("section", section)
                        .wall("events_per_sec", fixed(eps, 0))
                }),
            )
        };
        assert!(gated(1_000_000.0, 250_000.0).is_ok());
        // Below even the single-core allowance of 0.9x.
        assert!(gated(200_000.0, 250_000.0).is_err());
    }

    #[test]
    fn raw_micro_orders_agree() {
        let (w, h, _) = raw_micro(20_000);
        assert!(w > 0.0 && h > 0.0);
    }
}
