//! Peer death with several calls in flight replays identically.
//!
//! When a troupe member dies, the client node decides every outstanding
//! call that was waiting on it in one pass. That pass must visit the
//! calls in a fixed order: the completions it delivers (and the sends
//! the agent makes in response) are part of the trace, so an order that
//! changed from process to process — or from one `Node` instance to the
//! next — would break "same seed, same trace".

// Shared with the other suites; this one uses only part of it.
#[allow(dead_code)]
mod common;

use circus::{Agent, CallError, CallHandle, CollationPolicy, NodeBuilder, NodeConfig, NodeCtx};
use common::*;
use simnet::{Duration, HostId, TraceRing, World};
use wire::{from_bytes, to_bytes};

/// Concurrent calls the client has outstanding when the member dies.
const CALLS: u32 = 4;

/// Starts `CALLS` concurrent calls on separate threads, and answers each
/// completion with one follow-up call, so the completion order shows up
/// as send order in the trace.
struct BurstClient {
    troupe: circus::Troupe,
    completed: Vec<u32>,
}

impl Agent for BurstClient {
    fn on_poke(&mut self, nc: &mut NodeCtx<'_, '_, '_>, _tag: u64) {
        for i in 0..CALLS {
            let t = nc.fresh_thread();
            let troupe = self.troupe.clone();
            nc.call(
                t,
                &troupe,
                MODULE,
                PROC_ADD,
                to_bytes(&(i + 1)),
                CollationPolicy::Unanimous,
            );
        }
    }

    fn on_call_done(
        &mut self,
        nc: &mut NodeCtx<'_, '_, '_>,
        _handle: CallHandle,
        result: Result<Vec<u8>, CallError>,
    ) {
        let total = result.ok().and_then(|b| from_bytes::<u32>(&b).ok());
        self.completed.push(total.unwrap_or(0));
        if self.completed.len() as u32 <= CALLS {
            let t = nc.fresh_thread();
            let troupe = self.troupe.clone();
            nc.call(
                t,
                &troupe,
                MODULE,
                PROC_ECHO,
                to_bytes(&(self.completed.len() as u32)),
                CollationPolicy::Unanimous,
            );
        }
    }
}

/// Builds a fresh world and returns its trace hash, event
/// count and the order the client saw completions in.
fn run_once() -> (u64, u64, Vec<u32>) {
    let mut w: World = world(31);
    w.set_trace_sink(Box::new(TraceRing::new(64)));
    let troupe = spawn_server_troupe(&mut w, 10, 1, 3);
    w.crash_host(HostId(2));
    let client = addr(100, 200);
    let p = NodeBuilder::new(client, NodeConfig::default())
        .agent(Box::new(BurstClient {
            troupe,
            completed: Vec::new(),
        }))
        .build()
        .expect("valid node");
    w.spawn(client, Box::new(p));
    w.poke(client, 0);
    w.run(simnet::Until::Elapsed(Duration::from_secs(90)));
    let ring = w.trace_sink_as::<TraceRing>().expect("sink installed");
    let completed = w
        .with_proc(client, |p: &circus::CircusProcess| {
            p.agent_as::<BurstClient>()
                .expect("client")
                .completed
                .clone()
        })
        .expect("client alive");
    (ring.hash(), ring.seen(), completed)
}

#[test]
fn member_death_with_concurrent_calls_replays_identically() {
    let first = run_once();
    assert_eq!(
        first.2.len() as u32,
        2 * CALLS,
        "every burst call and every follow-up completed: {:?}",
        first.2
    );
    for i in 1..5 {
        assert_eq!(run_once(), first, "build {i} diverged from build 0");
    }
}
