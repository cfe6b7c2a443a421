//! The one harness every chaos workload runs through.
//!
//! A [`Workload`] supplies what differs between workloads — the member
//! service (warm spares run it too), the seeded client script, the
//! oracles, and, for recovery, a scripted schedule. [`run`] does the
//! rest for any of them: build the world, drive the schedule, quiesce,
//! run the shared and the workload's oracles, and fold everything into
//! a [`Report`]. [`sweep`] runs many seeds across worker threads.
//!
//! Because plan, world, and workload are all pure functions of the
//! seed, two reports for the same seed and options must be identical —
//! trace hash, event count, CPU totals, network counters and all —
//! which is what the determinism tests assert, and what makes the
//! copy-pasteable repro line from a failing sweep actually reproduce.

use std::collections::BTreeMap;

use circus::{CircusProcess, ModuleAddr, NodeBuilder, Service, Troupe};
use simnet::{
    Duration, HostId, NetConfig, NetView, SimRng, SockAddr, SyscallCosts, TraceEvent, TraceRing,
    World,
};
use transactions::RecoveryInfo;

use crate::client::client_of;
use crate::drive::Driver;
use crate::oracle::{check_net_monotonicity, check_replication, Violation};
use crate::plan::{FaultPlan, PlanOptions, PlannedFault};

/// How many retained trace events a report carries for inspection.
const TRACE_SAMPLE: usize = 64;

/// One chaos workload: the replicated service under test, its clients,
/// and its oracles. The harness owns everything else.
pub trait Workload: Sync {
    /// Short name: report lines and `cargo test -p chaos --test <label>`.
    fn label(&self) -> &'static str;
    /// The name the troupe is registered under.
    fn troupe(&self) -> &'static str {
        self.label()
    }
    /// Domain separator for the workload RNG that draws client scripts.
    fn rng_domain(&self) -> u64;
    /// Operations per client script unless [`Options::ops_per_client`]
    /// says otherwise.
    fn default_ops(&self) -> usize;
    /// A fresh member service for a process on `host` (members and warm
    /// spares alike).
    fn service(&self, w: &mut World, host: HostId) -> Box<dyn Service>;
    /// Adds client `i`'s agent (and any service it needs) to `node`,
    /// drawing its `ops`-operation script from `rng`.
    fn client(
        &self,
        node: NodeBuilder,
        rm: &Troupe,
        i: usize,
        ops: usize,
        rng: &mut SimRng,
    ) -> NodeBuilder;
    /// The workload's own oracles over the quiesced world.
    fn check(&self, q: &Quiesced, out: &mut Vec<Violation>);
    /// Whether to spawn warm spares on the hosts the solver left over.
    fn warm_spares(&self) -> bool {
        true
    }
    /// Drives the faults against the live workload; by default, the
    /// seed's fault plan.
    fn schedule(&self, d: &mut Driver) {
        d.run_plan();
    }
}

/// Where a run's faults come from.
#[derive(Clone, Debug)]
pub enum Faults {
    /// A plan generated from the seed within these bounds.
    Plan(PlanOptions),
    /// An explicit fault list — regression tests use this to force, say,
    /// a kill in the middle of a broadcast storm.
    Script(Vec<PlannedFault>),
}

/// Knobs of one run, shared by every workload.
#[derive(Clone, Debug)]
pub struct Options {
    /// Operations per client script; `None` is the workload's default.
    pub ops_per_client: Option<usize>,
    /// The fault schedule.
    pub faults: Faults,
    /// Carry one-to-many call data as troupe-wide multicasts (§4.3.3)
    /// instead of the paper-faithful per-member unicast.
    pub multicast_calls: bool,
    /// Adversary factory: called with the seed once the full stack is
    /// spawned (before the schedule runs), typically to install a
    /// [`simnet::TrafficInjector`] on the world. A plain `fn` pointer
    /// keeps the options `Clone` and a run a pure function of
    /// `(seed, options)`.
    pub injector: Option<fn(u64, &mut World)>,
    /// The world constructor: [`World::with_config`], or the reference
    /// heap scheduler's `World::with_config_heap` for the
    /// scheduler-equivalence suite.
    pub world: fn(u64, NetConfig, SyscallCosts) -> World,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            ops_per_client: None,
            faults: Faults::Plan(PlanOptions::default()),
            multicast_calls: false,
            injector: None,
            world: World::with_config,
        }
    }
}

/// A member crashed and rejoined from its own disk by a scripted
/// schedule.
#[derive(Clone, Debug)]
pub struct Rejoin {
    /// The crashed member's address.
    pub victim: SockAddr,
    /// The recovery process's address on the same host.
    pub addr: SockAddr,
    /// Simulated crash-to-rejoined time, if the heal completed.
    pub mttr: Option<Duration>,
    /// What the recovery process replayed from its disk.
    pub recovery: Option<RecoveryInfo>,
}

/// The quiesced world plus everything the oracles need to find their
/// witnesses in it.
pub struct Quiesced {
    /// The frozen world.
    pub world: World,
    /// The fault plan that was executed.
    pub plan: FaultPlan,
    /// The workload troupe's membership at quiesce (per the registry).
    pub members: Vec<ModuleAddr>,
    /// The client process addresses.
    pub client_addrs: Vec<SockAddr>,
    /// The Ringmaster member hosts.
    pub ringmaster_hosts: Vec<HostId>,
    /// `true` if every client finished its whole script (plus probe).
    pub all_clients_finished: bool,
    /// Crash/kill repairs completed *by the self-healing agent* (probe,
    /// evict, spare activation) — the driver performs none itself.
    pub repairs: usize,
    /// Non-fatal driver anomalies (a repair the healer never finished, a
    /// lookup that never answered...). The sweeps treat these as failures
    /// too.
    pub warnings: Vec<String>,
    /// The scripted crash-and-rejoin, for the recovery workload.
    pub rejoin: Option<Rejoin>,
}

impl Quiesced {
    /// Every oracle violation: the shared oracles (replication degree,
    /// serial-number monotonicity) plus the workload's own.
    pub fn violations(&self, wl: &dyn Workload) -> Vec<Violation> {
        let mut out = Vec::new();
        wl.check(self, &mut out);
        check_net_monotonicity(&self.world, &mut out);
        check_replication(self, &mut out);
        out
    }
}

/// Everything one chaos run produced.
#[derive(Clone, Debug)]
pub struct Report {
    /// The workload's label.
    pub workload: &'static str,
    /// The seed.
    pub seed: u64,
    /// FNV-1a hash over *every* trace event of the run.
    pub trace_hash: u64,
    /// Total trace events emitted.
    pub trace_events: u64,
    /// A few retained events (the oldest the ring still holds), for
    /// eyeballing a diverging run.
    pub trace_sample: Vec<TraceEvent>,
    /// Faults the plan scheduled.
    pub faults: usize,
    /// Crash/kill repairs performed by the self-healing agent.
    pub repairs: usize,
    /// Client-confirmed operations across all clients (probes included):
    /// commits, broadcasts, or batches.
    pub confirmed: usize,
    /// Aborted or ambiguously failed submissions across all clients.
    pub aborts: u32,
    /// Stale-binding rebinds across all clients.
    pub rebinds: u32,
    /// Unrecoverable client errors.
    pub client_errors: Vec<String>,
    /// Driver anomalies (failed heals, spec violations after repair...).
    pub warnings: Vec<String>,
    /// Whether every client finished its script and probe.
    pub all_clients_finished: bool,
    /// Oracle violations.
    pub violations: Vec<Violation>,
    /// Simulated CPU time summed from the metrics registry over every
    /// process the run charged (crashed processes included, up to their
    /// last incarnation).
    pub cpu_total: Duration,
    /// The world's network counters.
    pub net: NetView,
    /// Deterministic JSON dump of the whole metrics registry at quiesce —
    /// same seed, same bytes.
    pub metrics_json: String,
    /// FNV-1a hash over the causal span records minted during the run.
    pub span_hash: u64,
    /// The scripted crash-and-rejoin, for the recovery workload.
    pub rejoin: Option<Rejoin>,
    counters: BTreeMap<String, u64>,
}

impl Report {
    /// `true` if the run is clean: no violations, no client errors, no
    /// driver warnings, everyone finished.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.client_errors.is_empty()
            && self.warnings.is_empty()
            && self.all_clients_finished
    }

    /// The registry counter or gauge `name` at quiesce (0 if it never
    /// ticked).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A copy-pasteable command reproducing this run by seed.
    pub fn repro(&self) -> String {
        format!(
            "CHAOS_SEED={} cargo test -p chaos --test {}",
            self.seed, self.workload
        )
    }

    /// A one-paragraph failure description, repro line first.
    pub fn failure_summary(&self) -> String {
        let mut s = format!(
            "{} chaos seed {} FAILED — reproduce with:\n    {}\n\
             trace hash {:#018x} over {} events; {} faults, {} repairs, \
             {} confirmed, {} aborts, {} rebinds\n",
            self.workload,
            self.seed,
            self.repro(),
            self.trace_hash,
            self.trace_events,
            self.faults,
            self.repairs,
            self.confirmed,
            self.aborts,
            self.rebinds,
        );
        if let Some(r) = &self.rejoin {
            s.push_str(&format!("rejoin of {}: mttr {:?}", r.addr, r.mttr));
            if let Some(i) = &r.recovery {
                s.push_str(&format!(
                    ", replayed {} (deduped {}) from snapshot v{}, {} torn of {} log bytes",
                    i.replayed, i.deduped, i.snapshot_version, i.torn_bytes, i.log_bytes
                ));
            }
            s.push('\n');
        }
        if !self.all_clients_finished {
            s.push_str("clients did not finish their scripts\n");
        }
        for w in &self.warnings {
            s.push_str(&format!("driver: {w}\n"));
        }
        for e in &self.client_errors {
            s.push_str(&format!("client: {e}\n"));
        }
        for v in &self.violations {
            s.push_str(&format!("violation: {v}\n"));
        }
        s
    }
}

/// Builds the world for `seed`, runs the workload's schedule against it,
/// and quiesces — stopping short of the report, for tests that keep
/// driving the frozen world.
pub fn quiesce(seed: u64, wl: &dyn Workload, opts: &Options) -> Quiesced {
    let mut d = Driver::new(seed, wl, opts);
    wl.schedule(&mut d);
    d.settle()
}

/// One full chaos run: [`quiesce`], the oracles, and the report.
pub fn run(seed: u64, wl: &dyn Workload, opts: &Options) -> Report {
    let q = quiesce(seed, wl, opts);
    let violations = q.violations(wl);

    let (trace_hash, trace_events, trace_sample) = q
        .world
        .trace_sink_as::<TraceRing>()
        .map(|ring| {
            let sample = ring.events().into_iter().take(TRACE_SAMPLE).collect();
            (ring.hash(), ring.seen(), sample)
        })
        .unwrap_or((0, 0, Vec::new()));

    let (mut confirmed, mut aborts, mut rebinds) = (0, 0, 0);
    let mut client_errors = Vec::new();
    for &c in &q.client_addrs {
        q.world.with_proc(c, |p: &CircusProcess| {
            let a = client_of(p).expect("client process hosts a chaos client");
            confirmed += a.confirmed();
            aborts += a.aborts();
            rebinds += a.binding().rebinds;
            client_errors.extend(a.binding().errors.iter().cloned());
        });
    }

    // The registry is the single source of CPU and network totals: the
    // report and any table derived from the registry can never disagree.
    q.world.refresh_metrics();
    let reg = q.world.metrics();
    let counters = reg
        .keys()
        .into_iter()
        .map(|k| (k.clone(), reg.get(&k)))
        .collect();
    Report {
        workload: wl.label(),
        seed: q.plan.seed,
        trace_hash,
        trace_events,
        trace_sample,
        faults: q.plan.faults.len(),
        repairs: q.repairs,
        confirmed,
        aborts,
        rebinds,
        client_errors,
        warnings: q.warnings,
        all_clients_finished: q.all_clients_finished,
        violations,
        cpu_total: Duration::from_micros(reg.sum_suffix(".total_us")),
        net: q.world.net_stats(),
        metrics_json: reg.dump_json(),
        span_hash: reg.span_hash(),
        rejoin: q.rejoin,
        counters,
    }
}

/// How many worker threads a parallel sweep should use: the
/// `CHAOS_JOBS` environment variable, or the machine's available
/// parallelism.
pub fn chaos_jobs() -> usize {
    match std::env::var("CHAOS_JOBS") {
        Ok(s) => s
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| panic!("CHAOS_JOBS must be a positive integer, got {s:?}")),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Runs every seed across `jobs` worker threads (serially if `jobs` is
/// 1) and returns the reports in the same order as `seeds`.
///
/// Each worker builds its own [`World`] — the simulator's interior
/// (`Rc`-based metrics registry, payload handles) is deliberately
/// thread-*un*safe, so nothing of a run crosses a thread boundary except
/// the finished, plain-data [`Report`]. Every run is a pure function of
/// its seed, so the schedule (which worker picks which seed, in what
/// order) cannot change any report: parallel and serial sweeps are
/// bit-identical, which the sweep tests assert.
pub fn sweep(seeds: &[u64], wl: &dyn Workload, opts: &Options, jobs: usize) -> Vec<Report> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let jobs = jobs.max(1).min(seeds.len().max(1));
    if jobs == 1 {
        return seeds.iter().map(|&s| run(s, wl, opts)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Report>>> = seeds.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let report = run(seed, wl, opts);
                *slots[i].lock().expect("sweep slot poisoned") = Some(report);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep slot poisoned")
                .expect("every seed produced a report")
        })
        .collect()
}

/// The seeds a sweep should run: the `CHAOS_SEED` environment variable
/// (a single seed for replaying a failure) or the given default range.
pub fn sweep_seeds(default: std::ops::Range<u64>) -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => {
            let seed = s
                .trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("CHAOS_SEED must be a u64, got {s:?}"));
            vec![seed]
        }
        Err(_) => default.collect(),
    }
}
