//! The benchmark of the simulated Circus system and of its simulator.
//!
//! Three workloads ([`Workload`]) each build one simulated world from the
//! public APIs of `simnet`, `circus`, `transactions`, `ringmaster` and
//! `adversary`, drive it on one thread, check its outputs and measure
//! it. Their inputs ([`gen`]) are a pure function of the seed. One run
//! ([`run`]) yields the simulated figures, which are exact functions of
//! the seed, and the host figures of the simulator, which are not.

pub mod echo;
pub mod faults;
pub mod gen;
pub mod rig;
pub mod txnmix;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use simnet::{Time, World};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Replicated echo calls: the data plane alone.
    Echo,
    /// Transactions, ordered broadcasts and commutative operations
    /// against a durable troupe.
    TxnMix,
    /// Open-loop operations against a durable troupe under crashes,
    /// restarts, partitions, loss and hostile datagrams.
    Faults,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Echo, Workload::TxnMix, Workload::Faults];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo => "echo",
            Workload::TxnMix => "txn-mix",
            Workload::Faults => "faults",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// End-to-end metrics: name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_op_ms_p50", "ms"),
    ("sim_op_ms_p99", "ms"),
    ("sim_ops_per_s", "1/s"),
    ("sim_cpu_ms_per_op", "ms"),
];

/// Per-layer metrics: name, unit. Every workload reports every one; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simnet.events_per_op", "count"),
    ("simnet.events_per_s", "1/s"),
    ("simnet.step_self_us_per_op", "us"),
    ("simnet.timer_fires_per_op", "count"),
    ("simnet.msgs_per_op", "count"),
    ("simnet.bytes_per_op", "B"),
    ("simnet.sendmsg_ms_per_op", "ms"),
    ("simnet.lost_per_op", "count"),
    ("simnet.cpu_busy_frac_max", "frac"),
    ("simnet.diskio_ms_per_commit", "ms"),
    ("simnet.fsyncs_per_commit", "count"),
    ("simnet.disk_bytes_per_commit", "B"),
    ("pairedmsg.segments_per_op", "count"),
    ("pairedmsg.useful_frac", "frac"),
    ("pairedmsg.replays_suppressed_per_op", "count"),
    ("pairedmsg.max_recv_buffered", "count"),
    ("circus.node_self_us_per_op", "us"),
    ("circus.invocations_per_op", "count"),
    ("circus.calls_per_op", "count"),
    ("circus.call_ms_p50", "ms"),
    ("circus.small_call_ms_p50", "ms"),
    ("circus.large_call_ms_p50", "ms"),
    ("circus.collation_wait_ms_p50", "ms"),
    ("circus.collation_wait_ms_p99", "ms"),
    ("circus.assembly_wait_ms_p50", "ms"),
    ("client.agent_self_us_per_op", "us"),
    ("transactions.service_self_us_per_op", "us"),
    ("transactions.commit_frac", "frac"),
    ("transactions.read_ms_p50", "ms"),
    ("transactions.write_ms_p50", "ms"),
    ("transactions.bcast_ms_p50", "ms"),
    ("transactions.cm_ms_p50", "ms"),
    ("transactions.wal_appends_per_commit", "count"),
    ("transactions.state_bytes_max", "B"),
    ("transactions.replayed_per_recovery", "count"),
    ("transactions.bcast_dups_per_op", "count"),
    ("transactions.stalled_ops_overlapping_reads", "count"),
    ("ringmaster.self_us_per_op", "us"),
    ("ringmaster.probes_per_sim_s", "1/s"),
    ("ringmaster.false_suspicion_frac", "frac"),
    ("ringmaster.rebinds_per_crash", "count"),
    ("ringmaster.mttr_ms_mean", "ms"),
    ("ringmaster.spare_delta_frac", "frac"),
    ("ringmaster.spare_state_bytes", "B"),
    ("ringmaster.join_failures", "count"),
    ("adversary.injected_per_sim_s", "1/s"),
    ("adversary.rejected_frac", "frac"),
    ("obs.spans_per_op", "count"),
    ("obs.registry_keys", "count"),
    ("gen.late_ms_p99", "ms"),
    ("sim_outage_ms_p50", "ms"),
    ("sim_repair_ms_p50", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer metrics measured on the host (the rest repeat exactly).
pub const HOST_LAYER: &[&str] = &[
    "simnet.events_per_s",
    "simnet.step_self_us_per_op",
    "circus.node_self_us_per_op",
    "client.agent_self_us_per_op",
    "transactions.service_self_us_per_op",
    "ringmaster.self_us_per_op",
    "trace.overhead_frac",
];

/// One completed operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Workload-specific operation class (read, write, ...).
    pub class: u8,
    /// When the operation was issued (open loop: when it was due), µs.
    pub start_us: u64,
    /// When its collated reply arrived, µs.
    pub end_us: u64,
}

/// What the clients report to the run loop of their workload.
#[derive(Default, Debug)]
pub struct OpLog {
    /// Measured operations that completed.
    pub done: Vec<Sample>,
    /// Measured operations given up on.
    pub failed: u64,
    /// Clients that finished their warm-up.
    pub warmed: usize,
    /// Clients that finished their script.
    pub finished: usize,
    /// Wrong outputs the clients saw.
    pub errors: Vec<String>,
    /// Open loop: how late each operation was first issued, µs.
    pub late_us: Vec<u64>,
}

/// Shared handle to the [`OpLog`].
pub type Log = Rc<RefCell<OpLog>>;

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median of host measurements.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Registry totals at one instant; a measured phase is the difference
/// of two snapshots.
#[derive(Clone, Debug, Default)]
pub struct Snap {
    /// Simulated time, µs.
    pub at_us: u64,
    /// Simulator events processed.
    pub events: u64,
    /// `net.*`, `cpu.*`, `disk.*`, `rpc.*` and domain counters, summed
    /// over every process and host under a short name.
    pub c: BTreeMap<&'static str, u64>,
    /// CPU µs per simulated host.
    pub host_cpu_us: BTreeMap<u32, u64>,
}

/// Registry keys summed into [`Snap::c`]: `(short name, key suffix)`.
/// A suffix with a leading `.` sums that key over every process or host.
const SUMS: &[(&str, &str)] = &[
    ("cpu_us", ".total_us"),
    ("sendmsg_us", ".sys.sendmsg.us"),
    ("diskio_us", ".sys.diskio.us"),
    ("fsyncs", ".fsyncs"),
    ("disk_bytes", ".bytes_written"),
    ("segments", ".segments_sent"),
    ("calls_delivered", ".calls_delivered"),
    ("returns_delivered", ".returns_delivered"),
    ("dup_call_deliveries", ".duplicate_call_deliveries"),
    ("replays", ".replays_suppressed"),
    ("invocations", ".invocations"),
];

/// Single registry keys copied into [`Snap::c`].
const KEYS: &[&str] = &[
    "net.sent",
    "net.lost",
    "net.partitioned",
    "net.undeliverable",
    "rpc.calls_completed",
    "txn.commits",
    "txn.aborts",
    "wal.appends",
    "wal.replayed",
    "wal.recoveries",
    "bcast.dup_proposes",
    "bcast.dup_accepts",
    "cm.dups",
    "ring.probes",
    "ring.suspicions",
    "ring.false_suspicions",
    "ring.repairs",
    "ring.mttr_us",
    "spare.delta_fetches",
    "spare.full_fetches",
    "spare.state_bytes",
    "spare.activations",
    "spare.join_failures",
    "adv.injected",
    "adv.rejected",
];

impl Snap {
    /// Refreshes process metrics and reads the registry.
    pub fn take(w: &World) -> Snap {
        w.refresh_metrics();
        let reg = w.metrics();
        let mut c: BTreeMap<&'static str, u64> = BTreeMap::new();
        for &(name, suffix) in SUMS {
            c.insert(name, reg.sum_suffix(suffix));
        }
        for &k in KEYS {
            c.insert(k, reg.get(k));
        }
        // Read the histogram only once it exists: reading registers it.
        let mttr_n = if reg.keys().iter().any(|k| k == "ring.mttr_us") {
            reg.histogram("ring.mttr_us").snapshot().count
        } else {
            0
        };
        c.insert("ring.mttr_n", mttr_n);
        let mut host_cpu_us = BTreeMap::new();
        let mut max_recv_buffered = 0;
        for k in reg.keys() {
            if let Some(rest) = k.strip_prefix("cpu.h") {
                if let Some(addr) = rest.strip_suffix(".total_us") {
                    let host: u32 = addr
                        .split(':')
                        .next()
                        .and_then(|h| h.parse().ok())
                        .expect("cpu keys name a host");
                    *host_cpu_us.entry(host).or_insert(0) += reg.get(&k);
                }
            } else if k.ends_with(".max_recv_buffered") {
                max_recv_buffered = max_recv_buffered.max(reg.get(&k));
            }
        }
        c.insert("max_recv_buffered", max_recv_buffered);
        c.insert("spans", reg.span_count());
        c.insert("registry_keys", reg.keys().len() as u64);
        Snap {
            at_us: w.now().as_micros(),
            events: w.events_processed(),
            c,
            host_cpu_us,
        }
    }

    /// Counter `k` accrued since `base`.
    pub fn since(&self, base: &Snap, k: &str) -> u64 {
        self.c[k] - base.c[k]
    }
}

/// Everything one run of a workload produced.
#[derive(Debug)]
pub struct RunResult {
    /// Host seconds spent building and warming the world.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub run_s: f64,
    /// Simulator events in the measured phase.
    pub events: u64,
    /// Operations attempted and given up on in the measured phase.
    pub attempted: u64,
    pub failed: u64,
    /// Simulated end-to-end figures, exact functions of the seed.
    pub sim: BTreeMap<&'static str, f64>,
    /// Per-layer counts and simulated times the untraced run also
    /// yields, exact functions of the seed.
    pub det: BTreeMap<&'static str, f64>,
    /// Per-layer figures only the traced run yields.
    pub traced: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentiles, for the report.
    pub notes: Vec<String>,
    /// The output checks' verdict.
    pub check: Result<(), String>,
}

impl Default for RunResult {
    fn default() -> RunResult {
        RunResult {
            setup_s: 0.0,
            run_s: 0.0,
            events: 0,
            attempted: 0,
            failed: 0,
            sim: BTreeMap::new(),
            det: BTreeMap::new(),
            traced: BTreeMap::new(),
            notes: Vec::new(),
            check: Err("not run".into()),
        }
    }
}

impl RunResult {
    /// Completed operations.
    pub fn ops(&self) -> f64 {
        self.attempted.saturating_sub(self.failed) as f64
    }
}

/// Simulated end-to-end figures of a measured phase.
pub fn sim_metrics(r: &mut RunResult, done: &[Sample], base: &Snap, end: &Snap) {
    let lat: Vec<u64> = done.iter().map(|s| s.end_us - s.start_us).collect();
    let n = lat.len() as f64;
    let first = done.iter().map(|s| s.start_us).min().unwrap_or(base.at_us);
    let last = done.iter().map(|s| s.end_us).max().unwrap_or(end.at_us);
    let span_s = (last - first) as f64 / 1e6;
    r.sim
        .insert("sim_op_ms_p50", percentile(&lat, 0.5) as f64 / 1e3);
    r.sim
        .insert("sim_op_ms_p99", percentile(&lat, 0.99) as f64 / 1e3);
    r.sim.insert("sim_ops_per_s", n / span_s);
    r.sim.insert(
        "sim_cpu_ms_per_op",
        end.since(base, "cpu_us") as f64 / 1e3 / n,
    );
    r.notes.push(format!(
        "sim_op_ms percentiles over {} ops ({} beyond p99); {:.3} simulated s",
        lat.len(),
        lat.len() - (0.99 * n).ceil() as usize,
        span_s
    ));
}

/// Per-layer counts of a measured phase that the registry yields.
pub fn det_metrics(r: &mut RunResult, base: &Snap, end: &Snap) {
    let ops = r.ops();
    let per_op = |k: &str| end.since(base, k) as f64 / ops;
    let sim_s = (end.at_us - base.at_us) as f64 / 1e6;
    let d = &mut r.det;
    d.insert(
        "simnet.events_per_op",
        (end.events - base.events) as f64 / ops,
    );
    d.insert("simnet.msgs_per_op", per_op("net.sent"));
    d.insert("simnet.sendmsg_ms_per_op", per_op("sendmsg_us") / 1e3);
    d.insert(
        "simnet.lost_per_op",
        (end.since(base, "net.lost")
            + end.since(base, "net.partitioned")
            + end.since(base, "net.undeliverable")) as f64
            / ops,
    );
    let busiest = end
        .host_cpu_us
        .iter()
        .map(|(h, &us)| us - base.host_cpu_us.get(h).copied().unwrap_or(0))
        .max()
        .unwrap_or(0);
    d.insert("simnet.cpu_busy_frac_max", busiest as f64 / 1e6 / sim_s);
    let segments = end.since(base, "segments");
    d.insert("pairedmsg.segments_per_op", segments as f64 / ops);
    d.insert(
        "pairedmsg.useful_frac",
        (end.since(base, "calls_delivered") + end.since(base, "returns_delivered")) as f64
            / segments.max(1) as f64,
    );
    d.insert("pairedmsg.replays_suppressed_per_op", per_op("replays"));
    d.insert(
        "pairedmsg.max_recv_buffered",
        end.c["max_recv_buffered"] as f64,
    );
    d.insert("circus.invocations_per_op", per_op("invocations"));
    d.insert("circus.calls_per_op", per_op("rpc.calls_completed"));
    d.insert(
        "transactions.bcast_dups_per_op",
        (end.since(base, "bcast.dup_proposes")
            + end.since(base, "bcast.dup_accepts")
            + end.since(base, "cm.dups")) as f64
            / ops,
    );
    let recoveries = end.since(base, "wal.recoveries");
    d.insert(
        "transactions.replayed_per_recovery",
        ratio(end.since(base, "wal.replayed"), recoveries),
    );
    d.insert(
        "ringmaster.probes_per_sim_s",
        end.since(base, "ring.probes") as f64 / sim_s,
    );
    d.insert(
        "ringmaster.false_suspicion_frac",
        ratio(
            end.since(base, "ring.false_suspicions"),
            end.since(base, "ring.suspicions"),
        ),
    );
    d.insert(
        "ringmaster.mttr_ms_mean",
        ratio(
            end.since(base, "ring.mttr_us"),
            end.since(base, "ring.mttr_n"),
        ) / 1e3,
    );
    let fetches = end.since(base, "spare.delta_fetches") + end.since(base, "spare.full_fetches");
    d.insert(
        "ringmaster.spare_delta_frac",
        ratio(end.since(base, "spare.delta_fetches"), fetches),
    );
    d.insert(
        "ringmaster.spare_state_bytes",
        ratio(end.since(base, "spare.state_bytes"), fetches),
    );
    d.insert(
        "ringmaster.join_failures",
        end.since(base, "spare.join_failures") as f64,
    );
    let injected = end.since(base, "adv.injected");
    d.insert("adversary.injected_per_sim_s", injected as f64 / sim_s);
    d.insert(
        "adversary.rejected_frac",
        ratio(end.since(base, "adv.rejected"), injected),
    );
    d.insert("obs.spans_per_op", per_op("spans"));
    d.insert("obs.registry_keys", end.c["registry_keys"] as f64);
}

/// Per-commit disk and log figures (`commits` client-confirmed).
pub fn commit_metrics(r: &mut RunResult, base: &Snap, end: &Snap, commits: u64) {
    let per = |k: &str| ratio(end.since(base, k), commits);
    r.det
        .insert("simnet.diskio_ms_per_commit", per("diskio_us") / 1e3);
    r.det.insert("simnet.fsyncs_per_commit", per("fsyncs"));
    r.det
        .insert("simnet.disk_bytes_per_commit", per("disk_bytes"));
    r.det
        .insert("transactions.wal_appends_per_commit", per("wal.appends"));
}

/// Per-layer figures of a traced run: host self time per operation and
/// the counts the trace sink collects.
pub fn traced_metrics(r: &mut RunResult, t: &rig::Tracer, reg: &obs::Registry) {
    let s = t.summary(reg);
    let ops = r.ops();
    let us = |ns: u64| ns as f64 / 1e3 / ops;
    let m = &mut r.traced;
    m.insert("simnet.step_self_us_per_op", us(s.step_self_ns));
    m.insert("circus.node_self_us_per_op", us(s.node_self_ns));
    m.insert("transactions.service_self_us_per_op", us(s.service_self_ns));
    m.insert("client.agent_self_us_per_op", us(s.agent_self_ns));
    m.insert("ringmaster.self_us_per_op", us(s.ringmaster_self_ns));
    m.insert("simnet.timer_fires_per_op", s.timer_fires as f64 / ops);
    m.insert("simnet.bytes_per_op", s.bytes_sent as f64 / ops);
    let ms = |v: &[u64], p: f64| percentile(v, p) as f64 / 1e3;
    m.insert("circus.collation_wait_ms_p50", ms(&s.collation_us, 0.5));
    m.insert("circus.collation_wait_ms_p99", ms(&s.collation_us, 0.99));
    m.insert("circus.call_ms_p50", ms(&s.call_us, 0.5));
    m.insert("circus.assembly_wait_ms_p50", ms(&s.assembly_us, 0.5));
    r.notes.push(format!(
        "collation and call percentiles over {} client calls; assembly over {} troupe-call arrivals",
        s.collation_us.len(),
        s.assembly_us.len()
    ));
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// p50 of the class-`class` samples, ms.
pub fn class_p50_ms(done: &[Sample], class: u8) -> f64 {
    let v: Vec<u64> = done
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.end_us - s.start_us)
        .collect();
    percentile(&v, 0.5) as f64 / 1e3
}

/// Runs one workload once.
pub fn run(w: Workload, seed: u64, traced: bool) -> (RunResult, rig::Rig) {
    match w {
        Workload::Echo => echo::run(&gen::echo(seed), seed, traced),
        Workload::TxnMix => txnmix::run(&gen::txn_mix(seed), seed, traced),
        Workload::Faults => faults::run(&gen::faults(seed), seed, traced),
    }
}

/// Simulated time, µs.
pub fn us(t: Time) -> u64 {
    t.as_micros()
}

/// Wall seconds [`Reference::time`] took on the machine the benchmark's
/// bounds were set on (a 2-vCPU 2.1 GHz Xeon virtual machine).
pub const REFERENCE_S: f64 = 0.080;

/// A fixed loop of integer arithmetic and table lookups that uses no
/// code of the program and allocates nothing: its tables are allocated
/// once, before any workload runs. Its time tracks how fast the machine
/// runs at the moment; host figures are scaled by it to [`REFERENCE_S`],
/// which takes out most of the drift that other tenants of a shared
/// machine cause. The loop runs over a table that fits a core's own
/// cache and over one that spills into the cache the cores share, since
/// the simulator slows with both the core's speed and other tenants'
/// use of the shared cache. Over the small table alone the loop followed
/// only about half of the machine's changes in speed.
pub struct Reference([Vec<u64>; 2]);

impl Default for Reference {
    fn default() -> Reference {
        Reference([vec![0; 1 << 16], vec![0; 1 << 19]])
    }
}

impl Reference {
    /// Slices one timing of a table is split into; the median slice is
    /// kept.
    const SLICES: usize = 5;
    /// Loop steps in one slice.
    const STEPS: u64 = 1_500_000;

    /// Bytes of the tables, resident from start-up on.
    pub fn bytes(&self) -> usize {
        self.0.iter().map(|t| t.len() * std::mem::size_of::<u64>()).sum()
    }

    /// Runs the loop over each table and returns the wall seconds taken.
    pub fn time(&mut self) -> f64 {
        self.0.iter_mut().map(|t| Self::time_table(t)).sum()
    }

    /// The loop over one table: the median slice's time times the number
    /// of slices, so a slice the host preempted does not count.
    fn time_table(table: &mut [u64]) -> f64 {
        let mask = table.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        let mut slices = [0.0; Self::SLICES];
        for slice in &mut slices {
            let sw = Stopwatch::start();
            for i in 0..Self::STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = x as usize & mask;
                table[j] = table[j].wrapping_add(x) ^ i;
                acc = acc.wrapping_add(table[(x >> 32) as usize & mask]);
                if acc & 3 == 0 {
                    acc = acc.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D);
                }
            }
            *slice = sw.secs();
        }
        std::hint::black_box(acc);
        slices.sort_by(f64::total_cmp);
        slices[Self::SLICES / 2] * Self::SLICES as f64
    }
}

/// Times host work by wall time.
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Stopwatch {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
