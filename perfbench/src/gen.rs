//! Workload inputs, generated from the seed alone.
//!
//! Each generator is a pure function of the workload seed: scripts, key
//! skew, payload mix, open-loop due times and the fault schedule. The
//! simulation receives only these inputs (plus the seed of its own
//! network model), so a seed names one run exactly.

use simnet::{Duration, SimRng};
use transactions::{CmOp, ObjId, Op};

/// A generator stream for one purpose, separated from the others so
/// adding draws to one input leaves the rest unchanged.
fn stream(seed: u64, domain: u64) -> SimRng {
    SimRng::new(seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform draw in `[lo, hi]`.
fn between(r: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + r.below(hi - lo + 1)
}

/// One echo call: `len` bytes counting up from `fill`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EchoCall {
    pub len: u32,
    pub fill: u8,
}

impl EchoCall {
    /// The call's argument bytes.
    pub fn payload(self) -> Vec<u8> {
        (0..self.len)
            .map(|i| self.fill.wrapping_add(i as u8))
            .collect()
    }
}

/// Inputs of `echo`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EchoInputs {
    /// One script per single-node client.
    pub single: Vec<Vec<EchoCall>>,
    /// The script every member of the client troupe runs.
    pub troupe: Vec<EchoCall>,
}

/// Single-node echo clients.
pub const ECHO_CLIENTS: usize = 3;
/// Calls each echo client makes, warm-up first.
pub const ECHO_CALLS: usize = 1500;
/// Unmeasured warm-up calls at the head of each echo script.
pub const ECHO_WARMUP: usize = 10;
/// The small (one segment) and large (multi-segment) echo payloads.
pub const ECHO_SMALL: u32 = 64;
pub const ECHO_LARGE: u32 = 8 * 1024;

/// Generates the `echo` scripts: about three calls in four carry
/// [`ECHO_SMALL`] bytes, the rest [`ECHO_LARGE`].
pub fn echo(seed: u64) -> EchoInputs {
    let mut r = stream(seed, 0xEC40);
    let script = |r: &mut SimRng| -> Vec<EchoCall> {
        (0..ECHO_CALLS)
            .map(|_| EchoCall {
                len: if r.chance(0.25) {
                    ECHO_LARGE
                } else {
                    ECHO_SMALL
                },
                fill: r.below(256) as u8,
            })
            .collect()
    };
    let single = (0..ECHO_CLIENTS).map(|_| script(&mut r)).collect();
    let troupe = script(&mut r);
    EchoInputs { single, troupe }
}

/// Objects written in `txn-mix` and `faults` are `1..=OBJECTS`; objects
/// `OBJECTS + 1..=2 * OBJECTS` are only read.
///
/// The read set is kept apart from the written one because the store's
/// lock manager records one waits-for edge per lock wait: a shared
/// holder beside the recorded blocker, or a waiter queued ahead, is left
/// out of the graph, so a deadlock through it goes undetected and every
/// member stalls on it for good. With shared readers on the written
/// objects `txn-mix` stalls that way on most seeds; the traced run
/// measures it as `transactions.stalled_ops_overlapping_reads`.
pub const OBJECTS: u64 = 16;

/// Draws an object with Zipf(1) skew over [`OBJECTS`]: object 1 is the
/// hottest.
fn zipf(r: &mut SimRng) -> ObjId {
    let h: f64 = (1..=OBJECTS).map(|k| 1.0 / k as f64).sum();
    let mut u = (r.below(1 << 30) as f64 / (1u64 << 30) as f64) * h;
    for k in 1..=OBJECTS {
        u -= 1.0 / k as f64;
        if u <= 0.0 {
            return ObjId(k);
        }
    }
    ObjId(OBJECTS)
}

/// `n` distinct objects drawn uniformly from `base + 1..=base + OBJECTS`.
fn distinct(r: &mut SimRng, n: usize, base: u64) -> Vec<ObjId> {
    let mut v: Vec<ObjId> = Vec::with_capacity(n);
    while v.len() < n {
        let o = ObjId(base + 1 + r.below(OBJECTS));
        if !v.contains(&o) {
            v.push(o);
        }
    }
    v
}

/// Inputs of `txn-mix`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnMixInputs {
    /// Read-only transactions, one script per reader.
    pub readers: Vec<Vec<Vec<Op>>>,
    /// Read-modify-write transactions, one script per writer.
    pub writers: Vec<Vec<Vec<Op>>>,
    /// Ordered broadcast payloads, one script per broadcaster.
    pub broadcasts: Vec<Vec<Vec<u8>>>,
    /// Commutative request batches, one script per client.
    pub commutes: Vec<Vec<Vec<CmOp>>>,
}

/// Operations in each `txn-mix` client's script.
pub const TXN_OPS: usize = 1500;

/// Generates the `txn-mix` scripts.
pub fn txn_mix(seed: u64) -> TxnMixInputs {
    let mut r = stream(seed, 0x7A11);
    let readers = (0..2)
        .map(|_| {
            (0..TXN_OPS)
                .map(|_| {
                    let n = between(&mut r, 2, 4) as usize;
                    distinct(&mut r, n, OBJECTS)
                        .into_iter()
                        .map(Op::Read)
                        .collect()
                })
                .collect()
        })
        .collect();
    let writers = (0..2)
        .map(|_| {
            (0..TXN_OPS)
                .map(|_| {
                    // `Add` reads, modifies and writes its object under
                    // one exclusive lock.
                    let a = zipf(&mut r);
                    let mut t = vec![Op::Add(a, between(&mut r, 1, 9) as i64)];
                    if r.chance(0.5) {
                        let b = zipf(&mut r);
                        if b != a {
                            t.push(Op::Add(b, -(between(&mut r, 1, 9) as i64)));
                        }
                    }
                    t
                })
                .collect()
        })
        .collect();
    let broadcasts = vec![(0..TXN_OPS)
        .map(|_| {
            let len = between(&mut r, 16, 96) as usize;
            (0..len).map(|_| r.below(256) as u8).collect()
        })
        .collect()];
    let commutes = vec![(0..TXN_OPS)
        .map(|_| {
            (0..between(&mut r, 1, 3))
                .map(|_| {
                    if r.chance(0.7) {
                        CmOp::Incr(ObjId(1 + r.below(OBJECTS)), between(&mut r, 1, 9) as i64)
                    } else {
                        CmOp::Insert(r.below(1 << 20))
                    }
                })
                .collect()
        })
        .collect()];
    TxnMixInputs {
        readers,
        writers,
        broadcasts,
        commutes,
    }
}

/// `inputs` with every read moved onto the written objects (see
/// [`OBJECTS`]).
pub fn overlapping_reads(mut inputs: TxnMixInputs) -> TxnMixInputs {
    for op in inputs.readers.iter_mut().flatten().flatten() {
        if let Op::Read(o) = op {
            *o = ObjId(o.0 - OBJECTS);
        }
    }
    inputs
}

/// One open-loop operation of `faults`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultOp {
    /// A read-only store transaction.
    Read(Vec<ObjId>),
    /// A store transaction adding deltas.
    Write(Vec<(ObjId, i64)>),
    /// A commutative request.
    Commute(Vec<CmOp>),
}

/// One step of the fault schedule, at a time from the start of the
/// measured phase.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Crash the host of store member `victim % members`. With
    /// `restart_after`, the host comes back on the same disk and its
    /// members rejoin by log replay and delta; without, the host stays
    /// down and a warm spare on a fresh host replaces it.
    Crash {
        victim: usize,
        restart_after: Option<Duration>,
    },
    /// Isolate the host of member `victim % members` for `heal_after`.
    Partition { victim: usize, heal_after: Duration },
    /// Lose and duplicate datagrams for `duration`.
    LossBurst {
        loss: f64,
        duplicate: f64,
        duration: Duration,
    },
}

/// Inputs of `faults`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultsInputs {
    /// Per worker: `(due µs, op)` in due order.
    pub ops: Vec<Vec<(u64, FaultOp)>>,
    /// `(µs, fault)` in time order.
    pub faults: Vec<(u64, Fault)>,
    /// Length of the schedule, µs.
    pub length_us: u64,
}

/// Open-loop workers in `faults`; operations are dealt to them in turn.
pub const FAULT_WORKERS: usize = 4;
/// Offered load of `faults`, operations per simulated second.
pub const FAULT_RATE: f64 = 2.0;
/// Crashes per `faults` run, one per period.
pub const CRASHES: u64 = 40;
/// Simulated length of one crash period, µs.
pub const PERIOD_US: u64 = 90_000_000;

/// Generates the `faults` schedule: Poisson arrivals at [`FAULT_RATE`]
/// split 3:4:3 between reads, writes and commutative requests, and per
/// period one crash (restart or permanent), one short partition and one
/// loss burst.
pub fn faults(seed: u64) -> FaultsInputs {
    let length_us = CRASHES * PERIOD_US;
    let mut r = stream(seed, 0xFA17);
    let mut ops = vec![Vec::new(); FAULT_WORKERS];
    let mean = Duration::from_micros((1e6 / FAULT_RATE) as u64);
    let mut t = 0u64;
    let mut i = 0usize;
    loop {
        t += r.exponential(mean).as_micros();
        if t >= length_us {
            break;
        }
        let op = match r.below(10) {
            0..=2 => {
                let n = between(&mut r, 1, 3) as usize;
                FaultOp::Read(distinct(&mut r, n, OBJECTS))
            }
            3..=6 => {
                let n = between(&mut r, 1, 2) as usize;
                FaultOp::Write(
                    distinct(&mut r, n, 0)
                        .into_iter()
                        .map(|o| (o, between(&mut r, 1, 9) as i64))
                        .collect(),
                )
            }
            _ => FaultOp::Commute(vec![if r.chance(0.7) {
                CmOp::Incr(ObjId(1 + r.below(OBJECTS)), between(&mut r, 1, 9) as i64)
            } else {
                CmOp::Insert(r.below(1 << 20))
            }]),
        };
        ops[i % FAULT_WORKERS].push((t, op));
        i += 1;
    }
    let mut faults = Vec::new();
    // Half the crashes restart on the same disk, half are permanent, in
    // a seeded order.
    let mut restarts: Vec<bool> = (0..CRASHES).map(|k| k % 2 == 0).collect();
    for k in (1..restarts.len()).rev() {
        restarts.swap(k, r.below(k as u64 + 1) as usize);
    }
    for (k, &restart) in restarts.iter().enumerate() {
        let base = k as u64 * PERIOD_US;
        let crash = base + between(&mut r, 1_000_000, 3_000_000);
        let restart_after =
            restart.then(|| Duration::from_micros(between(&mut r, 1_000_000, 4_000_000)));
        faults.push((
            crash,
            Fault::Crash {
                victim: r.below(3) as usize,
                restart_after,
            },
        ));
        faults.push((
            base + between(&mut r, 60_000_000, 65_000_000),
            Fault::Partition {
                victim: r.below(3) as usize,
                heal_after: Duration::from_micros(between(&mut r, 200_000, 800_000)),
            },
        ));
        faults.push((
            base + between(&mut r, 72_000_000, 77_000_000),
            Fault::LossBurst {
                loss: 0.05,
                duplicate: 0.02,
                duration: Duration::from_micros(between(&mut r, 1_000_000, 2_000_000)),
            },
        ));
    }
    FaultsInputs {
        ops,
        faults,
        length_us,
    }
}
