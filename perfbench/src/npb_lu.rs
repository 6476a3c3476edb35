//! `npb-lu`: repeated LU SSOR solves (`LuClass::S` sizes) over
//! `ReoComm::new(2, Mode::jit())`, one fresh connector per solve.
//!
//! Every solve goes through [`BenchComm`], a wrapper implementing the
//! public `reo_npb::Comm` trait that times each call. Each solve runs
//! under a panic guard and a deadline, and its result must match
//! `lu::run_sequential`: the centre value bit for bit, the residual to a
//! relative 1e-12.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reo_automata::Value;
use reo_npb::comm::NPB_COMM_SOURCE;
use reo_npb::lu::{run_parallel, run_sequential, LuResult};
use reo_npb::{Comm, HandWritten, LuClass, ReoComm};
use reo_runtime::Mode;

use crate::layers::Layers;
use crate::report::{median, Outcome, Rng};
use crate::samples::Samples;
use crate::setup::{open, Shape};
use crate::trace::Tracer;
use crate::{Measured, Workload};

const SLAVES: usize = 2;
const SOLVE_DEADLINE: Duration = Duration::from_secs(5);
/// `HandWritten` solves in the traced floor probe.
const FLOOR_SOLVES: usize = 20;
const NPB_SIZES: [(&str, usize); 6] = [
    ("v", SLAVES),
    ("w", SLAVES),
    ("fwd", SLAVES),
    ("bwd", SLAVES),
    ("fin", SLAVES),
    ("bin", SLAVES),
];

/// A fault injected into [`BenchComm`] for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    None,
    /// The first gather of each solve loses one value.
    DropGathered,
}

#[derive(Clone, Copy)]
enum Kind {
    /// A send: `bcast`, `send_master`, `send_next`, `send_prev`.
    Send,
    Gather,
    RecvBcast,
    Pipeline,
}

/// Counters of one thread of one solve.
#[derive(Default)]
struct Slot {
    latency: Samples,
    send: Samples,
    recv: Samples,
    calls: u64,
    gather_wait: Duration,
    bcast_wait: Duration,
    pipeline_wait: Duration,
    send_time: Duration,
    first_start: Option<Instant>,
    last_end: Option<Instant>,
    first_call: Option<Duration>,
}

/// A `Comm` that times every call of the wrapped backend. Slot 0 belongs
/// to the master thread, slot `id + 1` to slave `id`, so no lock is ever
/// contended.
pub struct BenchComm {
    inner: Arc<dyn Comm>,
    fault: Fault,
    dropped: AtomicBool,
    slots: Vec<Mutex<Slot>>,
}

impl BenchComm {
    pub fn new(inner: Arc<dyn Comm>, fault: Fault) -> Self {
        let slots = (0..=inner.slaves()).map(|_| Mutex::default()).collect();
        BenchComm {
            inner,
            fault,
            dropped: AtomicBool::new(false),
            slots,
        }
    }

    fn timed<T>(&self, slot: usize, kind: Kind, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let took = end - start;
        let mut s = self.slots[slot].lock().expect("comm slot poisoned");
        if slot > 0 && s.first_start.is_none() {
            pin_slave(slot - 1);
        }
        s.latency.record(took);
        s.calls += 1;
        match kind {
            Kind::Send => {
                s.send.record(took);
                s.send_time += took;
            }
            Kind::Gather => {
                s.recv.record(took);
                s.gather_wait += took;
            }
            Kind::RecvBcast => {
                s.recv.record(took);
                s.bcast_wait += took;
            }
            Kind::Pipeline => {
                s.recv.record(took);
                s.pipeline_wait += took;
            }
        }
        if s.first_start.is_none() {
            s.first_start = Some(start);
            s.first_call = Some(took);
        }
        s.last_end = Some(end);
        out
    }
}

impl Comm for BenchComm {
    fn slaves(&self) -> usize {
        self.inner.slaves()
    }

    fn bcast(&self, v: Value) {
        self.timed(0, Kind::Send, || self.inner.bcast(v))
    }

    fn gather(&self) -> Vec<Value> {
        let mut got = self.timed(0, Kind::Gather, || self.inner.gather());
        if self.fault == Fault::DropGathered && !self.dropped.swap(true, Ordering::SeqCst) {
            got.pop();
        }
        got
    }

    fn recv_bcast(&self, id: usize) -> Value {
        self.timed(id + 1, Kind::RecvBcast, || self.inner.recv_bcast(id))
    }

    fn send_master(&self, id: usize, payload: Value) {
        self.timed(id + 1, Kind::Send, || self.inner.send_master(id, payload))
    }

    fn send_next(&self, id: usize, v: Value) {
        self.timed(id + 1, Kind::Send, || self.inner.send_next(id, v))
    }

    fn recv_prev(&self, id: usize) -> Value {
        self.timed(id + 1, Kind::Pipeline, || self.inner.recv_prev(id))
    }

    fn send_prev(&self, id: usize, v: Value) {
        self.timed(id + 1, Kind::Send, || self.inner.send_prev(id, v))
    }

    fn recv_next(&self, id: usize) -> Value {
        self.timed(id + 1, Kind::Pipeline, || self.inner.recv_next(id))
    }

    fn close(&self) {
        self.inner.close()
    }

    fn steps(&self) -> u64 {
        self.inner.steps()
    }
}

/// Pin the calling slave thread to its own allowed CPU. `run_parallel`
/// spawns fresh slaves for every solve; left to the scheduler, the two
/// slaves often share one CPU, and the solve runs at a different speed
/// in each placement. The master, parked while the slaves compute, stays
/// unpinned. Does nothing when the host has too few CPUs.
fn pin_slave(id: usize) {
    let cpus = crate::affinity::allowed_cpus();
    if cpus.len() >= SLAVES {
        crate::affinity::pin_current(cpus[id % SLAVES]);
    }
}

/// Closes the armed solve's comm once its deadline passes, so a hung
/// solve ends in a failed gather instead of a hang.
struct Deadline {
    state: Arc<(Mutex<DeadlineState>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

#[derive(Default)]
struct DeadlineState {
    armed: Option<(Instant, Arc<dyn Comm>)>,
    expired: bool,
    shutdown: bool,
}

impl Deadline {
    fn new() -> Self {
        let state: Arc<(Mutex<DeadlineState>, Condvar)> = Arc::default();
        let st = Arc::clone(&state);
        let thread = std::thread::Builder::new()
            .name("npb-deadline".into())
            .spawn(move || {
                let (lock, cv) = &*st;
                let mut s = lock.lock().expect("deadline lock poisoned");
                while !s.shutdown {
                    match &s.armed {
                        Some((at, comm)) if Instant::now() >= *at => {
                            comm.close();
                            s.armed = None;
                            s.expired = true;
                        }
                        Some((at, _)) => {
                            let wait = at.saturating_duration_since(Instant::now());
                            s = cv.wait_timeout(s, wait).expect("deadline lock poisoned").0;
                        }
                        None => s = cv.wait(s).expect("deadline lock poisoned"),
                    }
                }
            })
            .expect("spawn the deadline thread");
        Deadline {
            state,
            thread: Some(thread),
        }
    }

    fn arm(&self, comm: Arc<dyn Comm>) {
        let (lock, cv) = &*self.state;
        let mut s = lock.lock().expect("deadline lock poisoned");
        s.armed = Some((Instant::now() + SOLVE_DEADLINE, comm));
        s.expired = false;
        cv.notify_one();
    }

    /// Disarm; true if the deadline fired first.
    fn disarm(&self) -> bool {
        let (lock, _) = &*self.state;
        let mut s = lock.lock().expect("deadline lock poisoned");
        s.armed = None;
        s.expired
    }
}

impl Drop for Deadline {
    fn drop(&mut self) {
        let (lock, cv) = &*self.state;
        if let Ok(mut s) = lock.lock() {
            s.shutdown = true;
            cv.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

pub struct NpbLu {
    /// Seed-drawn relaxation factors over `LuClass::S` sizes, each with
    /// its sequential reference.
    classes: Vec<(LuClass, LuResult)>,
    rng: Rng,
    fault: Fault,
    deadline: Deadline,
    solves: u64,
    /// Traced per-solve sums, turned into means by `probe`.
    traced_solves: u64,
    compute: f64,
    gather_wait: f64,
    bcast_wait: f64,
    pipeline_wait: f64,
    send_time: f64,
    calls: f64,
}

/// Whether `got` matches the sequential reference.
fn verify(got: &LuResult, want: &LuResult) -> Result<(), String> {
    if got.center.to_bits() != want.center.to_bits() {
        return Err(format!(
            "centre {} != reference {}",
            got.center, want.center
        ));
    }
    let scale = got.residual.abs().max(want.residual.abs()).max(1e-300);
    // Written so that a NaN residual fails the check.
    let close = (got.residual - want.residual).abs() <= 1e-12 * scale;
    if !close {
        return Err(format!(
            "residual {} != reference {}",
            got.residual, want.residual
        ));
    }
    Ok(())
}

impl NpbLu {
    pub fn new(seed: u64, fault: Fault) -> Self {
        let mut rng = Rng::new(seed);
        let classes = (0..4)
            .map(|_| {
                let class = LuClass {
                    omega: 1.1 + 0.2 * rng.below(1001) as f64 / 1000.0,
                    ..LuClass::S
                };
                (class, run_sequential(&class))
            })
            .collect();
        NpbLu {
            classes,
            rng,
            fault,
            deadline: Deadline::new(),
            solves: 0,
            traced_solves: 0,
            compute: 0.0,
            gather_wait: 0.0,
            bcast_wait: 0.0,
            pipeline_wait: 0.0,
            send_time: 0.0,
            calls: 0.0,
        }
    }

    /// A seed-drawn class and its sequential reference.
    fn pick(&mut self) -> (LuClass, LuResult) {
        let (class, want) = &self.classes[self.rng.below(self.classes.len() as u64) as usize];
        (
            *class,
            LuResult {
                residual: want.residual,
                center: want.center,
            },
        )
    }

    /// One guarded, verified solve over `comm`; returns its wall time.
    fn guarded(
        &self,
        class: &LuClass,
        want: &LuResult,
        comm: Arc<dyn Comm>,
        bench: Arc<dyn Comm>,
    ) -> (Duration, Result<(), String>) {
        self.deadline.arm(comm);
        let start = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| run_parallel(class, Arc::clone(&bench))));
        let took = start.elapsed();
        let expired = self.deadline.disarm();
        // Unblocks slaves left behind by a failed solve; a no-op otherwise.
        bench.close();
        let verdict = match res {
            _ if expired => Err("solve missed its deadline".to_string()),
            Err(p) => Err(format!(
                "solve panicked: {}",
                p.downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            )),
            Ok(got) => verify(&got, want),
        };
        (took, verdict)
    }

    fn solve(&mut self, tracer: &Tracer, m: &mut Measured, layers: &mut Layers, out: &mut Outcome) {
        let (class, want) = self.pick();
        let group = self.solves;
        self.solves += 1;
        out.attempted += 1;
        let traced = tracer.enabled();
        if traced {
            // The layer split of the same set-up `ReoComm::new` performs.
            let shape = Shape {
                source: NPB_COMM_SOURCE,
                def: "NpbComm",
                mode: Mode::jit(),
                sizes: &NPB_SIZES,
                reconfigurable: false,
            };
            let split = open(tracer, group, &shape, |s| {
                Ok((
                    s.outport("m")?,
                    s.inport("res")?,
                    [s.inports("w")?, s.inports("fin")?, s.inports("bin")?],
                    [s.outports("v")?, s.outports("fwd")?, s.outports("bwd")?],
                ))
            });
            if let Err(e) = split {
                out.fail(1, format!("npb set-up split: {e}"));
                return;
            }
        }

        let t0 = Instant::now();
        let span = tracer.begin("npb.solve", None, group);
        let comm = match tracer.scope("npb.comm_new", crate::trace::id_of(&span), group, || {
            ReoComm::new(SLAVES, Mode::jit())
        }) {
            Ok(c) => c,
            Err(e) => return out.fail(1, format!("ReoComm::new: {e}")),
        };
        let setup = t0.elapsed();
        let handle = comm.handle().clone();
        let bench = Arc::new(BenchComm::new(comm.clone(), self.fault));
        let (busy, verdict) = self.guarded(&class, &want, comm, bench.clone());
        tracer.end(span);
        let job = t0.elapsed();
        if let Err(e) = verdict {
            out.fail(1, format!("solve {group}: {e}"));
        }

        let mut compute = 0.0;
        let mut latency = Samples::default();
        let (mut send, mut recv) = (Samples::default(), Samples::default());
        let mut calls = 0;
        for (i, slot) in bench.slots.iter().enumerate() {
            let s = slot.lock().expect("comm slot poisoned");
            calls += s.calls;
            latency.merge(&s.latency);
            if !traced {
                continue;
            }
            send.merge(&s.send);
            recv.merge(&s.recv);
            self.calls += s.calls as f64;
            self.gather_wait += s.gather_wait.as_secs_f64();
            self.bcast_wait += s.bcast_wait.as_secs_f64();
            self.pipeline_wait += s.pipeline_wait.as_secs_f64();
            self.send_time += s.send_time.as_secs_f64();
            if i == 0 {
                if let Some(f) = s.first_call {
                    layers.first_ops.push(f.as_secs_f64());
                }
            } else if let (Some(a), Some(b)) = (s.first_start, s.last_end) {
                let waits = s.bcast_wait + s.pipeline_wait + s.send_time;
                compute += (b - a).saturating_sub(waits).as_secs_f64();
            }
        }
        m.add_job(setup, job, calls, busy, &latency);
        if traced {
            layers.add_port(&send, &recv);
            self.compute += compute / SLAVES as f64;
            self.traced_solves += 1;
            layers.add_engine(&handle.stats());
            layers.add_cache(handle.cache_stats());
            layers.regions = handle.region_count() as f64;
            layers.links = handle.link_count() as f64;
        }
    }
}

impl Workload for NpbLu {
    fn run(
        &mut self,
        tracer: &Tracer,
        until: Instant,
        m: &mut Measured,
        layers: &mut Layers,
        out: &mut Outcome,
    ) {
        loop {
            self.solve(tracer, m, layers, out);
            if Instant::now() >= until {
                break;
            }
        }
    }

    fn probe(&mut self, layers: &mut Layers, m: &Measured, out: &mut Outcome) {
        let n = self.traced_solves.max(1) as f64;
        layers.compute_s = self.compute / n;
        layers.gather_wait_s = self.gather_wait / n;
        layers.bcast_wait_s = self.bcast_wait / n;
        layers.pipeline_wait_s = self.pipeline_wait / n;
        layers.send_s = self.send_time / n;
        layers.comm_calls = self.calls / n;

        // The floor: the same solves over hand-written channels.
        let mut floor = Vec::with_capacity(FLOOR_SOLVES);
        for _ in 0..FLOOR_SOLVES {
            let (class, want) = self.pick();
            out.attempted += 1;
            let comm: Arc<dyn Comm> = HandWritten::new(SLAVES);
            // Through the same wrapper as the connector solves, so the
            // slaves are placed alike and pay the same timing cost.
            let bench = Arc::new(BenchComm::new(comm.clone(), Fault::None));
            let (took, verdict) = self.guarded(&class, &want, comm, bench);
            floor.push(took.as_secs_f64());
            if let Err(e) = verdict {
                out.fail(1, format!("hand-written solve: {e}"));
            }
        }
        layers.handwritten_solve_s = median(&floor);
        crate::stepping_probe(NPB_COMM_SOURCE, "NpbComm", &NPB_SIZES, layers, m);
    }
}
