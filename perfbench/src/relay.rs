//! `relay-jit` and `relay-partitioned`: independent `Sync;Fifo1;Sync`
//! lanes of `reo_connectors::relay_family()`, one async sender and one
//! async receiver per lane, all on a 2-thread `reo_exec::Executor`.
//!
//! A job is one session: open the connector, move `per_lane` values down
//! every lane, close it. Each lane's values start at a seed-drawn base and
//! must arrive in order, exactly once.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reo_exec::Executor;
use reo_runtime::{Inport, Mode, Outport};

use crate::layers::Layers;
use crate::poll::{spawn, Polls};
use crate::report::{Outcome, Rng};
use crate::samples::Samples;
use crate::setup::{open, Shape};
use crate::trace::Tracer;
use crate::{Measured, Workload};

/// How long a session may run before it is closed and its unfinished
/// operations count as failed.
const SESSION_DEADLINE: Duration = Duration::from_secs(5);

/// How long tasks get to finish once a late session is closed.
const CLOSE_GRACE: Duration = Duration::from_secs(2);

/// Executor threads: the host budget of the benchmark.
const THREADS: usize = 2;

pub struct Relay {
    n: usize,
    mode: Mode,
    per_lane: usize,
    rng: Rng,
    exec: Executor,
    sessions: u64,
    /// Test hook: lane 0's receiver loses track of one value.
    pub skip_value: bool,
}

#[derive(Default)]
struct TaskResult {
    send: bool,
    done: u64,
    failed: u64,
    error: Option<String>,
    latency: Samples,
    polled: u64,
    parked: u64,
    first: Option<Duration>,
}

type Task = Pin<Box<dyn Future<Output = ()> + Send>>;

impl Relay {
    pub fn new(n: usize, mode: Mode, per_lane: usize, seed: u64) -> Self {
        let exec = Executor::new(THREADS);
        crate::affinity::pin_workers(&exec, 0);
        Relay {
            n,
            mode,
            per_lane,
            rng: Rng::new(seed),
            exec,
            sessions: 0,
            skip_value: false,
        }
    }

    /// Six lanes in one JIT engine: every expanded state fans out over
    /// the independent lanes. Every session starts with a cold cache.
    /// Sessions are long enough that few are opened per second: the
    /// runtime keeps about 0.7 MiB of each closed session of this shape.
    pub fn jit(seed: u64) -> Self {
        Relay::new(6, Mode::jit(), 2000, seed)
    }

    /// Sixteen lanes, partitioned into 32 one-state regions and 16 links.
    pub fn partitioned(seed: u64) -> Self {
        Relay::new(16, Mode::partitioned(), 600, seed)
    }

    fn session(
        &mut self,
        tracer: &Tracer,
        m: &mut Measured,
        layers: &mut Layers,
        out: &mut Outcome,
    ) {
        let family = reo_connectors::relay_family();
        let sizes = (family.sizes)(self.n);
        let shape = Shape {
            source: family.source,
            def: family.def,
            mode: self.mode,
            sizes: &sizes,
            reconfigurable: false,
        };
        let group = self.sessions;
        self.sessions += 1;
        let planned = (2 * self.n * self.per_lane) as u64;
        out.attempted += planned;
        let t0 = Instant::now();
        let opened = match open(tracer, group, &shape, |s| {
            Ok((s.typed_outports::<i64>("t")?, s.typed_inports::<i64>("hd")?))
        }) {
            Ok(o) => o,
            Err(e) => return out.fail(planned, format!("relay session: {e}")),
        };
        let handle = opened.session.handle();
        let (txs, rxs) = opened.ports;
        let traced = tracer.enabled();
        let polls = Arc::new(AtomicU64::new(0));
        let (done_tx, done_rx) = mpsc::channel::<TaskResult>();
        let mut tasks: Vec<Task> = Vec::with_capacity(2 * self.n);
        for (lane, (tx, rx)) in txs.into_iter().zip(rxs).enumerate() {
            let base = (self.rng.next_u64() >> 2) as i64;
            let count = self.per_lane;
            let d = done_tx.clone();
            tasks.push(Box::pin(async move {
                let _ = d.send(sender(tx, base, count, traced).await);
            }));
            let d = done_tx.clone();
            let skip = self.skip_value && lane == 0;
            tasks.push(Box::pin(async move {
                let _ = d.send(receiver(rx, base, count, traced, skip).await);
            }));
        }
        drop(done_tx);
        self.rng.shuffle(&mut tasks);
        let spawned = tasks.len();
        let start = Instant::now();
        for t in tasks {
            spawn(&self.exec, traced.then(|| Arc::clone(&polls)), t);
        }

        let mut results = Vec::with_capacity(spawned);
        let deadline = start + SESSION_DEADLINE;
        while results.len() < spawned {
            let left = deadline.saturating_duration_since(Instant::now());
            match done_rx.recv_timeout(left) {
                Ok(r) => results.push(r),
                Err(_) => break,
            }
        }
        if results.len() < spawned {
            out.fail(
                0,
                format!("relay session {group}: deadline passed, closing"),
            );
            handle.close();
            while let Ok(r) = done_rx.recv_timeout(CLOSE_GRACE) {
                results.push(r);
            }
        }
        let busy = start.elapsed();
        let stats = handle.stats();
        let cache = handle.cache_stats();
        let regions = handle.region_count();
        let links = handle.link_count();
        handle.close();
        drop(opened.session);
        let job = t0.elapsed();

        let missing = spawned - results.len();
        if missing > 0 {
            out.fail(
                (missing * self.per_lane) as u64,
                format!("relay session {group}: {missing} tasks never finished"),
            );
        }
        let (mut send, mut recv) = (Samples::default(), Samples::default());
        let mut ops = 0;
        for r in &results {
            if r.send { &mut send } else { &mut recv }.merge(&r.latency);
            ops += r.done;
        }
        let mut latency = send.clone();
        latency.merge(&recv);
        m.add_job(opened.setup, job, ops, busy, &latency);
        for r in results {
            if r.failed > 0 {
                out.fail(r.failed, r.error.unwrap_or_default());
            }
            if traced {
                layers.polled_ops += r.polled;
                layers.parked_ops += r.parked;
                layers.exec_ops += r.done;
                if let Some(f) = r.first {
                    layers.first_ops.push(f.as_secs_f64());
                }
            }
        }
        if traced {
            layers.add_port(&send, &recv);
            layers.add_engine(&stats);
            layers.add_cache(cache);
            layers.regions = regions as f64;
            layers.links = links as f64;
            layers.exec_tasks += spawned as u64;
            layers.exec_polls += polls.load(Ordering::Relaxed);
        }
    }
}

async fn sender(tx: Outport<i64>, base: i64, count: usize, traced: bool) -> TaskResult {
    let mut r = TaskResult {
        send: true,
        ..TaskResult::default()
    };
    for k in 0..count {
        let v = base.wrapping_add(k as i64);
        let t = Instant::now();
        let res = if traced {
            let (res, polls) = Polls::new(tx.send_async(v)).await;
            r.polled += 1;
            r.parked += u64::from(polls > 1);
            res
        } else {
            tx.send_async(v).await
        };
        let took = t.elapsed();
        if let Err(e) = res {
            r.failed += (count - k) as u64;
            r.error = Some(format!("send: {e}"));
            break;
        }
        r.latency.record(took);
        r.done += 1;
        if k == 0 && traced {
            r.first = Some(took);
        }
    }
    r
}

async fn receiver(
    rx: Inport<i64>,
    base: i64,
    count: usize,
    traced: bool,
    skip: bool,
) -> TaskResult {
    let mut r = TaskResult::default();
    let mut expect = base;
    for k in 0..count {
        let t = Instant::now();
        let res = if traced {
            let (res, polls) = Polls::new(rx.recv_async()).await;
            r.polled += 1;
            r.parked += u64::from(polls > 1);
            res
        } else {
            rx.recv_async().await
        };
        let took = t.elapsed();
        match res {
            Err(e) => {
                r.failed += (count - k) as u64;
                r.error = Some(format!("recv: {e}"));
                break;
            }
            Ok(_) if skip && k == 1 => {
                // The injected fault: this value is received and dropped
                // without being checked off.
                r.latency.record(took);
                r.done += 1;
            }
            Ok(v) if v != expect => {
                r.failed += 1;
                if r.error.is_none() {
                    r.error = Some(format!("recv {k}: got {v}, expected {expect}"));
                }
                expect = v.wrapping_add(1);
            }
            Ok(_) => {
                r.latency.record(took);
                r.done += 1;
                expect = expect.wrapping_add(1);
            }
        }
    }
    r
}

impl Workload for Relay {
    fn run(
        &mut self,
        tracer: &Tracer,
        until: Instant,
        m: &mut Measured,
        layers: &mut Layers,
        out: &mut Outcome,
    ) {
        loop {
            self.session(tracer, m, layers, out);
            if Instant::now() >= until {
                break;
            }
        }
    }

    fn probe(&mut self, layers: &mut Layers, m: &Measured, _out: &mut Outcome) {
        // One JIT engine runs all lanes in relay-jit; in the partitioned
        // mode every region pair is one lane, so step a single lane there.
        let lanes = if self.mode == Mode::jit() { self.n } else { 1 };
        let family = reo_connectors::relay_family();
        crate::stepping_probe(family.source, family.def, &(family.sizes)(lanes), layers, m);
    }
}
