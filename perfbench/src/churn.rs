//! `merger-churn`: a reconfigurable `Fifo1`-per-branch `Merger` session
//! under `Mode::partitioned()`. Four producers and a sink run as futures
//! on a 1-thread executor while the calling thread loops attach → one
//! send → detach.
//!
//! A job is one session with fixed work: each producer sends
//! `PER_PRODUCER` values while the calling thread runs `CYCLES` splice
//! cycles. Every value must reach the sink exactly once, each producer's
//! stream in order, and the epoch must count two splices per cycle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reo_exec::Executor;
use reo_runtime::{ConnectorHandle, Inport, Mode, Outport};

use crate::layers::Layers;
use crate::poll::{spawn, Polls};
use crate::report::{Outcome, Rng};
use crate::samples::Samples;
use crate::setup::{open, Shape};
use crate::trace::{id_of, Tracer};
use crate::{Measured, Workload};

/// The churn connector: one `Fifo1` per producer branch into a variadic
/// `Merger` (the shape of the `scale` harness's churn family).
pub const CHURN_SRC: &str =
    "M(src[];c) = prod (i:1..#src) Fifo1(src[i];m[i]) mult Merger(m[1..#src];c)";
const PRODUCERS: usize = 4;
/// Splice cycles per session.
const CYCLES: usize = 40;
/// Values each producer sends per session.
const PER_PRODUCER: u64 = 1000;
/// How long a session may run before it is closed and its unfinished
/// operations count as failed.
const SESSION_DEADLINE: Duration = Duration::from_secs(5);
/// How long tasks get to finish once a late session is closed.
const CLOSE_GRACE: Duration = Duration::from_secs(2);
/// Values carry their origin in the bits above `TAG_SHIFT`: producer `p`
/// uses tag `p`, the churned branches tag `CHURN_TAG`.
const TAG_SHIFT: u32 = 40;
const CHURN_TAG: i64 = 15;

pub struct Churn {
    rng: Rng,
    exec: Executor,
    sessions: u64,
}

#[derive(Default)]
struct Producer {
    sent: u64,
    failed: u64,
    parked: u64,
    first: Option<Duration>,
    error: Option<String>,
    latency: Samples,
}

#[derive(Default)]
struct Sink {
    parked: u64,
    /// Values received in order, per producer.
    per_producer: Vec<u64>,
    /// Times each churned value arrived, by cycle.
    churned: Vec<u32>,
    received: u64,
    failed: u64,
    error: Option<String>,
    latency: Samples,
}

impl Churn {
    pub fn new(seed: u64) -> Self {
        // One busy thread per CPU: the executor's worker on the second
        // allowed CPU, the splicing thread on the first.
        let exec = Executor::new(1);
        let cpus = crate::affinity::allowed_cpus();
        if cpus.len() >= 2 {
            crate::affinity::pin_workers(&exec, 1);
            crate::affinity::pin_current(cpus[0]);
        }
        Churn {
            rng: Rng::new(seed),
            exec,
            sessions: 0,
        }
    }

    fn session(
        &mut self,
        tracer: &Tracer,
        m: &mut Measured,
        layers: &mut Layers,
        out: &mut Outcome,
    ) {
        let sizes = [("src", PRODUCERS)];
        let shape = Shape {
            source: CHURN_SRC,
            def: "M",
            mode: Mode::partitioned(),
            sizes: &sizes,
            reconfigurable: true,
        };
        let group = self.sessions;
        self.sessions += 1;
        let t0 = Instant::now();
        let opened = match open(tracer, group, &shape, |s| {
            Ok((s.typed_outports::<i64>("src")?, s.typed_inport::<i64>("c")?))
        }) {
            Ok(o) => o,
            Err(e) => {
                out.attempted += 1;
                return out.fail(1, format!("churn session: {e}"));
            }
        };
        let handle = opened.session.handle();
        let (txs, rx) = opened.ports;
        let traced = tracer.enabled();
        let polls = Arc::new(AtomicU64::new(0));
        let (ptx, prx) = mpsc::channel::<Producer>();
        let (stx, srx) = mpsc::channel::<Sink>();
        let offsets: Vec<i64> = (0..PRODUCERS)
            .map(|_| (self.rng.next_u64() >> 26) as i64)
            .collect();
        let mut order: Vec<usize> = (0..=PRODUCERS).collect();
        self.rng.shuffle(&mut order);
        let mut txs: Vec<Option<Outport<i64>>> = txs.into_iter().map(Some).collect();
        let mut rx = Some(rx);
        let expected = PRODUCERS as u64 * PER_PRODUCER + CYCLES as u64;
        let start = Instant::now();
        for &who in &order {
            let counter = traced.then(|| Arc::clone(&polls));
            if who == PRODUCERS {
                let (rx, stx, offsets) =
                    (rx.take().expect("one sink"), stx.clone(), offsets.clone());
                spawn(&self.exec, counter, async move {
                    let _ = stx.send(sink(rx, offsets, expected, traced).await);
                });
            } else {
                let tx = txs[who].take().expect("one task per producer");
                let (ptx, first) = (ptx.clone(), ((who as i64) << TAG_SHIFT) + offsets[who]);
                spawn(&self.exec, counter, async move {
                    let _ = ptx.send(producer(tx, first, traced).await);
                });
            }
        }
        drop((ptx, stx));

        // The churn loop on this thread, beside the messaging.
        let mut latency = Samples::default();
        let mut ops = 0u64;
        let mut cycles = 0u64;
        for j in 0..CYCLES {
            out.attempted += 3;
            match cycle(
                tracer,
                &handle,
                group,
                (CHURN_TAG << TAG_SHIFT) + j as i64,
                layers,
            ) {
                Ok(op) => {
                    latency.record(op);
                    ops += 1;
                    cycles += 1;
                }
                Err((lost, e)) => {
                    out.fail(lost, format!("churn cycle {j}: {e}"));
                    break;
                }
            }
        }

        // Collect the producers and the sink; past the deadline, close the
        // session so every parked operation fails instead of hanging.
        let mut deadline = start + SESSION_DEADLINE;
        let mut producers = Vec::with_capacity(PRODUCERS);
        let mut sink = None;
        let mut closed = false;
        loop {
            while producers.len() < PRODUCERS {
                match prx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(p) => producers.push(p),
                    Err(_) => break,
                }
            }
            if sink.is_none() {
                sink = srx
                    .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .ok();
            }
            if closed || (producers.len() == PRODUCERS && sink.is_some()) {
                break;
            }
            out.fail(
                0,
                format!("churn session {group}: deadline passed, closing"),
            );
            handle.close();
            closed = true;
            deadline = Instant::now() + CLOSE_GRACE;
        }
        let busy = start.elapsed();
        let epoch = handle.epoch();
        let stats = handle.stats();
        let cache = handle.cache_stats();
        handle.close();
        drop(opened.session);
        let job = t0.elapsed();

        // Checks: every producer sent its values, the sink got each value
        // once and in order per producer, and each cycle spliced twice.
        let missing = PRODUCERS - producers.len();
        out.attempted += missing as u64 * PER_PRODUCER;
        if missing > 0 {
            out.fail(
                missing as u64 * PER_PRODUCER,
                format!("churn session {group}: {missing} producers never finished"),
            );
        }
        let mut sent = Samples::default();
        for prod in &producers {
            sent.merge(&prod.latency);
            out.attempted += prod.sent + prod.failed;
            ops += prod.sent;
            latency.merge(&prod.latency);
            if prod.failed > 0 {
                out.fail(prod.failed, prod.error.clone().unwrap_or_default());
            }
            if traced {
                layers.polled_ops += prod.sent;
                layers.parked_ops += prod.parked;
                layers.exec_ops += prod.sent;
                layers.first_ops.extend(prod.first.map(|f| f.as_secs_f64()));
            }
        }
        out.attempted += expected;
        match sink {
            None => out.fail(
                expected,
                format!("churn session {group}: the sink never ended"),
            ),
            Some(s) => {
                ops += s.received;
                latency.merge(&s.latency);
                if traced {
                    layers.add_port(&sent, &s.latency);
                    layers.polled_ops += s.received;
                    layers.parked_ops += s.parked;
                    layers.exec_ops += s.received;
                }
                let lost = expected.saturating_sub(s.received);
                if s.failed + lost > 0 {
                    let why = s
                        .error
                        .unwrap_or_else(|| format!("{lost} values never arrived"));
                    out.fail(s.failed + lost, format!("churn session {group}: {why}"));
                }
            }
        }
        m.add_job(opened.setup, job, ops, busy, &latency);
        if epoch != 2 * cycles {
            out.attempted += 1;
            out.fail(
                1,
                format!("churn session {group}: epoch {epoch} after {cycles} cycles"),
            );
        }
        if traced {
            layers.add_engine(&stats);
            layers.add_cache(cache);
            layers.exec_polls += polls.load(Ordering::Relaxed);
            layers.epoch += epoch as f64;
            layers.regions = handle.region_count() as f64;
            layers.links = handle.link_count() as f64;
            layers.exec_tasks += (PRODUCERS + 1) as u64;
        }
    }
}

/// Attach a branch, send one value through it, detach it. Returns the
/// send's latency, or the number of failed operations and why.
fn cycle(
    tracer: &Tracer,
    handle: &ConnectorHandle,
    group: u64,
    value: i64,
    layers: &mut Layers,
) -> Result<Duration, (u64, String)> {
    let span = tracer.begin("reconfig.cycle", None, group);
    let a0 = Instant::now();
    let attached = tracer.scope("reconfig.attach", id_of(&span), group, || {
        handle.attach("src")
    });
    let attach = a0.elapsed();
    let mut branch = attached.map_err(|e| (3, format!("attach: {e}")))?;
    let tx = branch
        .outport()
        .map_err(|e| (3, format!("branch outport: {e}")))?
        .typed::<i64>();
    let s0 = Instant::now();
    tx.send(value).map_err(|e| (2, format!("send: {e}")))?;
    let send = s0.elapsed();
    drop(tx);
    let d0 = Instant::now();
    let detached = tracer.scope("reconfig.detach", id_of(&span), group, || branch.detach());
    let detach = d0.elapsed();
    tracer.end(span);
    detached.map_err(|e| (1, format!("detach: {e}")))?;
    if tracer.enabled() {
        layers.attach.record(attach);
        layers.detach.record(detach);
    }
    Ok(send)
}

async fn producer(tx: Outport<i64>, first: i64, traced: bool) -> Producer {
    let mut p = Producer::default();
    for k in 0..PER_PRODUCER {
        let v = first + k as i64;
        let t = Instant::now();
        let res = if traced {
            let (res, polls) = Polls::new(tx.send_async(v)).await;
            p.parked += u64::from(polls > 1);
            res
        } else {
            tx.send_async(v).await
        };
        let took = t.elapsed();
        if let Err(e) = res {
            p.failed += PER_PRODUCER - k;
            p.error = Some(format!("producer send: {e}"));
            break;
        }
        if k == 0 {
            p.first = Some(took);
        }
        p.latency.record(took);
        p.sent += 1;
    }
    p
}

/// Receive `expected` values, checking each producer's stream is in order
/// and each churned value arrives once.
async fn sink(rx: Inport<i64>, offsets: Vec<i64>, expected: u64, traced: bool) -> Sink {
    let mut s = Sink {
        per_producer: vec![0; offsets.len()],
        ..Sink::default()
    };
    let mask = (1i64 << TAG_SHIFT) - 1;
    while s.received < expected {
        let t = Instant::now();
        let res = if traced {
            let (res, polls) = Polls::new(rx.recv_async()).await;
            s.parked += u64::from(polls > 1);
            res
        } else {
            rx.recv_async().await
        };
        let v = match res {
            Ok(v) => v,
            Err(e) => {
                s.failed += 1;
                s.error = Some(format!("sink recv: {e}"));
                break;
            }
        };
        let took = t.elapsed();
        let (tag, body) = (v >> TAG_SHIFT, v & mask);
        let ok = if tag == CHURN_TAG {
            let j = body as usize;
            if s.churned.len() <= j {
                s.churned.resize(j + 1, 0);
            }
            s.churned[j] += 1;
            s.churned[j] == 1
        } else if let Some(&off) = offsets.get(tag as usize) {
            let p = tag as usize;
            let in_order = body == off + s.per_producer[p] as i64;
            if in_order {
                s.per_producer[p] += 1;
            }
            in_order
        } else {
            false
        };
        if ok {
            s.latency.record(took);
            s.received += 1;
        } else {
            s.failed += 1;
            if s.error.is_none() {
                s.error = Some(format!("sink: unexpected value {v:#x}"));
            }
        }
    }
    s
}

impl Workload for Churn {
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
        crate::stepping_probe(CHURN_SRC, "M", &[("src", PRODUCERS)], layers, m);
    }
}
