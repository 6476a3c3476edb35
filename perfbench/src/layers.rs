//! The per-layer metrics of a traced run. Every workload prints every
//! field; a layer that is not on a workload's path reads 0 there.

use reo_runtime::{CacheStats, EngineStats};

use crate::report::{median, Outcome};
use crate::samples::Samples;
use crate::trace::{durations, Span};

#[derive(Default)]
pub struct Layers {
    pub parse_s: f64,
    pub compile_s: f64,
    pub instantiate_s: f64,
    pub build_s: f64,
    pub connect_s: f64,
    pub ports_s: f64,
    /// Sessions with a JIT cache, and their summed hits and misses.
    pub cache_sessions: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Seconds taken by the first operation of each fresh session.
    pub first_ops: Vec<f64>,
    pub stepping_jit_ops_per_s: f64,
    pub stepping_compiled_ops_per_s: f64,
    pub stepping_share: f64,
    pub engine: EngineStats,
    /// Sessions or solves the engine counters were summed over.
    pub jobs: u64,
    pub regions: f64,
    pub links: f64,
    /// Per-job median and 99th-percentile send and receive latency.
    pub send_p50: Vec<f64>,
    pub send_p99: Vec<f64>,
    pub recv_p50: Vec<f64>,
    pub recv_p99: Vec<f64>,
    /// Port operations whose first poll returned `Pending`, and all polled.
    pub parked_ops: u64,
    pub polled_ops: u64,
    pub exec_tasks: u64,
    pub exec_polls: u64,
    pub exec_ops: u64,
    pub gather_wait_s: f64,
    pub bcast_wait_s: f64,
    pub pipeline_wait_s: f64,
    pub send_s: f64,
    pub comm_calls: f64,
    pub compute_s: f64,
    pub handwritten_solve_s: f64,
    /// Every traced attach and detach call.
    pub attach: Samples,
    pub detach: Samples,
    pub epoch: f64,
    pub trace_overhead: f64,
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

impl Layers {
    /// Median set-up split of the `session.setup` children and the core
    /// calls, read from the spans.
    pub fn setup_from_spans(&mut self, spans: &[Span]) {
        let m = |name| median(&durations(spans, name));
        self.parse_s = m("dsl.parse");
        self.compile_s = m("core.compile");
        self.instantiate_s = m("core.instantiate");
        self.build_s = m("connector.build");
        self.connect_s = m("connector.connect");
        self.ports_s = m("connector.ports");
    }

    /// Fold in one session's JIT cache counters.
    pub fn add_cache(&mut self, stats: Option<CacheStats>) {
        if let Some(c) = stats {
            self.cache_sessions += 1;
            self.cache_hits += c.hits;
            self.cache_misses += c.misses;
        }
    }

    /// Add one job's send and receive latencies.
    pub fn add_port(&mut self, send: &Samples, recv: &Samples) {
        if send.count() > 0 {
            self.send_p50.push(send.quantile_ns(0.5));
            self.send_p99.push(send.quantile_ns(0.99));
        }
        if recv.count() > 0 {
            self.recv_p50.push(recv.quantile_ns(0.5));
            self.recv_p99.push(recv.quantile_ns(0.99));
        }
    }

    /// Add one session's engine counters.
    pub fn add_engine(&mut self, stats: &EngineStats) {
        self.engine.merge(stats);
        self.jobs += 1;
    }

    pub fn emit(&self, out: &mut Outcome) {
        let e = &self.engine;
        out.metric("dsl.parse_s", self.parse_s, "s");
        out.metric("core.compile_s", self.compile_s, "s");
        out.metric("core.instantiate_s", self.instantiate_s, "s");
        out.metric("connector.build_s", self.build_s, "s");
        out.metric("connector.connect_s", self.connect_s, "s");
        out.metric("connector.ports_s", self.ports_s, "s");
        out.metric(
            "jit.states_expanded",
            ratio(self.cache_misses, self.cache_sessions),
            "count",
        );
        out.metric(
            "jit.cache_hit_ratio",
            ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            "fraction",
        );
        out.metric("jit.first_op_us", median(&self.first_ops) * 1e6, "us");
        out.metric("stepping.jit_ops_per_s", self.stepping_jit_ops_per_s, "1/s");
        out.metric(
            "stepping.compiled_ops_per_s",
            self.stepping_compiled_ops_per_s,
            "1/s",
        );
        out.metric("stepping.share", self.stepping_share, "fraction");
        out.metric("engine.steps", ratio(e.steps, self.jobs), "count");
        out.metric(
            "engine.completions",
            ratio(e.completions, self.jobs),
            "count",
        );
        out.metric(
            "engine.ops_per_step",
            ratio(e.completions, e.steps),
            "ratio",
        );
        out.metric(
            "engine.locks_per_op",
            ratio(e.lock_acquisitions, e.completions),
            "ratio",
        );
        out.metric(
            "engine.wakeups_per_op",
            ratio(e.wakeups, e.completions),
            "ratio",
        );
        out.metric(
            "engine.spurious_ratio",
            ratio(e.spurious_wakeups, e.wakeups),
            "fraction",
        );
        out.metric(
            "engine.waker_wakes_per_op",
            ratio(e.waker_wakes, e.completions),
            "ratio",
        );
        out.metric("partition.regions", self.regions, "count");
        out.metric("partition.links", self.links, "count");
        out.metric(
            "partition.values_per_batch",
            ratio(e.batched_values, e.batch_moves),
            "ratio",
        );
        out.metric(
            "partition.kicks_per_op",
            ratio(e.kicks, e.completions),
            "ratio",
        );
        out.metric("partition.steals", ratio(e.steals, self.jobs), "count");
        out.metric("port.send_p50_us", median(&self.send_p50) / 1e3, "us");
        out.metric("port.send_p99_us", median(&self.send_p99) / 1e3, "us");
        out.metric("port.recv_p50_us", median(&self.recv_p50) / 1e3, "us");
        out.metric("port.recv_p99_us", median(&self.recv_p99) / 1e3, "us");
        out.metric(
            "port.parked_ratio",
            ratio(self.parked_ops, self.polled_ops),
            "fraction",
        );
        out.metric("exec.tasks", ratio(self.exec_tasks, self.jobs), "count");
        out.metric(
            "exec.polls_per_op",
            ratio(self.exec_polls, self.exec_ops),
            "ratio",
        );
        out.metric("comm.gather_wait_s", self.gather_wait_s, "s");
        out.metric("comm.bcast_wait_s", self.bcast_wait_s, "s");
        out.metric("comm.pipeline_wait_s", self.pipeline_wait_s, "s");
        out.metric("comm.send_s", self.send_s, "s");
        out.metric("comm.calls", self.comm_calls, "count");
        out.metric("npb.compute_s", self.compute_s, "s");
        out.metric("npb.handwritten_solve_s", self.handwritten_solve_s, "s");
        out.metric(
            "reconfig.attach_p50_ms",
            self.attach.quantile_ns(0.5) / 1e6,
            "ms",
        );
        out.metric(
            "reconfig.attach_p99_ms",
            self.attach.quantile_ns(0.99) / 1e6,
            "ms",
        );
        out.metric(
            "reconfig.detach_p50_ms",
            self.detach.quantile_ns(0.5) / 1e6,
            "ms",
        );
        out.metric(
            "reconfig.detach_p99_ms",
            self.detach.quantile_ns(0.99) / 1e6,
            "ms",
        );
        out.metric(
            "reconfig.epoch",
            self.epoch / self.jobs.max(1) as f64,
            "count",
        );
        out.metric("trace.overhead", self.trace_overhead, "fraction");
    }
}
