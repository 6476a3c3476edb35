//! The repository benchmark: closed-loop workloads driven through the
//! public API of `reo-runtime`, `reo-exec` and `reo-npb`, with every
//! output checked. See `README.md` for the workloads and metrics.

pub mod affinity;
pub mod churn;
pub mod layers;
pub mod npb_lu;
pub mod poll;
pub mod relay;
pub mod report;
pub mod samples;
pub mod setup;
pub mod trace;

use std::time::{Duration, Instant};

use layers::Layers;
use report::{median, Outcome};
use samples::Samples;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["npb-lu", "relay-jit", "relay-partitioned", "merger-churn"];

/// The invocation: workload seed, measured time and whether to trace.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// End-to-end samples of one timed loop, one per job. Every end-to-end
/// metric is a median over jobs of a per-job value, so a burst of load
/// from outside the benchmark (another guest on the host, say) moves the
/// jobs it lands on, not the result.
#[derive(Default)]
pub struct Measured {
    /// Seconds from source text to a session with every port taken.
    pub setups: Vec<f64>,
    /// Seconds per job: one solve, or one relay or churn session.
    pub jobs: Vec<f64>,
    /// Completed operations per second of the time each job issued them.
    pub rates: Vec<f64>,
    /// The median and 95th-percentile operation latency of each job, in
    /// nanoseconds. Not the 99th: on a shared host the CPU time stolen by
    /// other guests comes as gaps of milliseconds that stall about one
    /// operation in a hundred, so a 99th percentile follows the host.
    pub op_p50: Vec<f64>,
    pub op_p95: Vec<f64>,
    /// Peak resident memory once [`RSS_JOBS`] jobs had completed.
    pub rss_mib: Option<f64>,
}

/// Jobs after which the peak resident memory is read. A fixed amount of
/// work rather than the whole run, because the runtime does not free
/// closed sessions: over a whole run the peak would follow how many jobs
/// the host let the run complete.
pub const RSS_JOBS: usize = 64;

impl Measured {
    /// Record one job: its set-up and total time, the operations it
    /// completed in `busy`, and their latencies.
    pub fn add_job(
        &mut self,
        setup: Duration,
        job: Duration,
        ops: u64,
        busy: Duration,
        latency: &Samples,
    ) {
        self.setups.push(setup.as_secs_f64());
        self.jobs.push(job.as_secs_f64());
        if busy > Duration::ZERO {
            self.rates.push(ops as f64 / busy.as_secs_f64());
        }
        if latency.count() > 0 {
            self.op_p50.push(latency.quantile_ns(0.5));
            self.op_p95.push(latency.quantile_ns(0.95));
        }
        if self.jobs.len() == RSS_JOBS {
            self.rss_mib = Some(report::peak_rss_mib());
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    pub fn emit(&self, out: &mut Outcome) {
        out.metric("setup_s", median(&self.setups), "s");
        out.metric("job_p50_ms", median(&self.jobs) * 1e3, "ms");
        out.metric("ops_per_s", self.ops_per_s(), "1/s");
        out.metric("op_p50_us", median(&self.op_p50) / 1e3, "us");
        out.metric("op_p95_us", median(&self.op_p95) / 1e3, "us");
        let rss = self.rss_mib.unwrap_or_else(report::peak_rss_mib);
        out.metric("peak_rss_mib", rss, "MiB");
    }
}

/// One workload: a closed loop of jobs, plus the traced-only probes.
pub trait Workload {
    /// Run jobs until `until` (at least one), adding samples to `m`, layer
    /// counters to `layers` and operation counts to `out`.
    fn run(
        &mut self,
        tracer: &Tracer,
        until: Instant,
        m: &mut Measured,
        layers: &mut Layers,
        out: &mut Outcome,
    );

    /// Traced-only measurements made apart from the timed loop.
    fn probe(&mut self, layers: &mut Layers, m: &Measured, out: &mut Outcome);
}

pub fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "npb-lu" => Ok(Box::new(npb_lu::NpbLu::new(seed, npb_lu::Fault::None))),
        "relay-jit" => Ok(Box::new(relay::Relay::jit(seed))),
        "relay-partitioned" => Ok(Box::new(relay::Relay::partitioned(seed))),
        "merger-churn" => Ok(Box::new(churn::Churn::new(seed))),
        _ => Err(format!(
            "unknown workload `{name}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Run `w` under `cfg`. One warm-up job runs first; its operations are
/// checked and counted, its timings are not.
///
/// Untraced, the whole time is one timed loop and the result holds the
/// end-to-end metrics. Traced, the first half runs untraced and the
/// second traced, and the result holds the per-layer metrics plus
/// `trace.overhead`: the traced median job time over the untraced one,
/// minus 1.
pub fn run(name: &str, w: &mut dyn Workload, cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let mut scratch = Layers::default();
    w.run(
        &off,
        Instant::now(),
        &mut Measured::default(),
        &mut scratch,
        &mut out,
    );
    let total = Duration::from_secs_f64(cfg.seconds.max(0.0));
    if !cfg.trace {
        let mut m = Measured::default();
        w.run(&off, Instant::now() + total, &mut m, &mut scratch, &mut out);
        m.emit(&mut out);
    } else {
        let mut plain = Measured::default();
        w.run(
            &off,
            Instant::now() + total / 2,
            &mut plain,
            &mut scratch,
            &mut out,
        );
        let on = Tracer::new(true);
        let mut m = Measured::default();
        let mut layers = Layers::default();
        w.run(
            &on,
            Instant::now() + total / 2,
            &mut m,
            &mut layers,
            &mut out,
        );
        w.probe(&mut layers, &m, &mut out);
        let spans = on.spans();
        layers.setup_from_spans(&spans);
        let base = median(&plain.jobs);
        if base > 0.0 {
            layers.trace_overhead = median(&m.jobs) / base - 1.0;
        }
        layers.emit(&mut out);
        write_spans(&spans, name, cfg.seed);
    }
    out
}

/// Write the spans of a traced run next to the benchmark's sources.
fn write_spans(spans: &[trace::Span], name: &str, seed: u64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{name}-seed{seed}.jsonl"));
    let body = trace::to_json_lines(spans);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

/// Window of each raw-stepping probe.
const STEPPING_WINDOW: Duration = Duration::from_millis(200);

/// The `stepping` layer: `reo_runtime::stepping_run` on the workload's own
/// connector and sizes, with no tasks, under the JIT core and the compiled
/// core. `stepping.share` is the part of one task-driven operation that
/// raw JIT stepping accounts for: the workload's rate over the stepping
/// rate. A core that refuses the connector reads 0 and is reported on
/// standard error; it is not an operation of the workload.
pub fn stepping_probe(
    source: &str,
    def: &str,
    sizes: &[(&str, usize)],
    layers: &mut Layers,
    m: &Measured,
) {
    use reo_runtime::{stepping_run, Limits, SteppingMode};
    let program = reo_dsl::parse_program(source).expect("workload connectors parse");
    let rate = |mode| match stepping_run(
        &program,
        def,
        sizes,
        mode,
        Limits::default(),
        STEPPING_WINDOW,
    ) {
        Ok(r) => r.ops as f64 / STEPPING_WINDOW.as_secs_f64(),
        Err(e) => {
            eprintln!("stepping probe ({mode:?}) refused: {e}");
            0.0
        }
    };
    layers.stepping_jit_ops_per_s = rate(SteppingMode::Jit);
    layers.stepping_compiled_ops_per_s = rate(SteppingMode::Compiled);
    if layers.stepping_jit_ops_per_s > 0.0 {
        layers.stepping_share = m.ops_per_s() / layers.stepping_jit_ops_per_s;
    }
}
