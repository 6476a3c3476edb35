//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given time and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics untraced, the per-layer metrics
//! traced. The line before it is the host and build stamp. Exits 1 when
//! any output check failed, 2 on bad arguments.

use perfbench::report::{cpu_ticks, host_stamp};
use perfbench::{run, workload, Config};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn main() {
    let mut name = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed `{value}`")))
            }
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds `{value}`")))
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad trace `{value}`")),
                }
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    let name = name.unwrap_or_else(|| usage("--workload is required"));
    // Before the workload pins any thread, so the stamp sees every CPU.
    let stamp = host_stamp(&name, cfg.seed, cfg.seconds, cfg.trace);
    let mut w = workload(&name, cfg.seed).unwrap_or_else(|e| usage(&e));
    let ticks = cpu_ticks();
    let outcome = run(&name, w.as_mut(), &cfg);
    drop(w);
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!(
            "{name}: CPU time stolen by the host during the run: {:.1}%",
            share * 100.0
        );
    }
    eprintln!(
        "{name}: attempted {} failed {} error_rate {:e}",
        outcome.attempted,
        outcome.failed,
        outcome.error_rate()
    );
    for e in &outcome.errors {
        eprintln!("  failure: {e}");
    }
    println!("{stamp}");
    println!("{}", outcome.json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
