//! CI gate for the `BENCH_*.json` reports: schema validation plus
//! fail-regression comparison against a checked-in baseline.
//!
//! ```text
//! cargo run --release -p reo-bench --bin bench_check -- \
//!     --kind fig12 --new ci_fig12.json [--baseline BENCH_fig12.json] \
//!     [--relaxed] [--track deltas.txt] [--require verdict_a,verdict_b]
//! ```
//!
//! Exit status 0 iff `--new` is schema-valid and no cell that has
//! `failure: null` (fig12/scale) or `dnf: null` (fig13) in the baseline
//! turned into a failure in the new report. Without `--baseline` only the
//! schema is checked.
//!
//! `--relaxed` exempts the timing-sensitive cells (fig13 class S, whose
//! DNF verdicts flap on noisy CI runners) from the regression gate —
//! schema validation still covers them. `--track <path>` writes per-cell
//! primary-metric deltas vs the baseline (steps, seconds, or steps/sec —
//! plus, for scale reports, the batched-pumping counters and
//! locks-per-value) to `<path>`; CI uploads that file as an artifact
//! instead of gating on throughput, so runner noise stays reviewable
//! without blocking merges. `--require <fields>` (comma-separated) gates
//! on each listed top-level verdict boolean of the *new* report being
//! `true` (e.g. `--require locks_per_value_below_seed,codegen_beats_jit`
//! on scale reports — those verdicts are algorithmic counts or large
//! ratio floors, not raw timing, so they are safe to enforce on noisy
//! runners).

use reo_bench::check::{failure_regressions_gated, metric_deltas, validate, Json, Kind};
use reo_bench::Args;

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_check: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_check: {path}: {e}");
        std::process::exit(1);
    })
}

const USAGE: &str = "usage: bench_check --kind fig12|fig13|scale --new REPORT.json \
[--baseline BENCH.json] [--relaxed] [--track deltas.txt] [--require verdict_a,verdict_b]";

fn main() {
    let args = Args::from_env(
        USAGE,
        &["kind", "new", "baseline", "relaxed", "track", "require"],
    );
    let kind_name = args.get("kind").unwrap_or_else(|| {
        eprintln!("bench_check: --kind fig12|fig13|scale is required");
        std::process::exit(2);
    });
    let kind = Kind::by_name(kind_name).unwrap_or_else(|| {
        eprintln!("bench_check: unknown kind `{kind_name}`");
        std::process::exit(2);
    });
    let new_path = args.get("new").unwrap_or_else(|| {
        eprintln!("bench_check: --new <report.json> is required");
        std::process::exit(2);
    });

    let new = load(new_path);
    match validate(&new, kind) {
        Ok(cells) => println!("bench_check: {new_path}: schema OK ({cells} cells)"),
        Err(e) => {
            eprintln!("bench_check: {new_path}: schema error: {e}");
            std::process::exit(1);
        }
    }

    // Comma-separated: `--require locks_per_value_below_seed,codegen_beats_jit`.
    for field in args.list("require", &[]) {
        let field = field.as_str();
        match new.get(field) {
            Some(Json::Bool(true)) => {
                println!("bench_check: {new_path}: required verdict `{field}` is true");
            }
            Some(other) => {
                eprintln!(
                    "bench_check: {new_path}: required verdict `{field}` is {other:?}, not true"
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("bench_check: {new_path}: required verdict `{field}` is missing");
                std::process::exit(1);
            }
        }
    }

    if let Some(baseline_path) = args.get("baseline") {
        let baseline = load(baseline_path);
        if let Err(e) = validate(&baseline, kind) {
            eprintln!("bench_check: {baseline_path}: schema error: {e}");
            std::process::exit(1);
        }
        if let Some(track_path) = args.get("track") {
            match metric_deltas(&new, &baseline, kind) {
                Ok(lines) => {
                    let mut body = lines.join("\n");
                    body.push('\n');
                    std::fs::write(track_path, body).unwrap_or_else(|e| {
                        eprintln!("bench_check: cannot write {track_path}: {e}");
                        std::process::exit(2);
                    });
                    println!(
                        "bench_check: wrote {} metric delta(s) to {track_path}",
                        lines.len()
                    );
                }
                Err(e) => {
                    eprintln!("bench_check: delta tracking error: {e}");
                    std::process::exit(1);
                }
            }
        }
        let relaxed = args.bool("relaxed");
        match failure_regressions_gated(&new, &baseline, kind, relaxed) {
            Ok(regressions) if regressions.is_empty() => {
                let mode = if relaxed { " (relaxed gate)" } else { "" };
                println!("bench_check: no failure regressions against {baseline_path}{mode}");
            }
            Ok(regressions) => {
                eprintln!(
                    "bench_check: {} cell(s) regressed from ok to failing:",
                    regressions.len()
                );
                for r in &regressions {
                    eprintln!("  {r}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("bench_check: comparison error: {e}");
                std::process::exit(1);
            }
        }
    }
}
