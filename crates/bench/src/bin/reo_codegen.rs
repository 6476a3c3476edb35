//! `reo-codegen`: emit the lowered stepping programs as Rust source.
//!
//! ```text
//! cargo run --release -p reo-bench --bin reo-codegen -- \
//!     [--families channels,pipeline,…] [--n 4] [--out generated/]
//! ```
//!
//! For every selected fig12-style family (default: the codegen-duel set,
//! [`reo_bench::scale::CODEGEN_FAMILIES`]) at instance size `--n`, the
//! connector is compiled, instantiated, composed into one product
//! automaton, boundary-simplified, and lowered exactly as
//! `Mode::compiled()` lowers it at `connect` time — then printed as the
//! readable straight-line Rust function [`reo_automata::lower::Lowered::emit_rust`] generates
//! (one `match (state, transition)` of register moves, guard checks and
//! deliveries). Without `--out` everything goes to stdout; with `--out`
//! each family lands in `<dir>/<family>_n<N>.rs`.
//!
//! The output is documentation of what the runtime executes, and a
//! starting point for ahead-of-time source distribution: the emitted
//! function is self-contained modulo the `reo_automata` value/store types.

use reo_automata::lower::{lower_with, LowerOptions};
use reo_automata::{product_all, simplify, PortAllocator, PortSet, ProductOptions};
use reo_bench::scale::{CODEGEN_FAMILIES, CODEGEN_N};
use reo_bench::Args;
use reo_connectors::{burst_family, families, relay_family, Family};
use reo_core::{compile, instantiate, Binding};

fn selected(filter: &[String]) -> Vec<Family> {
    let mut all = families();
    all.push(relay_family());
    all.push(burst_family());
    all.into_iter()
        .filter(|f| filter.iter().any(|n| n == f.name))
        .collect()
}

/// Lower one family instance and emit it as Rust source, mirroring the
/// composition pipeline of `CompiledCore::compose` (product → boundary
/// simplify → lower with the automaton's own port classes).
fn emit_family(family: &Family, n: usize, opts: &ProductOptions) -> Result<String, String> {
    let program = family.program();
    let cc = compile(&program, family.def).map_err(|e| format!("{e:?}"))?;
    let sizes = (family.sizes)(n);
    let mut alloc = PortAllocator::new();
    let mut binding: Binding = std::collections::HashMap::new();
    let params: Vec<(String, bool)> = cc.params().map(|p| (p.name.clone(), p.is_array)).collect();
    for (name, is_array) in &params {
        let k = sizes
            .iter()
            .find(|(s, _)| s == name)
            .map(|(_, k)| *k)
            .unwrap_or(1);
        let k = if *is_array { k } else { 1 };
        binding.insert(name.clone(), alloc.fresh_ports(k));
    }
    let instance = instantiate(&cc, &binding, &mut alloc).map_err(|e| format!("{e:?}"))?;

    let product = product_all(&instance.automata, opts).map_err(|e| format!("{e:?}"))?;
    let boundary: PortSet = instance.boundary.values().flatten().copied().collect();
    let product = simplify(&product, &boundary);
    let lowered = lower_with(
        &product,
        &LowerOptions {
            seeds: product.inputs(),
            deliver: Some(product.outputs()),
        },
    )
    .map_err(|e| e.to_string())?;
    let fn_name = format!("step_{}_n{n}", family.name.replace('-', "_"));
    let mut out = format!(
        "// {}: N = {n}, {} state(s), {} transition(s), {} register(s).\n\
         // Emitted by reo-codegen; the same program `Mode::compiled()`\n\
         // builds in memory at connect time.\n",
        family.name,
        lowered.state_count(),
        lowered.transition_count(),
        lowered.reg_count(),
    );
    out.push_str(&lowered.emit_rust(&fn_name));
    Ok(out)
}

fn main() {
    let args = Args::from_env(
        "usage: reo-codegen [--families channels,pipeline,…] [--n 4] [--out DIR]",
        &["families", "n", "out"],
    );
    let filter: Vec<String> = args.list("families", CODEGEN_FAMILIES);
    let n = args.usize("n", CODEGEN_N);
    let opts = ProductOptions {
        max_states: 1 << 16,
        max_transitions: 1 << 18,
    };
    let out_dir = args.get("out");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }

    let families = selected(&filter);
    if families.is_empty() {
        eprintln!("reo-codegen: no family matches {filter:?}");
        std::process::exit(2);
    }
    for family in &families {
        match emit_family(family, n, &opts) {
            Ok(src) => {
                if let Some(dir) = out_dir {
                    let path = format!("{dir}/{}_n{n}.rs", family.name.replace('-', "_"));
                    std::fs::write(&path, &src).expect("write emitted source");
                    println!("reo-codegen: wrote {path} ({} lines)", src.lines().count());
                } else {
                    println!("{src}");
                }
            }
            Err(e) => {
                eprintln!("reo-codegen: {} at n={n}: {e}", family.name);
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_codegen_family_emits_compilable_shaped_source() {
        let opts = ProductOptions {
            max_states: 1 << 16,
            max_transitions: 1 << 18,
        };
        let names: Vec<String> = CODEGEN_FAMILIES.iter().map(|s| s.to_string()).collect();
        let fams = selected(&names);
        assert_eq!(fams.len(), CODEGEN_FAMILIES.len());
        for family in &fams {
            let src = emit_family(family, CODEGEN_N, &opts)
                .unwrap_or_else(|e| panic!("{}: {e}", family.name));
            // Structural markers of the emitted stepping function.
            let fn_line = format!("pub fn step_{}_n{}", family.name, CODEGEN_N);
            for marker in [fn_line.as_str(), "match (state.0, transition)", "INITIAL"] {
                assert!(
                    src.contains(marker),
                    "{}: emitted source lacks `{marker}`:\n{src}",
                    family.name
                );
            }
        }
    }
}
