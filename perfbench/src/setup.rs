//! Session set-up, timed end to end and, when traced, split by layer:
//! `dsl.parse` → `connector.build` → `connector.connect` →
//! `connector.ports`, all children of one `session.setup` span, plus
//! `core.compile` and `core.instantiate` timed apart on the same program
//! and binding.

use std::time::{Duration, Instant};

use reo_automata::PortAllocator;
use reo_core::Binding;
use reo_runtime::{Connector, Mode, RuntimeError, Session};

use crate::trace::{id_of, Tracer};

/// What to open: DSL source text, the definition, its mode and sizes.
#[derive(Clone, Copy)]
pub struct Shape<'a> {
    pub source: &'a str,
    pub def: &'a str,
    pub mode: Mode,
    pub sizes: &'a [(&'a str, usize)],
    pub reconfigurable: bool,
}

pub struct Opened<P> {
    pub session: Session,
    pub ports: P,
    /// From source text to a connected session with every port taken.
    pub setup: Duration,
}

/// Parse, build, connect and take the ports with `take`.
pub fn open<P>(
    tracer: &Tracer,
    group: u64,
    shape: &Shape,
    take: impl FnOnce(&mut Session) -> Result<P, RuntimeError>,
) -> Result<Opened<P>, String> {
    let t0 = Instant::now();
    let root = tracer.begin("session.setup", None, group);
    let parent = id_of(&root);
    let program = tracer
        .scope("dsl.parse", parent, group, || {
            reo_dsl::parse_program(shape.source)
        })
        .map_err(|e| format!("parse: {e}"))?;
    let connector = tracer
        .scope("connector.build", parent, group, || {
            Connector::builder(&program, shape.def)
                .mode(shape.mode)
                .build()
        })
        .map_err(|e| format!("build: {e}"))?;
    let mut session = tracer
        .scope("connector.connect", parent, group, || {
            let spec = connector.session().replicate_all(shape.sizes);
            if shape.reconfigurable {
                spec.reconfigurable().connect()
            } else {
                spec.connect()
            }
        })
        .map_err(|e| format!("connect: {e}"))?;
    let ports = tracer
        .scope("connector.ports", parent, group, || take(&mut session))
        .map_err(|e| format!("ports: {e}"))?;
    tracer.end(root);
    let setup = t0.elapsed();
    if tracer.enabled() {
        core_split(tracer, group, &program, shape)?;
    }
    Ok(Opened {
        session,
        ports,
        setup,
    })
}

/// Time `reo_core::compile` and `reo_core::instantiate` on the program
/// and sizes the session was opened with.
fn core_split(
    tracer: &Tracer,
    group: u64,
    program: &reo_core::Program,
    shape: &Shape,
) -> Result<(), String> {
    let cc = tracer
        .scope("core.compile", None, group, || {
            reo_core::compile(program, shape.def)
        })
        .map_err(|e| format!("compile: {e}"))?;
    let mut alloc = PortAllocator::new();
    let binding: Binding = cc
        .params()
        .map(|p| {
            let n = if p.is_array {
                shape
                    .sizes
                    .iter()
                    .find(|(name, _)| *name == p.name)
                    .map_or(1, |(_, n)| *n)
            } else {
                1
            };
            (p.name.clone(), alloc.fresh_ports(n))
        })
        .collect();
    tracer
        .scope("core.instantiate", None, group, || {
            reo_core::instantiate(&cc, &binding, &mut alloc)
        })
        .map_err(|e| format!("instantiate: {e}"))?;
    Ok(())
}
