//! # reo-runtime
//!
//! Parametrized execution (Sect. IV-D of van Veen & Jongmans, IPDPSW 2018):
//! blocking ports in the generalized Foster–Chandy model, a sequential
//! protocol engine, and four execution modes —
//!
//! * the **existing approach** (one large automaton composed from fully
//!   elaborated primitives),
//! * **ahead-of-time composition** of medium automata at `connect` time,
//! * **just-in-time composition** with an unbounded or bounded-LRU state
//!   cache, and
//! * **partitioned just-in-time composition** (the optimization of the
//!   paper's reference \[32\], which fixes Fig. 13's finding 3;
//!   [`Mode::partitioned`]) — each task pumps, on its own thread, the
//!   cross-region links its operations may have enabled. Link pumping is
//!   *batched* (one engine-lock hold per side moves a whole backlog) and
//!   single-link-border regions skip the kick machinery entirely (see
//!   [`partition`]).
//!
//! Engines block tasks on *per-port* wait queues (a completed transition
//! wakes only the ports that fired — no thundering herd) and expose
//! contention counters through [`ConnectorHandle::stats`]
//! ([`EngineStats`]: steps, completions, targeted wakeups, spurious
//! wakeups, lock acquisitions).
//!
//! Compile with the builder, connect into a [`Session`], and take *typed*
//! port handles — `recv()` returns `i64` here, not a raw `Value`:
//!
//! ```
//! use reo_runtime::{Connector, Mode};
//!
//! let program = reo_dsl::parse_program(
//!     "Buf(a[];b[]) = prod (i:1..#a) Fifo1(a[i];b[i])",
//! ).unwrap();
//! let connector = Connector::builder(&program, "Buf").mode(Mode::jit()).build().unwrap();
//! let mut session = connector.session().replicate("a", 2).replicate("b", 2).connect().unwrap();
//! let senders = session.typed_outports::<i64>("a").unwrap();
//! let receivers = session.typed_inports::<i64>("b").unwrap();
//! senders[0].send(7).unwrap();
//! assert_eq!(receivers[0].recv().unwrap(), 7);
//! ```
//!
//! Port acquisition is fallible (no panics on a wrong name), and every
//! port offers non-blocking and deadline-bounded operations:
//!
//! ```
//! use std::time::Duration;
//! use reo_runtime::{Connector, Mode, RuntimeError};
//!
//! let program = reo_dsl::parse_program("Buf(a;b) = Fifo1(a;b)").unwrap();
//! let connector = Connector::builder(&program, "Buf").build().unwrap();
//! let mut session = connector.session().connect().unwrap();
//! assert!(matches!(
//!     session.outports("nope"),
//!     Err(RuntimeError::UnknownParam { .. })
//! ));
//! let tx = session.typed_outport::<i64>("a").unwrap();
//! let rx = session.typed_inport::<i64>("b").unwrap();
//!
//! assert_eq!(rx.try_recv().unwrap(), None); // buffer empty: no block
//! assert!(tx.try_send(1).unwrap()); // buffer free: accepted
//! assert!(!tx.try_send(2).unwrap()); // buffer full: retracted, not lost
//! assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), 1);
//! ```

pub mod analyze;
pub mod aot;
pub mod cache;
pub mod compiled;
pub mod connector;
pub mod engine;
pub mod error;
#[doc(hidden)]
pub mod fault;
pub mod jit;
pub mod partition;
pub mod port;
pub mod program;
mod reconfig;
pub mod scenario;
pub mod select;
pub mod stepping;
pub mod watchdog;

pub use cache::{CachePolicy, CacheStats};
pub use compiled::CompiledCore;
pub use connector::{
    Branch, Connector, ConnectorBuilder, ConnectorHandle, Limits, Mode, Session, SessionSpec,
};
pub use engine::EngineStats;
pub use error::RuntimeError;
pub use port::{Inport, Messages, Outport, RecvFuture, SendFuture};
pub use program::{run_main, RunReport, TaskCtx, TaskRegistry};
pub use reo_automata::{FromValue, IntoValue};
pub use scenario::{
    run_scenario, Driver, Observation, Op, OpResult, PortRef, Scenario, ScenarioError, Step,
};
pub use select::{select2, select_slice, Either, Select2, SelectSlice};
pub use stepping::{stepping_run, SteppingMode, SteppingRun};
pub use watchdog::{LinkReport, ParkedKind, ParkedOp, RegionReport, StallReport};
