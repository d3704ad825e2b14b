//! # `polysig-sim` — constructive simulator for polychronous Signal programs
//!
//! Executes the programs of `polysig-lang` reaction by reaction. Within one
//! reaction every signal starts *unknown* and the primitive operators' firing
//! rules are applied monotonically until a fixpoint: a signal ends up
//! *absent* or *present with a value* (constructive semantics). A reaction
//! that leaves a signal's presence undetermined is rejected — such a program
//! has a free clock the environment did not pin down, the polychronous
//! counterpart of a causality error.
//!
//! The environment is a [`Scenario`]: per reaction, which input signals are
//! present and with which values. [`generator`] builds periodic, random and
//! bursty scenarios for the paper's experiments. Execution records a
//! [`polysig_tagged::Behavior`], connecting the operational semantics to the
//! denotational layer — the test-suite checks every run against the Table-1
//! denotations.
//!
//! ## Example
//!
//! ```
//! use polysig_lang::parse_program;
//! use polysig_sim::{Scenario, Simulator};
//! use polysig_tagged::Value;
//!
//! let program = parse_program(
//!     "process Acc { input tick: bool; output n: int; \
//!      n := (pre 0 n) + (1 when tick); }",
//! )?;
//! let scenario = Scenario::new()
//!     .on("tick", Value::Bool(true))
//!     .tick()
//!     .on("tick", Value::Bool(true))
//!     .tick();
//! let mut sim = Simulator::for_program(&program)?;
//! let run = sim.run(&scenario)?;
//! let n = run.behavior.trace(&"n".into()).unwrap();
//! assert_eq!(n.values(), vec![Value::Int(1), Value::Int(2)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
pub mod engine;
pub mod env;
pub mod error;
pub mod generator;
pub mod ir;
pub mod reactor;
pub mod scenario;
pub mod schedule;
pub mod status;

pub use compile::LowerFailure;
pub use engine::{Run, SimCheckpoint, Simulator};
pub use env::DenseEnv;
pub use error::SimError;
pub use generator::{BurstyInputs, PeriodicInputs, RandomInputs, ScenarioGenerator};
pub use reactor::{Reactor, ReactorState};
pub use scenario::Scenario;
pub use status::Status;
