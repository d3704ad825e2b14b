//! # `polysig-lang` — a kernel of the Signal polychronous language
//!
//! This crate implements the language layer of the reproduction: the core
//! Signal syntax of the paper's Figure 1 (`pre`, `when`, `default`, pointwise
//! operators), extended with the shorthands the paper itself uses in
//! Example 1 (`^x` clock-of, clock synchronization constraints `x ^= y`,
//! boolean/arithmetic operators, constants).
//!
//! Provided passes:
//!
//! * [`lexer`]/[`parser`] — a small concrete syntax, so programs can be
//!   written as text as well as built programmatically via [`builder`],
//! * [`resolve`] — name/ownership checking (each signal written once, inputs
//!   never written, outputs defined…),
//! * [`types`] — bool/int type inference and checking,
//! * [`clock`] — the clock calculus: derives the synchronization constraints
//!   each operator imposes, groups signals into clock-equivalence classes,
//!   builds the clock-dominance hierarchy and runs an endochrony heuristic,
//! * [`deps`] — instantaneous data dependencies and causality-cycle
//!   detection (`pre` breaks cycles, the other operators do not).
//!
//! The constructive simulator lives in `polysig-sim`; the GALS
//! desynchronization transformation in `polysig-gals`.
//!
//! ## Example
//!
//! ```
//! use polysig_lang::parse_program;
//!
//! let src = r#"
//! process Count {
//!     input tick: bool;
//!     output n: int;
//!     n := (pre 0 n) + (1 when tick);
//! }
//! "#;
//! let program = parse_program(src)?;
//! assert_eq!(program.components.len(), 1);
//! # Ok::<(), polysig_lang::LangError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod clock;
pub mod deps;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod types;

pub use ast::{Binop, Component, Equation, Expr, Program, Role, Statement, Unop};
pub use builder::ComponentBuilder;
pub use clock::{classify_endochrony, const_guard_source, ClockAnalysis, ClockClass, Endochrony};
pub use deps::DependencyGraph;
pub use error::LangError;
pub use parser::{parse_component, parse_expr, parse_program, MAX_EXPR_DEPTH};
pub use pretty::pretty_program;

/// Parses, resolves and type-checks a program in one call.
///
/// # Errors
///
/// Returns the first lexical, syntactic, resolution or type error found.
///
/// ```
/// let p = polysig_lang::check_program("process P { output x: int; x := 1 when true; }")?;
/// assert_eq!(p.components[0].name, "P");
/// # Ok::<(), polysig_lang::LangError>(())
/// ```
pub fn check_program(src: &str) -> Result<Program, LangError> {
    let program = parse_program(src)?;
    resolve::resolve_program(&program)?;
    types::check_program(&program)?;
    Ok(program)
}
