//! Error type shared by all language passes.

use std::fmt;

use polysig_tagged::{SigName, ValueType};

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors from lexing, parsing, resolution or type checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// An unexpected character in the source text.
    Lex {
        /// Where it was found.
        pos: Pos,
        /// A short description.
        message: String,
    },
    /// A parse error.
    Parse {
        /// Where it was found.
        pos: Pos,
        /// What was expected / found.
        message: String,
    },
    /// An expression nests deeper than the parser accepts (see
    /// [`crate::parser::MAX_EXPR_DEPTH`]).
    TooDeep {
        /// Where the bound was passed.
        pos: Pos,
        /// The bound.
        limit: usize,
    },
    /// A signal is used but never declared.
    UndeclaredSignal {
        /// Component in which the use occurs.
        component: String,
        /// The undeclared name.
        name: SigName,
    },
    /// A signal is defined by more than one equation.
    MultipleDefinitions {
        /// Component in which the conflict occurs.
        component: String,
        /// The doubly defined name.
        name: SigName,
    },
    /// An input signal appears on the left-hand side of an equation.
    InputDefined {
        /// Component in which the violation occurs.
        component: String,
        /// The written input.
        name: SigName,
    },
    /// An output or local signal has no defining equation.
    MissingDefinition {
        /// Component in which the signal was declared.
        component: String,
        /// The undefined name.
        name: SigName,
    },
    /// Two components both output the same signal (single-writer rule of
    /// Definition 7).
    MultipleWriters {
        /// The shared name.
        name: SigName,
        /// The two offending components.
        components: (String, String),
    },
    /// A name is declared twice in one component.
    DuplicateDeclaration {
        /// Component in which the duplicate occurs.
        component: String,
        /// The duplicated name.
        name: SigName,
    },
    /// A type mismatch.
    Type {
        /// Component in which the mismatch occurs.
        component: String,
        /// The offending signal (the equation's LHS).
        signal: SigName,
        /// Expected type.
        expected: ValueType,
        /// Found type.
        found: ValueType,
        /// Where in the expression, informally.
        context: String,
    },
    /// An instantaneous causality cycle (detected by `deps`).
    CausalityCycle {
        /// Component in which the cycle occurs.
        component: String,
        /// The signals on the cycle, in order.
        cycle: Vec<SigName>,
    },
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { pos, message } => write!(f, "lexical error at {pos}: {message}"),
            LangError::Parse { pos, message } => write!(f, "parse error at {pos}: {message}"),
            LangError::TooDeep { pos, limit } => {
                write!(f, "parse error at {pos}: expression nests deeper than {limit} levels")
            }
            LangError::UndeclaredSignal { component, name } => {
                write!(f, "component `{component}`: signal `{name}` is not declared")
            }
            LangError::MultipleDefinitions { component, name } => {
                write!(f, "component `{component}`: signal `{name}` is defined more than once")
            }
            LangError::InputDefined { component, name } => {
                write!(f, "component `{component}`: input signal `{name}` must not be defined")
            }
            LangError::MissingDefinition { component, name } => {
                write!(f, "component `{component}`: signal `{name}` has no defining equation")
            }
            LangError::MultipleWriters { name, components } => write!(
                f,
                "signal `{name}` is written by both `{}` and `{}`",
                components.0, components.1
            ),
            LangError::DuplicateDeclaration { component, name } => {
                write!(f, "component `{component}`: `{name}` is declared twice")
            }
            LangError::Type { component, signal, expected, found, context } => write!(
                f,
                "component `{component}`, equation for `{signal}`: expected {expected}, found {found} ({context})"
            ),
            LangError::CausalityCycle { component, cycle } => {
                write!(f, "component `{component}`: instantaneous causality cycle: ")?;
                for (i, s) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let errors = [
            LangError::Lex { pos: Pos { line: 1, col: 2 }, message: "bad char".into() },
            LangError::Parse { pos: Pos { line: 3, col: 4 }, message: "expected `;`".into() },
            LangError::TooDeep { pos: Pos { line: 5, col: 6 }, limit: 128 },
            LangError::UndeclaredSignal { component: "C".into(), name: "x".into() },
            LangError::MultipleDefinitions { component: "C".into(), name: "x".into() },
            LangError::InputDefined { component: "C".into(), name: "x".into() },
            LangError::MissingDefinition { component: "C".into(), name: "x".into() },
            LangError::MultipleWriters { name: "x".into(), components: ("A".into(), "B".into()) },
            LangError::DuplicateDeclaration { component: "C".into(), name: "x".into() },
            LangError::Type {
                component: "C".into(),
                signal: "x".into(),
                expected: ValueType::Int,
                found: ValueType::Bool,
                context: "left operand of +".into(),
            },
            LangError::CausalityCycle {
                component: "C".into(),
                cycle: vec!["a".into(), "b".into()],
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<LangError>();
    }
}
