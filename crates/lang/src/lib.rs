//! A small behavioral language front end for the HLS flow.
//!
//! The paper's opening sentence: "High level synthesis accepts a
//! behavioral description, typically a sequential algorithm". This crate
//! provides that entry point: a C-like straight-line language with
//! `if`/`else`, compiled via SSA renaming (inserting `Phi` operations at
//! joins — the paper's Section 1 example of a decision resolvable only
//! after register allocation) into the precedence-graph IR.
//!
//! # Syntax
//!
//! ```text
//! input x, dx, u, y, a;
//! output x1;
//! t1 = 3 * x;
//! if (t1 < a) { s = t1 + u; } else { s = t1 - u; }
//! x1 = s * dx;
//! ```
//!
//! Operators by loosening precedence: `* / <<`, then `+ -`, then
//! `& | ^`, then `< >`. All branches are lowered speculatively into one
//! DFG (superblock style); joins become `Phi` operations fed by the
//! condition and both versions.
//!
//! # Example
//!
//! ```
//! use hls_lang::compile;
//! use hls_ir::DelayModel;
//!
//! let src = "input a, b; output o; o = a * b + 1;";
//! let compiled = compile(src, &DelayModel::classic())?;
//! assert_eq!(compiled.graph.len(), 2); // one mul, one add
//! # Ok::<(), hls_lang::LangError>(())
//! ```

// Source text is adversarial input: every front-end failure mode must
// be a typed `LangError`, never an unwrap (`DESIGN.md` §9).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod ast;
mod lexer;
mod lower;
mod parser;

pub use ast::{BinOp, Block, Expr, Program, Stmt};
pub use lexer::{Lexer, Token, TokenKind};
pub use lower::{Compiled, Value};
pub use parser::parse;

use std::error::Error;
use std::fmt;

/// Errors across all front-end phases, with 1-based source positions
/// where available.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LangError {
    /// Tokenizer rejected a character.
    Lex {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What went wrong.
        msg: String,
    },
    /// Parser rejected the token stream.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What went wrong.
        msg: String,
    },
    /// A name was read before any assignment reaches it.
    Undefined(String),
    /// An `input` variable was assigned.
    AssignToInput(String),
    /// A name was declared twice.
    DuplicateDecl(String),
    /// An `output` variable never received a value.
    OutputNeverAssigned(String),
    /// A front-end invariant broke (a lowering bug, or a panic caught
    /// at the [`compile`] boundary). Never caused by the source text
    /// alone.
    Internal(String),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { line, col, msg } => write!(f, "lex error at {line}:{col}: {msg}"),
            LangError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            LangError::Undefined(n) => write!(f, "use of undefined variable `{n}`"),
            LangError::AssignToInput(n) => write!(f, "assignment to input `{n}`"),
            LangError::DuplicateDecl(n) => write!(f, "duplicate declaration of `{n}`"),
            LangError::OutputNeverAssigned(n) => write!(f, "output `{n}` is never assigned"),
            LangError::Internal(msg) => write!(f, "internal front-end error: {msg}"),
        }
    }
}

impl Error for LangError {}

/// Compiles a behavioral source text into a DFG.
///
/// No panic crosses this boundary: anything unwinding out of a
/// front-end phase is caught and returned as [`LangError::Internal`].
/// (Unbounded recursion is prevented separately by the parser's
/// nesting limit — a stack overflow would abort, not unwind.)
///
/// # Errors
///
/// Any [`LangError`] from lexing, parsing or lowering.
pub fn compile(
    source: &str,
    delays: &hls_ir::DelayModel,
) -> Result<lower::Compiled, LangError> {
    let delays = delays.clone();
    std::panic::catch_unwind(move || {
        let tokens = Lexer::new(source).tokenize()?;
        let program = parser::parse(&tokens)?;
        lower::lower(&program, &delays)
    })
    .unwrap_or_else(|payload| Err(LangError::Internal(hls_ir::panic_message(payload.as_ref()))))
}
