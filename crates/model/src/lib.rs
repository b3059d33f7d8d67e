//! # jcc-model — the Monitor IR (MIR): an AST for Java-monitor components
//!
//! The paper's Concurrency Flow Graphs are built from the *statement
//! structure* of a Java component: which statements are concurrency
//! statements (`synchronized` entry/exit, `wait`, `notify`, `notifyAll`) and
//! what code regions lie between them. This crate provides exactly that
//! structure as an AST ([`ast`]), together with:
//!
//! * the Java-subset frontend, the only way to write a component
//!   textually: span-carrying lexer, recovering parser and lowering to the
//!   MIR ([`java`], with [`parse_component`] for one class),
//! * a MIR → Java printer whose output lowers back to the same MIR
//!   ([`pretty`]),
//! * a static validator / type checker ([`validate`]),
//! * mutation operators that seed exactly the failure classes of the paper's
//!   Table 1 ([`mutate`]),
//! * reference component sources used across the workspace ([`examples`]).
//!
//! The interpreter for this IR lives in `jcc-vm`; CoFG extraction lives in
//! `jcc-cofg`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod examples;
pub mod java;
pub mod mutate;
pub mod pretty;
pub mod validate;

pub use ast::{
    BinOp, Block, Component, Expr, Field, LockRef, Method, Param, Stmt, Type, UnOp,
};
pub use mutate::{Mutation, MutationKind};
pub use java::{parse_component, FrontDiag};
pub use validate::{validate, ValidationError};
