//! Seeded Java inputs: `components::gen` monitors emitted as Java text,
//! optionally with one injected defect, together with the answer each
//! input must produce.
//!
//! The emitter prints a Monitor IR component as Java and records the line
//! of every construct it writes, so the expected `(CheckId, line)` set of
//! a defect is known by construction: the rule for each defect names the
//! construct it plants, and the emitter says where that construct landed.
//! The dynamic answer (failure present or absent, and its Table-1 class)
//! follows from the same construction under `gen::call_plan`, where every
//! thread performs its puts before its takes, so no correct take ever waits.

use std::collections::BTreeSet;

use jcc_core::analyze::CheckId;
use jcc_core::components::gen::{call_plan, generate, GenConfig};
use jcc_core::model::ast::{BinOp, Component, Expr, Field, LValue, LockRef, Method, Stmt, Type};
use jcc_core::vm::{CallSpec, ThreadSpec};

use crate::rng::Rng;

/// The defect planted in a generated monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// No defect.
    Clean,
    /// `fwd` locks `ia` then `ib`, `rev` locks `ib` then `ia`; thread 0
    /// calls `fwd` first and thread 1 calls `rev` first.
    LockInversion,
    /// One `take`'s guard loop is replaced by a bare `wait()`.
    UnconditionalWait,
    /// One `take`'s guard loop is an `if` instead of a `while`.
    WaitInIf,
    /// One `put` loses its `synchronized` modifier, so its `notifyAll()`
    /// runs without the monitor.
    UnsyncedNotify,
}

impl Defect {
    pub const ALL: [Defect; 5] = [
        Defect::Clean,
        Defect::LockInversion,
        Defect::UnconditionalWait,
        Defect::WaitInIf,
        Defect::UnsyncedNotify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Defect::Clean => "clean",
            Defect::LockInversion => "lock-inversion",
            Defect::UnconditionalWait => "unconditional-wait",
            Defect::WaitInIf => "wait-in-if",
            Defect::UnsyncedNotify => "unsynced-notify",
        }
    }

    /// The Table-1 codes `classify_explore` must report for the planted
    /// failure under the call plan, or empty when no schedule can fail.
    /// A wait-in-if take never waits (its guard is always positive when it
    /// runs), so that defect is flagged statically but not reproduced.
    pub fn dynamic_classes(self) -> &'static [&'static str] {
        match self {
            Defect::Clean | Defect::WaitInIf => &[],
            // Both threads block on each other's second lock.
            Defect::LockInversion => &["FF-T2", "FF-T4"],
            // The last waiter is never notified.
            Defect::UnconditionalWait => &["FF-T5"],
            Defect::UnsyncedNotify => {
                unreachable!("validation rejects it before exploration")
            }
        }
    }
}

/// One generated Java input and its known answers.
#[derive(Debug, Clone)]
pub struct JavaInput {
    pub file: String,
    pub text: String,
    pub defect: Defect,
    /// Expected analyzer findings at Medium severity or above.
    pub expect: BTreeSet<(CheckId, u32)>,
    /// The call plan, with the defect's extra calls (if any) in front.
    pub threads: Vec<ThreadSpec>,
}

/// Emit `cfg`'s monitor with `defect` planted at a seeded site.
pub fn generate_java(cfg: &GenConfig, defect: Defect, rng: &mut Rng) -> JavaInput {
    let mut c = generate(cfg);
    let takes: Vec<usize> = method_indices(&c, "take");
    let puts: Vec<usize> = method_indices(&c, "put");
    let mut plan = call_plan(cfg);
    let mut site = None;
    match defect {
        Defect::Clean => {}
        Defect::LockInversion => {
            c.locks.push("ia".into());
            c.locks.push("ib".into());
            c.fields.push(Field {
                name: "inv".into(),
                ty: Type::Int,
                init: Expr::Int(0),
            });
            c.methods.push(nested_sweep("fwd", "ia", "ib"));
            c.methods.push(nested_sweep("rev", "ib", "ia"));
            plan[0].insert(0, "fwd".into());
            if plan.len() < 2 {
                plan.push(Vec::new());
            }
            plan[1].insert(0, "rev".into());
        }
        Defect::UnconditionalWait | Defect::WaitInIf => {
            let m = takes[rng.below(takes.len())];
            let body = &mut c.methods[m].body;
            let Stmt::While {
                cond,
                body: loop_body,
            } = body[0].clone()
            else {
                unreachable!("generated takes open with their guard loop")
            };
            body[0] = if defect == Defect::WaitInIf {
                Stmt::If {
                    cond,
                    then_branch: loop_body,
                    else_branch: Vec::new(),
                }
            } else {
                Stmt::Wait {
                    lock: LockRef::This,
                }
            };
            site = Some(m);
        }
        Defect::UnsyncedNotify => {
            let m = puts[rng.below(puts.len())];
            c.methods[m].synchronized = false;
            site = Some(m);
        }
    }

    let printed = print_java(&c);
    // Every take decrements its guard without notifying, which the
    // analyzer's missed-notification check (Medium) reports at the method.
    let mut expect: BTreeSet<(CheckId, u32)> = takes
        .iter()
        .map(|&m| (CheckId::MissedNotification, printed.method_lines[m]))
        .collect();
    match defect {
        Defect::Clean => {}
        Defect::LockInversion => {
            expect.insert((CheckId::LockOrderCycle, printed.class_line));
        }
        Defect::UnconditionalWait => {
            let m = site.unwrap();
            expect.insert((CheckId::UnconditionalWait, printed.waits[m][0]));
        }
        Defect::WaitInIf => {
            let m = site.unwrap();
            expect.insert((CheckId::WaitNotInLoop, printed.waits[m][0]));
        }
        Defect::UnsyncedNotify => {
            let m = site.unwrap();
            expect.insert((CheckId::MonitorNotHeld, printed.notifies[m][0]));
            // The guard increment is the one write of `g<i>` outside the
            // monitor every other access holds.
            expect.insert((CheckId::UnlockedFieldAccess, printed.first_stmt[m]));
        }
    }

    let threads = plan
        .into_iter()
        .enumerate()
        .map(|(i, calls)| ThreadSpec {
            name: format!("t{i}"),
            calls: calls
                .into_iter()
                .map(|m| CallSpec::new(m, vec![]))
                .collect(),
        })
        .collect();
    JavaInput {
        file: format!("{}_{}.java", c.name, defect.name()),
        text: printed.text,
        defect,
        expect,
        threads,
    }
}

fn method_indices(c: &Component, prefix: &str) -> Vec<usize> {
    c.methods
        .iter()
        .enumerate()
        .filter(|(_, m)| m.name.starts_with(prefix))
        .map(|(i, _)| i)
        .collect()
}

fn nested_sweep(name: &str, outer: &str, inner: &str) -> Method {
    let bump = Stmt::Assign {
        target: LValue::Field("inv".into()),
        value: Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Field("inv".into())),
            Box::new(Expr::Int(1)),
        ),
    };
    Method {
        name: name.into(),
        params: Vec::new(),
        ret: None,
        synchronized: false,
        body: vec![Stmt::Synchronized {
            lock: LockRef::Named(outer.into()),
            body: vec![Stmt::Synchronized {
                lock: LockRef::Named(inner.into()),
                body: vec![bump],
            }],
        }],
    }
}

/// Java text plus the line of every construct a defect rule can name.
struct Printed {
    text: String,
    class_line: u32,
    /// Per method: the line of its declaration.
    method_lines: Vec<u32>,
    /// Per method: the lines of its `wait()` calls, in order.
    waits: Vec<Vec<u32>>,
    /// Per method: the lines of its `notifyAll()` calls.
    notifies: Vec<Vec<u32>>,
    /// Per method: the line of its first body statement.
    first_stmt: Vec<u32>,
}

struct Emitter {
    text: String,
    line: u32,
}

impl Emitter {
    /// Write one line at `depth` levels of indentation; returns its number.
    fn put(&mut self, depth: usize, s: &str) -> u32 {
        for _ in 0..depth {
            self.text.push_str("    ");
        }
        self.text.push_str(s);
        self.text.push('\n');
        self.line += 1;
        self.line
    }
}

/// Print a generated monitor (int fields, nullary void methods) as a Java
/// class in the subset `jcc check` reads.
fn print_java(c: &Component) -> Printed {
    let mut e = Emitter {
        text: String::new(),
        line: 0,
    };
    e.put(0, "package jcc.generated;");
    e.put(0, "");
    e.put(
        0,
        "/** Generated monitor: counting guards, guarded takes, ascending lock sweeps. */",
    );
    let class_line = e.put(0, &format!("public class {} {{", c.name));
    for l in &c.locks {
        e.put(1, &format!("private final Object {l} = new Object();"));
    }
    for f in &c.fields {
        assert_eq!(f.ty, Type::Int, "generated fields are ints");
        e.put(1, &format!("private int {} = {};", f.name, expr(&f.init)));
    }
    let mut waits = Vec::new();
    let mut notifies = Vec::new();
    let mut first_stmt = Vec::new();
    let mut method_lines = Vec::new();
    for m in &c.methods {
        assert!(
            m.params.is_empty() && m.ret.is_none(),
            "generated methods are nullary"
        );
        e.put(0, "");
        let sync = if m.synchronized { "synchronized " } else { "" };
        method_lines.push(e.put(1, &format!("public {sync}void {}() {{", m.name)));
        let mut marks = Marks::default();
        first_stmt.push(e.line + 1);
        block(&mut e, &m.body, 2, &mut marks);
        e.put(1, "}");
        waits.push(marks.waits);
        notifies.push(marks.notifies);
    }
    e.put(0, "}");
    Printed {
        text: e.text,
        class_line,
        method_lines,
        waits,
        notifies,
        first_stmt,
    }
}

#[derive(Default)]
struct Marks {
    waits: Vec<u32>,
    notifies: Vec<u32>,
}

fn block(e: &mut Emitter, stmts: &[Stmt], depth: usize, marks: &mut Marks) {
    for s in stmts {
        stmt(e, s, depth, marks);
    }
}

fn stmt(e: &mut Emitter, s: &Stmt, depth: usize, marks: &mut Marks) {
    match s {
        Stmt::While { cond, body } => {
            e.put(depth, &format!("while ({}) {{", expr(cond)));
            block(e, body, depth + 1, marks);
            e.put(depth, "}");
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } if else_branch.is_empty() => {
            e.put(depth, &format!("if ({}) {{", expr(cond)));
            block(e, then_branch, depth + 1, marks);
            e.put(depth, "}");
        }
        Stmt::Wait {
            lock: LockRef::This,
        } => {
            marks.waits.push(e.put(depth, "wait();"));
        }
        Stmt::NotifyAll {
            lock: LockRef::This,
        } => {
            marks.notifies.push(e.put(depth, "notifyAll();"));
        }
        Stmt::Assign {
            target: LValue::Field(name),
            value,
        } => {
            e.put(depth, &format!("{name} = {};", expr(value)));
        }
        Stmt::Synchronized {
            lock: LockRef::Named(lock),
            body,
        } => {
            e.put(depth, &format!("synchronized ({lock}) {{"));
            block(e, body, depth + 1, marks);
            e.put(depth, "}");
        }
        other => unreachable!("not in generated monitors: {other:?}"),
    }
}

fn expr(x: &Expr) -> String {
    match x {
        Expr::Int(n) => n.to_string(),
        Expr::Var(n) | Expr::Field(n) => n.clone(),
        Expr::Binary(op, l, r) => {
            let op = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Eq => "==",
                other => unreachable!("not in generated monitors: {other:?}"),
            };
            let side = |x: &Expr| match x {
                Expr::Binary(..) => format!("({})", expr(x)),
                _ => expr(x),
            };
            format!("{} {op} {}", side(l), side(r))
        }
        other => unreachable!("not in generated monitors: {other:?}"),
    }
}
