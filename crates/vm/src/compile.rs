//! Compilation of Monitor IR methods to a flat instruction list.
//!
//! The VM needs resumable execution (a thread suspends mid-method at `wait`
//! and at lock acquisition), so each method is compiled to straight-line
//! instructions with explicit jumps; a thread's whole continuation is then
//! just a program counter.
//!
//! Compilation also fixes the machine's flat state layout:
//!
//! * every field a component declares or any method mentions gets a
//!   *field slot*, and every parameter and local a method mentions a
//!   *local slot*, so instructions address slots instead of names
//!   ([`SlotExpr`]). A mentioned name nothing ever assigns keeps an unset
//!   slot, which faults as `undefined field` / `undefined local` when
//!   read, exactly as a missing name would;
//! * every coverage context a thread can last have passed (a method's
//!   start or end, a synchronization statement's site) gets a dense
//!   [`SiteId`], which the machine stores as the thread's marker;
//! * every evaluated expression carries the slots of the fields it reads,
//!   so the machine emits `Read` events without walking the expression.

use std::collections::HashMap;

use jcc_model::ast::{Block, Component, Expr, LValue, LockRef, Method, Stmt, Type};

use crate::value::{slot_of, Slot, SlotExpr, Value};

/// Index of a lock within a compiled component. Lock 0 is always `this`.
pub type LockIdx = usize;

/// Dense id of a coverage context: [`CompiledComponent::sites`]`[id - 1]`.
/// Id 0 stands for "no marker passed yet".
pub type SiteId = u32;

/// A coverage context, as the marker a thread last passed. Contexts are
/// keyed by method *name*: a method is named by the index of the first
/// method of its name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Site {
    /// The start of a call to the method.
    Start(usize),
    /// The end of a call to the method.
    End(usize),
    /// A synchronization statement of the method: its statement path and,
    /// for a `synchronized` block, entry or exit.
    Stmt {
        /// The method.
        method: usize,
        /// Statement path within the method body.
        path: Vec<usize>,
        /// True at a `synchronized` block's exit.
        exit: bool,
    },
}

/// An expression an instruction evaluates: slot-resolved, with the fields
/// it reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Operand {
    /// The resolved expression.
    pub expr: SlotExpr,
    /// The slot of every field the expression names, in tree order with
    /// repeats: one `Read` event each, logged before evaluation.
    pub reads: Vec<usize>,
}

impl Operand {
    /// True when the expression is a literal, which the evaluator cannot
    /// fail on and which reads no shared fields.
    fn is_literal(&self) -> bool {
        matches!(self.expr, SlotExpr::Lit(_))
    }
}

/// One VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Acquire `lock` (blocking). Fires T1/T2. `site` is `Some` for explicit
    /// `synchronized` blocks (coverage site), `None` for the implicit
    /// acquisition of a synchronized method.
    EnterSync {
        /// Which lock.
        lock: LockIdx,
        /// Coverage site of an explicit block.
        site: Option<SiteId>,
    },
    /// Release `lock`. Fires T4 on final release.
    ExitSync {
        /// Which lock.
        lock: LockIdx,
        /// Coverage site of an explicit block.
        site: Option<SiteId>,
    },
    /// Java `wait` on `lock`: fires T3, suspends; wake-up fires T5 then T2.
    Wait {
        /// Which lock.
        lock: LockIdx,
        /// Coverage site (always present; `wait` is a statement).
        site: SiteId,
    },
    /// Java `notify`/`notifyAll` on `lock`.
    Notify {
        /// Which lock.
        lock: LockIdx,
        /// Wake all waiters?
        all: bool,
        /// Coverage site.
        site: SiteId,
    },
    /// Assign the value of an expression to a field.
    StoreField {
        /// Field slot.
        slot: usize,
        /// Right-hand side.
        value: Operand,
    },
    /// Assign the value of an expression to a local.
    StoreLocal {
        /// Local slot.
        slot: usize,
        /// Right-hand side.
        value: Operand,
    },
    /// Evaluate `cond`; jump to `target` when it is false.
    JumpIfFalse {
        /// The condition.
        cond: Operand,
        /// Instruction index to jump to.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Instruction index to jump to.
        target: usize,
    },
    /// Evaluate the return value (before any lock releases) into the
    /// thread's return register.
    EvalRet {
        /// The value expression, if the method returns one.
        value: Option<Operand>,
    },
    /// Finish the method call. The return register holds the result.
    Ret,
}

impl Instr {
    /// True when executing this instruction touches only the running
    /// thread's own frame — no lock, wait set, or shared field is read or
    /// written, and the instruction cannot fault. Such a step commutes
    /// with every step of every other thread, which is what the
    /// explorer's ample-set reduction relies on: expanding only this step
    /// from a state cannot hide a deadlock, fault or livelock that some
    /// interleaving would otherwise reach.
    pub fn is_thread_local(&self) -> bool {
        match self {
            Instr::Jump { .. } | Instr::Ret | Instr::EvalRet { value: None } => true,
            Instr::EvalRet { value: Some(e) } | Instr::StoreLocal { value: e, .. } => {
                e.is_literal()
            }
            // Only a literal-`bool` condition: any other expression may
            // read fields or fault on a type error, both of which are
            // visible to other threads or to the verdict.
            Instr::JumpIfFalse { cond, .. } => {
                matches!(cond.expr, SlotExpr::Lit(Value::Bool(_)))
            }
            _ => false,
        }
    }
}

/// A compiled method.
#[derive(Debug, Clone)]
pub struct CompiledMethod {
    /// Method name.
    pub name: String,
    /// Parameter names in order (values supplied per call).
    pub params: Vec<String>,
    /// Parameter types in order.
    pub param_types: Vec<Type>,
    /// Declared return type.
    pub ret: Option<Type>,
    /// Whether the receiver's monitor wraps the whole body.
    pub synchronized: bool,
    /// Local slot names: the parameters, then every other local the body
    /// mentions, each name once.
    pub locals: Vec<String>,
    /// The local slot of each parameter.
    pub param_slots: Vec<usize>,
    /// Site id of the method's start marker.
    pub start_site: SiteId,
    /// Site id of the method's end marker.
    pub end_site: SiteId,
    /// The instruction stream.
    pub code: Vec<Instr>,
}

/// A compiled component: field slots, lock table, coverage sites and
/// methods.
#[derive(Debug, Clone)]
pub struct CompiledComponent {
    /// Component name.
    pub name: String,
    /// Field slot names: the declared fields in order, then every other
    /// field some method mentions, each name once.
    pub fields: Vec<String>,
    /// Initial field slot values: a declared field's initializer; `None`
    /// for an undeclared field.
    pub initial: Vec<Slot>,
    /// Lock names; index 0 is `this`.
    pub locks: Vec<String>,
    /// Every coverage context of the component; site id `k` is
    /// `sites[k - 1]`.
    pub sites: Vec<Site>,
    /// Compiled methods in declaration order.
    pub methods: Vec<CompiledMethod>,
}

impl CompiledComponent {
    /// Find a compiled method by name.
    pub fn method(&self, name: &str) -> Option<&CompiledMethod> {
        self.methods.iter().find(|m| m.name == name)
    }

    /// Index of a method by name.
    pub fn method_index(&self, name: &str) -> Option<usize> {
        self.methods.iter().position(|m| m.name == name)
    }

    /// The slot of a field by name.
    pub fn field_slot(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == name)
    }

    /// The coverage context of a site id (`None` for 0 or out of range).
    pub fn site(&self, id: SiteId) -> Option<&Site> {
        self.sites.get((id as usize).checked_sub(1)?)
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A field initializer was not a constant expression.
    NonConstantInitializer {
        /// The field.
        field: String,
    },
    /// A lock reference did not resolve.
    UnknownLock {
        /// The lock name.
        name: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::NonConstantInitializer { field } => {
                write!(f, "field `{field}` initializer is not constant")
            }
            CompileError::UnknownLock { name } => write!(f, "unknown lock `{name}`"),
        }
    }
}

impl std::error::Error for CompileError {}

/// The component's coverage contexts, each given one id.
#[derive(Default)]
struct SiteTable {
    sites: Vec<Site>,
    /// Where the current method's contexts start in `sites`: at its
    /// `Start`.
    scan_from: usize,
}

impl SiteTable {
    /// Begin a method (named as in [`Site`]): the ids of its start and
    /// end contexts.
    fn method(&mut self, method: usize) -> (SiteId, SiteId) {
        let start = self.sites.iter().position(|s| *s == Site::Start(method));
        self.scan_from = start.unwrap_or_else(|| {
            self.sites.extend([Site::Start(method), Site::End(method)]);
            self.sites.len() - 2
        });
        let start = self.scan_from as SiteId + 1;
        (start, start + 1)
    }

    /// The id of the current method's statement context at `path`.
    fn stmt(&mut self, method: usize, path: &[usize], exit: bool) -> SiteId {
        let known = self.sites[self.scan_from..].iter().position(|s| {
            matches!(s, Site::Stmt { method: m, path: p, exit: e } if (*m, *e) == (method, exit) && p == path)
        });
        let index = known.map_or_else(
            || {
                self.sites.push(Site::Stmt {
                    method,
                    path: path.to_vec(),
                    exit,
                });
                self.sites.len() - 1
            },
            |k| self.scan_from + k,
        );
        index as SiteId + 1
    }
}

/// Compile a component. The component should already pass
/// [`jcc_model::validate`] (except for deliberately seeded mutants, which
/// are still compilable).
pub fn compile(component: &Component) -> Result<CompiledComponent, CompileError> {
    let mut locks = vec!["this".to_string()];
    locks.extend(component.locks.iter().cloned());
    let lock_index: HashMap<&str, usize> = locks
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    let mut fields = Vec::with_capacity(component.fields.len());
    let mut initial = Vec::with_capacity(component.fields.len());
    for f in &component.fields {
        let value = const_eval(&f.init).ok_or_else(|| CompileError::NonConstantInitializer {
            field: f.name.clone(),
        })?;
        // A repeated declaration re-initializes its slot: the last wins.
        let slot = slot_of(&mut fields, &f.name);
        initial.resize(fields.len(), None);
        initial[slot] = Some(value);
    }

    let mut sites = SiteTable::default();
    let mut methods = Vec::with_capacity(component.methods.len());
    for (i, m) in component.methods.iter().enumerate() {
        let key = component.methods[..i]
            .iter()
            .position(|earlier| earlier.name == m.name)
            .unwrap_or(i);
        methods.push(compile_method(
            m,
            key,
            &mut fields,
            &lock_index,
            &mut sites,
        )?);
    }
    initial.resize(fields.len(), None);
    Ok(CompiledComponent {
        name: component.name.clone(),
        fields,
        initial,
        locks,
        sites: sites.sites,
        methods,
    })
}

fn const_eval(e: &Expr) -> Option<Value> {
    match e {
        Expr::Int(n) => Some(Value::Int(*n)),
        Expr::Bool(b) => Some(Value::Bool(*b)),
        Expr::Str(s) => Some(Value::Str(s.as_str().into())),
        Expr::Unary(jcc_model::ast::UnOp::Neg, inner) => match const_eval(inner)? {
            Value::Int(n) => Some(Value::Int(-n)),
            _ => None,
        },
        _ => None,
    }
}

struct MethodCompiler<'a> {
    /// The method, as [`Site`] names it.
    key: usize,
    code: Vec<Instr>,
    lock_index: &'a HashMap<&'a str, usize>,
    fields: &'a mut Vec<String>,
    locals: Vec<String>,
    sites: &'a mut SiteTable,
    /// Explicit sync blocks currently open (for compiling `return`).
    sync_stack: Vec<(LockIdx, Vec<usize>)>,
    synchronized: bool,
}

impl MethodCompiler<'_> {
    fn resolve(&self, lock: &LockRef) -> Result<LockIdx, CompileError> {
        match lock {
            LockRef::This => Ok(0),
            LockRef::Named(n) => self
                .lock_index
                .get(n.as_str())
                .copied()
                .ok_or_else(|| CompileError::UnknownLock { name: n.clone() }),
        }
    }

    fn operand(&mut self, expr: &Expr) -> Operand {
        let mut reads = Vec::new();
        let expr = SlotExpr::resolve(expr, self.fields, &mut self.locals, &mut reads);
        Operand { expr, reads }
    }

    fn site(&mut self, path: &[usize], exit: bool) -> SiteId {
        self.sites.stmt(self.key, path, exit)
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn compile_block(&mut self, block: &Block, path: &mut Vec<usize>) -> Result<(), CompileError> {
        for (i, stmt) in block.iter().enumerate() {
            path.push(i);
            self.compile_stmt(stmt, path)?;
            path.pop();
        }
        Ok(())
    }

    fn compile_stmt(&mut self, stmt: &Stmt, path: &mut Vec<usize>) -> Result<(), CompileError> {
        match stmt {
            Stmt::Wait { lock } => {
                let lock = self.resolve(lock)?;
                let site = self.site(path, false);
                self.emit(Instr::Wait { lock, site });
            }
            Stmt::Notify { lock } | Stmt::NotifyAll { lock } => {
                let lock = self.resolve(lock)?;
                let all = matches!(stmt, Stmt::NotifyAll { .. });
                let site = self.site(path, false);
                self.emit(Instr::Notify { lock, all, site });
            }
            Stmt::Assign { target, value } => {
                let value = self.operand(value);
                match target {
                    LValue::Field(name) => {
                        let slot = slot_of(self.fields, name);
                        self.emit(Instr::StoreField { slot, value });
                    }
                    LValue::Local(name) => {
                        let slot = slot_of(&mut self.locals, name);
                        self.emit(Instr::StoreLocal { slot, value });
                    }
                }
            }
            Stmt::Local { name, init, .. } => {
                let value = self.operand(init);
                let slot = slot_of(&mut self.locals, name);
                self.emit(Instr::StoreLocal { slot, value });
            }
            Stmt::Skip => {}
            Stmt::While { cond, body } => {
                let header = self.code.len();
                let cond = self.operand(cond);
                let jif = self.emit(Instr::JumpIfFalse {
                    cond,
                    target: usize::MAX,
                });
                self.compile_block(body, path)?;
                self.emit(Instr::Jump { target: header });
                let after = self.code.len();
                if let Instr::JumpIfFalse { target, .. } = &mut self.code[jif] {
                    *target = after;
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.operand(cond);
                let jif = self.emit(Instr::JumpIfFalse {
                    cond,
                    target: usize::MAX,
                });
                self.compile_block(then_branch, path)?;
                if else_branch.is_empty() {
                    let after = self.code.len();
                    if let Instr::JumpIfFalse { target, .. } = &mut self.code[jif] {
                        *target = after;
                    }
                } else {
                    let jend = self.emit(Instr::Jump { target: usize::MAX });
                    let else_start = self.code.len();
                    if let Instr::JumpIfFalse { target, .. } = &mut self.code[jif] {
                        *target = else_start;
                    }
                    // Else-branch paths use the offset convention.
                    for (j, s) in else_branch.iter().enumerate() {
                        path.push(jcc_model::ast::ELSE_OFFSET + j);
                        self.compile_stmt(s, path)?;
                        path.pop();
                    }
                    let after = self.code.len();
                    if let Instr::Jump { target } = &mut self.code[jend] {
                        *target = after;
                    }
                }
            }
            Stmt::Synchronized { lock, body } => {
                let lock_idx = self.resolve(lock)?;
                let site = self.site(path, false);
                self.emit(Instr::EnterSync {
                    lock: lock_idx,
                    site: Some(site),
                });
                self.sync_stack.push((lock_idx, path.clone()));
                self.compile_block(body, path)?;
                self.sync_stack.pop();
                let site = self.site(path, true);
                self.emit(Instr::ExitSync {
                    lock: lock_idx,
                    site: Some(site),
                });
            }
            Stmt::Return(value) => {
                let value = value.as_ref().map(|v| self.operand(v));
                self.emit(Instr::EvalRet { value });
                // Release explicit blocks inner → outer, then the method
                // monitor, then finish.
                for k in (0..self.sync_stack.len()).rev() {
                    let (lock, block) = self.sync_stack[k].clone();
                    let site = self.site(&block, true);
                    self.emit(Instr::ExitSync {
                        lock,
                        site: Some(site),
                    });
                }
                if self.synchronized {
                    self.emit(Instr::ExitSync {
                        lock: 0,
                        site: None,
                    });
                }
                self.emit(Instr::Ret);
            }
        }
        Ok(())
    }
}

fn compile_method(
    method: &Method,
    key: usize,
    fields: &mut Vec<String>,
    lock_index: &HashMap<&str, usize>,
    sites: &mut SiteTable,
) -> Result<CompiledMethod, CompileError> {
    let (start_site, end_site) = sites.method(key);
    let mut locals = Vec::with_capacity(method.params.len());
    let param_slots = method
        .params
        .iter()
        .map(|p| slot_of(&mut locals, &p.name))
        .collect();
    let mut mc = MethodCompiler {
        key,
        code: Vec::new(),
        lock_index,
        fields,
        locals,
        sites,
        sync_stack: Vec::new(),
        synchronized: method.synchronized,
    };
    if method.synchronized {
        mc.emit(Instr::EnterSync {
            lock: 0,
            site: None,
        });
    }
    let mut path = Vec::new();
    mc.compile_block(&method.body, &mut path)?;
    // Implicit return at the end of the body.
    mc.emit(Instr::EvalRet { value: None });
    if method.synchronized {
        mc.emit(Instr::ExitSync {
            lock: 0,
            site: None,
        });
    }
    mc.emit(Instr::Ret);
    Ok(CompiledMethod {
        name: method.name.clone(),
        params: method.params.iter().map(|p| p.name.clone()).collect(),
        param_types: method.params.iter().map(|p| p.ty).collect(),
        ret: method.ret,
        synchronized: method.synchronized,
        locals: mc.locals,
        param_slots,
        start_site,
        end_site,
        code: mc.code,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::ast::{stmt_at, walk_paths, StmtPath};
    use jcc_model::examples;
    use std::collections::HashSet;

    #[test]
    fn producer_consumer_compiles() {
        let c = examples::producer_consumer();
        let cc = compile(&c).unwrap();
        assert_eq!(cc.name, "ProducerConsumer");
        assert_eq!(cc.locks, vec!["this"]);
        assert_eq!(cc.fields, ["contents", "totalLength", "curPos"]);
        assert_eq!(cc.initial[0], Some(Value::Str("".into())));
        let receive = cc.method("receive").unwrap();
        assert!(receive.synchronized);
        // Starts by entering the monitor, ends with Ret.
        assert!(matches!(receive.code[0], Instr::EnterSync { lock: 0, .. }));
        assert!(matches!(receive.code.last(), Some(Instr::Ret)));
        // Contains exactly one Wait and one Notify(all).
        let waits = receive
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Wait { .. }))
            .count();
        assert_eq!(waits, 1);
        let notifies = receive
            .code
            .iter()
            .filter(|i| matches!(i, Instr::Notify { all: true, .. }))
            .count();
        assert_eq!(notifies, 1);
    }

    #[test]
    fn while_compiles_to_backward_jump() {
        let c = examples::producer_consumer();
        let cc = compile(&c).unwrap();
        let receive = cc.method("receive").unwrap();
        // Find the JumpIfFalse of the wait loop and the Jump back.
        let jif_pos = receive
            .code
            .iter()
            .position(|i| matches!(i, Instr::JumpIfFalse { .. }))
            .unwrap();
        let jump = receive
            .code
            .iter()
            .find_map(|i| match i {
                Instr::Jump { target } => Some(*target),
                _ => None,
            })
            .unwrap();
        assert_eq!(jump, jif_pos, "loop jumps back to its header");
        // JumpIfFalse target is past the Jump.
        if let Instr::JumpIfFalse { target, .. } = &receive.code[jif_pos] {
            assert!(*target > jif_pos);
        }
    }

    #[test]
    fn return_releases_locks_in_order() {
        let src = r#"
            class R {
              lock a;
              var n: int = 0;
              synchronized fn m() -> int {
                synchronized (a) {
                  return n;
                }
              }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let cc = compile(&c).unwrap();
        let code = &cc.method("m").unwrap().code;
        // …EvalRet, ExitSync(a), ExitSync(this), Ret…
        let evalret = code
            .iter()
            .position(|i| matches!(i, Instr::EvalRet { value: Some(_) }))
            .unwrap();
        assert!(matches!(code[evalret + 1], Instr::ExitSync { lock: 1, .. }));
        assert!(
            matches!(code[evalret + 2], Instr::ExitSync { lock: 0, site: None })
        );
        assert!(matches!(code[evalret + 3], Instr::Ret));
    }

    #[test]
    fn named_locks_indexed_after_this() {
        let c = examples::lock_order_deadlock();
        let cc = compile(&c).unwrap();
        assert_eq!(cc.locks, vec!["this", "a", "b"]);
        let fwd = cc.method("forward").unwrap();
        let enters: Vec<usize> = fwd
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::EnterSync { lock, .. } => Some(*lock),
                _ => None,
            })
            .collect();
        assert_eq!(enters, vec![1, 2]);
        let bwd = cc.method("backward").unwrap();
        let enters: Vec<usize> = bwd
            .code
            .iter()
            .filter_map(|i| match i {
                Instr::EnterSync { lock, .. } => Some(*lock),
                _ => None,
            })
            .collect();
        assert_eq!(enters, vec![2, 1]);
    }

    #[test]
    fn if_else_paths_use_offset_convention() {
        let src = r#"
            class B {
              var ready: bool = false;
              synchronized fn m() {
                if (ready) { notify; } else { notifyAll; }
              }
            }
        "#;
        let c = jcc_model::parse_component(src).unwrap();
        let cc = compile(&c).unwrap();
        let code = &cc.method("m").unwrap().code;
        let notify_paths: Vec<(bool, Vec<usize>)> = code
            .iter()
            .filter_map(|i| match i {
                Instr::Notify { all, site, .. } => match cc.site(*site) {
                    Some(Site::Stmt { path, .. }) => Some((*all, path.clone())),
                    other => panic!("{other:?}"),
                },
                _ => None,
            })
            .collect();
        assert_eq!(notify_paths.len(), 2);
        assert_eq!(notify_paths[0], (false, vec![0, 0]));
        assert_eq!(
            notify_paths[1],
            (true, vec![0, jcc_model::ast::ELSE_OFFSET])
        );
    }

    #[test]
    fn nonconstant_initializer_rejected() {
        // Hand-build a component whose field initializer is a call.
        let mut c = examples::producer_consumer();
        c.fields[0].init = jcc_model::ast::Expr::Call(
            jcc_model::ast::Builtin::Len,
            vec![jcc_model::ast::Expr::Str("x".into())],
        );
        assert!(matches!(
            compile(&c),
            Err(CompileError::NonConstantInitializer { .. })
        ));
    }

    #[test]
    fn all_corpus_and_mutants_compile() {
        for (_name, c) in examples::corpus() {
            compile(&c).unwrap();
            for (_m, mutant) in jcc_model::mutate::all_mutants(&c) {
                compile(&mutant).unwrap();
            }
        }
    }

    #[test]
    fn slots_cover_declared_and_stored_names() {
        let src = r#"
            class S {
              var n: int = 0;
              fn m(x: int) -> int {
                let y: int = x;
                y = y + n;
                return y;
              }
            }
        "#;
        let mut c = jcc_model::parse_component(src).unwrap();
        // A seeded store to an undeclared field still gets a slot, unset
        // until the store runs.
        c.methods[0].body.insert(
            0,
            Stmt::Assign {
                target: LValue::Field("extra".into()),
                value: Expr::Int(1),
            },
        );
        let cc = compile(&c).unwrap();
        assert_eq!(cc.fields, ["n", "extra"]);
        assert_eq!(cc.initial, [Some(Value::Int(0)), None]);
        assert_eq!(cc.field_slot("extra"), Some(1));
        let m = cc.method("m").unwrap();
        assert_eq!(m.locals, ["x", "y"]);
        assert_eq!(m.param_slots, [0]);
        // `y = y + n` reads the local slot and the field slot, and logs
        // the field read.
        let store = m
            .code
            .iter()
            .find_map(|i| match i {
                Instr::StoreLocal { slot: 1, value } if !value.reads.is_empty() => Some(value),
                _ => None,
            })
            .unwrap();
        assert_eq!(store.reads, [0]);
        assert_eq!(
            store.expr,
            SlotExpr::Binary(
                jcc_model::ast::BinOp::Add,
                Box::new(SlotExpr::Local(1)),
                Box::new(SlotExpr::Field(0))
            )
        );
    }

    #[test]
    fn a_return_inside_a_block_exits_through_the_block_site() {
        let src = r#"
            class R {
              lock a;
              var n: int = 0;
              fn m() -> int {
                synchronized (a) {
                  if (n > 0) { return n; }
                }
                return 0;
              }
            }
        "#;
        let cc = compile(&jcc_model::parse_component(src).unwrap()).unwrap();
        let code = &cc.method("m").unwrap().code;
        let exits: Vec<SiteId> = code
            .iter()
            .filter_map(|i| match i {
                Instr::ExitSync { site: Some(s), .. } => Some(*s),
                _ => None,
            })
            .collect();
        // The early return's release and the block's own exit are one
        // coverage context, so they share one id.
        assert_eq!(exits.len(), 2);
        assert_eq!(exits[0], exits[1]);
        let Some(Instr::EnterSync {
            site: Some(enter), ..
        }) = code.first()
        else {
            panic!("{code:?}");
        };
        assert_ne!(*enter, exits[0]);
        let block = |exit| Site::Stmt {
            method: 0,
            path: vec![0],
            exit,
        };
        assert_eq!(cc.site(*enter), Some(&block(false)));
        assert_eq!(cc.site(exits[0]), Some(&block(true)));
        assert_eq!(cc.site(0), None);
    }

    /// Every coverage context of `c`, read off its syntax: each method's
    /// start and end, each `wait`/`notify`/`notifyAll`, and each
    /// `synchronized` block's entry and exit.
    fn contexts(c: &Component) -> HashSet<Site> {
        let mut out = HashSet::new();
        for m in &c.methods {
            let key = method_key(c, &m.name);
            out.insert(Site::Start(key));
            out.insert(Site::End(key));
            walk_paths(&m.body, &mut |stmt, path| {
                let site = |exit| Site::Stmt {
                    method: key,
                    path: path.to_vec(),
                    exit,
                };
                match stmt {
                    Stmt::Wait { .. } | Stmt::Notify { .. } | Stmt::NotifyAll { .. } => {
                        out.insert(site(false));
                    }
                    Stmt::Synchronized { .. } => {
                        out.insert(site(false));
                        out.insert(site(true));
                    }
                    _ => {}
                }
            });
        }
        out
    }

    /// How [`Site`] names the method called `name`.
    fn method_key(c: &Component, name: &str) -> usize {
        c.methods.iter().position(|m| m.name == name).unwrap()
    }

    #[test]
    fn site_ids_are_exact_over_the_corpus_and_the_e11_ladder() {
        let mut components: Vec<Component> =
            examples::corpus().into_iter().map(|(_, c)| c).collect();
        components.extend((1..=4).map(|n| {
            jcc_components::gen::generate(&jcc_components::gen::GenConfig::sized(n, 2024))
        }));
        for c in &components {
            let cc = compile(c).unwrap();
            // One id per context: the table holds every context of the
            // source exactly once, so ids are dense and distinct contexts
            // never share one.
            let table: HashSet<Site> = cc.sites.iter().cloned().collect();
            assert_eq!(table.len(), cc.sites.len(), "{}: a context twice", c.name);
            assert_eq!(table, contexts(c), "{}", c.name);
            // Every id an instruction or method carries names its own
            // context.
            for (m, source) in cc.methods.iter().zip(&c.methods) {
                let key = method_key(c, &m.name);
                assert_eq!(cc.site(m.start_site), Some(&Site::Start(key)));
                assert_eq!(cc.site(m.end_site), Some(&Site::End(key)));
                for instr in &m.code {
                    let (id, exit) = match instr {
                        Instr::EnterSync { site: Some(id), .. } => (*id, false),
                        Instr::ExitSync { site: Some(id), .. } => (*id, true),
                        Instr::Wait { site, .. } | Instr::Notify { site, .. } => (*site, false),
                        _ => continue,
                    };
                    let Some(Site::Stmt {
                        method,
                        path,
                        exit: e,
                    }) = cc.site(id)
                    else {
                        panic!("{}: {instr:?} names {:?}", c.name, cc.site(id));
                    };
                    assert_eq!((*method, *e), (key, exit), "{}: {instr:?}", c.name);
                    let stmt = stmt_at(&source.body, &StmtPath(path.clone()))
                        .unwrap_or_else(|| panic!("{}: no statement at {path:?}", c.name));
                    let kind_matches = matches!(
                        (instr, stmt),
                        (Instr::Wait { .. }, Stmt::Wait { .. })
                            | (Instr::Notify { all: false, .. }, Stmt::Notify { .. })
                            | (Instr::Notify { all: true, .. }, Stmt::NotifyAll { .. })
                            | (
                                Instr::EnterSync { .. } | Instr::ExitSync { .. },
                                Stmt::Synchronized { .. }
                            )
                    );
                    assert!(kind_matches, "{}: {instr:?} at {path:?}", c.name);
                }
            }
        }
    }
}
