//! The native executor: a compiled Monitor IR component on real threads.
//!
//! [`NativeComponent`] runs the same `jcc_vm` instruction stream the VM
//! interprets, with no second lowering and no second evaluator:
//!
//! * every MIR lock is one [`JavaMonitor`], so `synchronized`, `wait` and
//!   `notify` block real OS threads and fire the monitor's own T1–T5;
//! * the fields are one shared slot store, and every instruction that
//!   touches it runs under its mutex, so each field access is atomic, as
//!   one VM step is;
//! * expressions go through [`jcc_vm::value::eval`];
//! * method starts and ends, coverage sites, the `Read`/`Write` of every
//!   field an instruction names, and faults go to the component's
//!   [`EventLog`] in the VM's order, so `CoverageTracker` and the detectors
//!   read a native run as they read a VM trace.
//!
//! A fault releases every lock the call holds, as Java unwinds
//! `synchronized` regions on an exception. A call that executes
//! `RunConfig::default().max_steps` instructions stops there, keeps every
//! lock it holds (the VM's step limit leaves them held too) and parks its
//! thread for good: an endless loop never leaves a busy thread behind.
//!
//! [`run`] is the native counterpart of `Vm::run`: one OS thread per
//! [`ThreadSpec`], run until every thread has finished or none can move.
//! Threads still blocked then stay blocked; the run returns without them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use jcc_petri::event::EventKind;
use jcc_vm::compile::{CompiledComponent, CompiledMethod, Instr, Operand, Site, SiteId};
use jcc_vm::value::{eval, Env, Scope, Slot, Value};
use jcc_vm::{CallResult, CallSpec, RunConfig, RunOutcome, ThreadSpec, Verdict};

use crate::events::{current_thread_id, EventLog};
use crate::lock;
use crate::monitor::{JavaMonitor, MonitorGuard};

/// A compiled component instance whose methods run on the calling OS
/// thread. See the module docs.
#[derive(Debug)]
pub struct NativeComponent {
    component: CompiledComponent,
    /// One monitor per MIR lock, indexed like `CompiledComponent::locks`.
    monitors: Vec<JavaMonitor<()>>,
    /// The field slots, laid out by `CompiledComponent::fields`.
    fields: Mutex<Vec<Slot>>,
    log: EventLog,
    /// Instructions executed so far, by every thread.
    steps: AtomicUsize,
}

impl NativeComponent {
    /// A fresh instance of `component` (fields at their initial values),
    /// with its monitors registered in `log` in lock order.
    pub fn new(component: CompiledComponent, log: &EventLog) -> Self {
        let monitors = component
            .locks
            .iter()
            .map(|name| JavaMonitor::new(name.clone(), log, ()))
            .collect();
        NativeComponent {
            fields: Mutex::new(component.initial.clone()),
            monitors,
            log: log.clone(),
            steps: AtomicUsize::new(0),
            component,
        }
    }

    /// Current value of the named field; `None` when the component has no
    /// such field or it is still unset.
    pub fn field(&self, name: &str) -> Option<Value> {
        let slot = self.component.field_slot(name)?;
        lock(&self.fields)[slot].clone()
    }

    /// Call `method` on the calling thread: the returned value, or the
    /// message of the fault that ended the call. Blocks while the call
    /// blocks, and never returns from a call that spends its step budget.
    pub fn call(&self, method: &str, args: &[Value]) -> Result<Option<Value>, String> {
        self.execute(self.resolve(method, args)?, args, None)
    }

    /// The method a call runs; an unknown method or a wrong argument count
    /// faults the call before it starts, with the VM's messages.
    fn resolve(&self, name: &str, args: &[Value]) -> Result<&CompiledMethod, String> {
        let fault = |message: String| {
            self.log.log(EventKind::Fault {
                message: message.clone(),
            });
            message
        };
        let Some(method) = self.component.method(name) else {
            return Err(fault(format!("no such method `{name}`")));
        };
        if method.params.len() != args.len() {
            return Err(fault(format!(
                "`{name}` expects {} arguments, got {}",
                method.params.len(),
                args.len()
            )));
        }
        Ok(method)
    }

    /// Run one resolved call, reporting what it blocks in to `run`'s
    /// thread `me`, if any: what it returned, or its fault. A call that
    /// spends its step budget never ends.
    fn execute(
        &self,
        method: &CompiledMethod,
        args: &[Value],
        me: Option<(&Board, usize)>,
    ) -> Result<Option<Value>, String> {
        let report = |activity| {
            if let Some((board, i)) = me {
                board.update(i, |w| w.activity = activity);
            }
        };
        let mut locals: Vec<Slot> = vec![None; method.locals.len()];
        for (&slot, arg) in method.param_slots.iter().zip(args) {
            locals[slot] = Some(arg.clone());
        }
        self.log.log(EventKind::MethodStart {
            method: method.name.clone(),
        });
        // One guard per hold of each lock.
        let mut held: Vec<Vec<MonitorGuard<'_, ()>>> =
            self.monitors.iter().map(|_| Vec::new()).collect();
        let mut ret = None;
        let mut pc = 0;
        for _ in 0..RunConfig::default().max_steps {
            self.steps.fetch_add(1, Ordering::Relaxed);
            let mut next = pc + 1;
            let result = match &method.code[pc] {
                Instr::EnterSync { lock, site } => {
                    if let Some(site) = site {
                        self.pass(*site);
                    }
                    report(Activity::Entering(*lock));
                    held[*lock].push(self.monitors[*lock].enter());
                    report(Activity::Running);
                    Ok(())
                }
                Instr::ExitSync { lock, site } => {
                    let owned = self.owned(&held, *lock, "release of", "by non-owner");
                    owned.map(|_| ()).map(|()| {
                        if let Some(site) = site {
                            self.pass(*site);
                        }
                        held[*lock].pop();
                    })
                }
                Instr::Wait { lock, site } => self
                    .owned(&held, *lock, "wait on", "without lock")
                    .map(|guard| {
                        self.pass(*site);
                        report(Activity::Waiting(*lock));
                        guard.wait();
                        report(Activity::Running);
                    }),
                Instr::Notify { lock, all, site } => self
                    .owned(&held, *lock, "notify on", "without lock")
                    .map(|guard| {
                        self.pass(*site);
                        if *all {
                            guard.notify_all();
                        } else {
                            guard.notify();
                        }
                    }),
                Instr::StoreField { slot, value } => {
                    let mut fields = lock(&self.fields);
                    self.eval(&fields, method, &locals, value).map(|v| {
                        self.log.log(EventKind::Write {
                            var: self.component.fields[*slot].clone(),
                        });
                        fields[*slot] = Some(v);
                    })
                }
                Instr::StoreLocal { slot, value } => self
                    .eval(&lock(&self.fields), method, &locals, value)
                    .map(|v| locals[*slot] = Some(v)),
                Instr::JumpIfFalse { cond, target } => self
                    .eval(&lock(&self.fields), method, &locals, cond)
                    .and_then(|v| v.as_bool().map_err(|e| e.message))
                    .map(|holds| {
                        if !holds {
                            next = *target;
                        }
                    }),
                Instr::Jump { target } => {
                    next = *target;
                    Ok(())
                }
                Instr::EvalRet { value } => match value {
                    Some(e) => self
                        .eval(&lock(&self.fields), method, &locals, e)
                        .map(|v| ret = Some(v)),
                    None => Ok(()),
                },
                Instr::Ret => {
                    self.log.log(EventKind::MethodEnd {
                        method: method.name.clone(),
                    });
                    return Ok(ret);
                }
            };
            if let Err(message) = result {
                self.log.log(EventKind::Fault {
                    message: message.clone(),
                });
                // Unwind every hold, lock by lock: the last guard of a
                // lock fires its T4.
                drop(held);
                return Err(message);
            }
            pc = next;
        }
        report(Activity::Parked);
        loop {
            std::thread::park();
        }
    }

    /// The innermost hold of `lock`, or the `IllegalMonitorStateException`
    /// the VM raises for `{action} `lock` {why}`.
    fn owned<'g, 'm>(
        &self,
        held: &'g [Vec<MonitorGuard<'m, ()>>],
        lock: usize,
        action: &str,
        why: &str,
    ) -> Result<&'g MonitorGuard<'m, ()>, String> {
        held[lock].last().ok_or_else(|| {
            let name = &self.component.locks[lock];
            format!("IllegalMonitorStateException: {action} `{name}` {why}")
        })
    }

    /// Log passing the synchronization site `id`.
    fn pass(&self, id: SiteId) {
        let Some(Site::Stmt { method, path, exit }) = self.component.site(id) else {
            unreachable!("instructions name statement sites");
        };
        self.log.log(EventKind::Site {
            method: self.component.methods[*method].name.clone(),
            path: path.clone(),
            exit: *exit,
        });
    }

    /// Log `operand`'s field reads, then evaluate it.
    fn eval(
        &self,
        fields: &[Slot],
        method: &CompiledMethod,
        locals: &[Slot],
        operand: &Operand,
    ) -> Result<Value, String> {
        for &slot in &operand.reads {
            self.log.log(EventKind::Read {
                var: self.component.fields[slot].clone(),
            });
        }
        let env = Env {
            fields: Scope {
                slots: fields,
                names: &self.component.fields,
            },
            locals: Scope {
                slots: locals,
                names: &method.locals,
            },
        };
        eval(&operand.expr, &env).map_err(|e| e.message)
    }

    /// Thread `i` of a run: its calls in order, up to the first fault.
    fn work(&self, board: &Board, i: usize, calls: &[CallSpec]) {
        let (token, log_id) = (current_thread_id(), self.log.thread_id());
        board.update(i, |w| (w.token, w.log_id) = (token, log_id));
        for call in calls {
            let outcome = self.resolve(&call.method, &call.args).and_then(|method| {
                let started_step = self.steps.load(Ordering::Relaxed);
                board.update(i, |w| {
                    w.results.push(CallResult {
                        method: call.method.clone(),
                        started_step,
                        completed_step: None,
                        returned: None,
                    })
                });
                self.execute(method, &call.args, Some((board, i)))
            });
            match outcome {
                Ok(returned) => {
                    let completed = self.steps.load(Ordering::Relaxed);
                    board.update(i, |w| {
                        let last = w.results.last_mut().expect("a started call");
                        last.completed_step = Some(completed);
                        last.returned = returned;
                    });
                }
                Err(message) => {
                    lock(&board.tally).fault.get_or_insert((i, message));
                    break;
                }
            }
        }
        board.update(i, |w| w.activity = Activity::Done);
    }
}

/// Where one thread of a [`run`] is, for the quiescence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Activity {
    #[default]
    Running,
    /// In `enter` on the lock.
    Entering(usize),
    /// In `wait` on the lock.
    Waiting(usize),
    /// Its call spent the step budget.
    Parked,
    /// Finished its calls, or faulted.
    Done,
}

/// One thread of a [`run`], as it reports itself.
#[derive(Debug, Clone, Default)]
struct Worker {
    /// Its OS-thread token (0 until it starts), as monitors know it.
    token: u64,
    /// Its thread id in the event log.
    log_id: u64,
    activity: Activity,
    results: Vec<CallResult>,
}

#[derive(Debug)]
struct Tally {
    workers: Vec<Worker>,
    /// The first fault: thread and message.
    fault: Option<(usize, String)>,
}

/// What a run's threads report to the thread waiting for the run's end.
#[derive(Debug)]
struct Board {
    tally: Mutex<Tally>,
    changed: Condvar,
}

impl Board {
    fn update(&self, i: usize, f: impl FnOnce(&mut Worker)) {
        f(&mut lock(&self.tally).workers[i]);
        self.changed.notify_all();
    }
}

/// How often the waiting thread re-checks a run whose threads have not
/// reported a change: a thread that has just entered `wait` reports
/// nothing more until it is woken.
const POLL: Duration = Duration::from_millis(1);

/// Run `threads` against a fresh instance of `component`, one OS thread
/// per spec, until every thread has finished or none can move — the
/// native counterpart of `Vm::run`, with the outcome in the VM's terms:
///
/// * the trace numbers threads by spec and locks by `component.locks`;
/// * a thread that spent a call's step budget makes the verdict
///   `StepLimit`; otherwise the first fault makes it `Faulted`, and
///   threads left in `wait` or `enter` make it a `Deadlock`;
/// * `steps` counts instructions, and call steps are that count when the
///   call started and returned.
///
/// The run ends at an exact quiescence check: with every monitor frozen,
/// no thread is running, and each thread in `enter` or `wait` needs a lock
/// another thread owns or a notification nobody is left to send. Threads
/// still blocked then stay blocked for the rest of the process.
pub fn run(component: &CompiledComponent, threads: &[ThreadSpec]) -> RunOutcome {
    let log = EventLog::new();
    let native = Arc::new(NativeComponent::new(component.clone(), &log));
    let board = Arc::new(Board {
        tally: Mutex::new(Tally {
            workers: vec![Worker::default(); threads.len()],
            fault: None,
        }),
        changed: Condvar::new(),
    });
    for (i, spec) in threads.iter().enumerate() {
        let (native, board, calls) = (Arc::clone(&native), Arc::clone(&board), spec.calls.clone());
        std::thread::Builder::new()
            .name(spec.name.clone())
            .spawn(move || native.work(&board, i, &calls))
            .expect("spawn a run thread");
    }
    let mut tally = lock(&board.tally);
    let verdict = loop {
        let frozen: Vec<_> = native.monitors.iter().map(JavaMonitor::freeze).collect();
        if let Some(verdict) = quiescent(&tally, &frozen) {
            break verdict;
        }
        drop(frozen);
        tally = board
            .changed
            .wait_timeout(tally, POLL)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    };
    let mut trace = log.snapshot();
    for e in &mut trace {
        e.thread = tally
            .workers
            .iter()
            .position(|w| w.log_id == e.thread)
            .expect("only run threads log") as u64;
        // The fresh log numbered the monitors 1, 2, … in lock order.
        if let EventKind::Transition { lock, .. } | EventKind::Notify { lock, .. } = &mut e.kind {
            *lock -= 1;
        }
    }
    RunOutcome {
        verdict,
        steps: native.steps.load(Ordering::Relaxed),
        trace,
        results: tally.workers.iter().map(|w| w.results.clone()).collect(),
        thread_names: threads.iter().map(|t| t.name.clone()).collect(),
        lock_names: component.locks.clone(),
    }
}

/// The run's verdict if no thread can move again, else `None`.
fn quiescent(tally: &Tally, frozen: &[crate::monitor::Frozen<'_, ()>]) -> Option<Verdict> {
    let (mut waiting, mut blocked, mut parked) = (Vec::new(), Vec::new(), false);
    for (i, w) in tally.workers.iter().enumerate() {
        match w.activity {
            Activity::Running => return None,
            Activity::Done => {}
            Activity::Parked => parked = true,
            Activity::Entering(l) | Activity::Waiting(l) => {
                if !frozen[l].blocks(w.token) {
                    return None;
                }
                if frozen[l].waits(w.token) {
                    waiting.push(i);
                } else {
                    blocked.push(i);
                }
            }
        }
    }
    Some(if parked {
        Verdict::StepLimit
    } else if let Some((thread, message)) = &tally.fault {
        Verdict::Faulted {
            thread: *thread,
            message: message.clone(),
        }
    } else if waiting.is_empty() && blocked.is_empty() {
        Verdict::Completed
    } else {
        Verdict::Deadlock { waiting, blocked }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcc_model::examples::producer_consumer;
    use jcc_petri::Transition;

    fn compiled(source: &str) -> CompiledComponent {
        jcc_vm::compile(&jcc_model::parse_component(source).expect("parses")).expect("compiles")
    }

    fn threads(calls: &[&str]) -> Vec<ThreadSpec> {
        calls
            .iter()
            .enumerate()
            .map(|(i, call)| ThreadSpec {
                name: format!("t{i}"),
                calls: vec![CallSpec::new(*call, vec![])],
            })
            .collect()
    }

    #[test]
    fn guarded_accesses_sit_between_acquire_and_release() {
        let log = EventLog::new();
        let c = jcc_vm::compile(&producer_consumer()).unwrap();
        let pc = NativeComponent::new(c, &log);
        pc.call("send", &[Value::Str("x".into())]).unwrap();
        let kinds: Vec<EventKind> = log.snapshot().into_iter().map(|e| e.kind).collect();
        let acquired = kinds.iter().position(|k| k.acquired().is_some()).unwrap();
        let released = kinds.iter().position(|k| k.released().is_some()).unwrap();
        let accesses: Vec<usize> = (0..kinds.len())
            .filter(|&i| matches!(kinds[i], EventKind::Read { .. } | EventKind::Write { .. }))
            .collect();
        assert_eq!(accesses.len(), 5, "{kinds:?}");
        assert!(
            accesses.iter().all(|&i| acquired < i && i < released),
            "{kinds:?}"
        );
        assert!(matches!(kinds.last(), Some(EventKind::MethodEnd { .. })));
    }

    #[test]
    fn a_run_ends_in_its_deadlock_with_vm_numbering() {
        let c = jcc_vm::compile(&producer_consumer()).unwrap();
        let out = run(&c, &threads(&["receive", "receive"]));
        let (waiting, blocked) = (vec![0, 1], vec![]);
        assert_eq!(out.verdict, Verdict::Deadlock { waiting, blocked });
        assert!(out.results.iter().all(|calls| calls[0].suspended()));
        let t3 = EventKind::Transition {
            t: Transition::T3,
            lock: 0,
        };
        let mut waiters: Vec<u64> = out
            .trace
            .iter()
            .filter(|e| e.kind == t3)
            .map(|e| e.thread)
            .collect();
        waiters.sort_unstable();
        assert_eq!(waiters, [0, 1]);
    }

    #[test]
    fn notify_wakes_one_waiter_and_notify_all_wakes_the_rest() {
        let c = compiled(
            "class Gate { int n = 0;
                          synchronized void pass() { wait(); n = n + 1; }
                          synchronized void one() { notify(); }
                          synchronized void all() { notifyAll(); } }",
        );
        let log = EventLog::new();
        let gate = Arc::new(NativeComponent::new(c, &log));
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || gate.call("pass", &[]))
            })
            .collect();
        let until = |done: &dyn Fn() -> bool| {
            while !done() {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        until(&|| log.count_transition(Transition::T3) == 2);
        gate.call("one", &[]).unwrap();
        until(&|| gate.field("n") == Some(Value::Int(1)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(gate.field("n"), Some(Value::Int(1)), "notify woke both");
        gate.call("all", &[]).unwrap();
        for w in waiters {
            assert_eq!(w.join().unwrap(), Ok(None));
        }
        assert_eq!(gate.field("n"), Some(Value::Int(2)));
    }

    #[test]
    fn a_spent_budget_parks_with_the_lock_held() {
        // poke waits, unsynchronized, until spin holds the lock, then
        // asks for it.
        let c = compiled(
            "class Spin { int started = 0;
                          synchronized void spin() { started = 1; while (true) { Thread.yield(); } }
                          void poke() { while (started == 0) { Thread.yield(); }
                                        synchronized (this) { started = 2; } } }",
        );
        let out = run(&c, &threads(&["spin", "poke"]));
        assert_eq!(out.verdict, Verdict::StepLimit);
        assert!(out.results[0][0].suspended());
        // poke never got the lock: it is still blocked, not running.
        assert!(out.results[1][0].suspended());
        assert!(out.steps >= RunConfig::default().max_steps);
    }

    #[test]
    fn a_fault_unwinds_its_locks_and_ends_its_thread() {
        let c = compiled(
            "class Bad { int n = 0;
                         synchronized void bad() { if (n) { n = 1; } }
                         synchronized void ok() { n = 2; } }",
        );
        let mut specs = threads(&["bad", "ok"]);
        specs[0].calls.push(CallSpec::new("ok", vec![]));
        let out = run(&c, &specs);
        assert!(
            matches!(out.verdict, Verdict::Faulted { thread: 0, .. }),
            "{:?}",
            out.verdict
        );
        assert_eq!(out.results[0].len(), 1, "the faulting thread stops");
        assert!(
            !out.results[1][0].suspended(),
            "the fault released the lock"
        );
        let missing = NativeComponent::new(c, &EventLog::new()).call("gone", &[]);
        assert_eq!(missing, Err("no such method `gone`".to_string()));
    }
}
